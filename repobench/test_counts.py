#!/usr/bin/env python3
"""The benchmark's own test: deterministic counts repeat for a seed.

Usage (from the repository root):
    python3 repobench/test_counts.py

For every workload, runs the counting pass (footprint_ratio_peak,
write_amp, max_op_write_bytes and the cost ratios) twice with one seed and
once with another. Passes when the two same-seed runs agree exactly and
the other seed changes the counts. Exits 1 on failure.
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the source tree free of __pycache__
import run  # noqa: E402


def counts(binary, workload, seed):
    out = subprocess.run(
        [binary, "--counts", "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    binary = run.build()
    ok = True
    for workload in run.WORKLOADS:
        first = counts(binary, workload, 1)
        again = counts(binary, workload, 1)
        other = counts(binary, workload, 2)
        if first != again:
            ok = False
            print("FAIL %s: seed 1 counts differ between runs: %s vs %s" %
                  (workload, first, again))
        changed = sorted(k for k in first if first[k] != other.get(k))
        if not changed:
            ok = False
            print("FAIL %s: seed 2 gives the same counts as seed 1" % workload)
        print("%s: %d counts repeat for seed 1; seed 2 changes %s" %
              (workload, len(first), ", ".join(changed)))
    print("PASS" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
