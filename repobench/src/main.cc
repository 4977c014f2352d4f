// The benchmark binary. Usage:
//   repobench --workload <core-churn|db-blocks|service-tenants>
//             --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//   repobench --counts --workload <name> --seed <n>
// The first form prints the result JSON as its last line and exits 1 when
// an output check failed; the second prints the counting pass's
// deterministic counts as one JSON object.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "metrics.h"
#include "workloads.h"

namespace repobench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: repobench --workload <core-churn|db-blocks|"
               "service-tenants> --seed <n> [--seconds <s>] [--trace <0|1>] "
               "[--scratch <dir>] [--counts]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool counts_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--counts") {
      counts_only = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--scratch" && has_value) {
      options.scratch_dir = argv[++i];
    } else {
      return Usage();
    }
  }

  using RunFn = void (*)(const RunOptions&, Report*, Values*);
  using CountFn = Values (*)(std::uint64_t);
  RunFn run = nullptr;
  CountFn count = nullptr;
  if (workload == "core-churn") {
    run = RunCoreChurn;
    count = CountCoreChurn;
  } else if (workload == "db-blocks") {
    run = RunDbBlocks;
    count = CountDbBlocks;
  } else if (workload == "service-tenants") {
    run = RunServiceTenants;
    count = CountServiceTenants;
  } else {
    return Usage();
  }

  if (counts_only) {
    const Values counts = count(options.seed);
    std::printf("{");
    const char* sep = "";
    for (const auto& [name, value] : counts) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
      sep = ", ";
    }
    std::printf("}\n");
    return 0;
  }

  Report report;
  Values values;
  run(options, &report, &values);
  for (const MetricDef& def :
       options.trace ? PerLayerMetrics() : EndToEndMetrics()) {
    const auto it = values.find(def.name);
    if (it != values.end()) {
      report.Add(def.name, it->second, def.unit);
    } else if (options.trace) {
      report.Add(def.name, 0.0, def.unit);  // layer not on this path
    } else {
      report.Fail(std::string("missing end-to-end metric ") + def.name);
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace repobench

int main(int argc, char** argv) { return repobench::Main(argc, argv); }
