#ifndef REPOBENCH_WORKLOADS_H_
#define REPOBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "cosr/common/status.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/durability/log_sink.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"
#include "cosr/workload/request.h"
#include "cosr/workload/trace.h"
#include "metrics.h"
#include "tracing.h"

namespace repobench {

// Each workload generates its inputs from the seed, then replays them
// through the library; the seed reaches the library only as those inputs.
// Run* fills `values` with the end-to-end metrics (options.trace false) or
// the per-layer metrics (options.trace true) and records output-check
// failures in `report`. Count* runs only the counting pass: one replay of
// the seed's input with a cost meter and no clocks, whose counts repeat
// exactly for a seed (the benchmark's own test checks that).

void RunCoreChurn(const RunOptions& options, Report* report, Values* values);
Values CountCoreChurn(std::uint64_t seed);

void RunDbBlocks(const RunOptions& options, Report* report, Values* values);
Values CountDbBlocks(std::uint64_t seed);

void RunServiceTenants(const RunOptions& options, Report* report,
                       Values* values);
Values CountServiceTenants(std::uint64_t seed);

/// One set-up plus one timed phase of a workload.
struct Round {
  double gen_s = 0;    // input generation
  double build_s = 0;  // construction and preload
  double setup_s = 0;  // round start to the first timed request
  double timed_s = 0;
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  double recovery_s = 0;  // db-blocks: RecoverFile of every shard's log
  Values layers;  // per-layer figures of a traced round
};

/// Closes a timed phase of `latency.size()` requests that began at
/// `start_ns`: its seconds, throughput and latency quantiles.
void FinishTimedPhase(std::uint64_t start_ns,
                      std::vector<std::uint64_t>& latency, Round* round);

double MedianOf(const std::vector<Round>& rounds, double Round::*field);

/// The end-to-end metrics: medians over the untraced rounds, the counting
/// pass's deterministic counts, the recovery time and the peak RSS.
void EndToEndValues(const std::vector<Round>& plain, const Values& counts,
                    double recovery_s, double rss_mb, Values* values);

/// The per-layer metrics every workload reports the same way: medians of
/// the traced rounds' layers, the per-layer counts of the counting pass,
/// generation and build times of the untraced rounds, and the tracing
/// overhead (untraced over traced throughput).
void SharedLayerValues(const std::vector<Round>& plain,
                       const std::vector<Round>& traced, const Values& counts,
                       Values* values);

/// The storage.* span totals of a traced phase.
void StorageSpanValues(const Tracer& tracer, Values* values);

/// Issues one trace request through the public Reallocator interface.
cosr::Status Apply(cosr::Reallocator* realloc, const cosr::Request& request);

/// The first `count` requests of `trace`.
cosr::Trace TracePrefix(const cosr::Trace& trace, std::size_t count);

/// The id -> extent map of one space, as Space::Snapshot returns it.
using ExtentMap = std::vector<std::pair<cosr::ObjectId, cosr::Extent>>;

/// What the recovery of a workload's move logs measured.
struct RecoveryFigures {
  double seconds = 0;         // wall time to recover every log
  std::uint64_t records = 0;  // records replayed over all logs
};

/// Recovers each in-memory move log (`logs[i]`, ending in a synced
/// checkpoint) into a fresh unmanaged space with
/// RecoveryManager::Recover, nine times over. Returns the median of the
/// nine totals. Fails `report` when a log does not recover or its map
/// differs from `expected[i]`.
RecoveryFigures TimedRecovery(
    const std::vector<const cosr::MemoryLogSink*>& logs,
    const std::vector<ExtentMap>& expected, const std::string& workload,
    Report* report);

/// recovery.records_replayed and recovery.records_per_s.
void RecoveryLayerValues(const RecoveryFigures& recovery, Values* values);

/// The counting pass's counts from a RunTrace report: footprint_ratio_peak
/// (peak reserved footprint / peak live volume), write_amp ((bytes placed
/// + bytes moved) / bytes placed), max_op_write_bytes (the linear
/// max_op_cost) and one cost.ratio.<fn> per battery function.
Values ReportCounts(const cosr::RunReport& run);

}  // namespace repobench

#endif  // REPOBENCH_WORKLOADS_H_
