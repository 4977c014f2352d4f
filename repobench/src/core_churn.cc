// core-churn: a steady-churn trace (uniform sizes 1-4096, 64 MiB live,
// about 32k objects) replayed on one thread through the cost-oblivious
// reallocator (eps = 0.25) on a bare AddressSpace. Nearly all its time
// goes to core flushes and to storage moves and index work; none goes to
// the service, durability or db layers.

#include <string>
#include <utility>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "workloads.h"

namespace repobench {
namespace {

constexpr std::uint64_t kLiveVolume = 64ull << 20;
constexpr std::uint64_t kMaxSize = 4096;
/// Timed requests per round, after the preload.
constexpr std::size_t kSteadyOps = 300000;
/// Generated beyond kSteadyOps; covers the growth prefix (about 32.8k
/// inserts at this size range and volume).
constexpr std::size_t kPreloadBound = 40000;
constexpr double kEpsilon = 0.25;

struct Inputs {
  cosr::Trace trace;
  std::size_t preload = 0;  // requests before the first delete
  std::size_t end = 0;      // preload + kSteadyOps
  std::uint64_t final_volume = 0;
};

bool MakeInputs(std::uint64_t seed, Inputs* in) {
  in->trace = cosr::MakeChurnTrace({.operations = kSteadyOps + kPreloadBound,
                                    .target_live_volume = kLiveVolume,
                                    .min_size = 1,
                                    .max_size = kMaxSize,
                                    .seed = seed});
  const auto& requests = in->trace.requests();
  in->preload = 0;
  while (in->preload < requests.size() &&
         requests[in->preload].type == cosr::Request::Type::kInsert) {
    ++in->preload;
  }
  in->end = in->preload + kSteadyOps;
  if (in->end > requests.size()) return false;
  std::vector<std::uint64_t> size_of(requests.size() + 1, 0);
  std::uint64_t volume = 0;
  for (std::size_t i = 0; i < in->end; ++i) {
    const cosr::Request& q = requests[i];
    if (q.type == cosr::Request::Type::kInsert) {
      size_of[q.id] = q.size;
      volume += q.size;
    } else {
      volume -= size_of[q.id];
    }
  }
  in->final_volume = volume;
  return true;
}

/// One set-up plus one timed replay of the steady segment. With a tracer,
/// the storage and core calls run through the span decorators and the
/// round carries the per-layer figures of the timed phase.
Round RunRound(std::uint64_t seed, Tracer* tracer, Report* report) {
  Round round;
  const std::uint64_t start = NowNs();
  Inputs in;
  if (!MakeInputs(seed, &in)) {
    report->Fail("core-churn: trace shorter than preload + steady ops");
    return round;
  }
  round.gen_s = SecondsSince(start);
  const std::uint64_t build_start = NowNs();

  cosr::AddressSpace space;
  TracedSpace traced_space(&space, tracer);
  cosr::Space* surface = tracer != nullptr
                             ? static_cast<cosr::Space*>(&traced_space)
                             : &space;
  FlushTimer flush_timer;  // outlives the algorithm that points to it
  cosr::CostObliviousReallocator algorithm(surface, {.epsilon = kEpsilon});
  if (tracer != nullptr) algorithm.set_flush_listener(&flush_timer);
  TracedReallocator traced_algorithm(&algorithm, tracer);
  cosr::Reallocator* realloc =
      tracer != nullptr ? static_cast<cosr::Reallocator*>(&traced_algorithm)
                        : &algorithm;

  const auto& requests = in.trace.requests();
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < in.preload; ++i) {
    failed += !Apply(realloc, requests[i]).ok();
  }
  round.build_s = SecondsSince(build_start);
  round.setup_s = SecondsSince(start);
  if (tracer != nullptr) {
    tracer->Reset();
    flush_timer.Reset();
  }

  std::vector<std::uint64_t> latency(kSteadyOps);
  const std::uint64_t timed_start = NowNs();
  for (std::size_t i = 0; i < kSteadyOps; ++i) {
    const cosr::Request& q = requests[in.preload + i];
    const std::uint64_t t0 = NowNs();
    const cosr::Status status = Apply(realloc, q);
    latency[i] = NowNs() - t0;
    failed += !status.ok();
  }
  FinishTimedPhase(timed_start, latency, &round);
  report->CountRequests(in.end, failed);

  if (realloc->volume() != in.final_volume ||
      space.live_volume() != in.final_volume) {
    report->Fail("core-churn: final live volume " +
                 std::to_string(space.live_volume()) + " != trace volume " +
                 std::to_string(in.final_volume));
  }
  if (!space.SelfCheck()) report->Fail("core-churn: SelfCheck failed");

  if (tracer != nullptr) {
    Values& v = round.layers;
    v["core.self_s"] = tracer->self_s(kCoreInsert) + tracer->self_s(kCoreDelete);
    v["core.flushes"] = static_cast<double>(flush_timer.flushes());
    v["core.flush_s"] = flush_timer.flush_s();
    StorageSpanValues(*tracer, &v);
  }
  return round;
}

/// The counting pass: RunTrace over the same input, with a cost meter
/// and no clocks. With `recovery` set, the pass also journals every
/// storage event into an in-memory move log, closes it with a synced
/// checkpoint and times the log's recovery, failing `report` when it
/// does not give back the live map.
Values CountingPass(const Inputs& in, RecoveryFigures* recovery,
                    Report* report) {
  const cosr::CostBattery battery = cosr::MakeDefaultBattery();
  cosr::RunOptions run_options;
  run_options.quiesce = false;
  const auto replay = [&](std::size_t count, cosr::SpaceListener* log) {
    cosr::AddressSpace space;
    if (log != nullptr) space.AddListener(log);
    cosr::CostObliviousReallocator algorithm(&space, {.epsilon = kEpsilon});
    const cosr::RunReport run = cosr::RunTrace(
        algorithm, space, TracePrefix(in.trace, count), battery, run_options);
    if (log != nullptr) space.RemoveListener(log);
    return std::make_pair(run, space.Snapshot());
  };

  cosr::MemoryLogSink sink;
  cosr::MoveLog log(&sink);
  const auto [run, live] = replay(in.end, recovery != nullptr ? &log : nullptr);
  Values counts = ReportCounts(run);
  counts["storage.moved_bytes"] = static_cast<double>(
      run.bytes_moved - replay(in.preload, nullptr).first.bytes_moved);
  if (recovery != nullptr) {
    log.LogCheckpoint(1);  // the default policy syncs every checkpoint
    *recovery = TimedRecovery({&sink}, {live}, "core-churn", report);
  }
  return counts;
}

}  // namespace

Values CountCoreChurn(std::uint64_t seed) {
  Inputs in;
  COSR_CHECK(MakeInputs(seed, &in));
  return CountingPass(in, nullptr, nullptr);
}

void RunCoreChurn(const RunOptions& options, Report* report, Values* values) {
  std::vector<Round> plain;
  std::vector<Round> traced;
  Tracer tracer;
  const double rss_mb = RunRounds(options.seconds, [&](int) {
    plain.push_back(RunRound(options.seed, nullptr, report));
    if (options.trace) traced.push_back(RunRound(options.seed, &tracer, report));
  });
  Inputs in;
  COSR_CHECK(MakeInputs(options.seed, &in));
  RecoveryFigures recovery;
  const Values counts = CountingPass(in, &recovery, report);
  if (options.trace) {
    SharedLayerValues(plain, traced, counts, values);
    RecoveryLayerValues(recovery, values);
  } else {
    EndToEndValues(plain, counts, recovery.seconds, rss_mb, values);
  }
}

}  // namespace repobench
