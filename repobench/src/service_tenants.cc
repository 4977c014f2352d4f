// service-tenants: a multi-tenant-skew trace (64 MiB live, 3 heavy and 64
// light tenants) submitted by one producer thread through OpBuffer /
// SubmitMany into a ConcurrentShardedReallocator: K = 8 shards, W = 2
// workers, hash routing, the remote-batched path, first-fit shards, so
// three threads in all. The inner algorithm is cheap, so routing, remote
// queue delivery, worker drain and the producer path take a large share
// of the time. One producer keeps the per-shard op order, and with it
// every count, deterministic.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/durability/log_sink.h"
#include "cosr/durability/move_log.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/op_buffer.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"
#include "workloads.h"

namespace repobench {
namespace {

constexpr std::uint64_t kLiveVolume = 64ull << 20;
constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kWorkers = 2;
/// The heavy tenants share one base size (their objects spread +-25%
/// around it). With a drawn base per tenant the largest request, and the
/// max_op_write_bytes it sets, would swing by +-40% with the seed.
constexpr std::uint64_t kHeavyBaseSize = 16384;
/// Timed requests per round, after the preload.
constexpr std::size_t kSteadyOps = 1000000;
/// Generated beyond kSteadyOps; covers the growth prefix (about 80k
/// requests: the heavy tenants' volume first, then the light churn's).
constexpr std::size_t kPreloadBound = 150000;

struct Inputs {
  cosr::Trace trace;
  std::size_t preload = 0;  // requests until the live volume first
                            // reaches its target
  std::size_t end = 0;      // preload + kSteadyOps
  std::uint64_t final_volume = 0;
};

bool MakeInputs(std::uint64_t seed, Inputs* in) {
  in->trace = cosr::MakeMultiTenantTrace(
      {.operations = kSteadyOps + kPreloadBound,
       .target_live_volume = kLiveVolume,
       .heavy_tenants = 3,
       .light_tenants = 64,
       .heavy_min_size = kHeavyBaseSize,
       .heavy_max_size = kHeavyBaseSize,
       .seed = seed});
  const auto& requests = in->trace.requests();
  std::vector<std::uint64_t> size_of(requests.size() + 1, 0);
  std::uint64_t volume = 0;
  in->preload = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (in->preload == 0 && volume >= kLiveVolume) {
      in->preload = i;
      in->end = i + kSteadyOps;
      if (in->end > requests.size()) return false;
    }
    if (in->preload != 0 && i == in->end) break;
    const cosr::Request& q = requests[i];
    if (q.type == cosr::Request::Type::kInsert) {
      size_of[q.id] = q.size;
      volume += q.size;
    } else {
      volume -= size_of[q.id];
    }
  }
  in->final_volume = volume;
  return in->preload != 0;
}

cosr::ReallocatorSpec InnerSpec() {
  cosr::ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  return spec;
}

/// Per-shard end state: the counting pass's, which every timed round's
/// concurrent facade must reproduce shard for shard.
struct ShardCounts {
  std::vector<std::uint64_t> volume;
  std::vector<std::uint64_t> reserved;
  std::vector<std::uint64_t> peak_reserved;
  bool operator==(const ShardCounts& other) const {
    return volume == other.volume && reserved == other.reserved &&
           peak_reserved == other.peak_reserved;
  }
};

/// The counting pass: RunTrace over the same requests, on one thread,
/// through the sync facade at K = 8 (whose placements the concurrent
/// facade matches shard for shard under hash routing), with a cost meter
/// and no clocks. With `recovery` set, each shard's events are also
/// journaled into an in-memory move log through the RangeScopedListener
/// the sync facade uses for per-shard logs; every log is closed with a
/// synced checkpoint and their recovery is timed, failing `report` when
/// a shard's map does not come back.
Values CountingPass(const Inputs& in, ShardCounts* shard_counts,
                    RecoveryFigures* recovery, Report* report) {
  cosr::AddressSpace root;
  cosr::ShardedReallocator::Options facade_options;
  facade_options.shard_count = kShards;
  facade_options.routing = cosr::RoutingPolicy::kHashId;
  std::unique_ptr<cosr::ShardedReallocator> sharded;
  COSR_CHECK_OK(cosr::ShardedReallocator::Make(InnerSpec(), facade_options,
                                               &root, &sharded));
  std::vector<std::unique_ptr<cosr::MemoryLogSink>> sinks;
  std::vector<std::unique_ptr<cosr::MoveLog>> logs;
  std::vector<std::unique_ptr<cosr::RangeScopedListener>> scopes;
  for (std::uint32_t s = 0; recovery != nullptr && s < kShards; ++s) {
    const cosr::SubSpaceView& view = sharded->shard_view(s);
    sinks.push_back(std::make_unique<cosr::MemoryLogSink>());
    logs.push_back(std::make_unique<cosr::MoveLog>(sinks.back().get()));
    scopes.push_back(std::make_unique<cosr::RangeScopedListener>(
        logs.back().get(), view.base(), view.base() + view.span()));
    root.AddListener(scopes.back().get());
  }

  shard_counts->peak_reserved.assign(kShards, 0);
  cosr::RunOptions run_options;
  run_options.quiesce = false;
  run_options.periodic_every = 1;
  run_options.periodic = [&] {
    for (std::uint32_t s = 0; s < kShards; ++s) {
      std::uint64_t& peak = shard_counts->peak_reserved[s];
      peak = std::max(peak, sharded->shard(s).reserved_footprint());
    }
  };
  const cosr::RunReport run =
      cosr::RunTrace(*sharded, root, TracePrefix(in.trace, in.end),
                     cosr::MakeDefaultBattery(), run_options);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    shard_counts->volume.push_back(sharded->shard(s).volume());
    shard_counts->reserved.push_back(sharded->shard(s).reserved_footprint());
  }

  if (recovery != nullptr) {
    const ExtentMap live = root.Snapshot();
    std::vector<const cosr::MemoryLogSink*> streams;
    std::vector<ExtentMap> expected(kShards);
    for (std::uint32_t s = 0; s < kShards; ++s) {
      root.RemoveListener(scopes[s].get());
      logs[s]->LogCheckpoint(1);  // the default policy syncs every checkpoint
      streams.push_back(sinks[s].get());
      const cosr::SubSpaceView& view = sharded->shard_view(s);
      for (const auto& entry : live) {
        if (entry.second.offset >= view.base() &&
            entry.second.offset < view.base() + view.span()) {
          expected[s].push_back(entry);
        }
      }
    }
    *recovery = TimedRecovery(streams, expected, "service-tenants", report);
  }
  return ReportCounts(run);
}

/// One set-up and one timed submission of the steady segment through the
/// concurrent facade. The timed phase ends when the final Flush returns.
/// Appends the facade's per-shard end state to `observed`.
Round RunRound(std::uint64_t seed, std::vector<ShardCounts>* observed,
               Tracer* tracer, Report* report) {
  Round round;
  const std::uint64_t start = NowNs();
  Inputs in;
  if (!MakeInputs(seed, &in)) {
    report->Fail("service-tenants: trace shorter than preload + steady ops");
    return round;
  }
  round.gen_s = SecondsSince(start);
  const std::uint64_t build_start = NowNs();

  cosr::ConcurrentShardedReallocator::Options facade_options;
  facade_options.shard_count = kShards;
  facade_options.worker_threads = kWorkers;
  facade_options.routing = cosr::RoutingPolicy::kHashId;
  facade_options.submit_path = cosr::SubmitPath::kRemoteBatched;
  std::unique_ptr<cosr::ConcurrentShardedReallocator> facade;
  COSR_CHECK_OK(cosr::ConcurrentShardedReallocator::Make(
      InnerSpec(), facade_options, &facade));
  cosr::OpBuffer buffer(facade.get());
  const auto& requests = in.trace.requests();
  std::uint64_t rejected = 0;
  for (std::size_t i = 0; i < in.preload; ++i) {
    rejected += !buffer.Add(requests[i]).ok();
  }
  rejected += !buffer.Flush().ok();
  facade->Flush();
  round.build_s = SecondsSince(build_start);
  round.setup_s = SecondsSince(start);

  cosr::ShardStats before;
  if (tracer != nullptr) {
    tracer->Reset();
    before = facade->Stats();
  }
  std::vector<std::uint64_t> latency(kSteadyOps);
  const std::uint64_t timed_start = NowNs();
  for (std::size_t i = 0; i < kSteadyOps; ++i) {
    const cosr::Request& q = requests[in.preload + i];
    const std::uint64_t t0 = NowNs();
    cosr::Status status;
    {
      Span span(tracer, kServiceSubmit);
      status = buffer.Add(q);
    }
    latency[i] = NowNs() - t0;
    rejected += !status.ok();
  }
  {
    Span span(tracer, kServiceSubmit);
    rejected += !buffer.Flush().ok();
  }
  {
    Span span(tracer, kServiceDrain);
    facade->Flush();
  }
  FinishTimedPhase(timed_start, latency, &round);

  const cosr::ShardStats stats = facade->Stats();
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t ops_max = 0;
  ShardCounts& state = observed->emplace_back();
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto& shard = stats.shards[s];
    ops += shard.ops;
    failed += shard.failed_ops + shard.dropped_ops;
    ops_max = std::max(ops_max, shard.ops);
    state.volume.push_back(shard.volume);
    state.reserved.push_back(shard.reserved_footprint);
    state.peak_reserved.push_back(shard.peak_reserved_footprint);
  }
  failed += buffer.stats().ops_not_enqueued;
  report->CountRequests(in.end, failed + rejected);
  if (ops != in.end || failed != 0 || rejected != 0) {
    report->Fail("service-tenants: " + std::to_string(ops) + " shard ops for " +
                 std::to_string(in.end) + " requests, " +
                 std::to_string(failed + rejected) + " failed or dropped");
  }
  if (facade->volume() != in.final_volume) {
    report->Fail("service-tenants: final volume " +
                 std::to_string(facade->volume()) + " != trace volume " +
                 std::to_string(in.final_volume));
  }
  if (tracer != nullptr) {
    Values& v = round.layers;
    v["service.submit_s"] = tracer->total_s(kServiceSubmit);
    v["service.drain_wait_s"] = tracer->total_s(kServiceDrain);
    v["service.queue_wait_p50_us"] =
        stats.latency_queue_wait.Percentile(0.50) / 1e3;
    v["service.service_p50_us"] = stats.latency_service.Percentile(0.50) / 1e3;
    v["service.service_p99_us"] = stats.latency_service.Percentile(0.99) / 1e3;
    v["service.worker_busy_frac"] =
        static_cast<double>(stats.latency_service.sum -
                            before.latency_service.sum) *
        1e-9 / (kWorkers * round.timed_s);
    std::uint64_t batches = 0;
    std::uint64_t batched_ops = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      batches += stats.shards[s].remote_batches - before.shards[s].remote_batches;
      batched_ops += stats.shards[s].batched_ops - before.shards[s].batched_ops;
    }
    v["service.ops_per_remote_batch"] =
        static_cast<double>(batched_ops) / static_cast<double>(batches);
    v["service.shard_ops_max_over_mean"] =
        static_cast<double>(ops_max) * kShards / static_cast<double>(ops);
  }
  return round;
}

/// A single-threaded replay of the preload (untimed) and the steady
/// segment (timed) through `realloc`: the rungs below the concurrent
/// facade. Returns the steady segment's seconds.
double ReplayRung(const Inputs& in, cosr::Reallocator* realloc,
                  Tracer* tracer, Report* report) {
  const auto& requests = in.trace.requests();
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < in.preload; ++i) {
    failed += !Apply(realloc, requests[i]).ok();
  }
  if (tracer != nullptr) tracer->Reset();
  const std::uint64_t start = NowNs();
  for (std::size_t i = in.preload; i < in.end; ++i) {
    failed += !Apply(realloc, requests[i]).ok();
  }
  const double seconds = SecondsSince(start);
  report->CountRequests(in.end, failed);
  if (realloc->volume() != in.final_volume) {
    report->Fail(std::string("service-tenants rung ") + realloc->name() +
                 ": final volume differs from the trace");
  }
  return seconds;
}

/// The rungs: plain first-fit on one thread (untraced, then traced for
/// alloc.self_s and the storage spans) and the sync facade at K = 8.
Values RunRungs(const Inputs& in, Tracer* tracer, Report* report) {
  Values v;
  {
    cosr::AddressSpace space;
    std::unique_ptr<cosr::Reallocator> bare;
    COSR_CHECK_OK(cosr::MakeReallocator(InnerSpec(), &space, &bare));
    v["service.rung.bare_s"] = ReplayRung(in, bare.get(), nullptr, report);
  }
  {
    cosr::AddressSpace root;
    cosr::ShardedReallocator::Options facade_options;
    facade_options.shard_count = kShards;
    facade_options.routing = cosr::RoutingPolicy::kHashId;
    std::unique_ptr<cosr::ShardedReallocator> sharded;
    COSR_CHECK_OK(cosr::ShardedReallocator::Make(InnerSpec(), facade_options,
                                                 &root, &sharded));
    v["service.rung.sync_k8_s"] =
        ReplayRung(in, sharded.get(), nullptr, report);
  }
  {
    cosr::AddressSpace space;
    TracedSpace traced_space(&space, tracer);
    std::unique_ptr<cosr::Reallocator> bare;
    COSR_CHECK_OK(cosr::MakeReallocator(InnerSpec(), &traced_space, &bare));
    TracedReallocator traced_bare(bare.get(), tracer);
    ReplayRung(in, &traced_bare, tracer, report);
    v["alloc.self_s"] =
        tracer->self_s(kCoreInsert) + tracer->self_s(kCoreDelete);
    StorageSpanValues(*tracer, &v);
  }
  return v;
}

}  // namespace

Values CountServiceTenants(std::uint64_t seed) {
  Inputs in;
  COSR_CHECK(MakeInputs(seed, &in));
  ShardCounts shard_counts;
  return CountingPass(in, &shard_counts, nullptr, nullptr);
}

void RunServiceTenants(const RunOptions& options, Report* report,
                       Values* values) {
  Inputs in;
  if (!MakeInputs(options.seed, &in)) {
    report->Fail("service-tenants: trace shorter than preload + steady ops");
    return;
  }
  std::vector<Round> plain;
  std::vector<Round> traced;
  std::vector<ShardCounts> observed;
  Tracer tracer;
  const double rss_mb = RunRounds(options.seconds, [&](int) {
    plain.push_back(RunRound(options.seed, &observed, nullptr, report));
    if (!options.trace) return;
    Round round = RunRound(options.seed, &observed, &tracer, report);
    for (const auto& [name, value] : RunRungs(in, &tracer, report)) {
      round.layers[name] = value;
    }
    traced.push_back(std::move(round));
  });

  ShardCounts expected;
  RecoveryFigures recovery;
  const Values counts = CountingPass(in, &expected, &recovery, report);
  for (const ShardCounts& state : observed) {
    if (!(state == expected)) {
      report->Fail("service-tenants: per-shard state differs from the sync "
                   "facade's replay of the same trace");
      break;
    }
  }
  if (options.trace) {
    SharedLayerValues(plain, traced, counts, values);
    RecoveryLayerValues(recovery, values);
  } else {
    EndToEndValues(plain, counts, recovery.seconds, rss_mb, values);
  }
}

}  // namespace repobench
