// db-blocks: the paper's TokuDB case. A BlockTranslationLayer sits over a
// sync ShardedReallocator (K = 4, hash routing, checkpointed shards); each
// shard journals into a file-backed MoveLog with a fixed group-commit
// policy (an fsync every 32 checkpoints, compaction past 16 MiB). The run
// preloads 16,384 blocks of 512-16,384 bytes, serves a 90% Lookup / 10%
// Put mix over Zipf-popular block names, then checkpoints every shard,
// syncs every log and recovers each shard's log into a fresh space. It is
// the only workload that runs db, durability, recovery, the
// CheckpointManager and the sync facade.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/common/random.h"
#include "cosr/core/size_class_layout.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/db/block_translation_layer.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "workloads.h"

namespace repobench {
namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kBlocks = 16384;
constexpr std::uint64_t kMinBlockSize = 512;
constexpr std::uint64_t kMaxBlockSize = 16384;
/// Timed calls per round, after the preload.
constexpr std::size_t kCalls = 1000000;
constexpr double kPutShare = 0.10;
constexpr double kZipfS = 1.1;

cosr::GroupCommitPolicy LogPolicy() {
  cosr::GroupCommitPolicy policy;
  policy.max_unsynced_checkpoints = 32;
  policy.compaction_threshold_bytes = 16ull << 20;
  return policy;
}

struct Call {
  bool put = false;
  std::uint32_t name = 0;
  /// Put: the new size. Lookup: the size last put for the block, which
  /// the returned extent must have.
  std::uint32_t size = 0;
};

struct Inputs {
  std::vector<Call> preload;
  std::vector<Call> calls;
  std::uint64_t put_bytes = 0;  // every byte the Puts write, preload included
};

Inputs MakeInputs(std::uint64_t seed) {
  Inputs in;
  cosr::Rng rng(seed);
  cosr::ZipfDistribution popularity(kBlocks, kZipfS);
  std::vector<std::uint32_t> size_of(kBlocks + 1, 0);
  const auto draw_size = [&] {
    return static_cast<std::uint32_t>(
        rng.UniformRange(kMinBlockSize, kMaxBlockSize));
  };
  for (std::uint32_t name = 1; name <= kBlocks; ++name) {
    size_of[name] = draw_size();
    in.preload.push_back({true, name, size_of[name]});
    in.put_bytes += size_of[name];
  }
  in.calls.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const auto name = static_cast<std::uint32_t>(popularity.Sample(rng));
    if (rng.Bernoulli(kPutShare)) {
      size_of[name] = draw_size();
      in.put_bytes += size_of[name];
      in.calls.push_back({true, name, size_of[name]});
    } else {
      in.calls.push_back({false, name, size_of[name]});
    }
  }
  return in;
}

/// The hub's running totals (all zero without a hub).
struct HubTotals {
  double records = 0;
  double syncs = 0;
  double sync_s = 0;
  double compactions = 0;
};

HubTotals ReadHubTotals(const cosr::DurabilityHub* hub) {
  HubTotals totals;
  if (hub != nullptr) {
    totals.records = static_cast<double>(hub->total_records());
    totals.syncs = static_cast<double>(hub->total_syncs());
    totals.sync_s = hub->total_sync_wall_seconds();
    totals.compactions = static_cast<double>(hub->total_compactions());
  }
  return totals;
}

std::uint64_t SnapshotCount(const cosr::ShardedReallocator& sharded) {
  std::uint64_t checkpoints = 0;
  for (const auto& shard : sharded.Stats().shards) {
    checkpoints += shard.checkpoints;
  }
  return checkpoints;
}

/// One set-up, one timed replay of the call mix, then the final
/// checkpoint, sync and timed recovery. `with_log` false drops the
/// durability hub (the durability rung); a tracer routes the calls through
/// the span decorators.
Round RunRound(std::uint64_t seed, bool with_log, Tracer* tracer,
               const std::string& log_prefix, Report* report) {
  Round round;
  const std::uint64_t start = NowNs();
  const Inputs in = MakeInputs(seed);
  round.gen_s = SecondsSince(start);
  const std::uint64_t build_start = NowNs();

  std::vector<std::string> log_paths;
  {
    std::unique_ptr<cosr::DurabilityHub> hub;
    if (with_log) {
      cosr::DurabilityHub::Options hub_options;
      hub_options.sink_kind = cosr::DurabilityHub::SinkKind::kFile;
      hub_options.file_prefix = log_prefix;
      hub_options.group_commit = LogPolicy();
      hub = std::make_unique<cosr::DurabilityHub>(hub_options);
    }
    cosr::AddressSpace root;
    TracedSpace traced_root(&root, tracer);
    cosr::Space* parent = tracer != nullptr
                              ? static_cast<cosr::Space*>(&traced_root)
                              : &root;
    cosr::ReallocatorSpec spec;
    spec.algorithm = "checkpointed";
    spec.durability = hub.get();
    cosr::ShardedReallocator::Options facade_options;
    facade_options.shard_count = kShards;
    facade_options.routing = cosr::RoutingPolicy::kHashId;
    std::vector<FlushTimer> flush_timers(kShards);  // outlive the shards
    std::unique_ptr<cosr::ShardedReallocator> sharded;
    COSR_CHECK_OK(cosr::ShardedReallocator::Make(spec, facade_options, parent,
                                                 &sharded));
    // The facade owns its shards and hands them out const; the flush
    // listener hook is a setter on the (non-const) shard object.
    if (tracer != nullptr) {
      for (std::uint32_t i = 0; i < kShards; ++i) {
        auto* layout = dynamic_cast<cosr::SizeClassLayout*>(
            const_cast<cosr::Reallocator*>(&sharded->shard(i)));
        COSR_CHECK(layout != nullptr);
        layout->set_flush_listener(&flush_timers[i]);
      }
    }
    TracedReallocator traced_facade(sharded.get(), tracer);
    cosr::Reallocator* realloc =
        tracer != nullptr ? static_cast<cosr::Reallocator*>(&traced_facade)
                          : sharded.get();
    cosr::BlockTranslationLayer btl(parent, realloc);

    std::uint64_t failed = 0;
    for (const Call& call : in.preload) {
      failed += !btl.Put(call.name, call.size).ok();
    }
    round.build_s = SecondsSince(build_start);
    round.setup_s = SecondsSince(start);
    if (tracer != nullptr) {
      tracer->Reset();
      for (FlushTimer& timer : flush_timers) timer.Reset();
    }
    const std::uint64_t snapshots_before =
        tracer != nullptr ? SnapshotCount(*sharded) : 0;
    const HubTotals hub_before = ReadHubTotals(hub.get());
    std::vector<std::uint64_t> latency(kCalls);
    std::uint64_t wrong_lookups = 0;
    const std::uint64_t timed_start = NowNs();
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Call& call = in.calls[i];
      if (call.put) {
        const std::uint64_t t0 = NowNs();
        cosr::Status status;
        {
          Span span(tracer, kDbPut);
          status = btl.Put(call.name, call.size);
        }
        latency[i] = NowNs() - t0;
        failed += !status.ok();
      } else {
        const std::uint64_t t0 = NowNs();
        std::optional<cosr::Extent> extent;
        {
          Span span(tracer, kDbLookup);
          extent = btl.Lookup(call.name);
        }
        latency[i] = NowNs() - t0;
        wrong_lookups += !extent.has_value() || extent->length != call.size;
      }
    }
    FinishTimedPhase(timed_start, latency, &round);
    report->CountRequests(in.preload.size() + kCalls, failed + wrong_lookups);
    if (wrong_lookups != 0) {
      report->Fail("db-blocks: " + std::to_string(wrong_lookups) +
                   " lookups missed or returned the wrong size");
    }
    if (btl.block_count() != kBlocks) {
      report->Fail("db-blocks: " + std::to_string(btl.block_count()) +
                   " blocks live, expected " + std::to_string(kBlocks));
    }

    sharded->CheckpointAll();
    if (hub != nullptr) {
      for (std::uint32_t i = 0; i < hub->log_count(); ++i) {
        hub->sink(i)->Sync();
        log_paths.push_back(hub->file_path(i));
      }
    }

    // Recovery: each shard's log into a fresh unmanaged space, compared
    // with the live map of that shard's sub-range.
    const auto live = root.Snapshot();
    std::uint64_t replayed = 0;
    for (std::uint32_t i = 0; i < log_paths.size(); ++i) {
      cosr::AddressSpace recovered;
      cosr::RecoveryResult result;
      const std::uint64_t t0 = NowNs();
      cosr::Status status;
      {
        Span span(tracer, kRecovery);
        status = cosr::RecoveryManager::RecoverFile(log_paths[i], &recovered,
                                                    &result);
      }
      round.recovery_s += SecondsSince(t0);
      replayed += result.records_replayed;
      const std::uint64_t lo = sharded->shard_view(i).base();
      const std::uint64_t hi = lo + sharded->shard_view(i).span();
      std::vector<std::pair<cosr::ObjectId, cosr::Extent>> expected;
      for (const auto& entry : live) {
        if (entry.second.offset >= lo && entry.second.offset < hi) {
          expected.push_back(entry);
        }
      }
      if (!status.ok() || recovered.Snapshot() != expected) {
        report->Fail("db-blocks: shard " + std::to_string(i) +
                     " recovered map differs from the live map (" +
                     status.ToString() + ")");
      }
    }

    if (tracer != nullptr) {
      Values& v = round.layers;
      v["core.self_s"] =
          tracer->self_s(kCoreInsert) + tracer->self_s(kCoreDelete);
      double flushes = 0;
      double flush_s = 0;
      for (const FlushTimer& timer : flush_timers) {
        flushes += static_cast<double>(timer.flushes());
        flush_s += timer.flush_s();
      }
      v["core.flushes"] = flushes;
      v["core.flush_s"] = flush_s;
      StorageSpanValues(*tracer, &v);
      v["db.put_self_s"] = tracer->self_s(kDbPut);
      v["db.lookup_self_s"] = tracer->self_s(kDbLookup);
      v["db.snapshots"] =
          static_cast<double>(SnapshotCount(*sharded) - snapshots_before);
      if (hub != nullptr) {
        const HubTotals hub_after = ReadHubTotals(hub.get());
        v["durability.records"] = hub_after.records - hub_before.records;
        v["durability.log_bytes_per_user_byte"] =
            static_cast<double>(hub->total_bytes()) /
            static_cast<double>(in.put_bytes);
        v["durability.syncs"] = hub_after.syncs - hub_before.syncs;
        v["durability.sync_s"] = hub_after.sync_s - hub_before.sync_s;
        v["durability.compactions"] =
            hub_after.compactions - hub_before.compactions;
      }
      v["recovery.records_replayed"] = static_cast<double>(replayed);
      v["recovery.records_per_s"] =
          static_cast<double>(replayed) / round.recovery_s;
    }
  }
  for (const std::string& path : log_paths) std::remove(path.c_str());
  return round;
}

/// The counting pass's counts (as ReportCounts gives them for a RunTrace
/// replay) from the pass's cost meter.
Values MeterCounts(const cosr::CostBattery& battery,
                   const cosr::CostMeter& meter, std::uint64_t peak_reserved,
                   std::uint64_t peak_live) {
  Values counts;
  counts["footprint_ratio_peak"] =
      static_cast<double>(peak_reserved) / static_cast<double>(peak_live);
  counts["write_amp"] =
      static_cast<double>(meter.bytes_placed() + meter.bytes_moved()) /
      static_cast<double>(meter.bytes_placed());
  counts["max_op_write_bytes"] =
      meter.totals(battery.IndexOf("linear")).max_op_cost;
  for (std::size_t fn = 0; fn < battery.size(); ++fn) {
    counts["cost.ratio." + battery.name(fn)] = meter.CostRatio(fn);
  }
  return counts;
}

/// The counting pass: the same calls with a cost meter on the root and no
/// clocks. The log is a listener and does not change placement, so the
/// pass runs without one.
Values CountingPass(const Inputs& in) {
  cosr::AddressSpace root;
  const cosr::CostBattery battery = cosr::MakeDefaultBattery();
  cosr::CostMeter meter(&battery);
  root.AddListener(&meter);
  cosr::ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  cosr::ShardedReallocator::Options facade_options;
  facade_options.shard_count = kShards;
  facade_options.routing = cosr::RoutingPolicy::kHashId;
  std::unique_ptr<cosr::ShardedReallocator> sharded;
  COSR_CHECK_OK(
      cosr::ShardedReallocator::Make(spec, facade_options, &root, &sharded));
  std::uint64_t peak_reserved = 0;
  std::uint64_t peak_volume = 0;
  std::uint64_t moved_before_calls = 0;
  {
    cosr::BlockTranslationLayer btl(&root, sharded.get());
    const auto put = [&](const Call& call) {
      meter.BeginOp();  // one Put is one request
      COSR_CHECK_OK(btl.Put(call.name, call.size));
      peak_reserved = std::max(peak_reserved, sharded->reserved_footprint());
      peak_volume = std::max(peak_volume, sharded->volume());
    };
    for (const Call& call : in.preload) put(call);
    moved_before_calls = meter.bytes_moved();
    for (const Call& call : in.calls) {
      if (call.put) put(call);
    }
    meter.BeginOp();  // closes the last Put's per-op accounting
  }
  root.RemoveListener(&meter);

  Values counts = MeterCounts(battery, meter, peak_reserved, peak_volume);
  counts["storage.moved_bytes"] =
      static_cast<double>(meter.bytes_moved() - moved_before_calls);
  return counts;
}

std::string LogPrefix(const RunOptions& options, int round, const char* tag) {
  return options.scratch_dir + "/db-blocks-" + std::to_string(getpid()) +
         "-" + std::to_string(round) + "-" + tag + "-shard";
}

}  // namespace

Values CountDbBlocks(std::uint64_t seed) { return CountingPass(MakeInputs(seed)); }

void RunDbBlocks(const RunOptions& options, Report* report, Values* values) {
  std::vector<Round> logged;
  std::vector<Round> unlogged;
  std::vector<Round> traced;
  Tracer tracer;
  const double rss_mb = RunRounds(options.seconds, [&](int i) {
    logged.push_back(RunRound(options.seed, true, nullptr,
                              LogPrefix(options, i, "plain"), report));
    if (!options.trace) return;
    unlogged.push_back(RunRound(options.seed, false, nullptr, "", report));
    traced.push_back(RunRound(options.seed, true, &tracer,
                              LogPrefix(options, i, "traced"), report));
  });
  const Values counts = CountDbBlocks(options.seed);
  if (!options.trace) {
    EndToEndValues(logged, counts, MedianOf(logged, &Round::recovery_s),
                   rss_mb, values);
    return;
  }
  SharedLayerValues(logged, traced, counts, values);
  (*values)["durability.rung_s"] =
      MedianOf(logged, &Round::timed_s) - MedianOf(unlogged, &Round::timed_s);
}

}  // namespace repobench
