#ifndef COSR_SERVICE_SHARD_STATS_H_
#define COSR_SERVICE_SHARD_STATS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/metrics/latency_histogram.h"

namespace cosr {

/// Aggregated accounting of a sharded facade (single-threaded or
/// concurrent): the per-shard breakdown, filled by ShardSet::Snapshot,
/// plus the two global footprint views the service layer reports.
///
/// Thread-compatible: a plain value snapshot, shared freely once made.
/// ShardedReallocator::Stats() reads the shards inline.
/// ConcurrentShardedReallocator::Stats() does not drain: it snapshots each
/// shard on its owning worker through a marker that follows every op
/// submitted before the call, so it is exact only once the facade is
/// quiesced.
struct ShardStats {
  struct PerShard {
    std::uint64_t base = 0;  // global offset of the shard's sub-range
    std::size_t objects = 0;
    std::uint64_t volume = 0;
    /// The inner reallocator's reserved end (local coordinates).
    std::uint64_t reserved_footprint = 0;
    /// Largest placed end within the sub-range (local coordinates).
    std::uint64_t space_footprint = 0;
    std::uint64_t checkpoints = 0;  // 0 when the shard has no manager
    /// Durability-log sync accounting (zero when the facade carries no
    /// DurabilityHub): physical Sync() calls on the shard's log sink —
    /// under a coalescing GroupCommitPolicy log_syncs < checkpoints — plus
    /// committed checkpoint-time compactions and the fsync-stall gauges
    /// (total wall seconds inside Sync, and the worst single stall).
    /// Single-writer like everything else here: the shard's owner reads
    /// its own sink; merged on read into the facade aggregates.
    std::uint64_t log_syncs = 0;
    std::uint64_t log_compactions = 0;
    double sync_wall_seconds = 0.0;
    double max_sync_stall_seconds = 0.0;
    /// Routed insert/delete requests the shard executed, and how many of
    /// them the inner reallocator refused (both facades).
    std::uint64_t ops = 0;
    std::uint64_t failed_ops = 0;
    /// Fire-and-forget submissions dropped by the bounded-retry overflow
    /// policy (concurrent facade with submit_max_retries > 0 only).
    std::uint64_t dropped_ops = 0;
    /// Peak of the shard's reserved footprint over its own op stream.
    std::uint64_t peak_reserved_footprint = 0;
    /// Batched-submission accounting (concurrent facade only): SubmitMany
    /// batches the owning worker drained from this shard's RemoteQueue,
    /// and how many of the shard's ops arrived inside them (the rest came
    /// one by one through per-op submission).
    std::uint64_t remote_batches = 0;
    std::uint64_t batched_ops = 0;
    /// Rebalancer accounting: objects (and their bytes) the rebalancer
    /// drained OUT of this shard, and objects it delivered INTO it.
    /// Exact: each migrated object counts once on its source's
    /// migrations/migrated_bytes and once on its destination's
    /// migrations_in, so sum(migrations) == sum(migrations_in) over a
    /// drained facade.
    std::uint64_t migrations = 0;
    std::uint64_t migrated_bytes = 0;
    std::uint64_t migrations_in = 0;
    /// Per-op wall-clock latency distributions for the shard's
    /// insert/delete requests (internal markers and migrations are not
    /// tracked). `latency_total` runs submit-stamp to completion;
    /// `latency_queue_wait` covers submit-stamp to execution start (queue
    /// residency plus any producer-side backpressure wait — zero-count on
    /// the synchronous facade, which has no queue); `latency_service`
    /// covers the inner reallocator call alone, so queueing collapse is
    /// distinguishable from genuinely slow ops. Snapshotted on the owning
    /// worker like every other field here.
    LatencyHistogramSnapshot latency_total;
    LatencyHistogramSnapshot latency_queue_wait;
    LatencyHistogramSnapshot latency_service;
  };
  std::vector<PerShard> shards;

  std::uint64_t volume = 0;
  /// Sum of the shards' dropped_ops, with the Status of the most recent
  /// drop (Ok when nothing was ever dropped).
  std::uint64_t dropped_ops = 0;
  Status last_drop_status;
  /// Sum of the shards' reserved footprints: the additive-composition view
  /// (what the facade's reserved_footprint() reports, and the quantity the
  /// footprint-vs-K blowup experiments normalize).
  std::uint64_t sum_reserved_footprint = 0;
  /// Sum of the shards' placed footprints (max end per sub-range).
  std::uint64_t sum_subrange_footprint = 0;
  /// Max over shards of the shard-LOCAL placed end (base subtracted) —
  /// the deepest any single shard's layout reaches into its own window.
  /// This is the per-shard sizing number; unlike global_max_end it does
  /// not carry the i * span base offsets.
  std::uint64_t max_shard_end = 0;
  /// The parent space's literal footprint — the largest *global* end
  /// address, bases included. Dominated by the highest populated shard's
  /// base; meaningful for sizing the one shared array, not for waste.
  std::uint64_t global_max_end = 0;
  /// Facade-wide rebalancer totals (sums of the shards' out-migration
  /// counters).
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  /// Facade-wide durability-sync totals: summed log syncs / compactions /
  /// sync wall seconds, and the worst single fsync stall across shards.
  std::uint64_t log_syncs = 0;
  std::uint64_t log_compactions = 0;
  double sync_wall_seconds = 0.0;
  double max_sync_stall_seconds = 0.0;
  /// Facade-wide latency distributions: the shards' histograms merged
  /// (bucket counts add — merging is exact, not an approximation of the
  /// union). Same total / queue-wait / service split as PerShard.
  LatencyHistogramSnapshot latency_total;
  LatencyHistogramSnapshot latency_queue_wait;
  LatencyHistogramSnapshot latency_service;

  /// Folds one shard into the facade-wide totals and appends it to
  /// `shards`. global_max_end and last_drop_status stay with the caller:
  /// each facade derives them differently.
  void AddShard(const PerShard& per) {
    volume += per.volume;
    dropped_ops += per.dropped_ops;
    sum_reserved_footprint += per.reserved_footprint;
    sum_subrange_footprint += per.space_footprint;
    max_shard_end = std::max(max_shard_end, per.space_footprint);
    migrations += per.migrations;
    migrated_bytes += per.migrated_bytes;
    log_syncs += per.log_syncs;
    log_compactions += per.log_compactions;
    sync_wall_seconds += per.sync_wall_seconds;
    max_sync_stall_seconds =
        std::max(max_sync_stall_seconds, per.max_sync_stall_seconds);
    latency_total.MergeFrom(per.latency_total);
    latency_queue_wait.MergeFrom(per.latency_queue_wait);
    latency_service.MergeFrom(per.latency_service);
    shards.push_back(per);
  }
};

/// One shard's wall-clock latency recorders, grouped so the facades can
/// keep a vector parallel to their shards. Single-writer like
/// ShardCounters: only the shard's owner records; any thread may snapshot.
struct ShardLatencyRecorders {
  LatencyHistogram total;
  LatencyHistogram queue_wait;
  LatencyHistogram service;
};

/// One shard's hot-path accumulator block, sized and aligned to its own
/// cache line so K shards never false-share.
///
/// Thread-safe under the single-writer discipline: exactly one thread (the
/// shard's owner — its worker thread in the concurrent facade) writes,
/// with relaxed stores; any thread may read at any time and sees a
/// consistent monotone history per field. Cross-field consistency (e.g.
/// `volume` against `reserved_footprint`) is only guaranteed after a drain
/// barrier (ConcurrentShardedReallocator::Flush) establishes
/// happens-before; mid-run merges are per-field-exact running totals.
/// tests/shard_stats_test.cc hammers this from K threads and pins the
/// merged view to the sequential sum.
struct alignas(64) ShardCounters {
  std::atomic<std::uint64_t> ops{0};
  std::atomic<std::uint64_t> inserts{0};
  std::atomic<std::uint64_t> deletes{0};
  std::atomic<std::uint64_t> failed_ops{0};
  std::atomic<std::uint64_t> volume{0};
  std::atomic<std::uint64_t> reserved_footprint{0};
  std::atomic<std::uint64_t> peak_reserved_footprint{0};
  /// Remote batches drained from the shard's lock-free queue, and the ops
  /// they carried. Owner-written like every other field.
  std::atomic<std::uint64_t> remote_batches{0};
  std::atomic<std::uint64_t> batched_ops{0};
  /// Rebalancer accounting (see ShardStats::PerShard): out-migrations and
  /// their bytes are written by the SOURCE shard's owner, in-migrations by
  /// the DESTINATION shard's owner — each field still has exactly one
  /// writer.
  std::atomic<std::uint64_t> migrations{0};
  std::atomic<std::uint64_t> migrated_bytes{0};
  std::atomic<std::uint64_t> migrations_in{0};

  /// Owner-thread helper: account one drained remote batch of `ops` ops.
  void RecordRemoteBatch(std::uint64_t batch_ops) {
    remote_batches.fetch_add(1, std::memory_order_relaxed);
    batched_ops.fetch_add(batch_ops, std::memory_order_relaxed);
  }

  /// Source-shard owner: one object of `bytes` migrated out; refresh the
  /// gauges with the post-delete state.
  void RecordMigrateOut(std::uint64_t bytes, std::uint64_t new_volume,
                        std::uint64_t new_reserved) {
    migrations.fetch_add(1, std::memory_order_relaxed);
    migrated_bytes.fetch_add(bytes, std::memory_order_relaxed);
    RefreshGauges(new_volume, new_reserved);
  }

  /// Destination-shard owner: one object arrived; refresh the gauges with
  /// the post-insert state.
  void RecordMigrateIn(std::uint64_t new_volume, std::uint64_t new_reserved) {
    migrations_in.fetch_add(1, std::memory_order_relaxed);
    RefreshGauges(new_volume, new_reserved);
  }

  /// Owner-thread helper: refresh the footprint/volume gauges (and the
  /// running peak) after the shard's state changed.
  void RefreshGauges(std::uint64_t new_volume, std::uint64_t new_reserved) {
    volume.store(new_volume, std::memory_order_relaxed);
    reserved_footprint.store(new_reserved, std::memory_order_relaxed);
    if (new_reserved >
        peak_reserved_footprint.load(std::memory_order_relaxed)) {
      peak_reserved_footprint.store(new_reserved, std::memory_order_relaxed);
    }
  }

  /// Owner-thread helper: bump the op counters and refresh the footprint
  /// gauges after one executed request.
  void RecordOp(bool is_insert, bool ok, std::uint64_t new_volume,
                std::uint64_t new_reserved) {
    ops.fetch_add(1, std::memory_order_relaxed);
    if (is_insert) {
      inserts.fetch_add(1, std::memory_order_relaxed);
    } else {
      deletes.fetch_add(1, std::memory_order_relaxed);
    }
    if (!ok) failed_ops.fetch_add(1, std::memory_order_relaxed);
    RefreshGauges(new_volume, new_reserved);
  }
};

/// Plain-value copy of one counter block (relaxed loads, any thread).
struct ShardCountersSnapshot {
  std::uint64_t ops = 0;
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t failed_ops = 0;
  std::uint64_t volume = 0;
  std::uint64_t reserved_footprint = 0;
  std::uint64_t peak_reserved_footprint = 0;
  std::uint64_t remote_batches = 0;
  std::uint64_t batched_ops = 0;
  std::uint64_t migrations = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t migrations_in = 0;
};

inline ShardCountersSnapshot ReadShardCounters(const ShardCounters& c) {
  ShardCountersSnapshot s;
  s.ops = c.ops.load(std::memory_order_relaxed);
  s.inserts = c.inserts.load(std::memory_order_relaxed);
  s.deletes = c.deletes.load(std::memory_order_relaxed);
  s.failed_ops = c.failed_ops.load(std::memory_order_relaxed);
  s.volume = c.volume.load(std::memory_order_relaxed);
  s.reserved_footprint = c.reserved_footprint.load(std::memory_order_relaxed);
  s.peak_reserved_footprint =
      c.peak_reserved_footprint.load(std::memory_order_relaxed);
  s.remote_batches = c.remote_batches.load(std::memory_order_relaxed);
  s.batched_ops = c.batched_ops.load(std::memory_order_relaxed);
  s.migrations = c.migrations.load(std::memory_order_relaxed);
  s.migrated_bytes = c.migrated_bytes.load(std::memory_order_relaxed);
  s.migrations_in = c.migrations_in.load(std::memory_order_relaxed);
  return s;
}

/// Merged (summed) view over all shards' blocks: counters and gauges add,
/// which is exactly the additive-composition accounting of the facade.
inline ShardCountersSnapshot MergeShardCounters(
    const std::vector<ShardCounters>& blocks) {
  ShardCountersSnapshot merged;
  for (const ShardCounters& block : blocks) {
    const ShardCountersSnapshot s = ReadShardCounters(block);
    merged.ops += s.ops;
    merged.inserts += s.inserts;
    merged.deletes += s.deletes;
    merged.failed_ops += s.failed_ops;
    merged.volume += s.volume;
    merged.reserved_footprint += s.reserved_footprint;
    merged.peak_reserved_footprint += s.peak_reserved_footprint;
    merged.remote_batches += s.remote_batches;
    merged.batched_ops += s.batched_ops;
    merged.migrations += s.migrations;
    merged.migrated_bytes += s.migrated_bytes;
    merged.migrations_in += s.migrations_in;
  }
  return merged;
}

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_STATS_H_
