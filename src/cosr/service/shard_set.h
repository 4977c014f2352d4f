#ifndef COSR_SERVICE_SHARD_SET_H_
#define COSR_SERVICE_SHARD_SET_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/durability/move_log.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/id_placement_map.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/request.h"

namespace cosr {

struct ReallocatorSpec;

/// The shard core under both sharded facades. Shard i is an inner
/// reallocator on a SubSpaceView of [i * span, (i+1) * span), with its
/// optional CheckpointManager and durability log, one ShardCounters block
/// and one set of latency recorders. The core also owns the routing
/// decision, the id placement map and the source half of a migration.
/// The facades are executors over it: ShardedReallocator runs every call
/// inline, ConcurrentShardedReallocator runs per-shard calls on the
/// shard's owning worker.
///
/// Thread-compatible, split by role. Per-shard calls (Execute, MigrateIn,
/// Quiesce, Checkpoint, Snapshot, root_footprint) must come from the
/// shard's owner. Routing calls (Route, Commit, shard_for, shard_of) share
/// the map and the volumes with no locking of their own: the inline
/// executor makes them from its one thread, the threaded one under its
/// routing_mu_. Without a map, Route and shard_for read nothing mutable.
/// MigrateOut is both: the source shard's owner, with routing held.
class ShardSet {
 public:
  struct Options {
    std::uint32_t shard_count = 1;
    std::uint64_t subrange_span = 1ull << 44;
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Keep the placement map under hash routing too (for MigrateOut).
    bool allow_migration = false;
    /// Routes are committed before the inner call runs, so a kept map
    /// rejects algorithms whose inserts can fail on a fresh id.
    bool commit_before_execution = false;
  };

  ShardSet() = default;
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;
  /// Removes the range-scoped log listeners from a shared parent.
  ~ShardSet();

  /// Builds the shards from `inner_spec` (its shard_count, worker_threads
  /// and durability fields are taken over here). With a `parent` (which
  /// must carry no CheckpointManager) the views window it, and each log
  /// hangs behind a RangeScopedListener on it. With a null `parent` each
  /// shard gets a private AddressSpace root, and its log attaches there.
  Status Build(const ReallocatorSpec& inner_spec, const Options& options,
               Space* parent);

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  RoutingPolicy routing() const { return routing_; }
  /// Map-keeping routing, or Options::allow_migration.
  bool keeps_map() const { return keeps_map_; }

  /// The routing decision for an (id, size) insert. kLeastLoaded picks
  /// the lowest committed live volume, lowest index breaking ties; the
  /// other policies are pure functions of (id, size). Volume, not
  /// frontier, deliberately: an argmin over frontiers starves gap-rich
  /// shards. A shard whose frontier is high but mostly free would never
  /// receive another insert, so its gaps never refill. Balancing live
  /// bytes routes inserts into the gaps and leaves residual frontier
  /// imbalance to the rebalancer.
  std::uint32_t shard_for(ObjectId id, std::uint64_t size) const;
  /// Validates `op` and decides its shard, changing nothing. With a kept
  /// map it rejects a zero-size insert, a live id's insert and an absent
  /// id's delete; without one the inner reallocator reports those.
  Status Route(const Request& op, std::uint32_t* shard) const;
  /// Records a routed op in the map and the volumes (no-op without a map).
  void Commit(const Request& op, std::uint32_t shard);
  /// The shard holding live `id`, or shard_count() when it is not live.
  std::uint32_t shard_of(ObjectId id) const;

  /// Runs one routed insert or delete on shard `i` and accounts it.
  Status Execute(std::uint32_t i, const Request& op);
  /// The destination half of a migration, counted in migrations_in.
  Status MigrateIn(std::uint32_t i, ObjectId id, std::uint64_t size);
  /// Runs shard `i`'s deferred work and refreshes its gauges.
  void Quiesce(std::uint32_t i);
  /// Checkpoints shard `i`; a no-op when it has no CheckpointManager.
  void Checkpoint(std::uint32_t i);
  /// Sums of the shards' gauges, which every call above refreshes: exact
  /// on the owner, a relaxed running sum from any other thread.
  std::uint64_t volume() const { return MergeShardCounters(counters_).volume; }
  std::uint64_t reserved_footprint() const {
    return MergeShardCounters(counters_).reserved_footprint;
  }
  /// Shard `i`'s accounting. dropped_ops stays with the executor.
  ShardStats::PerShard Snapshot(std::uint32_t i) const;
  /// The footprint of the root under shard `i`'s view (shared or
  /// private). Roots hold global coordinates: the max is global_max_end.
  std::uint64_t root_footprint(std::uint32_t i) const;

  /// The source half of migrating live `id` to shard `to` (to its own
  /// shard: an Ok no-op). FailedPrecondition while the source defers
  /// deletes (deamortized mid-flush): the object would stay placed while
  /// the destination re-places it. Deletes the object on the source, then
  /// runs `place(size)`, the executor's destination half; if that fails
  /// the object goes back on the source. On success the map repoints, the
  /// volumes shift and the source counts the migration.
  Status MigrateOut(ObjectId id, std::uint32_t to,
                    const std::function<Status(std::uint64_t size)>& place);

  Reallocator& inner(std::uint32_t i) const { return *shards_[i].inner; }
  SubSpaceView& view(std::uint32_t i) const { return *shards_[i].view; }
  /// nullptr for unmanaged algorithms.
  CheckpointManager* manager(std::uint32_t i) const {
    return shards_[i].manager.get();
  }
  /// Shard `i`'s private root; nullptr over a shared parent.
  AddressSpace* space(std::uint32_t i) const {
    return shards_[i].space.get();
  }
  const std::vector<ShardCounters>& counters() const { return counters_; }
  ShardCounters& counters(std::uint32_t i) { return counters_[i]; }
  ShardLatencyRecorders& latency(std::uint32_t i) { return latency_[i]; }

 private:
  struct Shard {
    std::unique_ptr<AddressSpace> space;  // private root, or null
    std::unique_ptr<CheckpointManager> manager;  // managed algorithms only
    std::unique_ptr<SubSpaceView> view;
    std::unique_ptr<Reallocator> inner;
    MoveLog* log = nullptr;  // hub-owned; null without a hub
    /// Shared parent only: keeps the log to this shard's sub-range.
    std::unique_ptr<RangeScopedListener> log_scope;
  };

  void RefreshGauges(std::uint32_t i);

  Space* parent_ = nullptr;
  RoutingPolicy routing_ = RoutingPolicy::kHashId;
  bool keeps_map_ = false;
  std::vector<Shard> shards_;
  std::vector<ShardCounters> counters_;  // parallel to shards_
  std::vector<ShardLatencyRecorders> latency_;  // parallel to shards_
  IdPlacementMap placement_;
  /// With a kept map: committed live volume per shard (least-loaded).
  std::vector<std::uint64_t> volumes_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARD_SET_H_
