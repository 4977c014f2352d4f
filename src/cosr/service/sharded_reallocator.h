#ifndef COSR_SERVICE_SHARDED_REALLOCATOR_H_
#define COSR_SERVICE_SHARDED_REALLOCATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cosr/common/owner_fence.h"
#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/factory.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_set.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/space.h"
#include "cosr/workload/request.h"

namespace cosr {

/// The service-layer facade: one Reallocator that routes each request to
/// one of K independent shards of the shard core (ShardSet), all windows
/// of one caller-owned parent Space, and runs it inline on the caller's
/// thread. Managed algorithms get a private per-shard CheckpointManager,
/// so each shard's durability discipline is exactly the single-instance
/// one.
///
/// The facade adds no placement logic of its own: with K=1 it is a
/// zero-cost wrapper, producing the identical operation sequence and
/// footprint as the unwrapped algorithm (pinned by
/// tests/sharded_reallocator_test.cc). With K>1 the sub-ranges make
/// cross-shard overlap impossible and costs/footprints compose additively —
/// the invariant the scale-out literature builds on — at the price of the
/// per-shard constant overheads measured by bench/exp_sharded.cc.
///
/// Thread-compatible: all requests must come from one thread at a time
/// (the facade routes into shared per-shard state and a routing map with no
/// internal locking). Debug builds CHECK-fail fast when a second thread
/// issues a request — use ConcurrentShardedReallocator for genuinely
/// parallel submission.
class ShardedReallocator final : public Reallocator {
 public:
  struct Options {
    std::uint32_t shard_count = 4;
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Width of each shard's sub-range. The default leaves each shard 16
    /// TiB-of-units of headroom — far beyond any in-process workload —
    /// while keeping K=16 facades well inside the 64-bit space.
    std::uint64_t subrange_span = 1ull << 44;
    /// Enables MigrateObject (and thus a ShardRebalancer) on this facade.
    /// Forces the id placement map even under hash routing: a migrated
    /// id's hash no longer names its shard, so deletes must resolve
    /// through the map. Map-keeping routing policies (size-class,
    /// least-loaded) are migratable without this flag.
    bool allow_migration = false;
  };

  /// Builds K shards over `parent`, each with an inner reallocator made
  /// from `inner_spec` (whose shard_count/routing fields are ignored).
  /// `parent` must not carry a CheckpointManager: shards that need one own
  /// a private manager, scoped by their view. Fails when the inner spec is
  /// unknown to the factory or `options` are degenerate.
  static Status Make(const ReallocatorSpec& inner_spec, const Options& options,
                     Space* parent, std::unique_ptr<ShardedReallocator>* out);

  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;

  /// Sum of the shards' reserved footprints — the additive sub-range view
  /// (the global max-end view is in Stats().global_max_end).
  std::uint64_t reserved_footprint() const override {
    return shards_.reserved_footprint();
  }
  std::uint64_t volume() const override { return shards_.volume(); }
  void Quiesce() override;
  /// Checkpoints every managed shard — forcing a durable point on every
  /// per-shard move log when the facade was built with a DurabilityHub.
  /// No-op for shards without a CheckpointManager.
  void CheckpointAll();
  const char* name() const override { return name_.c_str(); }

  ShardStats Stats() const;

  std::uint32_t shard_count() const { return shards_.shard_count(); }
  RoutingPolicy routing() const { return shards_.routing(); }

  /// The routing decision for an (id, size) insert (ShardSet::shard_for).
  std::uint32_t shard_for(ObjectId id, std::uint64_t size) const {
    return shards_.shard_for(id, size);
  }
  /// The shard currently holding live object `id`, or shard_count() when
  /// the id is not live.
  std::uint32_t shard_of(ObjectId id) const { return shards_.shard_of(id); }

  /// Whether MigrateObject is usable: the facade keeps the id placement
  /// map (map-keeping routing, or Options::allow_migration).
  bool migratable() const { return shards_.keeps_map(); }

  /// Moves live object `id` to shard `to` inline: ShardSet::MigrateOut's
  /// source Delete, then an Insert on `to` that picks its own placement
  /// (remove on the source's log, place on the destination's). On a
  /// destination insert failure the object goes back on its source and
  /// the error is returned, nothing migrated.
  Status MigrateObject(ObjectId id, std::uint32_t to);

  const Reallocator& shard(std::uint32_t index) const {
    return shards_.inner(index);
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return shards_.view(index);
  }
  /// Shard `index`'s CheckpointManager (nullptr for unmanaged algorithms).
  /// Mutating it (e.g. SetCheckpointHook) must happen from the facade's
  /// owning thread before requests are in flight.
  CheckpointManager* shard_manager(std::uint32_t index) const {
    return shards_.manager(index);
  }

 private:
  ShardedReallocator() = default;

  /// Routes, runs and accounts one insert or delete inline, committing
  /// the route only after the inner call succeeded.
  Status Run(const Request& op);

  /// Debug fence: the facade is thread-compatible, so every request must
  /// come from the thread that issued the first one.
  OwnerThreadFence owner_fence_;

  /// Over the caller-owned parent. With no queue here, each latency
  /// sample has total == service and queue_wait stays empty.
  ShardSet shards_;
  std::string name_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SHARDED_REALLOCATOR_H_
