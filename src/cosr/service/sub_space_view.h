#ifndef COSR_SERVICE_SUB_SPACE_VIEW_H_
#define COSR_SERVICE_SUB_SPACE_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cosr/common/owner_fence.h"
#include "cosr/common/types.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/space.h"

namespace cosr {

class CheckpointManager;

/// A zero-based window onto the disjoint sub-range [base, base + span) of a
/// parent Space. The inner reallocator of one shard runs against the view
/// exactly as it would against a private AddressSpace: every offset it sees
/// is local, every write it issues is offset-translated into the parent,
/// and a CHECK fences each translated extent inside the sub-range — which
/// is what makes cross-shard overlap structurally impossible and per-shard
/// costs compose additively.
///
/// Frozen-region enforcement is *scoped*: the view owns (optionally) its
/// shard's CheckpointManager and applies the Section 3.1 durability rules —
/// CheckpointManager::CheckWritable and CheckMove, once per move and in
/// plan order within a batch — in local coordinates before anything
/// reaches the parent, which itself stays unmanaged. A checkpoint on the
/// view releases only this shard's frozen regions (and still notifies the
/// parent's listeners, so meters see every shard's checkpoints).
///
/// Listeners are forwarded to the parent: observers always price physical
/// activity in root (global) coordinates.
///
/// Thread-compatible: one view must only be mutated by one thread (its
/// shard's owner — the facade caller in single-threaded mode, the shard's
/// worker in concurrent mode); debug builds CHECK-fail fast on a second
/// mutating thread. Views over one *shared* parent additionally require
/// all sibling mutations to be serialized (the parent itself is
/// thread-compatible) — the concurrent facade avoids this entirely by
/// giving every shard a private parent.
class SubSpaceView final : public Space {
 public:
  /// `parent` and `manager` (optional, may be nullptr) must outlive the
  /// view. `span` must be positive; `base` is the global offset of local 0.
  SubSpaceView(Space* parent, std::uint64_t base, std::uint64_t span,
               CheckpointManager* manager = nullptr);

  void AddListener(SpaceListener* listener) override;
  void RemoveListener(SpaceListener* listener) override;

  bool TryPlace(ObjectId id, const Extent& extent) override;
  void Move(ObjectId id, const Extent& to) override;
  using Space::ApplyMoves;
  void ApplyMoves(const MovePlan* plans, std::size_t count) override;
  bool TryRemove(ObjectId id, Extent* removed) override;

  /// Scoped to the sub-range: an id placed by a sibling shard reports as
  /// absent here.
  bool contains(ObjectId id) const override;
  Extent extent_of(ObjectId id) const override;
  bool TryExtentOf(ObjectId id, Extent* extent) const override;

  std::uint64_t footprint() const override;
  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override;
  std::uint64_t live_volume() const override { return live_volume_; }
  std::size_t object_count() const override { return object_count_; }

  /// Releases this shard's frozen regions and runs the parent's checkpoint
  /// notification (the parent itself holds no manager in sharded use).
  void Checkpoint() override;
  CheckpointManager* checkpoint_manager() const override { return manager_; }

  std::vector<std::pair<ObjectId, Extent>> Snapshot() const override;
  bool SelfCheck() const override;

  std::uint64_t base() const { return base_; }
  std::uint64_t span() const { return span_; }

 private:
  /// Local -> parent coordinates, CHECK-fencing [0, span).
  Extent ToParent(const Extent& local) const;
  Extent ToLocal(const Extent& global) const;
  bool InRange(const Extent& global) const;

  /// The extent of `id` in local coordinates, CHECK-failing when the id is
  /// absent from the parent *or* owned by a different sub-range.
  Extent LocalExtentOf(ObjectId id) const;

  /// Debug fence for the thread-compatible contract: all mutations must
  /// come from the thread that issued the first one.
  OwnerThreadFence owner_fence_;

  Space* parent_;
  std::uint64_t base_;
  std::uint64_t span_;
  CheckpointManager* manager_;
  std::uint64_t live_volume_ = 0;
  std::size_t object_count_ = 0;

  // Reused ApplyMoves scratch: the batch in parent coordinates.
  std::vector<MovePlan> batch_plans_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_SUB_SPACE_VIEW_H_
