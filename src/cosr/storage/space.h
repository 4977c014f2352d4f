#ifndef COSR_STORAGE_SPACE_H_
#define COSR_STORAGE_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/storage/extent.h"

namespace cosr {

class CheckpointManager;

/// One move of a batch handed to Space::ApplyMoves. The source is
/// implicit (the object's current extent); `to.length` must match it.
struct MovePlan {
  ObjectId id = kInvalidObjectId;
  Extent to;
};

/// An applied move, as reported to listeners.
struct MoveRecord {
  ObjectId id = kInvalidObjectId;
  Extent from;
  Extent to;
};

/// Observer of physical storage events. Cost meters, the simulated disk,
/// and visualization hooks all implement this.
class SpaceListener {
 public:
  virtual ~SpaceListener() = default;
  virtual void OnPlace(ObjectId id, const Extent& extent);
  virtual void OnMove(ObjectId id, const Extent& from, const Extent& to);
  /// One ApplyMoves batch in application order. The default implementation
  /// fans out to OnMove once per record, so per-move listeners keep working
  /// unchanged; tracers wanting the coherent batch view override this.
  virtual void OnMoves(const MoveRecord* records, std::size_t count);
  virtual void OnRemove(ObjectId id, const Extent& extent);
  virtual void OnCheckpoint(std::uint64_t checkpoint_seq);
};

/// The storage surface a reallocator runs against: disjoint object extents
/// in a flat, arbitrarily large address range, with listener fan-out and
/// (optionally) checkpoint-frozen-region enforcement.
///
/// Two implementations exist:
///   * AddressSpace — the real thing (slot table + offset index), the root
///     of every object hierarchy;
///   * SubSpaceView (service layer) — an offset-translated window onto a
///     disjoint sub-range of a parent Space, giving each shard of a
///     ShardedReallocator its own private zero-based address space inside
///     one shared global one.
///
/// Reallocators hold a Space* and never need to know which one they got;
/// the K=1 sharding differential test (tests/sharded_reallocator_test.cc)
/// pins down that the view is observationally identical to the real space.
class Space {
 public:
  virtual ~Space() = default;

  /// Registers an observer. Listeners are notified in registration order
  /// and must outlive their registration. Views forward to their parent,
  /// so listeners always see root (global) coordinates.
  virtual void AddListener(SpaceListener* listener) = 0;

  /// Unregisters a previously added observer (no-op when absent).
  virtual void RemoveListener(SpaceListener* listener) = 0;

  /// Allocates a brand-new object at `extent`. The id must be fresh and the
  /// extent length positive. CHECK-fails when the id is already placed.
  void Place(ObjectId id, const Extent& extent);

  /// Like Place, but returns false (touching nothing) when `id` is already
  /// placed. Single lookup: lets allocator hot paths skip a separate
  /// contains() check and build error strings only on the failure branch.
  virtual bool TryPlace(ObjectId id, const Extent& extent) = 0;

  /// Moves an existing object to `to` (length must match).
  virtual void Move(ObjectId id, const Extent& to) = 0;

  /// Applies a batch of moves: the plans in order, each under exactly
  /// Move's checks. A plan may therefore reuse space that an earlier plan
  /// of the batch vacated, except under a checkpoint manager, where that
  /// space is frozen. Ids must be distinct (CHECKed: recovery replays each
  /// record against the layout before the batch); no-op plans (target ==
  /// current position) are skipped. Listeners receive a single OnMoves
  /// with the applied records, in plan order.
  virtual void ApplyMoves(const MovePlan* plans, std::size_t count) = 0;
  void ApplyMoves(const std::vector<MovePlan>& plans) {
    ApplyMoves(plans.data(), plans.size());
  }

  /// Frees an object's extent. CHECK-fails when `id` is absent.
  void Remove(ObjectId id);

  /// Like Remove, but returns false when `id` is absent; on success stores
  /// the freed extent in *removed.
  virtual bool TryRemove(ObjectId id, Extent* removed) = 0;

  virtual bool contains(ObjectId id) const = 0;

  /// The placed extent of `id` (CHECK-fails when absent). By value: a view
  /// returns translated coordinates, so there is no stable reference to
  /// hand out. Extent is two words — the copy is free.
  virtual Extent extent_of(ObjectId id) const = 0;

  /// Like extent_of, but returns false when `id` is absent (for a view:
  /// absent from this sub-range). Single lookup — the probe contains() and
  /// the views' scoped paths build on to avoid double resolution.
  virtual bool TryExtentOf(ObjectId id, Extent* extent) const = 0;

  /// Largest end address of any placed object (the literal "footprint" of
  /// the paper).
  virtual std::uint64_t footprint() const = 0;

  /// Largest end address among objects whose extent starts inside
  /// [lo, hi), or 0 when the range holds none. With no extent straddling
  /// the bounds — guaranteed for shard sub-ranges — this is the range's
  /// own footprint. O(log n); lets a SubSpaceView answer footprint()
  /// without shadowing the parent's index.
  virtual std::uint64_t footprint_in(std::uint64_t lo,
                                     std::uint64_t hi) const = 0;

  /// Sum of the lengths of all placed objects.
  virtual std::uint64_t live_volume() const = 0;
  virtual std::size_t object_count() const = 0;

  /// Runs a checkpoint: releases frozen regions (if a manager is attached)
  /// and notifies listeners.
  virtual void Checkpoint() = 0;

  /// The manager whose frozen-region rules govern writes through this
  /// surface (nullptr in the unconstrained Section 2 model). A view scoped
  /// to one shard returns that shard's manager, not the root's.
  virtual CheckpointManager* checkpoint_manager() const = 0;

  /// All (id, extent) pairs in ascending offset order.
  virtual std::vector<std::pair<ObjectId, Extent>> Snapshot() const = 0;

  /// Verifies internal consistency (disjointness, index agreement). Returns
  /// true on success; used by tests as a belt-and-suspenders check.
  virtual bool SelfCheck() const = 0;

 protected:
  Space() = default;
  Space(const Space&) = delete;
  Space& operator=(const Space&) = delete;
};

}  // namespace cosr

#endif  // COSR_STORAGE_SPACE_H_
