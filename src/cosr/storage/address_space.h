#ifndef COSR_STORAGE_ADDRESS_SPACE_H_
#define COSR_STORAGE_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cosr/common/types.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/storage/extent.h"
#include "cosr/storage/offset_index.h"
#include "cosr/storage/space.h"

namespace cosr {

/// The paper's "arbitrarily large array": a flat address space holding
/// disjoint object extents. The space CHECK-enforces the physical-layout
/// invariants every reallocator must respect:
///   * extents of distinct objects never overlap;
///   * with a CheckpointManager attached, writes never touch regions freed
///     since the last checkpoint, and moves are nonoverlapping (the
///     durability rules of Section 3.1);
///   * without a manager, a move may overlap its own source (memmove
///     semantics), matching the unconstrained model of Section 2.
///
/// Storage is a dense ObjectId-indexed slot table (ids are sequential
/// uint64s from the workload layer; sparse ids spill into a small overflow
/// map) plus a paged sorted-vector offset index (OffsetIndex): O(1) id
/// lookups, cache-friendly neighbor checks and O(1) footprint. Differential
/// fuzzing (tests/address_space_engine_test.cc) drives it against a plain
/// ordered-map reference model.
///
/// Thread-compatible: no internal locking — all access (including const
/// reads, which race with a concurrent mutator's index edits) must be
/// externally serialized. The concurrent service facade runs K spaces on K
/// threads by giving each shard a private instance, never by sharing one.
class AddressSpace final : public Space {
 public:
  explicit AddressSpace(CheckpointManager* checkpoints = nullptr)
      : checkpoints_(checkpoints) {}
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  void AddListener(SpaceListener* listener) override;
  void RemoveListener(SpaceListener* listener) override;

  /// Like Place, but returns false (touching nothing) when `id` is already
  /// placed. Single lookup: lets allocator hot paths skip a separate
  /// contains() check and build error strings only on the failure branch.
  bool TryPlace(ObjectId id, const Extent& extent) override;

  /// Moves an existing object to `to` (length must match).
  void Move(ObjectId id, const Extent& to) override;

  /// Applies the plans in order through Move's own step (see
  /// Space::ApplyMoves), then CHECKs that no id repeated.
  using Space::ApplyMoves;
  void ApplyMoves(const MovePlan* plans, std::size_t count) override;

  /// Like Remove, but returns false when `id` is absent; on success stores
  /// the freed extent in *removed.
  bool TryRemove(ObjectId id, Extent* removed) override;

  bool contains(ObjectId id) const override;
  Extent extent_of(ObjectId id) const override;
  bool TryExtentOf(ObjectId id, Extent* extent) const override;

  /// Largest end address of any placed object (the literal "footprint" of
  /// the paper). O(1): reads the offset index tail.
  std::uint64_t footprint() const override;

  /// Largest end address among objects starting in [lo, hi) (the
  /// sub-range-scoped footprint query of Space). O(log n).
  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override;

  /// Sum of the lengths of all placed objects.
  std::uint64_t live_volume() const override { return live_volume_; }
  std::size_t object_count() const override { return count_; }

  /// Runs a checkpoint: releases frozen regions (if a manager is attached)
  /// and notifies listeners.
  void Checkpoint() override;

  CheckpointManager* checkpoint_manager() const override {
    return checkpoints_;
  }

  /// All (id, extent) pairs in ascending offset order.
  std::vector<std::pair<ObjectId, Extent>> Snapshot() const override;

  /// Verifies internal consistency (disjointness, index agreement). Returns
  /// true on success; used by tests as a belt-and-suspenders check.
  bool SelfCheck() const override;

 private:
  /// Mutable slot of a placed object, or nullptr. Dense ids resolve with
  /// one page-table probe; the overflow map is consulted only when
  /// non-empty.
  Extent* SlotFor(ObjectId id);
  const Extent* SlotFor(ObjectId id) const;

  /// Whether a fresh id may live in the dense table (growing it at most
  /// geometrically); everything else goes to the overflow map.
  bool DenseEligible(ObjectId id) const {
    return id < slots_.size() + slots_.size() / 2 + kDenseFloor;
  }

  /// Inserts into the offset index and CHECKs the new entry against its
  /// neighbors — with pairwise-disjoint existing entries, only the direct
  /// neighbors can overlap, so this enforces full disjointness inductively.
  void IndexInsertChecked(ObjectId id, const Extent& extent);

  /// The one move step behind Move and ApplyMoves: CHECKs that `id` is
  /// placed with `to`'s length and, under a manager, the Section 3.1 move
  /// rule; then re-indexes the object at `to` (CHECKing it against its
  /// neighbors) and freezes its source. Stores the source in *from and
  /// returns false, touching nothing, for a no-op move.
  bool MoveOne(ObjectId id, const Extent& to, Extent* from);

  static constexpr std::size_t kDenseFloor = 4096;

  /// The dense id-indexed slot table, in fixed-size pages behind a small
  /// page array: a slot is one load past that array (a std::deque needs two
  /// dependent loads), and slots never move as the table grows, so
  /// SlotFor's pointers survive growth.
  class DenseSlots {
   public:
    std::size_t size() const { return size_; }
    Extent& operator[](std::size_t id) {
      return pages_[id >> kPageBits][id & kPageMask];
    }
    const Extent& operator[](std::size_t id) const {
      return pages_[id >> kPageBits][id & kPageMask];
    }
    /// Covers ids below `size` (never shrinks); new slots are empty.
    void GrowTo(std::size_t size);

   private:
    static constexpr unsigned kPageBits = 10;  // 1024 slots, 16 KiB a page
    static constexpr std::size_t kPageMask =
        (std::size_t{1} << kPageBits) - 1;
    std::vector<std::unique_ptr<Extent[]>> pages_;
    std::size_t size_ = 0;
  };

  CheckpointManager* checkpoints_;
  std::vector<SpaceListener*> listeners_;
  std::uint64_t live_volume_ = 0;
  DenseSlots slots_;  // length == 0 means the slot is empty
  std::unordered_map<ObjectId, Extent> overflow_;
  OffsetIndex index_;
  std::size_t count_ = 0;

  // Reused ApplyMoves scratch (avoids per-batch allocation in move storms).
  std::vector<MoveRecord> batch_records_;
};

}  // namespace cosr

#endif  // COSR_STORAGE_ADDRESS_SPACE_H_
