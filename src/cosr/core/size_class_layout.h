#ifndef COSR_CORE_SIZE_CLASS_LAYOUT_H_
#define COSR_CORE_SIZE_CLASS_LAYOUT_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cosr/common/check.h"
#include "cosr/core/flush_listener.h"
#include "cosr/core/layout.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"

namespace cosr {

/// Shared machinery of the three cost-oblivious variants (Sections 2, 3.2,
/// 3.3): the size-class region layout of Invariants 2.2-2.4, buffer
/// placement, dummy delete records, boundary-class computation, and the
/// layout invariant checker. Subclasses implement the request handling and
/// the flush procedure appropriate to their model.
class SizeClassLayout : public Reallocator {
 public:
  /// Largest size class with a region (0 when empty).
  int max_size_class() const { return static_cast<int>(regions_.size()) - 1; }
  const Region& region(int size_class) const;
  std::uint64_t volume_in_class(int size_class) const;
  bool contains(ObjectId id) const { return objects_.count(id) > 0; }

  std::uint64_t reserved_footprint() const override {
    return regions_.back().region_end();
  }
  std::uint64_t volume() const override { return total_volume_; }

  std::uint64_t flush_count() const { return flush_count_; }
  std::uint64_t move_count() const { return move_count_; }
  /// Total volume physically moved so far (sum of moved objects' sizes).
  std::uint64_t moved_volume() const { return moved_volume_; }
  /// High-water mark of the physical footprint, including transient
  /// overflow/working space used during flushes.
  std::uint64_t max_temp_footprint() const { return max_temp_footprint_; }
  double epsilon() const { return epsilon_; }
  /// Running maximum object size (the paper's ∆).
  std::uint64_t delta() const { return delta_; }

  void set_flush_listener(FlushListener* listener) {
    flush_listener_ = listener;
  }

  /// Verifies Invariants 2.2-2.4 plus bookkeeping consistency against the
  /// address space. Returns a non-OK status describing the first violation.
  /// Valid between requests (not mid-flush).
  virtual Status CheckInvariants() const;

 protected:
  struct ObjectInfo {
    std::uint64_t size = 0;
    int size_class = 0;
    bool in_buffer = false;
    int region = 0;  // region index where the object currently lives
    /// Index of the object's entry in its container (the region's
    /// payload_objects or buffer_entries, or the deamortized tail), so a
    /// delete reaches that entry in O(1).
    std::uint32_t slot = 0;
  };
  // The slot sits in what was the struct's tail padding.
  static_assert(sizeof(ObjectInfo) == 24, "ObjectInfo grew");

  SizeClassLayout(Space* space, double epsilon);

  /// Places (or, for adopted objects, moves) `id` into the earliest buffer
  /// j >= cls with room. Returns false when no buffer has room.
  bool TryBufferInsert(ObjectId id, std::uint64_t size, int cls,
                       bool already_placed);

  /// Adds a dummy delete record of the given size/class to the earliest
  /// buffer j >= cls with room. Returns false when no buffer has room.
  bool TryBufferDummy(std::uint64_t size, int cls);

  /// Largest buffer index an update of class `cls` may use. The paper's
  /// rule spills to any j >= cls; the ablation restricts to j == cls
  /// (see CostObliviousReallocator::Options::spill_to_higher_buffers).
  int BufferSearchLimit(int cls) const {
    return spill_upward_ ? max_size_class() : cls;
  }

  /// Creates regions up to `cls` for a new largest class and places the
  /// object in its fresh payload segment (the +w+eps'w rule of Section 2).
  void CreateNewLargestClass(ObjectId id, std::uint64_t size, int cls,
                             bool already_placed);

  /// The maximum b such that all buffered entries in regions >= b and the
  /// triggering request belong to classes >= b.
  int ComputeBoundary(int trigger_class) const;

  void PlaceOrMove(ObjectId id, const Extent& extent, bool already_placed);
  void MoveTracked(ObjectId id, const Extent& to);

  /// Move-plan staging for the flush paths: PlanMove stages, and
  /// FlushPlannedMoves applies everything staged so far as one
  /// Space::ApplyMoves batch (one batch per flush stage, or per
  /// checkpoint phase in the durability variants). Staged plans must be
  /// applied before anything reads the movers' extents again.
  void PlanMove(ObjectId id, const Extent& to) {
    move_batch_.push_back(MovePlan{id, to});
  }
  void FlushPlannedMoves();

  /// The slot the next entry appended to `entries` will occupy.
  template <typename Entry>
  static std::uint32_t NextSlot(const std::vector<Entry>& entries) {
    COSR_CHECK_LT(entries.size(), UINT32_MAX);
    return static_cast<std::uint32_t>(entries.size());
  }

  /// Payload membership changes route through these so Region::payload_live
  /// and Region::payload_holes stay exact without per-flush re-derivation.
  /// AppendPayloadObject returns the new entry's slot; ErasePayloadObject
  /// leaves a tombstone at `info.slot`.
  static std::uint32_t AppendPayloadObject(Region& region, ObjectId id,
                                           std::uint64_t size) {
    const std::uint32_t slot = NextSlot(region.payload_objects);
    region.payload_objects.push_back(id);
    region.payload_live += size;
    return slot;
  }
  static void ErasePayloadObject(Region& region, ObjectId id,
                                 const ObjectInfo& info);
  /// Turns `id`'s own entry at `slot` of a buffer (or the deamortized tail)
  /// into its dummy delete record: its space stays consumed until the next
  /// flush.
  static void MakeDummyRecord(std::vector<BufferEntry>& entries, ObjectId id,
                              std::uint32_t slot);
  /// Drops the tombstones from the payload lists of regions [from, to] and
  /// re-points the slots of the objects that shift. Every flush calls it
  /// for its suffix before the pack/unpack pass walks those lists.
  void CompactPayloads(int from, int to);
  void Notify(FlushEvent::Stage stage, int boundary);
  void NoteTempFootprint(std::uint64_t end);

  /// Checks the per-region invariants and accumulates per-class volume,
  /// total volume, and object count for the caller's global accounting
  /// checks (which differ between variants).
  Status CheckRegions(std::vector<std::uint64_t>& class_volume,
                      std::uint64_t& total, std::size_t& count) const;
  /// The CheckRegions failure for an object whose stored slot does not
  /// point at its own entry.
  static Status StaleSlot(const char* what, ObjectId id, std::uint32_t slot,
                          std::size_t index);

  Space* space_;
  double epsilon_;
  /// Whether updates may spill into buffers of larger classes (the paper's
  /// rule). Disabled only by the ablation experiment.
  bool spill_upward_ = true;
  std::vector<Region> regions_;         // index = size class; [0] unused
  std::vector<std::uint64_t> volumes_;  // active volume per class
  std::unordered_map<ObjectId, ObjectInfo> objects_;
  std::uint64_t total_volume_ = 0;
  std::uint64_t delta_ = 0;
  std::uint64_t flush_count_ = 0;
  std::uint64_t move_count_ = 0;
  std::uint64_t moved_volume_ = 0;
  std::uint64_t max_temp_footprint_ = 0;
  FlushListener* flush_listener_ = nullptr;
  std::vector<MovePlan> move_batch_;  // staged flush moves (PlanMove)
};

}  // namespace cosr

#endif  // COSR_CORE_SIZE_CLASS_LAYOUT_H_
