#ifndef COSR_CORE_LAYOUT_H_
#define COSR_CORE_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "cosr/common/types.h"

namespace cosr {

/// One entry in a buffer segment: a live buffered object, or a dummy delete
/// record that consumes the deleted object's size until the next flush
/// (Section 2, "Allocating and deallocating").
struct BufferEntry {
  ObjectId id = kInvalidObjectId;  // kInvalidObjectId => dummy delete record
  std::uint64_t size = 0;
  int size_class = 0;  // class of the inserted (or deleted) object

  bool live() const { return id != kInvalidObjectId; }
};

/// The i-th region of the array (Invariant 2.2): a payload segment that only
/// stores class-i objects, followed by a buffer segment that stores objects
/// (and dummy records) of classes <= i. Capacities are fixed between flushes
/// of this region: payload capacity is V(i) as of the region's last flush and
/// buffer capacity is floor(eps' * that) (Invariant 2.4).
struct Region {
  std::uint64_t payload_start = 0;
  std::uint64_t payload_capacity = 0;
  std::uint64_t buffer_capacity = 0;
  std::uint64_t buffer_used = 0;
  /// Smallest size class among buffer entries since the region's last flush;
  /// drives the boundary-class computation for flushes.
  int min_buffer_class = std::numeric_limits<int>::max();

  /// Payload objects in ascending offset order. A delete overwrites the
  /// object's entry with a kInvalidObjectId tombstone (O(1) via the slot
  /// kept in SizeClassLayout::ObjectInfo); the region's next flush removes
  /// the tombstones before repacking. The list grows only when the region is
  /// created or flushed, so it never exceeds its length at that point.
  std::vector<ObjectId> payload_objects;
  /// Number of tombstones in payload_objects.
  std::size_t payload_holes = 0;
  /// Append-only until ResetBuffer, so an entry's index stays valid; a
  /// delete turns the object's own entry into its dummy record.
  std::vector<BufferEntry> buffer_entries;
  /// Sum of the live payload objects' sizes, maintained incrementally (via
  /// SizeClassLayout::AppendPayloadObject / ErasePayloadObject) so flushes
  /// never re-derive the live payload volume by walking the object table.
  std::uint64_t payload_live = 0;

  /// Live payload objects (payload_objects minus tombstones).
  std::size_t payload_count() const {
    return payload_objects.size() - payload_holes;
  }

  std::uint64_t buffer_start() const {
    return payload_start + payload_capacity;
  }
  std::uint64_t buffer_end() const { return buffer_start() + buffer_capacity; }
  std::uint64_t region_end() const { return buffer_end(); }
  /// Remaining buffer capacity. Saturates at zero: the checkpointed variant
  /// transiently overfills the last buffer with the flush-triggering insert.
  std::uint64_t buffer_free() const {
    return buffer_used >= buffer_capacity ? 0 : buffer_capacity - buffer_used;
  }

  void ResetBuffer() {
    buffer_entries.clear();
    buffer_used = 0;
    min_buffer_class = std::numeric_limits<int>::max();
  }
};

}  // namespace cosr

#endif  // COSR_CORE_LAYOUT_H_
