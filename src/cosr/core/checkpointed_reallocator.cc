#include "cosr/core/checkpointed_reallocator.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/core/size_class.h"

namespace cosr {

CheckpointedReallocator::CheckpointedReallocator(Space* space,
                                                 Options options)
    : SizeClassLayout(space, options.epsilon) {
  COSR_CHECK_MSG(space_->checkpoint_manager() != nullptr,
                 "CheckpointedReallocator requires a CheckpointManager");
}

Status CheckpointedReallocator::Insert(ObjectId id, std::uint64_t size) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  if (objects_.count(id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  const int cls = SizeClassOf(size);
  delta_ = std::max(delta_, size);

  if (cls > max_size_class()) {
    CreateNewLargestClass(id, size, cls, /*already_placed=*/false);
    return Status::Ok();
  }

  volumes_[static_cast<std::size_t>(cls)] += size;
  total_volume_ += size;

  if (TryBufferInsert(id, size, cls, /*already_placed=*/false)) {
    return Status::Ok();
  }

  // Insert-before-flush: place the object at the end of the last buffer
  // segment, filling and exceeding its capacity, then flush. L is the
  // reserved end before this placement; the new object sits at [L, L+w).
  const std::uint64_t structure_end = reserved_footprint();
  space_->Place(id, Extent{structure_end, size});
  Region& last = regions_.back();
  objects_.emplace(id, ObjectInfo{size, cls, /*in_buffer=*/true,
                                  max_size_class(),
                                  NextSlot(last.buffer_entries)});
  last.buffer_entries.push_back(BufferEntry{id, size, cls});
  last.buffer_used += size;
  last.min_buffer_class = std::min(last.min_buffer_class, cls);
  NoteTempFootprint(structure_end + size);

  FlushWithCheckpoints(ComputeBoundary(cls), size, structure_end);
  return Status::Ok();
}

Status CheckpointedReallocator::Delete(ObjectId id) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  const ObjectInfo info = it->second;
  objects_.erase(it);
  volumes_[static_cast<std::size_t>(info.size_class)] -= info.size;
  total_volume_ -= info.size;
  space_->Remove(id);

  Region& home = regions_[static_cast<std::size_t>(info.region)];
  if (info.in_buffer) {
    MakeDummyRecord(home.buffer_entries, id, info.slot);
    return Status::Ok();
  }

  ErasePayloadObject(home, id, info);

  if (TryBufferDummy(info.size, info.size_class)) return Status::Ok();

  // No room for the dummy record: flush without consuming space for it.
  FlushWithCheckpoints(ComputeBoundary(info.size_class), /*trigger_size=*/0,
                       reserved_footprint());
  return Status::Ok();
}

void CheckpointedReallocator::FlushWithCheckpoints(
    int boundary, std::uint64_t trigger_size, std::uint64_t structure_end) {
  CheckpointManager* manager = space_->checkpoint_manager();
  const std::uint64_t checkpoints_before = manager->checkpoint_count();
  ++flush_count_;
  Notify(FlushEvent::Stage::kBegin, boundary);

  const int maxc = max_size_class();
  COSR_CHECK(boundary >= 1 && boundary <= maxc);
  const std::uint64_t start =
      regions_[static_cast<std::size_t>(boundary)].payload_start;

  std::vector<std::uint64_t> new_payload(static_cast<std::size_t>(maxc) + 1,
                                         0);
  std::vector<std::uint64_t> new_buffer(static_cast<std::size_t>(maxc) + 1,
                                        0);
  std::uint64_t new_suffix_end = start;
  std::uint64_t buffer_space = 0;  // the paper's B: flushed buffer capacity
  for (int i = boundary; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    new_payload[idx] = volumes_[idx];
    new_buffer[idx] = FloorScale(epsilon_, volumes_[idx]);
    new_suffix_end += new_payload[idx] + new_buffer[idx];
    buffer_space += regions_[idx].buffer_capacity;
  }
  // The paper uses L' = S' - w (desired footprint minus the triggering
  // insert). We keep the full S' instead: it guarantees every unpack move
  // shifts by at least B + ∆ >= the object's size, so moves are always
  // nonoverlapping even in small-structure corner cases, at the cost of at
  // most an extra ∆ of transient working space (see DESIGN.md).
  (void)trigger_size;
  const std::uint64_t work_area =
      std::max(structure_end, new_suffix_end) + buffer_space + delta_;
  const std::uint64_t phase_limit = buffer_space + delta_;

  // Step A: evacuate live buffered objects (including the triggering
  // insert) to [work_area, ...). Sources all end before L + ∆ <= work_area,
  // so a single inter-checkpoint window suffices — and the whole step is
  // one ApplyMoves batch, as is every checkpoint phase below: the space
  // validates the Lemma 3.2 nonoverlap property once per batch.
  std::uint64_t overflow = work_area;
  std::vector<std::vector<std::pair<ObjectId, std::uint64_t>>>
      overflow_by_class(static_cast<std::size_t>(maxc) + 1);
  for (int i = boundary; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (const BufferEntry& entry : r.buffer_entries) {
      if (!entry.live()) continue;
      PlanMove(entry.id, Extent{overflow, entry.size});
      overflow_by_class[static_cast<std::size_t>(entry.size_class)]
          .emplace_back(entry.id, entry.size);
      overflow += entry.size;
    }
    r.ResetBuffer();
  }
  FlushPlannedMoves();
  NoteTempFootprint(overflow);
  space_->Checkpoint();
  Notify(FlushEvent::Stage::kBuffersEvacuated, boundary);
  CompactPayloads(boundary, maxc);

  // Step B: pack payloads rightward, largest class first, so that the last
  // object ends at work_area. Every move shifts right by at least B + ∆,
  // hence never overlaps a live extent; phases cover at most B + ∆ of
  // target addresses with a checkpoint (preceded by the phase's batch)
  // after each phase.
  std::uint64_t pack_cursor = work_area;
  std::uint64_t phase_high = work_area;
  for (int i = maxc; i >= boundary; --i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (auto rit = r.payload_objects.rbegin();
         rit != r.payload_objects.rend(); ++rit) {
      const std::uint64_t size = objects_.at(*rit).size;
      pack_cursor -= size;
      if (phase_high - pack_cursor > phase_limit) {
        FlushPlannedMoves();
        space_->Checkpoint();
        phase_high = pack_cursor + size;
      }
      const Extent& current = space_->extent_of(*rit);
      COSR_CHECK_LE(current.offset, pack_cursor);
      if (current.offset != pack_cursor) {
        PlanMove(*rit, Extent{pack_cursor, size});
      }
    }
  }
  FlushPlannedMoves();
  space_->Checkpoint();
  Notify(FlushEvent::Stage::kCompacted, boundary);

  // Step C: unpack payloads leftward to their final positions, smallest
  // class first; phases cover at most B + ∆ of target addresses.
  std::vector<std::uint64_t> final_start(static_cast<std::size_t>(maxc) + 1,
                                         0);
  {
    std::uint64_t cursor = start;
    for (int i = boundary; i <= maxc; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      final_start[idx] = cursor;
      cursor += new_payload[idx] + new_buffer[idx];
    }
  }
  std::uint64_t phase_low = start;
  bool phase_open = false;
  for (int i = boundary; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    std::uint64_t cursor = final_start[static_cast<std::size_t>(i)];
    for (ObjectId id : r.payload_objects) {
      const std::uint64_t size = objects_.at(id).size;
      if (!phase_open) {
        phase_low = cursor;
        phase_open = true;
      } else if (cursor + size - phase_low > phase_limit) {
        FlushPlannedMoves();
        space_->Checkpoint();
        phase_low = cursor;
      }
      const Extent& current = space_->extent_of(id);
      COSR_CHECK_LE(cursor, current.offset);
      if (current.offset != cursor) PlanMove(id, Extent{cursor, size});
      cursor += size;
    }
  }
  FlushPlannedMoves();
  space_->Checkpoint();
  Notify(FlushEvent::Stage::kUnpacked, boundary);

  // Step D: move buffered objects from the overflow segment to the ends of
  // their payload segments. Sources are at or beyond work_area, targets end
  // before L' + ∆ <= work_area: a single window suffices.
  // Region::payload_live is maintained incrementally (unchanged by steps
  // B/C, which only move objects), so the arrival cursor needs no
  // re-derivation pass over the object table.
  for (int i = boundary; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    Region& r = regions_[idx];
    std::uint64_t cursor = final_start[idx] + r.payload_live;
    for (const auto& [id, size] : overflow_by_class[idx]) {
      PlanMove(id, Extent{cursor, size});
      ObjectInfo& info = objects_.at(id);
      info.in_buffer = false;
      info.region = i;
      info.slot = AppendPayloadObject(r, id, size);
      cursor += size;
    }
    r.payload_start = final_start[idx];
    r.payload_capacity = new_payload[idx];
    r.buffer_capacity = new_buffer[idx];
  }
  FlushPlannedMoves();
  // Final checkpoint: persists the rebuilt translation map so the next
  // flush's working area (which may be lower) can reuse space freed here.
  space_->Checkpoint();
  Notify(FlushEvent::Stage::kEnd, boundary);

  checkpoints_in_last_flush_ = manager->checkpoint_count() - checkpoints_before;
  max_checkpoints_per_flush_ =
      std::max(max_checkpoints_per_flush_, checkpoints_in_last_flush_);
}

}  // namespace cosr
