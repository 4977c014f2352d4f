#include "cosr/core/cost_oblivious_reallocator.h"

#include <algorithm>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/size_class.h"

namespace cosr {

CostObliviousReallocator::CostObliviousReallocator(Space* space,
                                                   Options options)
    : SizeClassLayout(space, options.epsilon) {
  COSR_CHECK_MSG(space_->checkpoint_manager() == nullptr,
                 "amortized variant requires an unconstrained space; use "
                 "CheckpointedReallocator for the durability model");
  spill_upward_ = options.spill_to_higher_buffers;
}

Status CostObliviousReallocator::Insert(ObjectId id, std::uint64_t size) {
  return InsertImpl(id, size, /*already_placed=*/false);
}

Status CostObliviousReallocator::InsertExisting(ObjectId id) {
  if (!space_->contains(id)) {
    return Status::NotFound("object " + std::to_string(id) +
                            " not placed in the address space");
  }
  return InsertImpl(id, space_->extent_of(id).length, /*already_placed=*/true);
}

Status CostObliviousReallocator::InsertImpl(ObjectId id, std::uint64_t size,
                                            bool already_placed) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  if (objects_.count(id) > 0) {
    return Status::AlreadyExists("object " + std::to_string(id));
  }
  const int cls = SizeClassOf(size);
  delta_ = std::max(delta_, size);

  if (cls > max_size_class()) {
    CreateNewLargestClass(id, size, cls, already_placed);
    return Status::Ok();
  }

  volumes_[static_cast<std::size_t>(cls)] += size;
  total_volume_ += size;

  if (TryBufferInsert(id, size, cls, already_placed)) return Status::Ok();

  Pending pending;
  pending.kind = PendingKind::kInsert;
  pending.id = id;
  pending.size = size;
  pending.size_class = cls;
  pending.already_placed = already_placed;
  Flush(ComputeBoundary(cls), pending);
  return Status::Ok();
}

Status CostObliviousReallocator::Delete(ObjectId id) {
  return DeleteImpl(id, /*extract=*/false, /*target_offset=*/0);
}

Status CostObliviousReallocator::ExtractTo(ObjectId id,
                                           std::uint64_t target_offset) {
  return DeleteImpl(id, /*extract=*/true, target_offset);
}

Status CostObliviousReallocator::DeleteImpl(ObjectId id, bool extract,
                                            std::uint64_t target_offset) {
  auto it = objects_.find(id);
  if (it == objects_.end()) {
    return Status::NotFound("object " + std::to_string(id));
  }
  const ObjectInfo info = it->second;
  objects_.erase(it);
  volumes_[static_cast<std::size_t>(info.size_class)] -= info.size;
  total_volume_ -= info.size;

  if (extract) {
    MoveTracked(id, Extent{target_offset, info.size});
  } else {
    space_->Remove(id);
  }

  Region& home = regions_[static_cast<std::size_t>(info.region)];
  if (info.in_buffer) {
    MakeDummyRecord(home.buffer_entries, id, info.slot);
    return Status::Ok();
  }

  // Payload object: leave a hole, then add a dummy delete record consuming
  // `size` space in the earliest buffer j >= class with room.
  ErasePayloadObject(home, id, info);

  if (TryBufferDummy(info.size, info.size_class)) return Status::Ok();

  Pending pending;
  pending.kind = PendingKind::kDelete;
  pending.size_class = info.size_class;
  Flush(ComputeBoundary(info.size_class), pending);
  return Status::Ok();
}

void CostObliviousReallocator::Flush(int boundary, const Pending& pending) {
  ++flush_count_;
  Notify(FlushEvent::Stage::kBegin, boundary);
  const int maxc = max_size_class();
  COSR_CHECK(boundary >= 1 && boundary <= maxc);
  const std::uint64_t start =
      regions_[static_cast<std::size_t>(boundary)].payload_start;

  // New segment sizes per Invariant 2.4: payload exactly V_t(i), buffer
  // floor(eps * V_t(i)). volumes_ already reflects the pending request.
  std::vector<std::uint64_t> new_payload(static_cast<std::size_t>(maxc) + 1,
                                         0);
  std::vector<std::uint64_t> new_buffer(static_cast<std::size_t>(maxc) + 1,
                                        0);
  std::uint64_t new_end = start;
  for (int i = boundary; i <= maxc; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    new_payload[idx] = volumes_[idx];
    new_buffer[idx] = FloorScale(epsilon_, volumes_[idx]);
    new_end += new_payload[idx] + new_buffer[idx];
  }
  const std::uint64_t old_end = regions_.back().region_end();

  // Step 1: evacuate live buffered objects to the overflow segment, which
  // starts after both the old and the new suffix; drop dummy records. The
  // whole stage is one ApplyMoves batch (as are steps 2-4): the space
  // validates the batch once and listeners see one coherent event per
  // stage instead of per-move fan-out.
  std::uint64_t overflow = std::max(new_end, old_end);
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
  Notify(FlushEvent::Stage::kBuffersEvacuated, boundary);
  CompactPayloads(boundary, maxc);

  // Step 2: compact payloads left (smallest class first), removing holes.
  std::uint64_t pack = start;
  for (int i = boundary; i <= maxc; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    for (ObjectId id : r.payload_objects) {
      const std::uint64_t size = objects_.at(id).size;
      const Extent& current = space_->extent_of(id);
      COSR_CHECK_LE(pack, current.offset);
      if (current.offset != pack) PlanMove(id, Extent{pack, size});
      pack += size;
    }
  }
  FlushPlannedMoves();
  Notify(FlushEvent::Stage::kCompacted, boundary);

  // Step 3: unpack payloads right-to-left to their final positions (each
  // move is no earlier than the current location).
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
  // Region::payload_live is maintained incrementally, so the unpack pass
  // no longer re-derives each region's live volume from the object table.
  for (int i = maxc; i >= boundary; --i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    std::uint64_t cursor =
        final_start[static_cast<std::size_t>(i)] + r.payload_live;
    for (auto rit = r.payload_objects.rbegin();
         rit != r.payload_objects.rend(); ++rit) {
      const std::uint64_t size = objects_.at(*rit).size;
      cursor -= size;
      const Extent& current = space_->extent_of(*rit);
      COSR_CHECK_LE(current.offset, cursor);
      if (current.offset != cursor) PlanMove(*rit, Extent{cursor, size});
    }
  }
  FlushPlannedMoves();
  Notify(FlushEvent::Stage::kUnpacked, boundary);

  // Step 4: place overflow objects at the ends of their payload segments
  // and install the new region metadata.
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

  // Finally place the pending insert in the gap Invariant 2.4 reserved at
  // the end of its payload segment. payload_live already counts the
  // overflow arrivals, so no re-walk of overflow_by_class is needed.
  if (pending.kind == PendingKind::kInsert) {
    const auto idx = static_cast<std::size_t>(pending.size_class);
    Region& r = regions_[idx];
    PlaceOrMove(pending.id, Extent{r.payload_start + r.payload_live,
                                   pending.size},
                pending.already_placed);
    const std::uint32_t slot = AppendPayloadObject(r, pending.id,
                                                   pending.size);
    objects_.emplace(pending.id,
                     ObjectInfo{pending.size, pending.size_class,
                                /*in_buffer=*/false, pending.size_class,
                                slot});
  }
  Notify(FlushEvent::Stage::kEnd, boundary);
}

}  // namespace cosr
