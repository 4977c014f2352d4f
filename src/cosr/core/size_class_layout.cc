#include "cosr/core/size_class_layout.h"

#include <algorithm>
#include <string>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/size_class.h"

namespace cosr {

SizeClassLayout::SizeClassLayout(Space* space, double epsilon)
    : space_(space), epsilon_(epsilon) {
  COSR_CHECK(space_ != nullptr);
  COSR_CHECK(epsilon_ > 0.0 && epsilon_ <= 1.0);
  regions_.resize(1);  // region 0 is unused; classes are 1-based
  volumes_.resize(1, 0);
}

const Region& SizeClassLayout::region(int size_class) const {
  COSR_CHECK(size_class >= 1 && size_class <= max_size_class());
  return regions_[static_cast<std::size_t>(size_class)];
}

std::uint64_t SizeClassLayout::volume_in_class(int size_class) const {
  COSR_CHECK(size_class >= 1 && size_class <= max_size_class());
  return volumes_[static_cast<std::size_t>(size_class)];
}

void SizeClassLayout::PlaceOrMove(ObjectId id, const Extent& extent,
                                  bool already_placed) {
  if (already_placed) {
    MoveTracked(id, extent);
  } else {
    space_->Place(id, extent);
  }
}

void SizeClassLayout::MoveTracked(ObjectId id, const Extent& to) {
  const std::uint64_t size = space_->extent_of(id).length;
  space_->Move(id, to);
  ++move_count_;
  moved_volume_ += size;
}

void SizeClassLayout::FlushPlannedMoves() {
  if (move_batch_.empty()) return;
  space_->ApplyMoves(move_batch_.data(), move_batch_.size());
  move_count_ += move_batch_.size();
  for (const MovePlan& plan : move_batch_) moved_volume_ += plan.to.length;
  move_batch_.clear();
}

void SizeClassLayout::Notify(FlushEvent::Stage stage, int boundary) {
  if (flush_listener_ == nullptr) return;
  FlushEvent event;
  event.stage = stage;
  event.boundary_class = boundary;
  flush_listener_->OnFlushEvent(event);
}

void SizeClassLayout::NoteTempFootprint(std::uint64_t end) {
  max_temp_footprint_ = std::max(max_temp_footprint_, end);
}

void SizeClassLayout::ErasePayloadObject(Region& region, ObjectId id,
                                         const ObjectInfo& info) {
  COSR_CHECK_MSG(info.slot < region.payload_objects.size() &&
                     region.payload_objects[info.slot] == id,
                 "stale payload slot for object " + std::to_string(id));
  region.payload_objects[info.slot] = kInvalidObjectId;
  ++region.payload_holes;
  region.payload_live -= info.size;
}

void SizeClassLayout::MakeDummyRecord(std::vector<BufferEntry>& entries,
                                      ObjectId id, std::uint32_t slot) {
  COSR_CHECK_MSG(slot < entries.size() && entries[slot].id == id,
                 "stale buffer slot for object " + std::to_string(id));
  entries[slot].id = kInvalidObjectId;
}

void SizeClassLayout::CompactPayloads(int from, int to) {
  for (int i = from; i <= to; ++i) {
    Region& r = regions_[static_cast<std::size_t>(i)];
    if (r.payload_holes == 0) continue;
    std::vector<ObjectId>& ids = r.payload_objects;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] == kInvalidObjectId) continue;
      if (kept != k) {
        ids[kept] = ids[k];
        objects_.at(ids[k]).slot = static_cast<std::uint32_t>(kept);
      }
      ++kept;
    }
    ids.resize(kept);
    r.payload_holes = 0;
  }
}

bool SizeClassLayout::TryBufferInsert(ObjectId id, std::uint64_t size,
                                      int cls, bool already_placed) {
  for (int j = cls; j <= BufferSearchLimit(cls); ++j) {
    Region& r = regions_[static_cast<std::size_t>(j)];
    if (r.buffer_free() < size) continue;
    const std::uint64_t offset = r.buffer_start() + r.buffer_used;
    PlaceOrMove(id, Extent{offset, size}, already_placed);
    objects_.emplace(id, ObjectInfo{size, cls, /*in_buffer=*/true, j,
                                    NextSlot(r.buffer_entries)});
    r.buffer_entries.push_back(BufferEntry{id, size, cls});
    r.buffer_used += size;
    r.min_buffer_class = std::min(r.min_buffer_class, cls);
    return true;
  }
  return false;
}

bool SizeClassLayout::TryBufferDummy(std::uint64_t size, int cls) {
  for (int j = cls; j <= BufferSearchLimit(cls); ++j) {
    Region& r = regions_[static_cast<std::size_t>(j)];
    if (r.buffer_free() < size) continue;
    r.buffer_entries.push_back(BufferEntry{kInvalidObjectId, size, cls});
    r.buffer_used += size;
    r.min_buffer_class = std::min(r.min_buffer_class, cls);
    return true;
  }
  return false;
}

void SizeClassLayout::CreateNewLargestClass(ObjectId id, std::uint64_t size,
                                            int cls, bool already_placed) {
  const std::uint64_t end = regions_.back().region_end();
  while (max_size_class() < cls) {
    Region r;
    r.payload_start = end;
    regions_.push_back(r);
    volumes_.push_back(0);
  }
  Region& r = regions_.back();
  r.payload_capacity = size;
  r.buffer_capacity = FloorScale(epsilon_, size);
  PlaceOrMove(id, Extent{r.payload_start, size}, already_placed);
  const std::uint32_t slot = AppendPayloadObject(r, id, size);
  volumes_.back() = size;
  total_volume_ += size;
  objects_.emplace(id, ObjectInfo{size, cls, /*in_buffer=*/false, cls, slot});
  NoteTempFootprint(reserved_footprint());
}

int SizeClassLayout::ComputeBoundary(int trigger_class) const {
  int b = trigger_class;
  for (int j = max_size_class(); j >= 1; --j) {
    if (j < b) break;
    const Region& r = regions_[static_cast<std::size_t>(j)];
    if (!r.buffer_entries.empty()) b = std::min(b, r.min_buffer_class);
  }
  return b;
}

Status SizeClassLayout::CheckInvariants() const {
  std::vector<std::uint64_t> class_volume(volumes_.size(), 0);
  std::uint64_t total = 0;
  std::size_t object_count = 0;
  COSR_RETURN_IF_ERROR(CheckRegions(class_volume, total, object_count));
  for (std::size_t i = 1; i < volumes_.size(); ++i) {
    if (class_volume[i] != volumes_[i]) {
      return Status::Internal("volume accounting mismatch for class " +
                              std::to_string(i));
    }
  }
  if (total != total_volume_ || total != space_->live_volume() ||
      object_count != objects_.size() ||
      object_count != space_->object_count()) {
    return Status::Internal("global volume/object accounting mismatch");
  }
  // Invariant 2.3: the overflow segment is empty outside flushes.
  if (space_->footprint() > reserved_footprint()) {
    return Status::Internal("object beyond the reserved structure end");
  }
  return Status::Ok();
}

Status SizeClassLayout::StaleSlot(const char* what, ObjectId id,
                                  std::uint32_t slot, std::size_t index) {
  return Status::Internal(std::string(what) + " " + std::to_string(id) +
                          " has slot " + std::to_string(slot) +
                          " but sits at index " + std::to_string(index));
}

Status SizeClassLayout::CheckRegions(std::vector<std::uint64_t>& class_volume,
                                     std::uint64_t& total,
                                     std::size_t& object_count) const {
  // Regions tile the address space contiguously (Invariant 2.2).
  for (int i = 1; i < max_size_class(); ++i) {
    const Region& r = regions_[static_cast<std::size_t>(i)];
    const Region& next = regions_[static_cast<std::size_t>(i) + 1];
    if (next.payload_start != r.region_end()) {
      return Status::Internal("region " + std::to_string(i + 1) +
                              " does not abut region " + std::to_string(i));
    }
  }
  for (int i = 1; i <= max_size_class(); ++i) {
    const Region& r = regions_[static_cast<std::size_t>(i)];
    // Payload objects: class i only (Invariant 2.3), in bounds, ascending;
    // tombstones (deleted since the region's last flush) are only counted.
    std::uint64_t prev_end = r.payload_start;
    std::uint64_t payload_sum = 0;
    std::size_t tombstones = 0;
    for (std::size_t k = 0; k < r.payload_objects.size(); ++k) {
      const ObjectId id = r.payload_objects[k];
      if (id == kInvalidObjectId) {
        ++tombstones;
        continue;
      }
      auto it = objects_.find(id);
      if (it == objects_.end()) {
        return Status::Internal("payload object without bookkeeping");
      }
      const ObjectInfo& info = it->second;
      if (info.size_class != i || info.in_buffer || info.region != i) {
        return Status::Internal("payload object misfiled in region " +
                                std::to_string(i));
      }
      if (info.slot != k) {
        return StaleSlot("payload object", id, info.slot, k);
      }
      const Extent& e = space_->extent_of(id);
      if (e.length != info.size || SizeClassOf(info.size) != i) {
        return Status::Internal("payload object size/class mismatch");
      }
      if (e.offset < prev_end || e.end() > r.buffer_start()) {
        return Status::Internal("payload object out of segment bounds");
      }
      prev_end = e.end();
      payload_sum += info.size;
      class_volume[static_cast<std::size_t>(i)] += info.size;
      total += info.size;
      ++object_count;
    }
    if (payload_sum != r.payload_live) {
      return Status::Internal("payload_live accounting mismatch in region " +
                              std::to_string(i));
    }
    if (tombstones != r.payload_holes) {
      return Status::Internal(
          "region " + std::to_string(i) + " counts " +
          std::to_string(r.payload_holes) + " payload holes but holds " +
          std::to_string(tombstones) + " tombstones");
    }
    // Buffer entries: classes <= i (Invariant 2.2(4)), packed in order.
    std::uint64_t used = 0;
    std::uint64_t cursor = r.buffer_start();
    for (std::size_t k = 0; k < r.buffer_entries.size(); ++k) {
      const BufferEntry& entry = r.buffer_entries[k];
      if (entry.size_class > i) {
        return Status::Internal("buffer entry of class " +
                                std::to_string(entry.size_class) +
                                " in region " + std::to_string(i));
      }
      if (entry.live()) {
        auto it = objects_.find(entry.id);
        if (it == objects_.end()) {
          return Status::Internal("buffered object without bookkeeping");
        }
        const ObjectInfo& info = it->second;
        if (!info.in_buffer || info.region != i ||
            info.size != entry.size || info.size_class != entry.size_class) {
          return Status::Internal("buffered object misfiled");
        }
        if (info.slot != k) {
          return StaleSlot("buffered object", entry.id, info.slot, k);
        }
        const Extent& e = space_->extent_of(entry.id);
        if (e.offset != cursor || e.length != entry.size) {
          return Status::Internal("buffered object not packed in order");
        }
        class_volume[static_cast<std::size_t>(info.size_class)] += info.size;
        total += info.size;
        ++object_count;
      }
      cursor += entry.size;
      used += entry.size;
    }
    if (used != r.buffer_used || used > r.buffer_capacity) {
      return Status::Internal("buffer accounting mismatch in region " +
                              std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace cosr
