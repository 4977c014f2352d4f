#include "cosr/storage/address_space.h"

#include <algorithm>

#include "cosr/common/check.h"

namespace cosr {

namespace {

std::string OverlapMessage(const Extent& target, ObjectId other,
                           const Extent& other_extent) {
  return "target " + ToString(target) + " overlaps object " +
         std::to_string(other) + " at " + ToString(other_extent);
}

std::string FrozenMessage(const Extent& target) {
  return "write into frozen region " + ToString(target) +
         " (freed since last checkpoint)";
}

}  // namespace

void AddressSpace::AddListener(SpaceListener* listener) {
  COSR_CHECK(listener != nullptr);
  listeners_.push_back(listener);
}

void AddressSpace::RemoveListener(SpaceListener* listener) {
  listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                   listeners_.end());
}

// ------------------------------------------------------------- public API

bool AddressSpace::TryPlace(ObjectId id, const Extent& extent) {
  COSR_CHECK_MSG(extent.length > 0,
                 "empty extent for object " + std::to_string(id));
  const bool placed = engine_ == Engine::kFlat ? FlatTryPlace(id, extent)
                                               : MapTryPlace(id, extent);
  if (!placed) return false;
  live_volume_ += extent.length;
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnPlace(id, extent);
  }
  return true;
}

void AddressSpace::Move(ObjectId id, const Extent& to) {
  Extent from;
  const bool moved = engine_ == Engine::kFlat
                         ? FlatMoveInternal(id, to, &from)
                         : MapMoveInternal(id, to, &from);
  if (!moved) return;  // no-op move
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnMove(id, from, to);
  }
}

void AddressSpace::ApplyMoves(const MovePlan* plans, std::size_t count) {
  if (count == 0) return;
  if (engine_ == Engine::kFlat) {
    FlatApplyMoves(plans, count);
  } else {
    MapApplyMoves(plans, count);
  }
  NotifyMoves();
}

bool AddressSpace::TryRemove(ObjectId id, Extent* removed) {
  const bool ok = engine_ == Engine::kFlat ? FlatTryRemove(id, removed)
                                           : MapTryRemove(id, removed);
  if (!ok) return false;
  live_volume_ -= removed->length;
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(*removed);
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnRemove(id, *removed);
  }
  return true;
}

bool AddressSpace::contains(ObjectId id) const {
  return engine_ == Engine::kFlat ? FlatSlotFor(id) != nullptr
                                  : extents_.count(id) > 0;
}

Extent AddressSpace::extent_of(ObjectId id) const {
  if (engine_ == Engine::kFlat) {
    const Extent* slot = FlatSlotFor(id);
    COSR_CHECK_MSG(slot != nullptr,
                   "extent_of unplaced object " + std::to_string(id));
    return *slot;
  }
  auto it = extents_.find(id);
  COSR_CHECK_MSG(it != extents_.end(),
                 "extent_of unplaced object " + std::to_string(id));
  return it->second;
}

bool AddressSpace::TryExtentOf(ObjectId id, Extent* extent) const {
  if (engine_ == Engine::kFlat) {
    const Extent* slot = FlatSlotFor(id);
    if (slot == nullptr) return false;
    *extent = *slot;
    return true;
  }
  auto it = extents_.find(id);
  if (it == extents_.end()) return false;
  *extent = it->second;
  return true;
}

std::uint64_t AddressSpace::footprint() const {
  if (engine_ == Engine::kFlat) {
    // Extents are disjoint, so the rightmost-by-offset object also has the
    // largest end address; the index tail is O(1).
    const OffsetIndex::Entry* last = index_.Last();
    return last == nullptr ? 0 : FlatSlotFor(last->id)->end();
  }
  return map_footprint_;
}

std::uint64_t AddressSpace::footprint_in(std::uint64_t lo,
                                         std::uint64_t hi) const {
  // Extents are disjoint, so among objects starting below `hi` the one
  // with the largest offset also has the largest end: one predecessor
  // lookup answers the query on either engine. A predecessor starting
  // below `lo` means the range itself is empty.
  if (engine_ == Engine::kFlat) {
    const OffsetIndex::Entry* pred = index_.LastBefore(hi);
    if (pred == nullptr || pred->offset < lo) return 0;
    return FlatSlotFor(pred->id)->end();
  }
  auto it = by_offset_.lower_bound(hi);
  if (it == by_offset_.begin()) return 0;
  --it;
  if (it->first < lo) return 0;
  return extents_.at(it->second).end();
}

void AddressSpace::Checkpoint() {
  if (checkpoints_ != nullptr) checkpoints_->Checkpoint();
  const std::uint64_t seq =
      checkpoints_ != nullptr ? checkpoints_->checkpoint_count() : 0;
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnCheckpoint(seq);
  }
}

std::vector<std::pair<ObjectId, Extent>> AddressSpace::Snapshot() const {
  std::vector<std::pair<ObjectId, Extent>> result;
  if (engine_ == Engine::kFlat) {
    result.reserve(index_.size());
    index_.ForEach([&](const OffsetIndex::Entry& entry) {
      result.emplace_back(entry.id, *FlatSlotFor(entry.id));
    });
    return result;
  }
  result.reserve(by_offset_.size());
  for (const auto& [offset, id] : by_offset_) {
    result.emplace_back(id, extents_.at(id));
  }
  return result;
}

bool AddressSpace::SelfCheck() const {
  return engine_ == Engine::kFlat ? FlatSelfCheck() : MapSelfCheck();
}

void AddressSpace::NotifyMoves() {
  if (batch_records_.empty() || listeners_.empty()) return;
  for (SpaceListener* l : listeners_) {
    l->OnMoves(batch_records_.data(), batch_records_.size());
  }
}

/// Batch-level durability validation: the Lemma 3.2 nonoverlap property,
/// checked by the shared CheckMoveBatchDurability sweep. Only called with
/// a checkpoint manager attached.
void AddressSpace::CheckBatchAgainstFrozen() {
  batch_sources_.clear();
  batch_targets_.clear();
  batch_sources_.reserve(batch_records_.size());
  batch_targets_.reserve(batch_records_.size());
  for (const MoveRecord& r : batch_records_) {
    batch_sources_.push_back(r.from);
    batch_targets_.push_back(r.to);
  }
  CheckMoveBatchDurability(batch_sources_, batch_targets_, *checkpoints_);
}

// ----------------------------------------------------------- kFlat engine

void AddressSpace::DenseSlots::GrowTo(std::size_t size) {
  while ((pages_.size() << kPageBits) < size) {
    pages_.push_back(std::make_unique<Extent[]>(kPageMask + 1));
  }
  size_ = std::max(size_, size);
}

Extent* AddressSpace::FlatSlotFor(ObjectId id) {
  if (id < slots_.size() && slots_[id].length != 0) return &slots_[id];
  if (!flat_overflow_.empty()) {
    auto it = flat_overflow_.find(id);
    if (it != flat_overflow_.end()) return &it->second;
  }
  return nullptr;
}

const Extent* AddressSpace::FlatSlotFor(ObjectId id) const {
  return const_cast<AddressSpace*>(this)->FlatSlotFor(id);
}

void AddressSpace::FlatIndexInsertChecked(ObjectId id, const Extent& extent) {
  const OffsetIndex::Neighbors n = index_.Insert(extent.offset, id);
  if (n.has_succ) {
    COSR_CHECK_MSG(extent.end() <= n.succ.offset,
                   OverlapMessage(extent, n.succ.id, *FlatSlotFor(n.succ.id)));
  }
  if (n.has_pred) {
    const Extent& pred = *FlatSlotFor(n.pred.id);
    COSR_CHECK_MSG(pred.end() <= extent.offset,
                   OverlapMessage(extent, n.pred.id, pred));
  }
}

bool AddressSpace::FlatTryPlace(ObjectId id, const Extent& extent) {
  Extent* slot;
  if (id < slots_.size()) {
    if (slots_[id].length != 0) return false;
    if (!flat_overflow_.empty() && flat_overflow_.count(id) > 0) return false;
    slot = &slots_[id];
  } else if (FlatDenseEligible(id)) {
    if (!flat_overflow_.empty() && flat_overflow_.count(id) > 0) return false;
    slots_.GrowTo(id + 1);
    slot = &slots_[id];
  } else {
    const auto [it, inserted] = flat_overflow_.try_emplace(id, Extent{});
    if (!inserted) return false;
    slot = &it->second;
  }
  if (checkpoints_ != nullptr) {
    COSR_CHECK_MSG(checkpoints_->IsWritable(extent), FrozenMessage(extent));
  }
  *slot = extent;
  // A failed neighbor check aborts the process, so the eager slot write
  // above never leaks an inconsistent entry.
  FlatIndexInsertChecked(id, extent);
  ++flat_count_;
  return true;
}

bool AddressSpace::FlatMoveInternal(ObjectId id, const Extent& to,
                                    Extent* from_out) {
  Extent* slot = FlatSlotFor(id);
  COSR_CHECK_MSG(slot != nullptr,
                 "move of unplaced object " + std::to_string(id));
  const Extent from = *slot;
  COSR_CHECK_EQ(from.length, to.length);
  if (from.offset == to.offset) return false;
  if (checkpoints_ != nullptr) {
    // Durability requires the old copy to survive until the next
    // checkpoint, so the new location must be disjoint from the old one.
    COSR_CHECK_MSG(!from.Overlaps(to),
                   "overlapping move " + ToString(from) + " -> " +
                       ToString(to) + " under checkpoint policy");
    COSR_CHECK_MSG(checkpoints_->IsWritable(to), FrozenMessage(to));
  }
  COSR_CHECK(index_.Erase(from.offset));
  *slot = to;
  FlatIndexInsertChecked(id, to);
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(from);
  *from_out = from;
  return true;
}

bool AddressSpace::FlatTryRemove(ObjectId id, Extent* removed) {
  Extent* slot = FlatSlotFor(id);
  if (slot == nullptr) return false;
  const Extent extent = *slot;
  COSR_CHECK(index_.Erase(extent.offset));
  if (id < slots_.size() && slots_[id].length != 0) {
    slots_[id] = Extent{};
  } else {
    flat_overflow_.erase(id);
  }
  --flat_count_;
  *removed = extent;
  return true;
}

void AddressSpace::FlatApplyMoves(const MovePlan* plans, std::size_t count) {
  batch_records_.clear();
  batch_records_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const MovePlan& plan = plans[i];
    const Extent* slot = FlatSlotFor(plan.id);
    COSR_CHECK_MSG(slot != nullptr,
                   "move of unplaced object " + std::to_string(plan.id));
    COSR_CHECK_EQ(slot->length, plan.to.length);
    if (slot->offset == plan.to.offset) continue;  // no-op move
    batch_records_.push_back(MoveRecord{plan.id, *slot, plan.to});
  }
  if (batch_records_.empty()) return;
  if (checkpoints_ != nullptr) CheckBatchAgainstFrozen();

  // Vacate every source before indexing any target, so a batch may reuse
  // space its own members free (the memmove model); duplicate ids in one
  // batch would fail the second Erase. Each target re-insert is then
  // checked against its definitive neighbors, which enforces disjointness
  // of the whole final layout.
  for (const MoveRecord& r : batch_records_) {
    COSR_CHECK(index_.Erase(r.from.offset));
  }
  for (const MoveRecord& r : batch_records_) {
    *FlatSlotFor(r.id) = r.to;
  }
  for (const MoveRecord& r : batch_records_) {
    FlatIndexInsertChecked(r.id, r.to);
  }
  if (checkpoints_ != nullptr) {
    for (const MoveRecord& r : batch_records_) checkpoints_->NoteFreed(r.from);
  }
}

bool AddressSpace::FlatSelfCheck() const {
  if (index_.size() != flat_count_) return false;
  std::size_t dense = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].length != 0) ++dense;
  }
  if (dense + flat_overflow_.size() != flat_count_) return false;
  std::uint64_t volume = 0;
  std::uint64_t prev_end = 0;
  bool ok = true;
  bool first = true;
  index_.ForEach([&](const OffsetIndex::Entry& entry) {
    const Extent* slot = FlatSlotFor(entry.id);
    if (slot == nullptr || slot->offset != entry.offset ||
        slot->length == 0) {
      ok = false;
      return;
    }
    if (!first && slot->offset < prev_end) ok = false;  // overlap
    prev_end = slot->end();
    first = false;
    volume += slot->length;
  });
  return ok && volume == live_volume_;
}

// ------------------------------------------------------------ kMap engine

void AddressSpace::MapCheckWritable(const Extent& extent,
                                    ObjectId self) const {
  // Disjointness against neighbors in offset order. Because extents are
  // disjoint, only the predecessor and the successor can overlap.
  auto it = by_offset_.upper_bound(extent.offset);
  if (it != by_offset_.end() && it->second != self) {
    const Extent& next = extents_.at(it->second);
    COSR_CHECK_MSG(!extent.Overlaps(next),
                   OverlapMessage(extent, it->second, next));
  }
  if (it != by_offset_.begin()) {
    auto prev = std::prev(it);
    if (prev->second != self) {
      const Extent& before = extents_.at(prev->second);
      COSR_CHECK_MSG(!extent.Overlaps(before),
                     OverlapMessage(extent, prev->second, before));
    }
  }
  if (checkpoints_ != nullptr) {
    COSR_CHECK_MSG(checkpoints_->IsWritable(extent), FrozenMessage(extent));
  }
}

bool AddressSpace::MapTryPlace(ObjectId id, const Extent& extent) {
  const auto [it, inserted] = extents_.try_emplace(id, extent);
  if (!inserted) return false;
  // A failed MapCheckWritable aborts the process, so the eager try_emplace
  // above never leaks an inconsistent entry.
  MapCheckWritable(extent, kInvalidObjectId);
  by_offset_.emplace(extent.offset, id);
  map_footprint_ = std::max(map_footprint_, extent.end());
  return true;
}

bool AddressSpace::MapMoveInternal(ObjectId id, const Extent& to,
                                   Extent* from_out) {
  auto it = extents_.find(id);
  COSR_CHECK_MSG(it != extents_.end(),
                 "move of unplaced object " + std::to_string(id));
  const Extent from = it->second;
  COSR_CHECK_EQ(from.length, to.length);
  if (from.offset == to.offset) return false;
  if (checkpoints_ != nullptr) {
    // Durability requires the old copy to survive until the next
    // checkpoint, so the new location must be disjoint from the old one.
    COSR_CHECK_MSG(!from.Overlaps(to),
                   "overlapping move " + ToString(from) + " -> " +
                       ToString(to) + " under checkpoint policy");
  }
  MapCheckWritable(to, id);
  by_offset_.erase(from.offset);
  it->second = to;
  by_offset_.emplace(to.offset, id);
  if (to.end() >= map_footprint_) {
    map_footprint_ = to.end();
  } else if (from.end() == map_footprint_) {
    MapNoteRemoved(from);
  }
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(from);
  *from_out = from;
  return true;
}

bool AddressSpace::MapTryRemove(ObjectId id, Extent* removed) {
  auto it = extents_.find(id);
  if (it == extents_.end()) return false;
  const Extent extent = it->second;
  by_offset_.erase(extent.offset);
  extents_.erase(it);
  MapNoteRemoved(extent);
  *removed = extent;
  return true;
}

/// Incremental footprint maintenance on the shrink side: extents are
/// disjoint, so distinct objects have distinct end addresses and only the
/// departure of the exact rightmost object forces a recompute.
void AddressSpace::MapNoteRemoved(const Extent& extent) {
  if (extent.end() != map_footprint_) return;
  map_footprint_ =
      by_offset_.empty() ? 0 : extents_.at(by_offset_.rbegin()->second).end();
}

void AddressSpace::MapApplyMoves(const MovePlan* plans, std::size_t count) {
  // The oracle path: every move is validated sequentially with the
  // per-move rules; only the listener notification is batched.
  batch_records_.clear();
  batch_records_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Extent from;
    if (MapMoveInternal(plans[i].id, plans[i].to, &from)) {
      batch_records_.push_back(MoveRecord{plans[i].id, from, plans[i].to});
    }
  }
}

bool AddressSpace::MapSelfCheck() const {
  if (by_offset_.size() != extents_.size()) return false;
  std::uint64_t volume = 0;
  std::uint64_t prev_end = 0;
  bool first = true;
  for (const auto& [offset, id] : by_offset_) {
    auto it = extents_.find(id);
    if (it == extents_.end()) return false;
    const Extent& e = it->second;
    if (e.offset != offset || e.length == 0) return false;
    if (!first && e.offset < prev_end) return false;  // overlap
    prev_end = e.end();
    first = false;
    volume += e.length;
  }
  if (volume != live_volume_) return false;
  return map_footprint_ == prev_end || (first && map_footprint_ == 0);
}

}  // namespace cosr
