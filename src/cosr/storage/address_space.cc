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
  Extent* slot;
  if (id < slots_.size()) {
    if (slots_[id].length != 0) return false;
    if (!overflow_.empty() && overflow_.count(id) > 0) return false;
    slot = &slots_[id];
  } else if (DenseEligible(id)) {
    if (!overflow_.empty() && overflow_.count(id) > 0) return false;
    slots_.GrowTo(id + 1);
    slot = &slots_[id];
  } else {
    const auto [it, inserted] = overflow_.try_emplace(id, Extent{});
    if (!inserted) return false;
    slot = &it->second;
  }
  if (checkpoints_ != nullptr) checkpoints_->CheckWritable(extent);
  *slot = extent;
  // A failed neighbor check aborts the process, so the eager slot write
  // above never leaks an inconsistent entry.
  IndexInsertChecked(id, extent);
  ++count_;
  live_volume_ += extent.length;
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnPlace(id, extent);
  }
  return true;
}

void AddressSpace::Move(ObjectId id, const Extent& to) {
  Extent from;
  if (!MoveOne(id, to, &from)) return;
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnMove(id, from, to);
  }
}

void AddressSpace::ApplyMoves(const MovePlan* plans, std::size_t count) {
  batch_records_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Extent from;
    if (MoveOne(plans[i].id, plans[i].to, &from)) {
      batch_records_.push_back(MoveRecord{plans[i].id, from, plans[i].to});
    }
  }
  if (batch_records_.empty()) return;
  // Replay checks each record's source against the layout before the
  // batch, so a batch may move an object at most once. Every object ends at
  // its record's target exactly when no id repeated.
  for (const MoveRecord& r : batch_records_) {
    COSR_CHECK_MSG(SlotFor(r.id)->offset == r.to.offset,
                   "object " + std::to_string(r.id) +
                       " moved twice in one batch");
  }
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) {
      l->OnMoves(batch_records_.data(), batch_records_.size());
    }
  }
}

bool AddressSpace::TryRemove(ObjectId id, Extent* removed) {
  Extent* slot = SlotFor(id);
  if (slot == nullptr) return false;
  const Extent extent = *slot;
  COSR_CHECK(index_.Erase(extent.offset));
  if (id < slots_.size() && slots_[id].length != 0) {
    slots_[id] = Extent{};
  } else {
    overflow_.erase(id);
  }
  --count_;
  *removed = extent;
  live_volume_ -= removed->length;
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(*removed);
  if (!listeners_.empty()) {
    for (SpaceListener* l : listeners_) l->OnRemove(id, *removed);
  }
  return true;
}

bool AddressSpace::contains(ObjectId id) const {
  return SlotFor(id) != nullptr;
}

Extent AddressSpace::extent_of(ObjectId id) const {
  const Extent* slot = SlotFor(id);
  COSR_CHECK_MSG(slot != nullptr,
                 "extent_of unplaced object " + std::to_string(id));
  return *slot;
}

bool AddressSpace::TryExtentOf(ObjectId id, Extent* extent) const {
  const Extent* slot = SlotFor(id);
  if (slot == nullptr) return false;
  *extent = *slot;
  return true;
}

std::uint64_t AddressSpace::footprint() const {
  // Extents are disjoint, so the rightmost-by-offset object also has the
  // largest end address; the index tail is O(1).
  const OffsetIndex::Entry* last = index_.Last();
  return last == nullptr ? 0 : SlotFor(last->id)->end();
}

std::uint64_t AddressSpace::footprint_in(std::uint64_t lo,
                                         std::uint64_t hi) const {
  // Extents are disjoint, so among objects starting below `hi` the one
  // with the largest offset also has the largest end: one predecessor
  // lookup answers the query. A predecessor starting below `lo` means the
  // range itself is empty.
  const OffsetIndex::Entry* pred = index_.LastBefore(hi);
  if (pred == nullptr || pred->offset < lo) return 0;
  return SlotFor(pred->id)->end();
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
  result.reserve(index_.size());
  index_.ForEach([&](const OffsetIndex::Entry& entry) {
    result.emplace_back(entry.id, *SlotFor(entry.id));
  });
  return result;
}

bool AddressSpace::SelfCheck() const {
  if (index_.size() != count_) return false;
  std::size_t dense = 0;
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    if (slots_[id].length != 0) ++dense;
  }
  if (dense + overflow_.size() != count_) return false;
  std::uint64_t volume = 0;
  std::uint64_t prev_end = 0;
  bool ok = true;
  bool first = true;
  index_.ForEach([&](const OffsetIndex::Entry& entry) {
    const Extent* slot = SlotFor(entry.id);
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

// ------------------------------------------------------------- internals

bool AddressSpace::MoveOne(ObjectId id, const Extent& to, Extent* from) {
  Extent* slot = SlotFor(id);
  COSR_CHECK_MSG(slot != nullptr,
                 "move of unplaced object " + std::to_string(id));
  *from = *slot;
  COSR_CHECK_EQ(from->length, to.length);
  if (from->offset == to.offset) return false;  // no-op move
  if (checkpoints_ != nullptr) checkpoints_->CheckMove(*from, to);
  COSR_CHECK(index_.Erase(from->offset));
  *slot = to;
  IndexInsertChecked(id, to);
  if (checkpoints_ != nullptr) checkpoints_->NoteFreed(*from);
  return true;
}

void AddressSpace::DenseSlots::GrowTo(std::size_t size) {
  while ((pages_.size() << kPageBits) < size) {
    pages_.push_back(std::make_unique<Extent[]>(kPageMask + 1));
  }
  size_ = std::max(size_, size);
}

Extent* AddressSpace::SlotFor(ObjectId id) {
  if (id < slots_.size() && slots_[id].length != 0) return &slots_[id];
  if (!overflow_.empty()) {
    auto it = overflow_.find(id);
    if (it != overflow_.end()) return &it->second;
  }
  return nullptr;
}

const Extent* AddressSpace::SlotFor(ObjectId id) const {
  return const_cast<AddressSpace*>(this)->SlotFor(id);
}

void AddressSpace::IndexInsertChecked(ObjectId id, const Extent& extent) {
  const OffsetIndex::Neighbors n = index_.Insert(extent.offset, id);
  if (n.has_succ) {
    COSR_CHECK_MSG(extent.end() <= n.succ.offset,
                   OverlapMessage(extent, n.succ.id, *SlotFor(n.succ.id)));
  }
  if (n.has_pred) {
    const Extent& pred = *SlotFor(n.pred.id);
    COSR_CHECK_MSG(pred.end() <= extent.offset,
                   OverlapMessage(extent, n.pred.id, pred));
  }
}

}  // namespace cosr
