#include "cosr/db/block_translation_layer.h"

namespace cosr {

BlockTranslationLayer::BlockTranslationLayer(Space* space,
                                             Reallocator* realloc)
    : space_(space), realloc_(realloc) {
  space_->AddListener(this);
}

BlockTranslationLayer::~BlockTranslationLayer() {
  space_->RemoveListener(this);
}

Status BlockTranslationLayer::Put(std::uint64_t block_name,
                                  std::uint64_t size) {
  if (size == 0) return Status::InvalidArgument("size must be positive");
  const BlockRef block = &*blocks_.try_emplace(block_name).first;
  Block& b = block->second;
  if (b.object != kInvalidObjectId) {
    COSR_RETURN_IF_ERROR(realloc_->Delete(b.object));
    // Only now: a remove inside the Delete must still mark the block.
    object_blocks_.erase(b.object);
    b.object = kInvalidObjectId;
    --block_count_;
    Mark(block);
  }
  const ObjectId id = next_object_id_++;
  object_blocks_.emplace(id, block);
  inserting_ = block;
  const Status inserted = realloc_->Insert(id, size);
  inserting_ = nullptr;
  if (!inserted.ok()) {
    object_blocks_.erase(id);
    Mark(block);  // the next checkpoint drops the entry
    return inserted;
  }
  b.object = id;
  ++block_count_;
  // A checkpoint inside the Insert folded the block before it held the
  // new object; mark it again so the next checkpoint picks the object up.
  Mark(block);
  return Status::Ok();
}

Status BlockTranslationLayer::Erase(std::uint64_t block_name) {
  auto it = blocks_.find(block_name);
  if (it == blocks_.end() || it->second.object == kInvalidObjectId) {
    return Status::NotFound("block " + std::to_string(block_name));
  }
  Block& b = it->second;
  COSR_RETURN_IF_ERROR(realloc_->Delete(b.object));
  object_blocks_.erase(b.object);
  b.object = kInvalidObjectId;
  --block_count_;
  Mark(&*it);
  return Status::Ok();
}

std::optional<Extent> BlockTranslationLayer::Lookup(
    std::uint64_t block_name) const {
  auto it = blocks_.find(block_name);
  if (it == blocks_.end() || it->second.object == kInvalidObjectId) {
    return std::nullopt;
  }
  Extent extent;
  // Unplaced: mid-delete, or a logged insert not yet placed.
  if (!space_->TryExtentOf(it->second.object, &extent)) return std::nullopt;
  return extent;
}

void BlockTranslationLayer::Mark(BlockRef block) {
  if (block->second.dirty) return;
  block->second.dirty = true;
  dirty_.push_back(block);
}

void BlockTranslationLayer::MarkObject(ObjectId id) {
  auto it = object_blocks_.find(id);
  if (it != object_blocks_.end()) Mark(it->second);
}

void BlockTranslationLayer::OnPlace(ObjectId id, const Extent&) {
  MarkObject(id);
}

void BlockTranslationLayer::OnMove(ObjectId id, const Extent&,
                                   const Extent&) {
  MarkObject(id);
}

void BlockTranslationLayer::OnMoves(const MoveRecord* records,
                                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) MarkObject(records[i].id);
}

void BlockTranslationLayer::OnRemove(ObjectId id, const Extent&) {
  MarkObject(id);
}

void BlockTranslationLayer::OnCheckpoint(std::uint64_t checkpoint_seq) {
  // Re-derive each marked block's entry exactly as a full copy of the
  // table would: its current object, if the space holds it (a logged
  // insert may not be placed yet).
  for (const BlockRef block : dirty_) {
    Block& b = block->second;
    b.dirty = false;
    TableEntry entry;
    entry.name = block->first;
    entry.object = b.object;
    if (b.object != kInvalidObjectId &&
        space_->TryExtentOf(b.object, &entry.extent)) {
      if (b.snapshot_slot == kNoSlot) {
        b.snapshot_slot =
            static_cast<std::uint32_t>(checkpoint_snapshot_.size());
        checkpoint_snapshot_.push_back(entry);
      } else {
        checkpoint_snapshot_[b.snapshot_slot] = entry;
      }
      continue;
    }
    if (b.snapshot_slot != kNoSlot) {
      // Swap-remove: the last entry takes the vacated slot.
      const TableEntry& last = checkpoint_snapshot_.back();
      if (last.name != entry.name) {
        blocks_.find(last.name)->second.snapshot_slot = b.snapshot_slot;
        checkpoint_snapshot_[b.snapshot_slot] = last;
      }
      checkpoint_snapshot_.pop_back();
      b.snapshot_slot = kNoSlot;
    }
    if (b.object == kInvalidObjectId && block != inserting_) {
      blocks_.erase(entry.name);  // erased block, now out of the snapshot
    }
  }
  dirty_.clear();
  checkpoint_seq_ = checkpoint_seq;
}

Status BlockTranslationLayer::VerifyRecoverable(
    const SimulatedDisk& disk) const {
  for (const TableEntry& entry : checkpoint_snapshot_) {
    if (!disk.VerifyObject(entry.object, entry.extent)) {
      return Status::Internal(
          "block " + std::to_string(entry.name) + " (object " +
          std::to_string(entry.object) + ") corrupted at " +
          ToString(entry.extent) + " — checkpoint discipline violated");
    }
  }
  return Status::Ok();
}

}  // namespace cosr
