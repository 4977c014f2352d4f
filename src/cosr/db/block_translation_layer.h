#ifndef COSR_DB_BLOCK_TRANSLATION_LAYER_H_
#define COSR_DB_BLOCK_TRANSLATION_LAYER_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"
#include "cosr/storage/simulated_disk.h"

namespace cosr {

/// The TokuDB-style block translation layer from the paper's introduction:
/// a mapping from immutable block names to physical addresses, which the
/// reallocator is free to change. The current (in-memory) table answers
/// lookups; the *checkpointed* table is what a crash recovers to.
///
/// Attached to the Space as a listener, the layer snapshots its table
/// at every checkpoint. Under the Section 3.1 discipline (locations freed
/// since the last checkpoint are never overwritten), every block in the
/// snapshot remains byte-for-byte intact at its snapshotted address — the
/// durability property VerifyRecoverable() checks against a SimulatedDisk.
///
/// The snapshot is kept by delta: Put/Erase and the space's place, move
/// and remove events of the layer's own objects mark block names, and a
/// checkpoint re-derives only the marked entries. A checkpoint therefore
/// costs O(names changed since the last checkpoint), not O(blocks), and
/// leaves the same set of entries a full copy of the table would.
/// Every checkpoint of the space counts: over a sharded facade on a
/// shared parent, one shard's checkpoint also stamps the other shards'
/// current positions into the snapshot.
class BlockTranslationLayer : public SpaceListener {
 public:
  struct TableEntry {
    std::uint64_t name = 0;
    ObjectId object = kInvalidObjectId;
    Extent extent;
  };

  /// Registers as a listener on `space`. Both `space` and `realloc` must
  /// outlive the layer.
  BlockTranslationLayer(Space* space, Reallocator* realloc);
  ~BlockTranslationLayer() override;
  BlockTranslationLayer(const BlockTranslationLayer&) = delete;
  BlockTranslationLayer& operator=(const BlockTranslationLayer&) = delete;

  /// Writes a block: creates it, or replaces its contents (the old version
  /// is freed and a fresh object allocated — block rewrites never update in
  /// place, exactly as in a copy-on-write database).
  Status Put(std::uint64_t block_name, std::uint64_t size);

  /// Drops a block.
  Status Erase(std::uint64_t block_name);

  /// Current physical location of a block (in-memory table); nullopt while
  /// its object is not placed (mid-delete, or a logged insert).
  std::optional<Extent> Lookup(std::uint64_t block_name) const;

  std::size_t block_count() const { return block_count_; }
  bool block_exists(std::uint64_t block_name) const {
    auto it = blocks_.find(block_name);
    return it != blocks_.end() && it->second.object != kInvalidObjectId;
  }

  /// The table as of the last checkpoint (empty before the first one), in
  /// no particular order.
  const std::vector<TableEntry>& checkpointed_table() const {
    return checkpoint_snapshot_;
  }
  std::uint64_t checkpoint_seq() const { return checkpoint_seq_; }

  /// Objects the layer maps back to block names: one per live block, also
  /// after a failed Put or Erase.
  std::size_t tracked_object_count() const {
    return object_blocks_.size();
  }

  /// Simulates crash recovery: verifies that every block in the
  /// checkpointed table is byte-for-byte intact at its snapshotted address.
  /// This holds exactly when the reallocator respected the checkpoint
  /// discipline.
  Status VerifyRecoverable(const SimulatedDisk& disk) const;

  void OnPlace(ObjectId id, const Extent& extent) override;
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override;
  void OnMoves(const MoveRecord* records, std::size_t count) override;
  void OnRemove(ObjectId id, const Extent& extent) override;
  void OnCheckpoint(std::uint64_t checkpoint_seq) override;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// A block name's state. `object` is kInvalidObjectId for an erased
  /// block, and while a Put of the block is inserting its new object; the
  /// entry stays until a checkpoint folds it out of the snapshot.
  struct Block {
    ObjectId object = kInvalidObjectId;
    /// Index of the block's entry in checkpoint_snapshot_, or kNoSlot.
    std::uint32_t snapshot_slot = kNoSlot;
    /// Queued in dirty_: the snapshot entry may be stale.
    bool dirty = false;
  };
  using BlockMap = std::unordered_map<std::uint64_t, Block>;
  using BlockRef = BlockMap::value_type*;

  void Mark(BlockRef block);
  void MarkObject(ObjectId id);

  Space* space_;
  Reallocator* realloc_;
  /// Element references stay valid across rehashing, so object_blocks_
  /// and dirty_ point into the map.
  BlockMap blocks_;
  std::size_t block_count_ = 0;
  /// Object -> its block, for every live block and a Put's new object.
  std::unordered_map<ObjectId, BlockRef> object_blocks_;
  /// The block whose new object a Put is inserting, or nullptr.
  BlockRef inserting_ = nullptr;
  ObjectId next_object_id_ = 1;
  std::vector<TableEntry> checkpoint_snapshot_;
  std::vector<BlockRef> dirty_;
  std::uint64_t checkpoint_seq_ = 0;
};

}  // namespace cosr

#endif  // COSR_DB_BLOCK_TRANSLATION_LAYER_H_
