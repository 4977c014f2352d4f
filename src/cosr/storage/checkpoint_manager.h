#ifndef COSR_STORAGE_CHECKPOINT_MANAGER_H_
#define COSR_STORAGE_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>

#include "cosr/storage/extent.h"
#include "cosr/storage/extent_set.h"

namespace cosr {

class CheckpointManager;

/// How the storage layer hands checkpoint completions to the durability
/// tier without depending on it: the MoveLog implements this, appending a
/// checkpoint record and issuing the log's one Sync(). `seq` is the
/// manager's checkpoint count *after* the completing checkpoint, so the
/// first checkpoint logs seq 1.
class CheckpointDurabilityLog {
 public:
  virtual ~CheckpointDurabilityLog() = default;
  virtual void LogCheckpoint(std::uint64_t seq) = 0;
};

/// The durability model of Section 3.1. When an object is moved or deleted,
/// its old location is *frozen*: the logical-to-physical map naming that
/// location has not yet been persisted, so the bytes there must survive
/// until the next checkpoint. A checkpoint persists the map and releases
/// every location frozen before it.
///
/// Attached to a Space, this manager turns Lemma 3.2 (phase moves are
/// nonoverlapping) into an enforced runtime property: every write goes
/// through CheckWritable or CheckMove, and any write into a frozen region
/// aborts the process. A move batch is checked one move at a time, in plan
/// order, each move freezing its source before the next is checked.
///
/// Thread-compatible: scope one manager to one shard and drive it from
/// that shard's owning thread only (the sharded facades construct exactly
/// this shape); never share a manager across concurrently-running shards.
class CheckpointManager {
 public:
  CheckpointManager() = default;
  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Records that `e` was freed (object deleted, or moved away).
  void NoteFreed(const Extent& e) { frozen_.Add(e); }

  /// Whether the whole extent may be written right now.
  bool IsWritable(const Extent& e) const { return !frozen_.Intersects(e); }

  /// The Section 3.1 write rule: CHECK-fails unless `target` is writable.
  void CheckWritable(const Extent& target) const;

  /// The Section 3.1 rule for one move: the old copy must survive until the
  /// next checkpoint, so `to` must be disjoint from its own source `from`
  /// and writable. CHECK-fails otherwise.
  void CheckMove(const Extent& from, const Extent& to) const;

  /// Completes a checkpoint: all previously frozen regions become writable.
  /// If a durability log is attached, the checkpoint record lands (and the
  /// log's GroupCommitPolicy decides whether it is synced right away)
  /// before the hook observes the new sequence number. With the default
  /// sync-every-checkpoint policy a hook that snapshots state always
  /// snapshots a durable point; under a coalescing policy the point is a
  /// legal recovery landing spot that becomes durable at the group's sync.
  void Checkpoint() {
    frozen_.Clear();
    ++checkpoint_count_;
    if (durability_log_ != nullptr) {
      durability_log_->LogCheckpoint(checkpoint_count_);
    }
    if (checkpoint_hook_) checkpoint_hook_(checkpoint_count_);
  }

  /// Attaches the durability tier's log (nullptr detaches). Not owned.
  void AttachDurabilityLog(CheckpointDurabilityLog* log) {
    durability_log_ = log;
  }

  /// Synchronous observer fired inside Checkpoint() after the durability
  /// record is down. Checkpoints happen MID-request (mid-flush), so a
  /// poll-after-request can never capture checkpoint-time state — the fuzz
  /// harness snapshots its expected recovery image from this hook.
  void SetCheckpointHook(std::function<void(std::uint64_t)> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  std::uint64_t checkpoint_count() const { return checkpoint_count_; }
  std::uint64_t frozen_volume() const { return frozen_.total_length(); }
  const ExtentSet& frozen() const { return frozen_; }

 private:
  ExtentSet frozen_;
  std::uint64_t checkpoint_count_ = 0;
  CheckpointDurabilityLog* durability_log_ = nullptr;
  std::function<void(std::uint64_t)> checkpoint_hook_;
};

}  // namespace cosr

#endif  // COSR_STORAGE_CHECKPOINT_MANAGER_H_
