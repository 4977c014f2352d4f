#include "cosr/storage/address_space.h"
#include "cosr/db/block_translation_layer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/checkpoint_manager.h"

namespace cosr {
namespace {

struct BtlFixture {
  CheckpointManager manager;
  AddressSpace space{&manager};
  SimulatedDisk disk;
  CheckpointedReallocator realloc{&space};
  BlockTranslationLayer btl{&space, &realloc};

  BtlFixture() { space.AddListener(&disk); }
};

TEST(BtlTest, PutCreatesBlock) {
  BtlFixture f;
  ASSERT_TRUE(f.btl.Put(100, 64).ok());
  EXPECT_TRUE(f.btl.block_exists(100));
  EXPECT_EQ(f.btl.block_count(), 1u);
  auto extent = f.btl.Lookup(100);
  ASSERT_TRUE(extent.has_value());
  EXPECT_EQ(extent->length, 64u);
}

TEST(BtlTest, PutReplacesWithFreshObject) {
  BtlFixture f;
  ASSERT_TRUE(f.btl.Put(100, 64).ok());
  ASSERT_TRUE(f.btl.Put(100, 32).ok());
  EXPECT_EQ(f.btl.block_count(), 1u);
  auto extent = f.btl.Lookup(100);
  ASSERT_TRUE(extent.has_value());
  EXPECT_EQ(extent->length, 32u);
}

TEST(BtlTest, EraseRemovesBlock) {
  BtlFixture f;
  ASSERT_TRUE(f.btl.Put(1, 16).ok());
  ASSERT_TRUE(f.btl.Erase(1).ok());
  EXPECT_FALSE(f.btl.block_exists(1));
  EXPECT_EQ(f.btl.Erase(1).code(), StatusCode::kNotFound);
  EXPECT_FALSE(f.btl.Lookup(1).has_value());
}

TEST(BtlTest, PutZeroSizeRejected) {
  BtlFixture f;
  EXPECT_EQ(f.btl.Put(1, 0).code(), StatusCode::kInvalidArgument);
}

TEST(BtlTest, CheckpointSnapshotsTable) {
  BtlFixture f;
  ASSERT_TRUE(f.btl.Put(1, 16).ok());
  ASSERT_TRUE(f.btl.Put(2, 32).ok());
  EXPECT_TRUE(f.btl.checkpointed_table().empty());
  f.space.Checkpoint();
  EXPECT_EQ(f.btl.checkpointed_table().size(), 2u);
  // Later mutations do not appear until the next checkpoint.
  ASSERT_TRUE(f.btl.Put(3, 8).ok());
  EXPECT_EQ(f.btl.checkpointed_table().size(), 2u);
}

TEST(BtlTest, RecoverableAfterCheckpoint) {
  BtlFixture f;
  for (std::uint64_t name = 1; name <= 20; ++name) {
    ASSERT_TRUE(f.btl.Put(name, 16 + name).ok());
  }
  f.space.Checkpoint();
  EXPECT_TRUE(f.btl.VerifyRecoverable(f.disk).ok());
}

TEST(BtlTest, RecoverableDespitePostCheckpointChurn) {
  BtlFixture f;
  for (std::uint64_t name = 1; name <= 30; ++name) {
    ASSERT_TRUE(f.btl.Put(name, 8 + name % 64).ok());
  }
  f.space.Checkpoint();
  // Post-checkpoint mutations: rewrites, erases, new blocks. The
  // checkpointed versions must remain recoverable because the reallocator
  // may not overwrite freed-but-not-checkpointed space.
  for (std::uint64_t name = 1; name <= 15; ++name) {
    ASSERT_TRUE(f.btl.Put(name, 100 + name).ok());
  }
  ASSERT_TRUE(f.btl.Erase(20).ok());
  ASSERT_TRUE(f.btl.Put(99, 50).ok());
  EXPECT_TRUE(f.btl.VerifyRecoverable(f.disk).ok());
}

TEST(BtlTest, SnapshotAdvancesWithCheckpoints) {
  BtlFixture f;
  ASSERT_TRUE(f.btl.Put(1, 16).ok());
  f.space.Checkpoint();
  const std::uint64_t seq1 = f.btl.checkpoint_seq();
  ASSERT_TRUE(f.btl.Put(2, 16).ok());
  f.space.Checkpoint();
  EXPECT_GT(f.btl.checkpoint_seq(), seq1);
  EXPECT_EQ(f.btl.checkpointed_table().size(), 2u);
  EXPECT_TRUE(f.btl.VerifyRecoverable(f.disk).ok());
}

// ---------------------------------------------------------------------------
// Delta checkpoints against a full copy.

constexpr std::uint64_t kNames = 120;

using Row = std::tuple<std::uint64_t, ObjectId, std::uint64_t, std::uint64_t>;

// At every checkpoint, rebuilds the checkpointed table the way a full copy
// does (every block whose object the space holds, at its current extent)
// and compares it, sorted by name, with the layer's delta-built table.
// Registered after the layer, so it runs right after the layer's fold.
class FullCopyChecker : public SpaceListener {
 public:
  FullCopyChecker(Space* space, const BlockTranslationLayer* btl)
      : space_(space), btl_(btl) {
    space_->AddListener(this);
  }
  ~FullCopyChecker() override { space_->RemoveListener(this); }

  void OnCheckpoint(std::uint64_t) override {
    ++checkpoints_;
    if (in_call_) ++nested_;
    std::map<std::uint64_t, ObjectId> object_at;
    for (const auto& [id, extent] : space_->Snapshot()) {
      object_at[extent.offset] = id;
    }
    std::vector<Row> want;
    for (std::uint64_t name = 1; name <= kNames; ++name) {
      const auto extent = btl_->Lookup(name);
      if (!extent.has_value()) continue;
      want.emplace_back(name, object_at.at(extent->offset), extent->offset,
                        extent->length);
    }
    std::vector<Row> got;
    for (const auto& entry : btl_->checkpointed_table()) {
      got.emplace_back(entry.name, entry.object, entry.extent.offset,
                       entry.extent.length);
    }
    std::sort(got.begin(), got.end());
    if (got != want) ++mismatches_;
  }

  /// Brackets a Put or Erase, to count the checkpoints that fire inside.
  void set_in_call(bool in_call) { in_call_ = in_call; }
  int checkpoints() const { return checkpoints_; }
  int nested() const { return nested_; }
  int mismatches() const { return mismatches_; }

 private:
  Space* space_;
  const BlockTranslationLayer* btl_;
  bool in_call_ = false;
  int checkpoints_ = 0;
  int nested_ = 0;
  int mismatches_ = 0;
};

// Random Puts (new blocks and rewrites), Erases and explicit checkpoints.
// Returns the number of failed calls. Whatever fails, the layer must map
// back exactly one object per live block.
int Churn(BlockTranslationLayer* btl, FullCopyChecker* checker,
          const std::function<void()>& checkpoint, std::uint64_t seed,
          int ops) {
  Rng rng(seed);
  int failed = 0;
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t name = rng.UniformRange(1, kNames);
    const double dice = rng.UniformDouble();
    Status status;
    checker->set_in_call(true);
    if (dice < 0.65) {
      status = btl->Put(name, rng.UniformRange(1, 400));
    } else if (dice < 0.95) {
      if (btl->block_exists(name)) status = btl->Erase(name);
    } else {
      checker->set_in_call(false);
      checkpoint();
    }
    checker->set_in_call(false);
    failed += !status.ok();
    EXPECT_EQ(btl->tracked_object_count(), btl->block_count()) << "op " << op;
  }
  return failed;
}

void ExpectDeltaMatchesFullCopy(Space* space, Reallocator* realloc,
                                const std::function<void()>& checkpoint,
                                std::uint64_t seed) {
  BlockTranslationLayer btl(space, realloc);
  FullCopyChecker checker(space, &btl);
  EXPECT_EQ(Churn(&btl, &checker, checkpoint, seed, 3000), 0);
  realloc->Quiesce();
  checkpoint();
  EXPECT_EQ(checker.mismatches(), 0) << "of " << checker.checkpoints();
  EXPECT_GT(checker.nested(), 0) << "no checkpoint fired inside a call";
  EXPECT_EQ(btl.checkpointed_table().size(), btl.block_count());
}

TEST(BtlDeltaTest, CheckpointedMatchesFullCopy) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CheckpointManager manager;
    AddressSpace space{&manager};
    CheckpointedReallocator realloc{&space};
    ExpectDeltaMatchesFullCopy(&space, &realloc, [&] { space.Checkpoint(); },
                               seed);
  }
}

TEST(BtlDeltaTest, DeamortizedMatchesFullCopy) {
  // Deferred deletes and logged inserts: blocks whose object is not placed
  // at a checkpoint stay out of the table.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CheckpointManager manager;
    AddressSpace space{&manager};
    DeamortizedReallocator realloc{&space};
    ExpectDeltaMatchesFullCopy(&space, &realloc, [&] { space.Checkpoint(); },
                               seed);
  }
}

TEST(BtlDeltaTest, ShardedHashRoutedMatchesFullCopy) {
  // Each shard's checkpoint fans out to the shared parent, so the layer
  // folds at every shard checkpoint.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    AddressSpace root;
    ReallocatorSpec spec;
    spec.algorithm = "checkpointed";
    ShardedReallocator::Options options;
    options.shard_count = 4;
    options.routing = RoutingPolicy::kHashId;
    std::unique_ptr<ShardedReallocator> sharded;
    ASSERT_TRUE(ShardedReallocator::Make(spec, options, &root, &sharded).ok());
    ExpectDeltaMatchesFullCopy(&root, sharded.get(),
                               [&] { sharded->CheckpointAll(); }, seed);
  }
}

// Fails every `period`-th Insert and every `period`-th Delete without
// forwarding it.
class FlakyReallocator : public Reallocator {
 public:
  FlakyReallocator(Reallocator* inner, int period)
      : inner_(inner), period_(period) {}

  Status Insert(ObjectId id, std::uint64_t size) override {
    if (++inserts_ % period_ == 0) return Status::Internal("insert fault");
    return inner_->Insert(id, size);
  }
  Status Delete(ObjectId id) override {
    if (++deletes_ % period_ == 0) return Status::Internal("delete fault");
    return inner_->Delete(id);
  }
  std::uint64_t reserved_footprint() const override {
    return inner_->reserved_footprint();
  }
  std::uint64_t volume() const override { return inner_->volume(); }
  void Quiesce() override { inner_->Quiesce(); }
  bool DeletesDetachImmediately() const override {
    return inner_->DeletesDetachImmediately();
  }
  const char* name() const override { return "flaky"; }

 private:
  Reallocator* inner_;
  int period_;
  int inserts_ = 0;
  int deletes_ = 0;
};

TEST(BtlDeltaTest, FailedCallsLeaveNoStaleObjects) {
  CheckpointManager manager;
  AddressSpace space{&manager};
  SimulatedDisk disk;
  space.AddListener(&disk);
  DeamortizedReallocator inner{&space};
  FlakyReallocator realloc(&inner, 7);
  BlockTranslationLayer btl{&space, &realloc};
  FullCopyChecker checker(&space, &btl);
  // Churn checks the name lookups' size after every call.
  EXPECT_GT(Churn(&btl, &checker, [&] { space.Checkpoint(); }, 5, 3000), 100);
  EXPECT_EQ(checker.mismatches(), 0) << "of " << checker.checkpoints();
  realloc.Quiesce();
  space.Checkpoint();
  EXPECT_EQ(checker.mismatches(), 0);
  EXPECT_EQ(btl.checkpointed_table().size(), btl.block_count());
  EXPECT_TRUE(btl.VerifyRecoverable(disk).ok());
}

TEST(BtlDeltaTest, FailedPutKeepsTableSemantics) {
  BtlFixture f;
  FlakyReallocator flaky(&f.realloc, 2);
  BlockTranslationLayer btl{&f.space, &flaky};
  ASSERT_TRUE(btl.Put(1, 16).ok());       // insert 1 succeeds
  EXPECT_FALSE(btl.Put(2, 16).ok());      // insert 2 fails
  EXPECT_FALSE(btl.block_exists(2));
  ASSERT_TRUE(btl.Put(1, 32).ok());       // delete 1, insert 3 succeed
  EXPECT_FALSE(btl.Erase(1).ok());        // delete 2 fails...
  EXPECT_EQ(btl.Lookup(1)->length, 32u);  // ...and keeps the block
  EXPECT_FALSE(btl.Put(1, 8).ok());       // delete 3 succeeds, insert 4 fails
  EXPECT_FALSE(btl.block_exists(1));      // so the old version is gone
  EXPECT_EQ(btl.block_count(), 0u);
  EXPECT_EQ(btl.tracked_object_count(), 0u);
  f.space.Checkpoint();
  EXPECT_TRUE(btl.checkpointed_table().empty());
}

// Queues inserts and deletes until Quiesce, and checkpoints the space at
// every Insert, as a flush inside an Insert can: a stand-in for a
// reallocator that logs updates and applies them later.
class LazyReallocator : public Reallocator {
 public:
  explicit LazyReallocator(Space* space) : space_(space) {}

  Status Insert(ObjectId id, std::uint64_t size) override {
    queued_.push_back({id, size});
    space_->Checkpoint();
    return Status::Ok();
  }
  Status Delete(ObjectId id) override {
    queued_.push_back({id, 0});
    return Status::Ok();
  }
  void Quiesce() override {
    for (const auto& [id, size] : queued_) {
      if (size == 0) {
        space_->Remove(id);
      } else {
        space_->Place(id, Extent{cursor_, size});
        cursor_ += size;
      }
    }
    queued_.clear();
  }
  std::uint64_t reserved_footprint() const override { return cursor_; }
  std::uint64_t volume() const override { return space_->live_volume(); }
  const char* name() const override { return "lazy"; }

 private:
  Space* space_;
  std::vector<std::pair<ObjectId, std::uint64_t>> queued_;  // size 0: delete
  std::uint64_t cursor_ = 0;
};

TEST(BtlTest, DeferredUpdatesReachTheTableWhenApplied) {
  AddressSpace space;
  LazyReallocator lazy(&space);
  BlockTranslationLayer btl(&space, &lazy);
  ASSERT_TRUE(btl.Put(1, 16).ok());
  space.Checkpoint();
  EXPECT_FALSE(btl.Lookup(1).has_value());  // logged, not yet placed
  EXPECT_TRUE(btl.checkpointed_table().empty());
  lazy.Quiesce();  // places the block after the checkpoint
  space.Checkpoint();
  ASSERT_EQ(btl.checkpointed_table().size(), 1u);
  // A rewrite: the old object's delete is deferred, and the checkpoint in
  // the new object's Insert comes while the table holds neither version.
  ASSERT_TRUE(btl.Put(1, 32).ok());
  EXPECT_TRUE(btl.checkpointed_table().empty());
  lazy.Quiesce();
  space.Checkpoint();
  ASSERT_EQ(btl.checkpointed_table().size(), 1u);
  EXPECT_EQ(btl.checkpointed_table()[0].extent.length, 32u);
}

// Looks a block up from inside the space's remove event of its object.
class MidDeleteProbe : public SpaceListener {
 public:
  explicit MidDeleteProbe(const BlockTranslationLayer* btl) : btl_(btl) {}
  void OnRemove(ObjectId, const Extent&) override {
    seen_.push_back(btl_->Lookup(1).has_value());
  }
  const std::vector<bool>& seen() const { return seen_; }

 private:
  const BlockTranslationLayer* btl_;
  std::vector<bool> seen_;
};

TEST(BtlTest, LookupIsEmptyMidDelete) {
  BtlFixture f;
  MidDeleteProbe probe(&f.btl);
  f.space.AddListener(&probe);
  ASSERT_TRUE(f.btl.Put(1, 16).ok());
  ASSERT_TRUE(f.btl.Put(1, 24).ok());  // the rewrite removes the old object
  ASSERT_TRUE(f.btl.Erase(1).ok());
  EXPECT_EQ(probe.seen(), (std::vector<bool>{false, false}));
  f.space.RemoveListener(&probe);
}

}  // namespace
}  // namespace cosr
