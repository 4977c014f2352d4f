// Differential and property tests for AddressSpace: the space and a
// test-local ordered-map reference model are driven through identical churn
// traces (places, removes, single moves, batched move plans, checkpoints)
// and must agree exactly on every query — mirroring tests/free_index_test.cc's
// map-vs-binned pattern one layer down. Also covers the batch-specific
// contracts: checkpoint-frozen-region violations still CHECK-fail under
// ApplyMoves, listeners see one coherent OnMoves event per batch, and
// sparse ids ride the overflow map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"

namespace cosr {
namespace {

// ----------------------------------------------------------- differential

/// The reference model: an offset-ordered map plus an id -> extent map,
/// with move plans applied one move at a time. It validates nothing; the
/// churn only feeds it traces that are legal for the space under test.
class ReferenceSpace {
 public:
  void Place(ObjectId id, const Extent& extent) {
    extents_[id] = extent;
    by_offset_[extent.offset] = id;
  }
  void Remove(ObjectId id) {
    by_offset_.erase(extents_.at(id).offset);
    extents_.erase(id);
  }
  void Move(ObjectId id, const Extent& to) {
    by_offset_.erase(extents_.at(id).offset);
    extents_[id] = to;
    by_offset_[to.offset] = id;
  }
  void ApplyMoves(const std::vector<MovePlan>& plans) {
    for (const MovePlan& plan : plans) Move(plan.id, plan.to);
  }

  std::vector<std::pair<ObjectId, Extent>> Snapshot() const {
    std::vector<std::pair<ObjectId, Extent>> result;
    for (const auto& [offset, id] : by_offset_) {
      result.emplace_back(id, extents_.at(id));
    }
    return result;
  }
  std::uint64_t footprint() const {
    return by_offset_.empty() ? 0
                              : extents_.at(by_offset_.rbegin()->second).end();
  }
  /// Brute force over every object: the largest end among objects starting
  /// in [lo, hi).
  std::uint64_t footprint_in(std::uint64_t lo, std::uint64_t hi) const {
    std::uint64_t result = 0;
    for (const auto& [id, extent] : extents_) {
      if (extent.offset >= lo && extent.offset < hi) {
        result = std::max(result, extent.end());
      }
    }
    return result;
  }
  std::uint64_t live_volume() const {
    std::uint64_t volume = 0;
    for (const auto& [id, extent] : extents_) volume += extent.length;
    return volume;
  }
  std::size_t object_count() const { return extents_.size(); }

 private:
  std::map<std::uint64_t, ObjectId> by_offset_;
  std::unordered_map<ObjectId, Extent> extents_;
};

struct LiveObject {
  ObjectId id;
  std::uint64_t length;
};

/// 10k mixed operations (place / remove / move / batched ApplyMoves /
/// checkpoint) through the space and the reference model. Placements and
/// move targets always come from fresh frontier space so the trace is valid
/// under the checkpoint model too; occasional id jumps push the space into
/// its sparse-overflow map. After every operation a random footprint_in
/// range (sometimes starting or ending exactly at an object) is compared
/// against the model's brute-force answer.
void RunDifferentialChurn(std::uint64_t seed, bool checkpointed) {
  Rng rng(seed);
  CheckpointManager manager;
  AddressSpace space(checkpointed ? &manager : nullptr);
  ReferenceSpace model;
  std::vector<LiveObject> live;
  ObjectId next_id = 1;
  std::uint64_t frontier = 0;

  const auto take_victim = [&](std::size_t k) {
    const LiveObject victim = live[k];
    live[k] = live.back();
    live.pop_back();
    return victim;
  };
  const auto random_bound = [&]() -> std::uint64_t {
    if (!live.empty() && rng.Bernoulli(0.5)) {
      const LiveObject& object =
          live[static_cast<std::size_t>(rng.UniformU64(live.size()))];
      return space.extent_of(object.id).offset;
    }
    return rng.UniformU64(frontier + 64);
  };

  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t dice = rng.UniformU64(100);
    if (live.empty() || dice < 45) {
      // Place at the frontier (sometimes with a gap, sometimes sparse id).
      if (rng.Bernoulli(0.02)) next_id += 1u << 20;  // overflow-map regime
      const std::uint64_t length = rng.UniformRange(1, 512);
      frontier += rng.Bernoulli(0.3) ? rng.UniformRange(0, 64) : 0;
      const Extent extent{frontier, length};
      space.Place(next_id, extent);
      model.Place(next_id, extent);
      live.push_back({next_id, length});
      ++next_id;
      frontier += length;
    } else if (dice < 70) {
      const LiveObject victim =
          take_victim(static_cast<std::size_t>(rng.UniformU64(live.size())));
      space.Remove(victim.id);
      model.Remove(victim.id);
    } else if (dice < 85) {
      // Single move to fresh frontier space.
      const std::size_t k = static_cast<std::size_t>(rng.UniformU64(live.size()));
      const Extent to{frontier, live[k].length};
      space.Move(live[k].id, to);
      model.Move(live[k].id, to);
      frontier += to.length;
    } else if (dice < 95) {
      // Batched move plan: up to 16 distinct objects to fresh space.
      const std::size_t want =
          static_cast<std::size_t>(rng.UniformRange(1, 16));
      std::vector<MovePlan> plan;
      std::vector<LiveObject> movers;
      while (movers.size() < want && !live.empty()) {
        movers.push_back(take_victim(
            static_cast<std::size_t>(rng.UniformU64(live.size()))));
      }
      for (const LiveObject& m : movers) {
        plan.push_back(MovePlan{m.id, {frontier, m.length}});
        frontier += m.length;
        live.push_back(m);
      }
      space.ApplyMoves(plan);
      model.ApplyMoves(plan);
    } else {
      space.Checkpoint();
    }

    ASSERT_EQ(space.live_volume(), model.live_volume()) << "op " << op;
    ASSERT_EQ(space.object_count(), model.object_count()) << "op " << op;
    ASSERT_EQ(space.footprint(), model.footprint()) << "op " << op;
    const std::uint64_t a = random_bound();
    const std::uint64_t b = random_bound();
    const std::uint64_t lo = std::min(a, b);
    const std::uint64_t hi = std::max(a, b);
    ASSERT_EQ(space.footprint_in(lo, hi), model.footprint_in(lo, hi))
        << "op " << op << " range [" << lo << ", " << hi << ")";
    if (op % 97 == 0 || op == 9999) {
      ASSERT_EQ(space.Snapshot(), model.Snapshot()) << "op " << op;
      ASSERT_TRUE(space.SelfCheck()) << "op " << op;
    }
  }
  ASSERT_EQ(space.Snapshot(), model.Snapshot());
}

TEST(AddressSpaceEngineDifferentialTest, ChurnMatchesReferenceModel) {
  RunDifferentialChurn(/*seed=*/71, /*checkpointed=*/false);
  RunDifferentialChurn(/*seed=*/72, /*checkpointed=*/false);
}

TEST(AddressSpaceEngineDifferentialTest,
     CheckpointedChurnMatchesReferenceModel) {
  RunDifferentialChurn(/*seed=*/81, /*checkpointed=*/true);
  RunDifferentialChurn(/*seed=*/82, /*checkpointed=*/true);
}

// ------------------------------------------------- layout properties

TEST(AddressSpaceLayoutTest, SparseIdsUseOverflowMap) {
  AddressSpace space;
  const ObjectId sparse = std::uint64_t{1} << 50;
  space.Place(1, Extent{0, 10});
  space.Place(sparse, Extent{100, 10});
  EXPECT_TRUE(space.contains(sparse));
  EXPECT_EQ(space.extent_of(sparse), (Extent{100, 10}));
  EXPECT_EQ(space.footprint(), 110u);
  space.Move(sparse, Extent{200, 10});
  EXPECT_EQ(space.extent_of(sparse), (Extent{200, 10}));
  space.Remove(sparse);
  EXPECT_FALSE(space.contains(sparse));
  EXPECT_EQ(space.footprint(), 10u);
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceLayoutTest, ManyObjectsKeepOrderedQueriesExact) {
  // Enough objects to force many OffsetIndex page splits; interleaved
  // erases force page drops and min-offset updates.
  AddressSpace space;
  constexpr std::uint64_t kCount = 5000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    space.Place(i + 1, Extent{i * 16, 8});
  }
  EXPECT_EQ(space.footprint(), (kCount - 1) * 16 + 8);
  for (std::uint64_t i = 0; i < kCount; i += 2) {
    space.Remove(i + 1);
  }
  EXPECT_EQ(space.object_count(), kCount / 2);
  const auto snapshot = space.Snapshot();
  ASSERT_EQ(snapshot.size(), kCount / 2);
  for (std::size_t k = 0; k + 1 < snapshot.size(); ++k) {
    ASSERT_LT(snapshot[k].second.offset, snapshot[k + 1].second.offset);
  }
  EXPECT_TRUE(space.SelfCheck());
}

TEST(AddressSpaceLayoutTest, FootprintInBoundsAreExactAcrossPages) {
  // Objects at 16-byte strides over many OffsetIndex pages: a range ending
  // exactly at an object's offset must exclude it, and one starting there
  // must include it.
  AddressSpace space;
  constexpr std::uint64_t kCount = 1000;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    space.Place(i + 1, Extent{i * 16, 8});
  }
  EXPECT_EQ(space.footprint_in(0, 0), 0u);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const std::uint64_t offset = i * 16;
    ASSERT_EQ(space.footprint_in(0, offset), i == 0 ? 0 : offset - 8);
    ASSERT_EQ(space.footprint_in(offset, offset + 1), offset + 8);
    ASSERT_EQ(space.footprint_in(offset + 1, offset + 16), 0u);
  }
}

// ------------------------------------------------------- batch semantics

class BatchRecordingListener : public SpaceListener {
 public:
  void OnMove(ObjectId, const Extent&, const Extent&) override {
    ++single_moves;
  }
  void OnMoves(const MoveRecord* records, std::size_t count) override {
    ++batches;
    records_in_batches += count;
    last_batch.assign(records, records + count);
  }
  int single_moves = 0;
  int batches = 0;
  std::size_t records_in_batches = 0;
  std::vector<MoveRecord> last_batch;
};

TEST(ApplyMovesTest, ListenersSeeOneCoherentBatchEvent) {
  AddressSpace space;
  BatchRecordingListener listener;
  space.AddListener(&listener);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  space.Place(3, Extent{20, 10});
  const std::vector<MovePlan> plan = {
      {1, {100, 10}}, {2, {110, 10}}, {3, {20, 10}}};  // last is a no-op
  space.ApplyMoves(plan);
  EXPECT_EQ(listener.batches, 1);
  EXPECT_EQ(listener.records_in_batches, 2u);  // no-op dropped
  EXPECT_EQ(listener.single_moves, 0);
  ASSERT_EQ(listener.last_batch.size(), 2u);
  EXPECT_EQ(listener.last_batch[0].id, 1u);
  EXPECT_EQ(listener.last_batch[0].from, (Extent{0, 10}));
  EXPECT_EQ(listener.last_batch[0].to, (Extent{100, 10}));
  // A default (non-overriding) listener gets the same batch fanned out
  // per move by SpaceListener::OnMoves.
  EXPECT_TRUE(space.SelfCheck());
}

TEST(ApplyMovesTest, BatchMayReuseSpaceVacatedWithinTheBatch) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  // Compact-left shape: 1 slides away first, 2 takes its place.
  const std::vector<MovePlan> plan = {{1, {50, 10}}, {2, {0, 10}}};
  space.ApplyMoves(plan);
  EXPECT_EQ(space.extent_of(1), (Extent{50, 10}));
  EXPECT_EQ(space.extent_of(2), (Extent{0, 10}));
  EXPECT_TRUE(space.SelfCheck());
}

TEST(ApplyMovesDeathTest, OverlappingTargetsAbort) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {100, 10}}, {2, {105, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlaps");
}

TEST(ApplyMovesDeathTest, TargetOverlappingStationaryObjectAborts) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{50, 10});
  const std::vector<MovePlan> plan = {{1, {45, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlaps");
}

TEST(ApplyMovesDeathTest, LengthMismatchAborts) {
  AddressSpace space;
  space.Place(1, Extent{0, 10});
  const std::vector<MovePlan> plan = {{1, {100, 12}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "length");
}

// Checkpoint-frozen-region violations must still CHECK-fail when the moves
// arrive as a batch (the once-per-batch validation may not weaken the
// Section 3.1 durability rules).
TEST(ApplyMovesCheckpointDeathTest, BatchedWriteIntoFrozenRegionAborts) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{20, 10});
  space.Move(1, Extent{40, 10});  // [0,10) is frozen until a checkpoint
  const std::vector<MovePlan> plan = {{2, {5, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "frozen");
}

TEST(ApplyMovesCheckpointDeathTest, BatchedTargetOverlappingSourceAborts) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{20, 10});
  // 2's target lands on 1's just-vacated source: legal in the memmove
  // model, forbidden under durability (the old copy must survive).
  const std::vector<MovePlan> plan = {{1, {40, 10}}, {2, {5, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "frozen|overlapping move");
}

TEST(ApplyMovesCheckpointDeathTest, BatchedSelfOverlappingMoveAborts) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {15, 10}}};
  EXPECT_DEATH(space.ApplyMoves(plan), "overlapping move");
}

TEST(ApplyMovesCheckpointTest, DisjointBatchFreezesEverySource) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  space.Place(1, Extent{0, 10});
  space.Place(2, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {100, 10}}, {2, {110, 10}}};
  space.ApplyMoves(plan);
  EXPECT_EQ(manager.frozen_volume(), 20u);  // both sources frozen
  space.Checkpoint();
  EXPECT_EQ(manager.frozen_volume(), 0u);
  space.Place(3, Extent{0, 20});  // released space is reusable
  EXPECT_TRUE(space.SelfCheck());
}

}  // namespace
}  // namespace cosr
