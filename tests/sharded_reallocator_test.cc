// The sharding identity and isolation properties of the service layer:
//
//  * K=1 differential — ShardedReallocator wrapping any algorithm with one
//    shard is a zero-cost wrapper: the physical event sequence (places,
//    moves, removes, checkpoints), the per-request reserved footprint, and
//    the final layout are operation-for-operation identical to the bare
//    algorithm on a bare AddressSpace.
//  * K>1 fuzz churn — no object ever escapes its shard's sub-range (so
//    cross-shard extents cannot overlap), and the facade's aggregated
//    accounting (volume, per-shard footprints, sum-of-subrange and global
//    max-end views) is exact against a model replay at every step.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/common/math_util.h"
#include "cosr/common/random.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

// ------------------------------------------------------------ event taps

struct Event {
  char kind = '?';  // P(lace) M(ove) R(emove) C(heckpoint)
  ObjectId id = kInvalidObjectId;
  Extent a;
  Extent b;

  friend bool operator==(const Event& x, const Event& y) {
    return x.kind == y.kind && x.id == y.id && x.a == y.a && x.b == y.b;
  }
};

/// Records every physical event. Checkpoint sequence numbers are omitted on
/// purpose: the sharded parent carries no manager, so its seqs differ from
/// a managed reference space even when the checkpoints themselves align.
class EventRecorder : public SpaceListener {
 public:
  void OnPlace(ObjectId id, const Extent& e) override {
    events.push_back({'P', id, e, Extent{}});
  }
  void OnMove(ObjectId id, const Extent& from, const Extent& to) override {
    events.push_back({'M', id, from, to});
  }
  void OnRemove(ObjectId id, const Extent& e) override {
    events.push_back({'R', id, e, Extent{}});
  }
  void OnCheckpoint(std::uint64_t) override {
    events.push_back({'C', 0, Extent{}, Extent{}});
  }

  std::vector<Event> events;
};

std::string Describe(const Event& e) {
  return std::string(1, e.kind) + " id=" + std::to_string(e.id) + " " +
         ToString(e.a) + " -> " + ToString(e.b);
}

// -------------------------------------------------------- K=1 differential

void RunK1Differential(const std::string& algorithm, RoutingPolicy routing) {
  SCOPED_TRACE(algorithm + "/" + RoutingPolicyName(routing));
  Trace trace = MakeChurnTrace({.operations = 3000,
                                .target_live_volume = 1u << 16,
                                .min_size = 1,
                                .max_size = 512,
                                .seed = 7});

  ReallocatorSpec spec;
  spec.algorithm = algorithm;

  // Reference: the bare algorithm on a bare AddressSpace (managed when the
  // algorithm needs it).
  std::unique_ptr<CheckpointManager> ref_manager;
  if (AlgorithmNeedsCheckpointManager(algorithm)) {
    ref_manager = std::make_unique<CheckpointManager>();
  }
  AddressSpace ref_space(ref_manager.get());
  EventRecorder ref_events;
  ref_space.AddListener(&ref_events);
  std::unique_ptr<Reallocator> ref;
  ASSERT_TRUE(MakeReallocator(spec, &ref_space, &ref).ok());

  // Candidate: the same algorithm behind a K=1 facade on an unmanaged
  // parent (the shard scopes its own manager when needed).
  AddressSpace parent;
  EventRecorder sharded_events;
  parent.AddListener(&sharded_events);
  ShardedReallocator::Options options;
  options.shard_count = 1;
  options.routing = routing;
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());

  for (std::size_t i = 0; i < trace.requests().size(); ++i) {
    const Request& r = trace.requests()[i];
    Status ref_status, sharded_status;
    if (r.type == Request::Type::kInsert) {
      ref_status = ref->Insert(r.id, r.size);
      sharded_status = sharded->Insert(r.id, r.size);
    } else {
      ref_status = ref->Delete(r.id);
      sharded_status = sharded->Delete(r.id);
    }
    ASSERT_EQ(ref_status.ok(), sharded_status.ok()) << "request " << i;
    ASSERT_EQ(ref->reserved_footprint(), sharded->reserved_footprint())
        << "request " << i;
    ASSERT_EQ(ref->volume(), sharded->volume()) << "request " << i;
    ASSERT_EQ(ref_space.footprint(), parent.footprint()) << "request " << i;
  }
  ref->Quiesce();
  sharded->Quiesce();

  // Operation-for-operation identical physical activity.
  ASSERT_EQ(ref_events.events.size(), sharded_events.events.size());
  for (std::size_t i = 0; i < ref_events.events.size(); ++i) {
    ASSERT_EQ(ref_events.events[i], sharded_events.events[i])
        << "event " << i << ": " << Describe(ref_events.events[i]) << " vs "
        << Describe(sharded_events.events[i]);
  }
  EXPECT_EQ(ref_space.Snapshot(), parent.Snapshot());
  EXPECT_TRUE(parent.SelfCheck());
}

TEST(ShardedK1Differential, FirstFit) {
  RunK1Differential("first-fit", RoutingPolicy::kHashId);
}

TEST(ShardedK1Differential, BestFit) {
  RunK1Differential("best-fit", RoutingPolicy::kSizeClass);
}

TEST(ShardedK1Differential, CostOblivious) {
  RunK1Differential("cost-oblivious", RoutingPolicy::kHashId);
}

TEST(ShardedK1Differential, CostObliviousSizeClassRouting) {
  RunK1Differential("cost-oblivious", RoutingPolicy::kSizeClass);
}

TEST(ShardedK1Differential, LogCompact) {
  RunK1Differential("log-compact", RoutingPolicy::kHashId);
}

TEST(ShardedK1Differential, Checkpointed) {
  RunK1Differential("checkpointed", RoutingPolicy::kHashId);
}

TEST(ShardedK1Differential, Deamortized) {
  RunK1Differential("deamortized", RoutingPolicy::kHashId);
}

// ------------------------------------------------------------- K>1 fuzz

void CheckAggregates(const ShardedReallocator& sharded,
                     const AddressSpace& parent,
                     const std::unordered_map<ObjectId, std::uint64_t>& model,
                     std::uint64_t span) {
  std::uint64_t model_volume = 0;
  for (const auto& [id, size] : model) model_volume += size;
  ASSERT_EQ(sharded.volume(), model_volume);
  ASSERT_EQ(parent.live_volume(), model_volume);
  ASSERT_EQ(parent.object_count(), model.size());
  ASSERT_TRUE(parent.SelfCheck());

  const ShardStats stats = sharded.Stats();
  ASSERT_EQ(stats.shards.size(), sharded.shard_count());
  ASSERT_EQ(stats.volume, model_volume);
  ASSERT_EQ(stats.global_max_end, parent.footprint());

  // Recompute every per-shard aggregate from the parent's ground truth.
  std::vector<std::uint64_t> shard_volume(sharded.shard_count(), 0);
  std::vector<std::uint64_t> shard_count(sharded.shard_count(), 0);
  std::vector<std::uint64_t> shard_max_end(sharded.shard_count(), 0);
  for (const auto& [id, extent] : parent.Snapshot()) {
    const std::uint64_t shard = extent.offset / span;
    ASSERT_LT(shard, sharded.shard_count());
    // The whole extent stays inside its shard's sub-range.
    ASSERT_LE(extent.end(), (shard + 1) * span)
        << "object " << id << " straddles a shard boundary";
    // The facade agrees about ownership.
    ASSERT_EQ(sharded.shard_of(id), shard) << "object " << id;
    shard_volume[shard] += extent.length;
    ++shard_count[shard];
    shard_max_end[shard] =
        std::max(shard_max_end[shard], extent.end() - shard * span);
  }
  std::uint64_t sum_reserved = 0, sum_subrange = 0;
  for (std::uint32_t s = 0; s < sharded.shard_count(); ++s) {
    const ShardStats::PerShard& per = stats.shards[s];
    ASSERT_EQ(per.base, std::uint64_t{s} * span);
    ASSERT_EQ(per.volume, shard_volume[s]) << "shard " << s;
    ASSERT_EQ(per.objects, shard_count[s]) << "shard " << s;
    ASSERT_EQ(per.space_footprint, shard_max_end[s]) << "shard " << s;
    ASSERT_GE(per.reserved_footprint, per.space_footprint) << "shard " << s;
    sum_reserved += per.reserved_footprint;
    sum_subrange += per.space_footprint;
  }
  ASSERT_EQ(stats.sum_reserved_footprint, sum_reserved);
  ASSERT_EQ(stats.sum_subrange_footprint, sum_subrange);
  ASSERT_EQ(sharded.reserved_footprint(), sum_reserved);
}

void RunFuzzChurn(const std::string& algorithm, std::uint32_t shard_count,
                  RoutingPolicy routing, std::uint64_t seed) {
  SCOPED_TRACE(algorithm + "/K=" + std::to_string(shard_count) + "/" +
               RoutingPolicyName(routing));
  constexpr std::uint64_t kSpan = 1ull << 32;

  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.routing = routing;
  options.subrange_span = kSpan;
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());

  Rng rng(seed);
  std::unordered_map<ObjectId, std::uint64_t> model;  // live id -> size
  std::vector<ObjectId> live;
  ObjectId next_id = 0;
  for (int op = 0; op < 4000; ++op) {
    const bool insert = live.empty() || rng.Bernoulli(0.55);
    if (insert) {
      const ObjectId id = next_id++;
      const std::uint64_t size = rng.UniformRange(1, 2048);
      ASSERT_TRUE(sharded->Insert(id, size).ok());
      // The routed shard is the one declared by the routing function.
      ASSERT_EQ(sharded->shard_of(id),
                RouteToShard(routing, shard_count, id, size));
      model.emplace(id, size);
      live.push_back(id);
    } else {
      const std::size_t pick = rng.UniformU64(live.size());
      const ObjectId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(sharded->Delete(id).ok());
      model.erase(id);
    }
    if (op % 500 == 0) CheckAggregates(*sharded, parent, model, kSpan);
  }
  sharded->Quiesce();
  CheckAggregates(*sharded, parent, model, kSpan);

  // Duplicate/missing ids surface as errors, never as corruption.
  if (!live.empty()) {
    EXPECT_FALSE(sharded->Insert(live.front(), 99).ok());
  }
  EXPECT_FALSE(sharded->Delete(next_id + 1000).ok());
  CheckAggregates(*sharded, parent, model, kSpan);

  // Drain everything: the sub-spaces empty out and agree about it.
  for (const ObjectId id : live) ASSERT_TRUE(sharded->Delete(id).ok());
  sharded->Quiesce();
  EXPECT_EQ(sharded->volume(), 0u);
  EXPECT_EQ(parent.live_volume(), 0u);
  EXPECT_EQ(parent.object_count(), 0u);
}

TEST(ShardedFuzz, CostObliviousK4Hash) {
  RunFuzzChurn("cost-oblivious", 4, RoutingPolicy::kHashId, 101);
}

TEST(ShardedFuzz, CostObliviousK4SizeClass) {
  RunFuzzChurn("cost-oblivious", 4, RoutingPolicy::kSizeClass, 102);
}

TEST(ShardedFuzz, FirstFitK16Hash) {
  RunFuzzChurn("first-fit", 16, RoutingPolicy::kHashId, 103);
}

TEST(ShardedFuzz, CheckpointedK4Hash) {
  RunFuzzChurn("checkpointed", 4, RoutingPolicy::kHashId, 104);
}

// ------------------------------------------------------ per-shard stats

TEST(ShardedStatsTest, FailedOpsAndPeakFootprintReachStats) {
  constexpr std::uint32_t kShards = 4;
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ShardedReallocator::Options options;
  options.shard_count = kShards;
  options.routing = RoutingPolicy::kHashId;
  std::unique_ptr<ShardedReallocator> sharded;
  ASSERT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());
  for (ObjectId id = 0; id < 400; ++id) {
    ASSERT_TRUE(sharded->Insert(id, (id % 97) + 1).ok());
  }
  for (ObjectId id = 0; id < 400; id += 3) {
    ASSERT_TRUE(sharded->Delete(id).ok());
  }

  // Hash routing keeps no map, so the absent id reaches its hashed shard,
  // whose reallocator refuses it.
  const ObjectId absent = 100000;
  const std::uint32_t target =
      RouteToShard(RoutingPolicy::kHashId, kShards, absent, 0);
  EXPECT_EQ(sharded->Delete(absent).code(), StatusCode::kNotFound);

  const ShardStats stats = sharded->Stats();
  std::uint64_t ops = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ShardStats::PerShard& per = stats.shards[s];
    EXPECT_EQ(per.failed_ops, s == target ? 1u : 0u);
    EXPECT_GT(per.reserved_footprint, 0u);
    EXPECT_GE(per.peak_reserved_footprint, per.reserved_footprint);
    ops += per.ops;
  }
  EXPECT_EQ(ops, 400u + 134u + 1u);  // inserts, deletes, the failed delete
}

// ------------------------------------------------------ routing properties

TEST(RoutingPolicyTest, SizeClassSegregatesClasses) {
  constexpr std::uint32_t kShards = 4;
  for (std::uint64_t size : {1ull, 2ull, 3ull, 8ull, 100ull, 4096ull,
                             65535ull, 1ull << 40}) {
    const std::uint32_t expected =
        static_cast<std::uint32_t>((FloorLog2(size) + 1) % kShards);
    for (ObjectId id : {0ull, 1ull, 999ull}) {
      EXPECT_EQ(RouteToShard(RoutingPolicy::kSizeClass, kShards, id, size),
                expected)
          << "size " << size;
    }
  }
}

TEST(RoutingPolicyTest, HashSpraysRoughlyUniformly) {
  constexpr std::uint32_t kShards = 16;
  std::vector<int> hits(kShards, 0);
  for (ObjectId id = 0; id < 16000; ++id) {
    const std::uint32_t s =
        RouteToShard(RoutingPolicy::kHashId, kShards, id, 1);
    ASSERT_LT(s, kShards);
    ++hits[s];
  }
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_GT(hits[s], 700) << "shard " << s;   // expectation: 1000
    EXPECT_LT(hits[s], 1300) << "shard " << s;
  }
}

// ------------------------------------------------------- view unit tests

TEST(SubSpaceViewTest, TranslatesAndScopes) {
  AddressSpace parent;
  SubSpaceView view(&parent, /*base=*/1000, /*span=*/100);
  SubSpaceView sibling(&parent, /*base=*/2000, /*span=*/100);

  view.Place(1, Extent{0, 10});
  sibling.Place(2, Extent{0, 20});
  EXPECT_EQ(parent.extent_of(1), (Extent{1000, 10}));
  EXPECT_EQ(parent.extent_of(2), (Extent{2000, 20}));
  EXPECT_EQ(view.extent_of(1), (Extent{0, 10}));

  // Scoping: a sibling's object is invisible.
  EXPECT_TRUE(view.contains(1));
  EXPECT_FALSE(view.contains(2));
  Extent removed;
  EXPECT_FALSE(view.TryRemove(2, &removed));
  EXPECT_TRUE(parent.contains(2));

  // Footprints are local; the parent's is global.
  EXPECT_EQ(view.footprint(), 10u);
  EXPECT_EQ(sibling.footprint(), 20u);
  EXPECT_EQ(parent.footprint(), 2020u);
  EXPECT_EQ(view.live_volume(), 10u);
  EXPECT_EQ(view.object_count(), 1u);

  view.Move(1, Extent{50, 10});
  EXPECT_EQ(parent.extent_of(1), (Extent{1050, 10}));
  EXPECT_EQ(view.footprint(), 60u);

  std::vector<MovePlan> plans{{1, Extent{30, 10}}};
  view.ApplyMoves(plans);
  EXPECT_EQ(parent.extent_of(1), (Extent{1030, 10}));

  EXPECT_TRUE(view.SelfCheck());
  EXPECT_TRUE(sibling.SelfCheck());
  const auto snapshot = view.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, 1u);
  EXPECT_EQ(snapshot[0].second, (Extent{30, 10}));

  EXPECT_TRUE(view.TryRemove(1, &removed));
  EXPECT_EQ(removed, (Extent{30, 10}));
  EXPECT_EQ(view.footprint(), 0u);
  EXPECT_EQ(parent.footprint(), 2020u);
}

TEST(SubSpaceViewTest, OutOfRangePlacementDies) {
  AddressSpace parent;
  SubSpaceView view(&parent, 0, /*span=*/100);
  EXPECT_DEATH(view.Place(1, Extent{95, 10}), "escapes sub-range");
}

TEST(SubSpaceViewTest, ScopedFrozenRegionsDie) {
  AddressSpace parent;
  CheckpointManager manager;
  SubSpaceView view(&parent, 500, 1000, &manager);
  view.Place(1, Extent{0, 10});
  view.Place(2, Extent{10, 10});
  view.Remove(2);  // [10, 20) is frozen until the next shard checkpoint
  EXPECT_DEATH(view.Place(3, Extent{15, 5}), "frozen");
  EXPECT_DEATH(view.Move(1, Extent{12, 10}), "frozen");
  view.Checkpoint();
  view.Place(3, Extent{15, 5});  // thawed now
  EXPECT_EQ(parent.extent_of(3), (Extent{515, 5}));
}

TEST(SubSpaceViewTest, DuplicatePlaceOverFrozenReturnsFalseNotAbort) {
  AddressSpace parent;
  CheckpointManager manager;
  SubSpaceView view(&parent, 0, 1000, &manager);
  view.Place(1, Extent{0, 10});
  view.Place(2, Extent{20, 10});
  view.Remove(2);  // [20, 30) is frozen
  // AddressSpace's managed order: the duplicate check wins over the frozen
  // CHECK, so a dup probe aimed at frozen space reports false, not abort.
  EXPECT_FALSE(view.TryPlace(1, Extent{20, 10}));
  EXPECT_EQ(view.extent_of(1), (Extent{0, 10}));
}

TEST(SubSpaceViewTest, SiblingFrozenRegionsAreIndependent) {
  AddressSpace parent;
  CheckpointManager m1, m2;
  SubSpaceView a(&parent, 0, 1000, &m1);
  SubSpaceView b(&parent, 1000, 1000, &m2);
  a.Place(1, Extent{0, 10});
  a.Remove(1);
  // Shard a froze local [0, 10); shard b's local [0, 10) is unrelated.
  b.Place(2, Extent{0, 10});
  EXPECT_EQ(parent.extent_of(2), (Extent{1000, 10}));
  // A checkpoint on b does not thaw a.
  b.Checkpoint();
  EXPECT_DEATH(a.Place(3, Extent{5, 5}), "frozen");
  a.Checkpoint();
  a.Place(3, Extent{5, 5});
}

// A managed view checks a batch plan by plan under Move's rule, each plan
// freezing its source in the shard's manager before the next is checked.
TEST(SubSpaceViewBatchTest, PlanOntoAnEarlierPlansSourceDies) {
  AddressSpace parent;
  CheckpointManager manager;
  SubSpaceView view(&parent, 500, 1000, &manager);
  view.Place(1, Extent{0, 10});
  view.Place(2, Extent{20, 10});
  const std::vector<MovePlan> plan = {{1, {40, 10}}, {2, {5, 10}}};
  EXPECT_DEATH(view.ApplyMoves(plan), "frozen");
}

TEST(SubSpaceViewBatchTest, SelfOverlappingPlanDies) {
  AddressSpace parent;
  CheckpointManager manager;
  SubSpaceView view(&parent, 500, 1000, &manager);
  view.Place(1, Extent{10, 10});
  const std::vector<MovePlan> plan = {{1, {15, 10}}};
  EXPECT_DEATH(view.ApplyMoves(plan), "overlapping move");
}

TEST(SubSpaceViewBatchTest, RepeatedIdDies) {
  AddressSpace parent;
  SubSpaceView view(&parent, 500, 1000);
  view.Place(1, Extent{0, 10});
  const std::vector<MovePlan> plan = {{1, {50, 10}}, {1, {100, 10}}};
  EXPECT_DEATH(view.ApplyMoves(plan), "moved twice");
}

TEST(SubSpaceViewBatchTest, DisjointBatchFreezesOnlyThisShardsSources) {
  AddressSpace parent;
  CheckpointManager m1, m2;
  SubSpaceView a(&parent, 0, 1000, &m1);
  SubSpaceView b(&parent, 1000, 1000, &m2);
  a.Place(1, Extent{0, 10});
  a.Place(2, Extent{10, 10});
  b.Place(3, Extent{0, 10});
  const std::vector<MovePlan> plan = {{1, {100, 10}}, {2, {110, 10}}};
  a.ApplyMoves(plan);
  EXPECT_EQ(parent.extent_of(1), (Extent{100, 10}));
  EXPECT_EQ(parent.extent_of(2), (Extent{110, 10}));
  EXPECT_EQ(m1.frozen().ToVector(), (std::vector<Extent>{{0, 20}}));
  EXPECT_EQ(m2.frozen_volume(), 0u);
  b.Move(3, Extent{10, 10});  // b's local [0, 20) is not frozen by a's batch
  EXPECT_TRUE(a.SelfCheck());
  EXPECT_TRUE(b.SelfCheck());
}

// ------------------------------------------------------- factory plumbing

TEST(ShardedFactoryTest, ShardCountKnobBuildsFacade) {
  AddressSpace space;
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  spec.shard_count = 4;
  spec.routing = RoutingPolicy::kSizeClass;
  std::unique_ptr<Reallocator> realloc;
  ASSERT_TRUE(MakeReallocator(spec, &space, &realloc).ok());
  EXPECT_EQ(std::string(realloc->name()), "sharded[4,size-class]/cost-oblivious");
  ASSERT_TRUE(realloc->Insert(1, 100).ok());
  ASSERT_TRUE(realloc->Insert(2, 5000).ok());
  EXPECT_EQ(realloc->volume(), 5100u);
  ASSERT_TRUE(realloc->Delete(1).ok());
  EXPECT_EQ(realloc->volume(), 5000u);
}

TEST(ShardedFactoryTest, ManagedParentRejected) {
  CheckpointManager manager;
  AddressSpace space(&manager);
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.shard_count = 4;
  std::unique_ptr<Reallocator> realloc;
  const Status status = MakeReallocator(spec, &space, &realloc);
  EXPECT_FALSE(status.ok());
}

TEST(ShardedFactoryTest, ManagedAlgorithmShardsOwnTheirManagers) {
  AddressSpace space;  // unmanaged parent
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.shard_count = 4;
  std::unique_ptr<Reallocator> realloc;
  ASSERT_TRUE(MakeReallocator(spec, &space, &realloc).ok());
  for (ObjectId id = 0; id < 200; ++id) {
    ASSERT_TRUE(realloc->Insert(id, (id % 64) + 1).ok());
  }
  for (ObjectId id = 0; id < 200; id += 2) {
    ASSERT_TRUE(realloc->Delete(id).ok());
  }
  EXPECT_TRUE(space.SelfCheck());
}

TEST(ShardedFactoryTest, RunTraceReportsShardCheckpoints) {
  // The parent is unmanaged under sharding, so RunTrace must pick the
  // checkpoint count out of the shards' private managers instead.
  AddressSpace parent;
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.shard_count = 4;
  std::unique_ptr<Reallocator> realloc;
  ASSERT_TRUE(MakeReallocator(spec, &parent, &realloc).ok());
  const Trace trace = MakeChurnTrace({.operations = 2000,
                                      .target_live_volume = 1u << 15,
                                      .min_size = 1,
                                      .max_size = 256,
                                      .seed = 9});
  const RunReport report =
      RunTrace(*realloc, parent, trace, MakeDefaultBattery());
  EXPECT_GT(report.checkpoints, 0u);
}

TEST(ShardedFactoryTest, UnknownInnerAlgorithmFails) {
  AddressSpace space;
  ReallocatorSpec spec;
  spec.algorithm = "no-such-thing";
  spec.shard_count = 4;
  std::unique_ptr<Reallocator> realloc;
  EXPECT_FALSE(MakeReallocator(spec, &space, &realloc).ok());
}

}  // namespace
}  // namespace cosr
