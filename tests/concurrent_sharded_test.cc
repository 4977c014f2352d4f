// The concurrent service facade's correctness properties:
//
//  * Differential fuzz — a ConcurrentShardedReallocator (K shards, W
//    worker threads) fed one trace must land in exactly the per-shard
//    footprints, volumes, physical-event counts, and aggregate stats that
//    the single-threaded ShardedReallocator produces for the same trace:
//    per-shard op streams are identical, so parallel execution may only
//    interleave *between* shards, never change any shard's outcome.
//  * K=1/W=1 is operation-for-operation identical to the bare algorithm
//    (the same zero-cost-wrapper identity the single-threaded facade pins).
//  * MPSC under real contention — multiple producer threads submitting
//    concurrently lose nothing: every accepted op executes exactly once.
//  * Drain/shutdown ordering — Flush retires everything submitted before
//    it; destruction drains pending queues before joining the workers.
//  * Ordering across entry points — per-op Submit, SubmitMany and the
//    Stats marker share one per-shard FIFO, so one producer's ops (and
//    a Stats() call) never overtake its earlier batches.
//  * Statuses never vanish: tokens carry per-op results, fire-and-forget
//    failures are counted per shard.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/common/random.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/durability/recovery_manager.h"
#include "cosr/metrics/cost_meter.h"
#include "cosr/realloc/factory.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/simulated_disk.h"
#include "cosr/workload/trace.h"
#include "cosr/workload/workload_generator.h"

namespace cosr {
namespace {

Trace TestTrace(std::uint64_t seed, std::uint64_t operations = 4000) {
  return MakeChurnTrace({.operations = operations,
                         .target_live_volume = 1u << 16,
                         .min_size = 1,
                         .max_size = 512,
                         .seed = seed});
}

// ------------------------------------------------- concurrent differential

/// Replays `trace` through the single-threaded facade and returns its
/// stats, so the concurrent run has a ground truth to match.
ShardStats SequentialReplay(const std::string& algorithm,
                            std::uint32_t shard_count, RoutingPolicy routing,
                            const Trace& trace, CostMeter* meter) {
  AddressSpace parent;
  if (meter != nullptr) parent.AddListener(meter);
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.routing = routing;
  std::unique_ptr<ShardedReallocator> sharded;
  EXPECT_TRUE(ShardedReallocator::Make(spec, options, &parent, &sharded).ok());
  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      EXPECT_TRUE(sharded->Insert(request.id, request.size).ok());
    } else {
      EXPECT_TRUE(sharded->Delete(request.id).ok());
    }
  }
  sharded->Quiesce();
  if (meter != nullptr) parent.RemoveListener(meter);
  return sharded->Stats();
}

void RunConcurrentDifferential(const std::string& algorithm,
                               std::uint32_t shard_count,
                               std::uint32_t worker_threads,
                               RoutingPolicy routing, std::uint64_t seed) {
  SCOPED_TRACE(algorithm + "/K=" + std::to_string(shard_count) +
               "/W=" + std::to_string(worker_threads) + "/" +
               RoutingPolicyName(routing));
  const Trace trace = TestTrace(seed);
  const CostBattery battery = MakeDefaultBattery();

  CostMeter sequential_meter(&battery);
  const ShardStats expected = SequentialReplay(
      algorithm, shard_count, routing, trace, &sequential_meter);

  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = shard_count;
  options.worker_threads = worker_threads;
  options.routing = routing;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // One meter per shard: listeners fire on the owning worker thread only,
  // so per-shard meters need no locking; they merge after the drain.
  std::vector<std::unique_ptr<CostMeter>> shard_meters;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shard_meters.push_back(std::make_unique<CostMeter>(&battery));
    concurrent->AddShardListener(i, shard_meters[i].get());
  }

  for (const Request& request : trace.requests()) {
    ASSERT_TRUE(concurrent->Submit(request).ok());
  }
  concurrent->Quiesce();
  const ShardStats actual = concurrent->Stats();

  // Per-shard outcomes are identical, shard by shard.
  ASSERT_EQ(actual.shards.size(), expected.shards.size());
  std::uint64_t failed = 0;
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(actual.shards[i].base, expected.shards[i].base);
    EXPECT_EQ(actual.shards[i].objects, expected.shards[i].objects);
    EXPECT_EQ(actual.shards[i].volume, expected.shards[i].volume);
    EXPECT_EQ(actual.shards[i].reserved_footprint,
              expected.shards[i].reserved_footprint);
    EXPECT_EQ(actual.shards[i].space_footprint,
              expected.shards[i].space_footprint);
    EXPECT_EQ(actual.shards[i].checkpoints, expected.shards[i].checkpoints);
    EXPECT_GE(actual.shards[i].peak_reserved_footprint,
              actual.shards[i].reserved_footprint);
    failed += actual.shards[i].failed_ops;
    EXPECT_TRUE(concurrent->shard_space(i).SelfCheck());
    EXPECT_TRUE(concurrent->shard_view(i).SelfCheck());
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(actual.volume, expected.volume);
  EXPECT_EQ(actual.sum_reserved_footprint, expected.sum_reserved_footprint);
  EXPECT_EQ(actual.sum_subrange_footprint, expected.sum_subrange_footprint);
  EXPECT_EQ(actual.global_max_end, expected.global_max_end);
  EXPECT_EQ(concurrent->reserved_footprint(), expected.sum_reserved_footprint);
  EXPECT_EQ(concurrent->volume(), expected.volume);

  // Physical activity: merged per-shard meters equal the sequential meter.
  CostMeter merged(&battery);
  for (const auto& meter : shard_meters) merged.MergeFrom(*meter);
  EXPECT_EQ(merged.places(), sequential_meter.places());
  EXPECT_EQ(merged.moves(), sequential_meter.moves());
  EXPECT_EQ(merged.removes(), sequential_meter.removes());
  EXPECT_EQ(merged.bytes_placed(), sequential_meter.bytes_placed());
  EXPECT_EQ(merged.bytes_moved(), sequential_meter.bytes_moved());
}

TEST(ConcurrentDifferential, CostObliviousK8W4) {
  RunConcurrentDifferential("cost-oblivious", 8, 4, RoutingPolicy::kHashId, 11);
}

TEST(ConcurrentDifferential, CostObliviousK8W3UnevenPinning) {
  RunConcurrentDifferential("cost-oblivious", 8, 3, RoutingPolicy::kHashId, 12);
}

TEST(ConcurrentDifferential, FirstFitK8W8) {
  RunConcurrentDifferential("first-fit", 8, 8, RoutingPolicy::kHashId, 13);
}

TEST(ConcurrentDifferential, CheckpointedK4W4ScopedManagers) {
  RunConcurrentDifferential("checkpointed", 4, 4, RoutingPolicy::kHashId, 14);
}

TEST(ConcurrentDifferential, DeamortizedK4W2) {
  RunConcurrentDifferential("deamortized", 4, 2, RoutingPolicy::kHashId, 15);
}

TEST(ConcurrentDifferential, CostObliviousK4W4SizeClassRouting) {
  RunConcurrentDifferential("cost-oblivious", 4, 4, RoutingPolicy::kSizeClass,
                            16);
}

// Both facades take the least-loaded decision from the shard core's
// committed volumes, so each shard must see the same op stream here too.
TEST(ConcurrentDifferential, FirstFitK4W2LeastLoadedRouting) {
  RunConcurrentDifferential("first-fit", 4, 2, RoutingPolicy::kLeastLoaded,
                            17);
}

// ------------------------------------------- K=1/W=1 bare-algorithm identity

struct Event {
  char kind = '?';  // P(lace) M(ove) R(emove) C(heckpoint)
  ObjectId id = kInvalidObjectId;
  Extent a;
  Extent b;

  friend bool operator==(const Event& x, const Event& y) {
    return x.kind == y.kind && x.id == y.id && x.a == y.a && x.b == y.b;
  }
};

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

TEST(ConcurrentK1Identity, CostObliviousEventForEvent) {
  const Trace trace = TestTrace(21, 3000);

  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";

  AddressSpace ref_space;
  EventRecorder ref_events;
  ref_space.AddListener(&ref_events);
  std::unique_ptr<Reallocator> ref;
  ASSERT_TRUE(MakeReallocator(spec, &ref_space, &ref).ok());

  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  EventRecorder concurrent_events;
  concurrent->AddShardListener(0, &concurrent_events);

  for (const Request& request : trace.requests()) {
    if (request.type == Request::Type::kInsert) {
      ASSERT_TRUE(ref->Insert(request.id, request.size).ok());
    } else {
      ASSERT_TRUE(ref->Delete(request.id).ok());
    }
    ASSERT_TRUE(concurrent->Submit(request).ok());
  }
  ref->Quiesce();
  concurrent->Quiesce();

  // Shard 0 is based at 0, so even the physical coordinates agree.
  ASSERT_EQ(concurrent_events.events.size(), ref_events.events.size());
  for (std::size_t i = 0; i < ref_events.events.size(); ++i) {
    ASSERT_EQ(concurrent_events.events[i], ref_events.events[i])
        << "event " << i;
  }
  EXPECT_EQ(concurrent->shard_space(0).Snapshot(), ref_space.Snapshot());
  EXPECT_EQ(concurrent->reserved_footprint(), ref->reserved_footprint());
}

// ----------------------------------------------------- MPSC under contention

TEST(ConcurrentMpsc, MultipleProducersLoseNothing) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 3000;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.queue_capacity = 64;  // small bound: exercises backpressure
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  // Each producer owns a disjoint id range: inserts everything, deletes
  // the even ids (insert-before-delete order per id holds because one
  // producer's ops on one shard stay FIFO through that shard's queue).
  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::uint64_t kept = 0;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        const std::uint64_t size = 1 + (j * 2654435761u % 512);
        ASSERT_TRUE(concurrent->Submit(Request::Insert(id, size)).ok());
        if (j % 2 == 0) {
          ASSERT_TRUE(concurrent->Submit(Request::Delete(id)).ok());
        } else {
          kept += size;
        }
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  // Concurrent merged reads must stay well-formed while producers and
  // workers run (monotone op count, no crashes), and Stats() must be
  // callable under load — its per-shard snapshots ride the queues on the
  // owning workers, so this is race-free by construction (TSan runs this
  // test in CI to hold that claim).
  std::uint64_t last_ops = 0;
  for (int poll = 0; poll < 50; ++poll) {
    std::uint64_t ops = 0;
    for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
      ops += ReadShardCounters(concurrent->counters(s)).ops;
    }
    ASSERT_GE(ops, last_ops);
    last_ops = ops;
    if (poll % 10 == 0) {
      const ShardStats running = concurrent->Stats();
      ASSERT_EQ(running.shards.size(), concurrent->shard_count());
      ASSERT_GE(running.sum_reserved_footprint, running.sum_subrange_footprint);
    }
    std::this_thread::yield();
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t ops = 0, failed = 0, objects = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    ops += shard.ops;
    failed += shard.failed_ops;
    objects += shard.objects;
  }
  EXPECT_EQ(ops, kProducers * kIdsPerProducer * 3 / 2);  // every op ran once
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(objects, kProducers * kIdsPerProducer / 2);
  EXPECT_EQ(stats.volume, expected_volume.load());
  for (std::uint32_t s = 0; s < concurrent->shard_count(); ++s) {
    EXPECT_TRUE(concurrent->shard_space(s).SelfCheck());
  }
}

TEST(ConcurrentMpsc, SizeClassRoutingSurvivesProducerRaces) {
  // Size-class routing's id -> shard map updates atomically with the
  // enqueue, so a delete followed by a re-insert into a *different* size
  // class (hence different shard/worker) can never desync the map from
  // shard state, even with producers racing. Each producer churns its own
  // ids through alternating size classes; with the map exact, zero ops
  // may fail.
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 400;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.routing = RoutingPolicy::kSizeClass;
  options.queue_capacity = 32;  // frequent backpressure under routing_mu_
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::uint64_t kept = 0;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        // Three incarnations per id, each in a different size class, so
        // the delete and the next insert usually target different shards
        // (and therefore different workers).
        for (const std::uint64_t size : {3ull, 700ull, 65000ull}) {
          ASSERT_TRUE(concurrent->Submit(Request::Insert(id, size)).ok());
          ASSERT_TRUE(concurrent->Submit(Request::Delete(id)).ok());
        }
        const std::uint64_t final_size = 1 + j % 64;
        ASSERT_TRUE(concurrent->Submit(Request::Insert(id, final_size)).ok());
        kept += final_size;
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0, objects = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
    objects += shard.objects;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(objects, kProducers * kIdsPerProducer);
  EXPECT_EQ(stats.volume, expected_volume.load());

  // And the map still deletes everything (no leaked entries, no ghosts).
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
      ASSERT_TRUE(
          concurrent->Submit(Request::Delete(ObjectId{p} * 1000000 + j)).ok());
    }
  }
  concurrent->Flush();
  EXPECT_EQ(concurrent->volume(), 0u);
}

TEST(ConcurrentMpsc, SizeClassTicketedAdmissionKeepsMapOrderUnderRaces) {
  // Regression for order by pushing under the lock: map-keeping routing
  // pushes its routed items onto the shards' remote queues inside the
  // same routing_mu_ hold as the map update and takes backpressure only
  // after release, so map-order == arrival-order rests on that one lock
  // hold. 4 producers churn ids through alternating size classes — the
  // delete and the next insert usually target different shards/workers —
  // through a MIX of per-op Submit and SubmitMany batches, with a tiny
  // queue capacity so producers stall at the in-flight bound constantly.
  // Any divergence of a shard's arrival order from the map's update order
  // executes some delete before its insert (or an insert before the prior
  // delete) and surfaces as failed_ops.
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint64_t kIdsPerProducer = 300;

  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 8;
  options.worker_threads = 4;
  options.routing = RoutingPolicy::kSizeClass;
  options.queue_capacity = 8;  // constant backpressure during admission
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  std::atomic<std::uint64_t> expected_volume{0};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const ObjectId base = ObjectId{p} * 1000000;
      std::uint64_t kept = 0;
      std::vector<Request> batch;
      for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
        const ObjectId id = base + j;
        const std::uint64_t final_size = 1 + j % 64;
        if (j % 2 == 0) {
          // Batched incarnations: one SubmitMany (one routing_mu_ hold)
          // pushes onto several shards at once.
          batch.clear();
          for (const std::uint64_t size : {3ull, 700ull, 65000ull}) {
            batch.push_back(Request::Insert(id, size));
            batch.push_back(Request::Delete(id));
          }
          batch.push_back(Request::Insert(id, final_size));
          std::size_t accepted = 0;
          ASSERT_TRUE(concurrent->SubmitMany(batch, &accepted).ok());
          ASSERT_EQ(accepted, batch.size());  // size-class never drops
        } else {
          for (const std::uint64_t size : {3ull, 700ull, 65000ull}) {
            ASSERT_TRUE(concurrent->Submit(Request::Insert(id, size)).ok());
            ASSERT_TRUE(concurrent->Submit(Request::Delete(id)).ok());
          }
          ASSERT_TRUE(
              concurrent->Submit(Request::Insert(id, final_size)).ok());
        }
        kept += final_size;
      }
      expected_volume.fetch_add(kept, std::memory_order_relaxed);
    });
  }
  for (std::thread& producer : producers) producer.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0, objects = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
    objects += shard.objects;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(objects, kProducers * kIdsPerProducer);
  EXPECT_EQ(stats.volume, expected_volume.load());
  EXPECT_EQ(stats.dropped_ops, 0u);

  // The map still deletes everything — no leaked entries, no ghosts.
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    for (std::uint64_t j = 0; j < kIdsPerProducer; ++j) {
      ASSERT_TRUE(
          concurrent->Submit(Request::Delete(ObjectId{p} * 1000000 + j)).ok());
    }
  }
  concurrent->Flush();
  EXPECT_EQ(concurrent->volume(), 0u);
}

// ------------------------------------------------ drain / shutdown ordering

TEST(ConcurrentDrain, FlushRetiresEverythingSubmittedBefore) {
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  std::vector<std::shared_ptr<OpToken>> tokens;
  for (ObjectId id = 0; id < 2000; ++id) {
    tokens.push_back(concurrent->SubmitTracked(Request::Insert(id, 16)));
  }
  concurrent->Flush();
  for (const auto& token : tokens) {
    ASSERT_TRUE(token->done());  // Flush may not return before they retire
    EXPECT_TRUE(token->Wait().ok());
  }
  EXPECT_EQ(concurrent->volume(), 2000u * 16);
}

class PlaceCounter : public SpaceListener {
 public:
  void OnPlace(ObjectId, const Extent&) override {
    count.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t> count{0};
};

TEST(ConcurrentDrain, DestructorDrainsPendingQueuesBeforeJoining) {
  PlaceCounter counter;  // outlives the facade
  constexpr std::uint64_t kOps = 5000;
  {
    ReallocatorSpec spec;
    spec.algorithm = "first-fit";
    ConcurrentShardedReallocator::Options options;
    options.shard_count = 4;
    options.worker_threads = 2;
    std::unique_ptr<ConcurrentShardedReallocator> concurrent;
    ASSERT_TRUE(
        ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
    for (std::uint32_t s = 0; s < 4; ++s) {
      concurrent->AddShardListener(s, &counter);
    }
    for (ObjectId id = 0; id < kOps; ++id) {
      ASSERT_TRUE(concurrent->Submit(Request::Insert(id, 8)).ok());
    }
    // No Flush: destruction itself must retire the queued tail.
  }
  EXPECT_EQ(counter.count.load(), kOps);
}

// ----------------------------------------------------- status propagation

TEST(ConcurrentStatus, TokensCarryShardVerdicts) {
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  EXPECT_TRUE(concurrent->SubmitTracked(Request::Insert(7, 100))->Wait().ok());
  EXPECT_EQ(concurrent->SubmitTracked(Request::Insert(7, 50))->Wait().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(concurrent->SubmitTracked(Request::Delete(999))->Wait().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(concurrent->SubmitTracked(Request::Delete(7))->Wait().ok());

  // The synchronous Reallocator interface carries the same semantics.
  EXPECT_TRUE(concurrent->Insert(8, 10).ok());
  EXPECT_EQ(concurrent->Insert(8, 10).code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(concurrent->Delete(8).ok());
  EXPECT_EQ(concurrent->Delete(8).code(), StatusCode::kNotFound);

  // Fire-and-forget failures are counted, never silent — failed_ops tallies
  // every non-ok op, so the 4 intentional failures above count too.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(9, 10)).ok());
  ASSERT_TRUE(concurrent->Submit(Request::Insert(9, 10)).ok());  // dup
  const ShardStats stats = concurrent->Stats();
  std::uint64_t failed = 0;
  for (const ShardStats::PerShard& shard : stats.shards) {
    failed += shard.failed_ops;
  }
  EXPECT_EQ(failed, 5u);
}

TEST(ConcurrentStatus, SizeClassRoutingValidatesAtSubmit) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  options.routing = RoutingPolicy::kSizeClass;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  EXPECT_TRUE(concurrent->Submit(Request::Insert(1, 100)).ok());
  // Submit-side rejections return (and token-complete) without enqueueing.
  EXPECT_EQ(concurrent->Submit(Request::Insert(1, 5000)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(concurrent->Submit(Request::Delete(2)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(concurrent->Submit(Request::Insert(3, 0)).code(),
            StatusCode::kInvalidArgument);
  const auto token = concurrent->SubmitTracked(Request::Delete(2));
  EXPECT_TRUE(token->done());
  EXPECT_EQ(token->Wait().code(), StatusCode::kNotFound);

  EXPECT_TRUE(concurrent->Submit(Request::Delete(1)).ok());
  concurrent->Flush();
  EXPECT_EQ(concurrent->volume(), 0u);
}

// ------------------------------------------------- bounded-retry drop policy

/// Stalls its shard's worker inside the first OnPlace until released, so a
/// test can wedge the pipeline deterministically.
class StallingListener : public SpaceListener {
 public:
  void OnPlace(ObjectId, const Extent&) override {
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
};

TEST(ConcurrentDropPolicy, FullQueueDropsAfterBoundedRetriesAndIsCounted) {
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  // The in-flight bound counts the wedged executing op: capacity 2 is one
  // executing plus one queued.
  options.queue_capacity = 2;
  options.submit_max_retries = 2;
  options.submit_retry_backoff = std::chrono::microseconds(100);
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);

  // Op 1 is picked up by the worker and wedges inside the listener; op 2
  // then fills the in-flight bound.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(1, 8)).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(concurrent->Submit(Request::Insert(2, 8)).ok());

  // Op 3 finds no room, burns its bounded retries, and is dropped.
  const Status dropped = concurrent->Submit(Request::Insert(3, 8));
  EXPECT_EQ(dropped.code(), StatusCode::kResourceExhausted);

  // Tracked submission never drops: it blocks until space frees up, so
  // release the worker from another thread and watch it retire.
  std::thread releaser([&stall] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stall.release.store(true, std::memory_order_release);
  });
  const auto token = concurrent->SubmitTracked(Request::Insert(4, 8));
  EXPECT_TRUE(token->Wait().ok());
  releaser.join();
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  EXPECT_EQ(stats.dropped_ops, 1u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].dropped_ops, 1u);
  EXPECT_EQ(stats.last_drop_status.code(), StatusCode::kResourceExhausted);
  // The dropped op never executed: ids 1, 2, 4 are live, id 3 is not.
  EXPECT_EQ(stats.volume, 3u * 8);
  EXPECT_EQ(stats.shards[0].failed_ops, 0u);
}

TEST(ConcurrentDropPolicy, BatchDropsExactlyTheUndeliveredSuffix) {
  // The batched path's drop policy: when the bounded retries trip
  // mid-batch, the already-delivered prefix executes normally and
  // EXACTLY the undelivered suffix is dropped — counted per shard, with
  // every suffix token completed as ResourceExhausted (batches drop even
  // when tracked; per-op tracked submissions still never drop).
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  options.queue_capacity = 2;
  options.submit_max_retries = 2;
  options.submit_retry_backoff = std::chrono::microseconds(100);
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);

  // Op 1 wedges the worker inside the listener, leaving 1 unit of
  // in-flight room out of capacity 2.
  ASSERT_TRUE(concurrent->Submit(Request::Insert(1, 8)).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // A 4-op batch: chunked delivery pushes exactly the 1 op of room, then
  // burns the retries and drops the 3-op suffix.
  const std::vector<Request> batch = {
      Request::Insert(2, 8), Request::Insert(3, 8), Request::Insert(4, 8),
      Request::Insert(5, 8)};
  std::vector<std::shared_ptr<OpToken>> tokens =
      concurrent->SubmitManyTracked(batch.data(), batch.size());
  ASSERT_EQ(tokens.size(), 4u);
  // The suffix tokens are already complete — the drop happened at submit.
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(tokens[i]->done()) << "token " << i;
    EXPECT_EQ(tokens[i]->Wait().code(), StatusCode::kResourceExhausted)
        << "token " << i;
  }
  EXPECT_FALSE(tokens[0]->done());  // delivered, pending behind the stall

  stall.release.store(true, std::memory_order_release);
  EXPECT_TRUE(tokens[0]->Wait().ok());
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  EXPECT_EQ(stats.dropped_ops, 3u);
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].dropped_ops, 3u);
  EXPECT_EQ(stats.last_drop_status.code(), StatusCode::kResourceExhausted);
  // Ids 1 and 2 executed; the dropped suffix (3, 4, 5) never did.
  EXPECT_EQ(stats.volume, 2u * 8);
  EXPECT_EQ(stats.shards[0].failed_ops, 0u);
  EXPECT_EQ(stats.shards[0].batched_ops, 1u);  // the delivered prefix
}

TEST(ConcurrentDropPolicy, DefaultPolicyIsPureBackpressure) {
  // With submit_max_retries at its default 0, a full queue blocks the
  // producer instead of dropping — the pre-existing contract.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  options.queue_capacity = 2;  // one executing (wedged) plus one queued
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  ASSERT_TRUE(concurrent->Submit(Request::Insert(1, 8)).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(concurrent->Submit(Request::Insert(2, 8)).ok());

  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    ASSERT_TRUE(concurrent->Submit(Request::Insert(3, 8)).ok());
    third_accepted.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_accepted.load(std::memory_order_acquire));
  stall.release.store(true, std::memory_order_release);
  producer.join();
  EXPECT_TRUE(third_accepted.load(std::memory_order_acquire));
  concurrent->Flush();
  const ShardStats stats = concurrent->Stats();
  EXPECT_EQ(stats.dropped_ops, 0u);
  EXPECT_EQ(stats.volume, 3u * 8);
}

// ------------------------------------------- ordering across entry points

TEST(ConcurrentStatus, StatsReflectsBatchesSubmittedBeforeTheCall) {
  // Stats() promises to reflect every op enqueued before the call. Its
  // marker must therefore land behind a SubmitMany batch pushed earlier,
  // even while the worker is wedged mid-drain.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  ASSERT_TRUE(concurrent->SubmitMany({Request::Insert(1, 8)}).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(concurrent->SubmitMany({Request::Insert(2, 8)}).ok());

  ShardStats stats;
  std::thread reader([&] { stats = concurrent->Stats(); });
  // Give the reader time to submit its marker behind the wedged worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stall.release.store(true, std::memory_order_release);
  reader.join();

  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].ops, 2u);
  EXPECT_EQ(stats.volume, 16u);
}

TEST(ConcurrentOrdering, PerOpSubmitStaysBehindAnEarlierBatch) {
  // Per-producer, per-shard FIFO across entry points: a per-op Delete
  // submitted after a SubmitMany Insert of the same id must execute after
  // it, with no Flush in between, even when the worker is wedged
  // mid-drain while both arrive.
  ReallocatorSpec spec;
  spec.algorithm = "first-fit";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 1;
  options.worker_threads = 1;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  StallingListener stall;
  concurrent->AddShardListener(0, &stall);
  ASSERT_TRUE(concurrent->SubmitMany({Request::Insert(1, 8)}).ok());
  while (!stall.entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(concurrent->SubmitMany({Request::Insert(2, 8)}).ok());
  ASSERT_TRUE(concurrent->Submit(Request::Delete(2)).ok());
  stall.release.store(true, std::memory_order_release);
  concurrent->Flush();

  const ShardStats stats = concurrent->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_EQ(stats.shards[0].failed_ops, 0u);
  EXPECT_EQ(stats.shards[0].ops, 3u);
  EXPECT_EQ(stats.volume, 8u);  // id 1 live, id 2 inserted then deleted
}

// --------------------------------------------------- durability integration

TEST(ConcurrentDurability, PerShardLogsRecoverTheCheckpointedState) {
  DurabilityHub hub;
  ReallocatorSpec spec;
  spec.algorithm = "checkpointed";
  spec.durability = &hub;
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 2;
  options.worker_threads = 2;
  options.subrange_span = 1ull << 22;  // keep recovered disks small
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  const Trace trace = TestTrace(31, 1500);
  for (const Request& request : trace.requests()) {
    ASSERT_TRUE(concurrent->Submit(request).ok());
  }
  concurrent->Quiesce();
  concurrent->CheckpointAll();

  // Every shard's log ends on a checkpoint record, so a full-log recovery
  // must reproduce the shard's live map and bytes exactly.
  ASSERT_EQ(hub.log_count(), 2u);
  EXPECT_GT(hub.total_checkpoints(), 0u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    const MemoryLogSink* sink = hub.memory_sink(i);
    ASSERT_NE(sink, nullptr);
    AddressSpace recovered;
    SimulatedDisk disk;
    recovered.AddListener(&disk);
    RecoveryResult result;
    ASSERT_TRUE(RecoveryManager::Recover(sink->data().data(),
                                         sink->data().size(), &recovered,
                                         &result)
                    .ok());
    EXPECT_FALSE(result.torn_tail) << "shard " << i;
    EXPECT_EQ(result.records_discarded, 0u) << "shard " << i;
    EXPECT_TRUE(recovered.Snapshot() == concurrent->shard_space(i).Snapshot())
        << "shard " << i;
    for (const auto& entry : recovered.Snapshot()) {
      EXPECT_TRUE(disk.VerifyObject(entry.first, entry.second))
          << "shard " << i << " object " << entry.first;
    }
  }
}

// ----------------------------------------------------- factory / validation

TEST(ConcurrentFactory, SpecPlumbingBuildsFacade) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  spec.shard_count = 4;
  spec.worker_threads = 2;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  ASSERT_TRUE(MakeConcurrentReallocator(spec, &concurrent).ok());
  EXPECT_EQ(std::string(concurrent->name()),
            "concurrent-sharded[4x2,hash]/cost-oblivious");
  EXPECT_EQ(concurrent->shard_count(), 4u);
  EXPECT_EQ(concurrent->worker_threads(), 2u);
  ASSERT_TRUE(concurrent->Insert(1, 100).ok());
  EXPECT_EQ(concurrent->volume(), 100u);
}

TEST(ConcurrentFactory, ZeroWorkerThreadsMeansSingleThreadedElsewhere) {
  // spec.worker_threads == 0 is documented as "not concurrent", so the
  // concurrent entry point refuses it instead of guessing a thread count.
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  spec.shard_count = 4;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  EXPECT_EQ(MakeConcurrentReallocator(spec, &concurrent).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConcurrentFactory, MakeReallocatorRejectsWorkerThreads) {
  AddressSpace space;
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  spec.shard_count = 4;
  spec.worker_threads = 4;
  std::unique_ptr<Reallocator> realloc;
  EXPECT_EQ(MakeReallocator(spec, &space, &realloc).code(),
            StatusCode::kInvalidArgument);
}

TEST(ConcurrentFactory, DegenerateOptionsFail) {
  ReallocatorSpec spec;
  spec.algorithm = "cost-oblivious";
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;

  ConcurrentShardedReallocator::Options options;
  options.shard_count = 0;
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  options = {};
  options.shard_count = 2;
  options.worker_threads = 4;  // more workers than shards
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  options = {};
  options.queue_capacity = 0;
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());

  spec.algorithm = "no-such-thing";
  options = {};
  EXPECT_FALSE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
}

TEST(ConcurrentFactory, SizeClassRoutingRejectsFallibleInserts) {
  // pma inserts can fail on the shard (uniform slot_size), which the
  // size-class routing map cannot represent — rejected at Make, not
  // corrupted at runtime. Hash routing has no map and stays allowed.
  ReallocatorSpec spec;
  spec.algorithm = "pma";
  ConcurrentShardedReallocator::Options options;
  options.shard_count = 4;
  options.worker_threads = 2;
  options.routing = RoutingPolicy::kSizeClass;
  std::unique_ptr<ConcurrentShardedReallocator> concurrent;
  EXPECT_EQ(ConcurrentShardedReallocator::Make(spec, options, &concurrent)
                .code(),
            StatusCode::kFailedPrecondition);

  options.routing = RoutingPolicy::kHashId;
  ASSERT_TRUE(
      ConcurrentShardedReallocator::Make(spec, options, &concurrent).ok());
  // On-shard failures surface through tokens and failed_ops as usual.
  EXPECT_TRUE(concurrent->SubmitTracked(Request::Insert(1, 1))->Wait().ok());
  EXPECT_FALSE(concurrent->SubmitTracked(Request::Insert(2, 64))->Wait().ok());
}

}  // namespace
}  // namespace cosr
