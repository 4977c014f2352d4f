// The shard core under both sharded facades, driven directly:
//
//  * Build runs the geometry, shared-parent and fallible-insert checks.
//  * Route decides and validates without changing anything; Commit alone
//    updates the placement map and the committed volumes that the
//    least-loaded decision minimizes.
//  * MigrateOut's source half: its refusals, the rollback when the
//    destination half fails, and the accounting when it succeeds.

#include <cstdint>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "cosr/realloc/factory.h"
#include "cosr/service/shard_set.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/request.h"

namespace cosr {
namespace {

ReallocatorSpec Spec(const std::string& algorithm) {
  ReallocatorSpec spec;
  spec.algorithm = algorithm;
  return spec;
}

TEST(ShardSetBuildTest, RejectsDegenerateGeometry) {
  ShardSet set;
  EXPECT_EQ(set.Build(Spec("first-fit"), {.shard_count = 0}, nullptr).code(),
            StatusCode::kInvalidArgument);
  ShardSet wide;
  EXPECT_EQ(wide.Build(Spec("first-fit"),
                       {.shard_count = 4, .subrange_span = ~0ull}, nullptr)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSetBuildTest, RejectsAManagedSharedParent) {
  CheckpointManager manager;
  AddressSpace parent(&manager);
  ShardSet set;
  EXPECT_EQ(set.Build(Spec("checkpointed"), {.shard_count = 2}, &parent)
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardSetBuildTest, FallibleInsertsOnlyMatterWhenRoutesCommitFirst) {
  const ShardSet::Options inline_options{
      .shard_count = 2, .routing = RoutingPolicy::kSizeClass};
  ShardSet inline_set;
  EXPECT_TRUE(inline_set.Build(Spec("pma"), inline_options, nullptr).ok());

  ShardSet::Options threaded_options = inline_options;
  threaded_options.commit_before_execution = true;
  ShardSet threaded_set;
  EXPECT_EQ(threaded_set.Build(Spec("pma"), threaded_options, nullptr).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ShardSetRouteTest, HashRoutingWithoutAMapOnlyDecides) {
  ShardSet set;
  ASSERT_TRUE(set.Build(Spec("first-fit"), {.shard_count = 4}, nullptr).ok());
  EXPECT_FALSE(set.keeps_map());
  std::uint32_t shard = 99;
  // An absent id still routes: the inner reallocator reports NotFound.
  ASSERT_TRUE(set.Route(Request::Delete(7), &shard).ok());
  EXPECT_EQ(shard, RouteToShard(RoutingPolicy::kHashId, 4, 7, 0));
  EXPECT_EQ(set.Execute(shard, Request::Delete(7)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(set.Snapshot(shard).failed_ops, 1u);
}

TEST(ShardSetRouteTest, MapValidatesAndOnlyCommitChangesIt) {
  ShardSet set;
  ASSERT_TRUE(set.Build(Spec("first-fit"),
                        {.shard_count = 4,
                         .routing = RoutingPolicy::kSizeClass},
                        nullptr)
                  .ok());
  std::uint32_t shard = 0;
  EXPECT_EQ(set.Route(Request::Insert(1, 0), &shard).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(set.Route(Request::Delete(1), &shard).code(),
            StatusCode::kNotFound);

  const Request insert = Request::Insert(1, 100);
  ASSERT_TRUE(set.Route(insert, &shard).ok());
  EXPECT_EQ(shard, RouteToShard(RoutingPolicy::kSizeClass, 4, 1, 100));
  EXPECT_EQ(set.shard_of(1), 4u);  // routed, not yet committed
  set.Commit(insert, shard);
  EXPECT_EQ(set.shard_of(1), shard);

  const Status duplicate = set.Route(Request::Insert(1, 5), &shard);
  EXPECT_EQ(duplicate.code(), StatusCode::kAlreadyExists);
  EXPECT_NE(duplicate.message().find("shard"), std::string::npos);

  std::uint32_t holder = 0;
  ASSERT_TRUE(set.Route(Request::Delete(1), &holder).ok());
  EXPECT_EQ(holder, shard);
  set.Commit(Request::Delete(1), holder);
  EXPECT_EQ(set.shard_of(1), 4u);
}

TEST(ShardSetRouteTest, LeastLoadedArgminsCommittedVolumes) {
  ShardSet set;
  ASSERT_TRUE(set.Build(Spec("first-fit"),
                        {.shard_count = 3,
                         .routing = RoutingPolicy::kLeastLoaded},
                        nullptr)
                  .ok());
  const auto route_and_commit = [&](const Request& op) {
    std::uint32_t shard = 0;
    EXPECT_TRUE(set.Route(op, &shard).ok());
    set.Commit(op, shard);
    return shard;
  };
  // Volumes (0,0,0): the lowest index wins ties.
  EXPECT_EQ(route_and_commit(Request::Insert(1, 100)), 0u);
  EXPECT_EQ(route_and_commit(Request::Insert(2, 50)), 1u);
  EXPECT_EQ(route_and_commit(Request::Insert(3, 10)), 2u);
  EXPECT_EQ(route_and_commit(Request::Insert(4, 5)), 2u);  // (100,50,15)
  // A committed delete gives its size back: (0,50,15).
  EXPECT_EQ(route_and_commit(Request::Delete(1)), 0u);
  EXPECT_EQ(set.shard_for(5, 1), 0u);
}

class ShardSetMigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(set_.Build(Spec("first-fit"),
                           {.shard_count = 2, .allow_migration = true},
                           nullptr)
                    .ok());
    const Request insert = Request::Insert(kId, kSize);
    ASSERT_TRUE(set_.Route(insert, &from_).ok());
    ASSERT_TRUE(set_.Execute(from_, insert).ok());
    set_.Commit(insert, from_);
    to_ = 1 - from_;
  }

  static constexpr ObjectId kId = 42;
  static constexpr std::uint64_t kSize = 300;
  ShardSet set_;
  std::uint32_t from_ = 0;
  std::uint32_t to_ = 0;
};

TEST_F(ShardSetMigrationTest, RefusesBadRequests) {
  const auto never = [](std::uint64_t) {
    ADD_FAILURE() << "place must not run";
    return Status::Ok();
  };
  EXPECT_EQ(set_.MigrateOut(kId, 2, never).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(set_.MigrateOut(kId + 1, to_, never).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(set_.MigrateOut(kId, from_, never).ok());  // no-op

  ShardSet unmapped;
  ASSERT_TRUE(
      unmapped.Build(Spec("first-fit"), {.shard_count = 2}, nullptr).ok());
  EXPECT_EQ(unmapped.MigrateOut(kId, 1, never).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ShardSetMigrationTest, FailedPlaceRestoresTheSource) {
  std::uint64_t placed_size = 0;
  const Status status = set_.MigrateOut(kId, to_, [&](std::uint64_t size) {
    placed_size = size;
    EXPECT_FALSE(set_.view(from_).contains(kId));  // the source let go
    return Status::Internal("destination refused");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(placed_size, kSize);
  EXPECT_EQ(set_.shard_of(kId), from_);
  EXPECT_TRUE(set_.view(from_).contains(kId));
  EXPECT_EQ(set_.Snapshot(from_).migrations, 0u);
  EXPECT_EQ(set_.volume(), kSize);
}

TEST_F(ShardSetMigrationTest, SuccessRepointsAndCounts) {
  ASSERT_TRUE(set_.MigrateOut(kId, to_, [&](std::uint64_t size) {
                    return set_.MigrateIn(to_, kId, size);
                  })
                  .ok());
  EXPECT_EQ(set_.shard_of(kId), to_);
  EXPECT_FALSE(set_.view(from_).contains(kId));
  EXPECT_TRUE(set_.view(to_).contains(kId));
  const ShardStats::PerShard source = set_.Snapshot(from_);
  const ShardStats::PerShard destination = set_.Snapshot(to_);
  EXPECT_EQ(source.migrations, 1u);
  EXPECT_EQ(source.migrated_bytes, kSize);
  EXPECT_EQ(source.volume, 0u);
  EXPECT_EQ(destination.migrations_in, 1u);
  EXPECT_EQ(destination.volume, kSize);
  EXPECT_EQ(set_.volume(), kSize);

  // A later delete routes to the destination through the repointed map.
  std::uint32_t holder = 0;
  ASSERT_TRUE(set_.Route(Request::Delete(kId), &holder).ok());
  EXPECT_EQ(holder, to_);
}

}  // namespace
}  // namespace cosr
