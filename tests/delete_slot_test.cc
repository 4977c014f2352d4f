// Slot-indexed deletes in the size-class layout: every variant keeps each
// object's index into its payload list, buffer or tail, tombstones deleted
// payload entries until the region's next flush, and CheckInvariants
// verifies that bookkeeping after every request.

#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>
#include <vector>

#include "cosr/common/random.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"

namespace cosr {
namespace {

/// One variant on its own address space (with a CheckpointManager for the
/// variants that require one).
template <typename Realloc>
struct Harness {
  static constexpr bool kUnconstrained =
      std::is_same_v<Realloc, CostObliviousReallocator>;
  CheckpointManager manager;
  AddressSpace space{kUnconstrained ? nullptr : &manager};
  Realloc realloc{&space};
};

/// Where a delete found its object.
struct DeleteMix {
  int payload = 0;
  int buffer = 0;
  int tail = 0;       // deamortized tail buffer
  int in_flight = 0;  // deamortized flush active: the delete is logged
  std::size_t max_holes = 0;  // most tombstones seen in one region
};

void CountDelete(const SizeClassLayout& layout, const Space& space,
                 ObjectId id, DeleteMix& mix) {
  if (!layout.DeletesDetachImmediately()) {
    ++mix.in_flight;
    return;
  }
  const std::uint64_t offset = space.extent_of(id).offset;
  for (int i = 1; i <= layout.max_size_class(); ++i) {
    const Region& r = layout.region(i);
    if (offset >= r.payload_start && offset < r.buffer_start()) {
      ++mix.payload;
      return;
    }
    if (offset >= r.buffer_start() && offset < r.region_end()) {
      ++mix.buffer;
      return;
    }
  }
  ++mix.tail;
}

std::size_t MaxHoles(const SizeClassLayout& layout) {
  std::size_t holes = 0;
  for (int i = 1; i <= layout.max_size_class(); ++i) {
    holes = std::max(holes, layout.region(i).payload_holes);
  }
  return holes;
}

/// Seeded insert/delete churn over sizes spanning nine classes, then a full
/// drain. Checks the invariants after every request.
template <typename Realloc>
DeleteMix Churn(std::uint64_t seed) {
  Harness<Realloc> h;
  SizeClassLayout& layout = h.realloc;
  Rng rng(seed);
  std::vector<ObjectId> live;
  ObjectId next = 1;
  DeleteMix mix;
  auto check = [&](int op) {
    const Status status = layout.CheckInvariants();
    EXPECT_TRUE(status.ok()) << "seed " << seed << " op " << op << ": "
                             << status.ToString();
    mix.max_holes = std::max(mix.max_holes, MaxHoles(layout));
    return status.ok();
  };
  for (int op = 0; op < 6000; ++op) {
    const bool insert =
        live.empty() || rng.Bernoulli(live.size() < 300 ? 0.65 : 0.35);
    if (insert) {
      EXPECT_TRUE(layout.Insert(next, rng.UniformRange(1, 300)).ok());
      live.push_back(next++);
    } else {
      const std::size_t pick = rng.UniformU64(live.size());
      const ObjectId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      CountDelete(layout, h.space, id, mix);
      EXPECT_TRUE(layout.Delete(id).ok());
    }
    if (!check(op)) return mix;
  }
  layout.Quiesce();
  if (!check(-1)) return mix;
  for (ObjectId id : live) {
    CountDelete(layout, h.space, id, mix);
    EXPECT_TRUE(layout.Delete(id).ok());
    if (!check(-1)) return mix;
  }
  layout.Quiesce();
  EXPECT_EQ(layout.volume(), 0u);
  EXPECT_EQ(layout.CheckInvariants().ToString(), "Ok");
  return mix;
}

template <typename Realloc>
class DeleteSlotTest : public ::testing::Test {};

using Variants = ::testing::Types<CostObliviousReallocator,
                                  CheckpointedReallocator,
                                  DeamortizedReallocator>;
TYPED_TEST_SUITE(DeleteSlotTest, Variants);

TYPED_TEST(DeleteSlotTest, SeededChurnKeepsSlotsExact) {
  constexpr bool kDeamortized =
      std::is_same_v<TypeParam, DeamortizedReallocator>;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const DeleteMix mix = Churn<TypeParam>(seed);
    EXPECT_GT(mix.payload, 0) << "seed " << seed;
    EXPECT_GT(mix.buffer, 0) << "seed " << seed;
    // Several deletes from one region before that region flushed.
    EXPECT_GE(mix.max_holes, 2u) << "seed " << seed;
    if (kDeamortized) {
      EXPECT_GT(mix.tail, 0) << "seed " << seed;
      EXPECT_GT(mix.in_flight, 0) << "seed " << seed;
    } else {
      EXPECT_EQ(mix.tail + mix.in_flight, 0) << "seed " << seed;
    }
    if (this->HasFailure()) return;
  }
}

TYPED_TEST(DeleteSlotTest, DeleteAfterCompactionFindsShiftedSlot) {
  Harness<TypeParam> h;
  SizeClassLayout& layout = h.realloc;
  constexpr std::uint64_t kSize = 100;
  const int cls = 7;  // sizes [64, 128)
  ObjectId next = 1;
  // Fill class 7 until a flush has left at least four objects in its
  // payload segment.
  while (layout.max_size_class() < cls ||
         layout.region(cls).payload_count() < 4) {
    ASSERT_TRUE(layout.Insert(next++, kSize).ok());
    layout.Quiesce();
  }
  ASSERT_EQ(layout.CheckInvariants().ToString(), "Ok");
  // Re-read after every request: a new class would reallocate the regions.
  auto region = [&]() -> const Region& { return layout.region(cls); };
  ASSERT_EQ(region().payload_holes, 0u);

  // Delete the first payload object: its entry becomes a tombstone (the
  // dummy record fits in a buffer, so no flush runs).
  const std::uint64_t flushes = layout.flush_count();
  const ObjectId first = region().payload_objects.front();
  ASSERT_TRUE(layout.Delete(first).ok());
  layout.Quiesce();
  ASSERT_EQ(layout.flush_count(), flushes);
  EXPECT_EQ(region().payload_objects.front(), kInvalidObjectId);
  EXPECT_EQ(region().payload_holes, 1u);
  ASSERT_EQ(layout.CheckInvariants().ToString(), "Ok");

  // Force a flush that covers class 7: the tombstone is compacted away and
  // every later entry shifts down one slot.
  const ObjectId shifted = region().payload_objects.back();
  const std::size_t old_index = region().payload_objects.size() - 1;
  while (layout.flush_count() == flushes) {
    ASSERT_TRUE(layout.Insert(next++, kSize).ok());
    layout.Quiesce();
  }
  const std::vector<ObjectId>& ids = region().payload_objects;
  EXPECT_EQ(region().payload_holes, 0u);
  const auto pos = std::find(ids.begin(), ids.end(), shifted);
  ASSERT_NE(pos, ids.end());
  const auto new_index = static_cast<std::size_t>(pos - ids.begin());
  EXPECT_EQ(new_index + 1, old_index);
  ASSERT_EQ(layout.CheckInvariants().ToString(), "Ok");

  // The delete reaches the shifted object through its re-pointed slot.
  ASSERT_TRUE(layout.Delete(shifted).ok());
  layout.Quiesce();
  ASSERT_EQ(layout.CheckInvariants().ToString(), "Ok");
  EXPECT_FALSE(h.space.contains(shifted));
  EXPECT_FALSE(layout.contains(shifted));
}

}  // namespace
}  // namespace cosr
