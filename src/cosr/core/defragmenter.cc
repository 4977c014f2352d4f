#include "cosr/core/defragmenter.h"

#include <algorithm>
#include <unordered_set>

#include "cosr/common/check.h"
#include "cosr/common/math_util.h"
#include "cosr/core/cost_oblivious_reallocator.h"

namespace cosr {

namespace {

/// Counts moves and tracks the footprint high-water mark for the duration
/// of a sort.
class MoveRecorder : public SpaceListener {
 public:
  explicit MoveRecorder(Space* space) : space_(space) {
    space_->AddListener(this);
  }
  ~MoveRecorder() override { space_->RemoveListener(this); }

  void OnMove(ObjectId, const Extent& from, const Extent& to) override {
    ++moves_;
    moved_volume_ += from.length;
    max_footprint_ = std::max(max_footprint_, to.end());
  }

  std::uint64_t moves() const { return moves_; }
  std::uint64_t moved_volume() const { return moved_volume_; }
  std::uint64_t max_footprint() const { return max_footprint_; }

 private:
  Space* space_;
  std::uint64_t moves_ = 0;
  std::uint64_t moved_volume_ = 0;
  std::uint64_t max_footprint_ = 0;
};

/// Objects in descending current-offset order.
std::vector<ObjectId> ByOffsetDescending(const Space& space,
                                         const std::vector<ObjectId>& ids) {
  std::vector<ObjectId> sorted = ids;
  std::sort(sorted.begin(), sorted.end(), [&](ObjectId a, ObjectId b) {
    return space.extent_of(a).offset > space.extent_of(b).offset;
  });
  return sorted;
}

/// Packs the objects against `right_end` (one slide per object; slides may
/// self-overlap, i.e. memmove semantics). The whole crunch is one batched
/// move plan in descending offset order: ApplyMoves applies it in that
/// order, so each slide lands on free space, space its right neighbor just
/// vacated, or its own source.
void CrunchRight(Space* space, const std::vector<ObjectId>& ids,
                 std::uint64_t right_end) {
  std::vector<MovePlan> plan;
  plan.reserve(ids.size());
  std::uint64_t cursor = right_end;
  for (ObjectId id : ByOffsetDescending(*space, ids)) {
    const Extent& e = space->extent_of(id);
    cursor -= e.length;
    if (e.offset != cursor) plan.push_back(MovePlan{id, {cursor, e.length}});
  }
  space->ApplyMoves(plan);
}

}  // namespace

Status Defragmenter::Sort(Space* space,
                          const std::vector<ObjectId>& ids,
                          const std::function<bool(ObjectId, ObjectId)>& less,
                          const Options& options, Stats* stats) {
  if (options.epsilon <= 0.0 || options.epsilon > 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1]");
  }
  if (space->checkpoint_manager() != nullptr) {
    return Status::FailedPrecondition(
        "defragmentation uses overlapping slides; detach the checkpoint "
        "manager");
  }
  std::uint64_t volume = 0;
  std::uint64_t delta = 0;
  {
    std::unordered_set<ObjectId> seen;
    for (ObjectId id : ids) {
      if (!space->contains(id)) {
        return Status::NotFound("object " + std::to_string(id));
      }
      if (!seen.insert(id).second) {
        return Status::InvalidArgument("duplicate object " +
                                       std::to_string(id));
      }
      const Extent& e = space->extent_of(id);
      volume += e.length;
      delta = std::max(delta, e.length);
    }
  }
  if (ids.empty()) return Status::Ok();

  const std::uint64_t prefix = FloorScale(options.epsilon, volume);
  const std::uint64_t arena_end = prefix + volume;
  for (ObjectId id : ids) {
    if (space->extent_of(id).end() > arena_end) {
      return Status::InvalidArgument(
          "initial allocation exceeds (1+eps)V space");
    }
  }

  MoveRecorder recorder(space);

  // Phase 1: crunch into the rightmost V cells, emptying the prefix.
  CrunchRight(space, ids, arena_end);

  // Phase 2: feed objects left to right into the cost-oblivious structure
  // growing from the front. Its (1+eps')W footprint (including transient
  // in-flush overflow, hence eps' = eps/4) never reaches the suffix head at
  // prefix + W.
  CostObliviousReallocator::Options inner;
  inner.epsilon = options.epsilon / 4.0;
  CostObliviousReallocator realloc(space, inner);
  {
    std::vector<ObjectId> ascending = ByOffsetDescending(*space, ids);
    std::reverse(ascending.begin(), ascending.end());
    for (ObjectId id : ascending) {
      COSR_RETURN_IF_ERROR(realloc.InsertExisting(id));
    }
  }

  // Phase 3: extract in reverse sorted order, packing the suffix from the
  // right end; the suffix ends sorted ascending by `less`. The sorted order
  // is computed once and shared with the optional compaction slide.
  std::vector<ObjectId> order = ids;
  std::sort(order.begin(), order.end(), less);
  {
    std::uint64_t cursor = arena_end;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::uint64_t size = space->extent_of(*it).length;
      cursor -= size;
      COSR_RETURN_IF_ERROR(realloc.ExtractTo(*it, cursor));
    }
  }

  if (options.compact_to_front) {
    std::vector<MovePlan> plan;
    plan.reserve(order.size());
    std::uint64_t cursor = 0;
    for (ObjectId id : order) {
      const Extent& e = space->extent_of(id);
      if (e.offset != cursor) plan.push_back(MovePlan{id, {cursor, e.length}});
      cursor += e.length;
    }
    space->ApplyMoves(plan);
  }

  if (stats != nullptr) {
    stats->volume = volume;
    stats->delta = delta;
    stats->arena_limit = arena_end + delta;
    stats->total_moves = recorder.moves();
    stats->moved_volume = recorder.moved_volume();
    stats->max_footprint = recorder.max_footprint();
  }
  return Status::Ok();
}

Status NaiveDefragSort(Space* space, const std::vector<ObjectId>& ids,
                       const std::function<bool(ObjectId, ObjectId)>& less,
                       Defragmenter::Stats* stats) {
  std::uint64_t volume = 0;
  std::uint64_t delta = 0;
  for (ObjectId id : ids) {
    if (!space->contains(id)) {
      return Status::NotFound("object " + std::to_string(id));
    }
    const Extent& e = space->extent_of(id);
    volume += e.length;
    delta = std::max(delta, e.length);
  }
  if (ids.empty()) return Status::Ok();
  for (ObjectId id : ids) {
    if (space->extent_of(id).end() > 2 * volume) {
      return Status::InvalidArgument("initial allocation exceeds 2V space");
    }
  }

  MoveRecorder recorder(space);
  // Move 1: pack everything into [V, 2V).
  CrunchRight(space, ids, 2 * volume);
  // Move 2: place each object at its final sorted position in [0, V).
  std::vector<ObjectId> order = ids;
  std::sort(order.begin(), order.end(), less);
  {
    std::vector<MovePlan> plan;
    plan.reserve(order.size());
    std::uint64_t cursor = 0;
    for (ObjectId id : order) {
      const Extent& e = space->extent_of(id);
      plan.push_back(MovePlan{id, {cursor, e.length}});
      cursor += e.length;
    }
    space->ApplyMoves(plan);
  }

  if (stats != nullptr) {
    stats->volume = volume;
    stats->delta = delta;
    stats->arena_limit = 2 * volume;
    stats->total_moves = recorder.moves();
    stats->moved_volume = recorder.moved_volume();
    stats->max_footprint = recorder.max_footprint();
  }
  return Status::Ok();
}

}  // namespace cosr
