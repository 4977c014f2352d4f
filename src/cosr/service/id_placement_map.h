#ifndef COSR_SERVICE_ID_PLACEMENT_MAP_H_
#define COSR_SERVICE_ID_PLACEMENT_MAP_H_

#include <cstdint>
#include <unordered_map>

#include "cosr/common/check.h"
#include "cosr/common/types.h"

namespace cosr {

/// Where one live object sits: its shard, and the size it was inserted
/// with (a delete carries no size, yet must give the volume back).
struct Placement {
  std::uint32_t shard = 0;
  std::uint64_t size = 0;
};

/// The id -> placement map of the shard core (ShardSet): the authoritative
/// record of which shard holds each live object, for routing policies that
/// cannot re-derive the shard from the id alone (size-class: deletes carry
/// no size; least-loaded: the decision depended on load at insert time)
/// and for any facade with migration enabled (a migrated id's hash no
/// longer names its shard).
///
/// Update order is split from the routing decision: ShardSet::Route reads
/// the map to validate and decide, and ShardSet::Commit writes the decided
/// op into it (TryAssign on an insert, Erase on a delete); MigrateOut
/// repoints an id with Reassign. When the Commit happens is the caller's
/// contract, and keeping the map exact depends on it. The concurrent
/// facade routes and commits under one routing_mu_ hold, before the op
/// executes, and pushes each routed op under that same hold, so execution
/// follows map order. The single-threaded facade routes first and commits
/// only after the inner call succeeded.
///
/// Thread-compatible: no internal locking. The single-threaded facade calls
/// it from its one owner thread; the concurrent facade guards every access
/// with its routing_mu_.
class IdPlacementMap {
 public:
  /// Records `id` live on `shard` with `size`. Returns false (map
  /// unchanged) when the id is already live.
  bool TryAssign(ObjectId id, std::uint32_t shard, std::uint64_t size) {
    return map_.emplace(id, Placement{shard, size}).second;
  }

  /// The placement of live `id`, or nullptr when the id is not live.
  const Placement* Find(ObjectId id) const {
    auto it = map_.find(id);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Releases `id` and returns its placement. CHECK-fails when it is not
  /// live: callers validated it through Find first.
  Placement Erase(ObjectId id) {
    auto it = map_.find(id);
    COSR_CHECK(it != map_.end());
    const Placement placement = it->second;
    map_.erase(it);
    return placement;
  }

  /// Migration repoint: `id` must currently map to `from`; afterwards it
  /// maps to `to`. CHECK-fails on a stale `from`.
  void Reassign(ObjectId id, std::uint32_t from, std::uint32_t to) {
    auto it = map_.find(id);
    COSR_CHECK(it != map_.end());
    COSR_CHECK_EQ(it->second.shard, from);
    it->second.shard = to;
  }

 private:
  std::unordered_map<ObjectId, Placement> map_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_ID_PLACEMENT_MAP_H_
