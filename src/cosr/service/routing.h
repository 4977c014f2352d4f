#ifndef COSR_SERVICE_ROUTING_H_
#define COSR_SERVICE_ROUTING_H_

#include <cstdint>

#include "cosr/common/types.h"

namespace cosr {

/// How a ShardedReallocator assigns an incoming object to a shard.
enum class RoutingPolicy {
  /// Uniform spray: shard = mix(id) mod K. Balances object count and (for
  /// size-independent workloads) volume; every shard sees the full size
  /// distribution.
  kHashId,
  /// Size-segregated: shard = size-class(size) mod K, so heavy-tail large
  /// objects land on different shards than small-object churn. This is the
  /// composition the follow-up literature scales with (Farach-Colton &
  /// Sheffield 2024; Jin 2026): per-size-class sub-problems whose costs
  /// add.
  kSizeClass,
  /// Load-aware: route each insert to the shard with the lowest live
  /// volume, the sum of the sizes committed there (lowest index breaking
  /// ties), on both facades. Not a pure function of (id, size), so the
  /// shard core keeps an id -> shard placement map for deletes. This is
  /// what keeps skewed (multi-tenant, Zipf) workloads from concentrating
  /// footprint on one hot shard.
  kLeastLoaded,
};

/// Display name: "hash" / "size-class" / "least-loaded".
const char* RoutingPolicyName(RoutingPolicy routing);

/// How ConcurrentShardedReallocator delivers ops to the shards' workers.
/// One value: every op rides the per-shard lock-free RemoteQueues (see
/// ConcurrentShardedReallocator::Options::submit_path).
enum class SubmitPath {
  kRemoteBatched,
};

/// The static routing function, shared by the shard core and the tests:
/// which of `shard_count` shards an (id, size) insert goes to.
/// Thread-safe: pure function of its arguments. kLeastLoaded falls back to
/// the hash spray here — its real decision needs the committed volumes,
/// which only the shard core has (ShardSet::shard_for).
std::uint32_t RouteToShard(RoutingPolicy routing, std::uint32_t shard_count,
                           ObjectId id, std::uint64_t size);

}  // namespace cosr

#endif  // COSR_SERVICE_ROUTING_H_
