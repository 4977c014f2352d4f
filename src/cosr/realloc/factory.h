#ifndef COSR_REALLOC_FACTORY_H_
#define COSR_REALLOC_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "cosr/alloc/free_list.h"
#include "cosr/common/status.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/routing.h"
#include "cosr/storage/space.h"

namespace cosr {

class DurabilityHub;

/// Construction parameters for MakeReallocator. Fields that an algorithm
/// does not use are ignored.
struct ReallocatorSpec {
  /// One of KnownAlgorithms(): "first-fit", "best-fit", "buddy",
  /// "log-compact", "size-class", "oracle", "cost-oblivious",
  /// "checkpointed", "deamortized".
  std::string algorithm = "cost-oblivious";
  double epsilon = 0.25;      // core variants
  double work_factor = 4.0;   // deamortized
  double threshold = 2.0;     // log-compact
  std::uint64_t slot_size = 1;  // pma (sparse tables hold uniform objects)
  /// Free-space engine for first-fit / best-fit (others ignore both).
  FreeList::Policy free_list_policy = FreeList::Policy::kBinned;
  /// Per-bin gap ordering under kBinned; ignored by kMapScan.
  BinDiscipline discipline = BinDiscipline::kFifo;
  /// Service layer: with shard_count > 1 the factory returns a
  /// ShardedReallocator routing over that many instances of `algorithm`,
  /// each on its own sub-range of `space` (which must then carry no
  /// CheckpointManager — managed shards scope their own). shard_count == 1
  /// builds the plain single-instance algorithm.
  std::uint32_t shard_count = 1;
  RoutingPolicy routing = RoutingPolicy::kHashId;
  /// Service layer, concurrent mode: with worker_threads >= 1 the facade
  /// runs shard_count shards on that many worker threads. Concurrent
  /// facades own their per-shard spaces, so they are built through
  /// MakeConcurrentReallocator (no Space argument); MakeReallocator
  /// rejects a spec with worker_threads != 0. 0 = single-threaded.
  std::uint32_t worker_threads = 0;
  /// Durability tier: when non-null, every shard journals its storage
  /// events and checkpoints into the hub's per-shard MoveLogs (shard i
  /// writes log i; a single-instance build writes log 0). Requires a
  /// checkpoint-managed algorithm ("checkpointed"/"deamortized") — without
  /// checkpoint records a log has no recoverable prefix. Sync coalescing
  /// and checkpoint-time compaction are configured on the hub
  /// (DurabilityHub::Options::group_commit), not here — the policy is a
  /// property of the logs, applied uniformly to every shard. The hub must
  /// outlive the built reallocator and its space. Not owned.
  DurabilityHub* durability = nullptr;
};

class ConcurrentShardedReallocator;

/// Creates the named (re)allocator over `space`. Fails with
/// InvalidArgument for unknown names and FailedPrecondition when the
/// algorithm's checkpoint-manager requirement does not match the space.
Status MakeReallocator(const ReallocatorSpec& spec, Space* space,
                       std::unique_ptr<Reallocator>* out);

/// Creates the concurrent sharded facade: spec.shard_count shards of
/// spec.algorithm driven by spec.worker_threads worker threads. Fails with
/// InvalidArgument when spec.worker_threads == 0 (that spec value means
/// "single-threaded" — build it with MakeReallocator instead; callers
/// wanting one worker per shard say so via
/// ConcurrentShardedReallocator::Options directly). The facade owns its
/// per-shard spaces — that is why, unlike MakeReallocator, no Space is
/// passed.
Status MakeConcurrentReallocator(
    const ReallocatorSpec& spec,
    std::unique_ptr<ConcurrentShardedReallocator>* out);

/// All algorithm names MakeReallocator accepts, in display order.
const std::vector<std::string>& KnownAlgorithms();

/// Whether the named algorithm requires a Space with a
/// CheckpointManager attached (the Section 3 variants).
bool AlgorithmNeedsCheckpointManager(const std::string& algorithm);

/// FailedPrecondition when `spec` asks for durability on an algorithm that
/// never checkpoints (its log would have no recoverable prefix); Ok
/// otherwise. Shared by MakeReallocator and the shard core (ShardSet).
Status CheckDurabilityPrecondition(const ReallocatorSpec& spec);

}  // namespace cosr

#endif  // COSR_REALLOC_FACTORY_H_
