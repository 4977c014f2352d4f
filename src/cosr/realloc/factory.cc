#include "cosr/realloc/factory.h"

#include "cosr/alloc/best_fit_allocator.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/alloc/buddy_allocator.h"
#include "cosr/alloc/first_fit_allocator.h"
#include "cosr/core/checkpointed_reallocator.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/core/deamortized_reallocator.h"
#include "cosr/realloc/compacting_oracle.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/realloc/packed_memory_array.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/service/concurrent_sharded_reallocator.h"
#include "cosr/service/sharded_reallocator.h"

namespace cosr {

const std::vector<std::string>& KnownAlgorithms() {
  static const std::vector<std::string>& algorithms =
      *new std::vector<std::string>{
          "first-fit",   "best-fit",       "buddy",
          "log-compact", "size-class",     "pma",
          "oracle",      "cost-oblivious", "checkpointed",
          "deamortized"};
  return algorithms;
}

bool AlgorithmNeedsCheckpointManager(const std::string& algorithm) {
  return algorithm == "checkpointed" || algorithm == "deamortized";
}

Status CheckDurabilityPrecondition(const ReallocatorSpec& spec) {
  if (spec.durability == nullptr ||
      AlgorithmNeedsCheckpointManager(spec.algorithm)) {
    return Status::Ok();
  }
  return Status::FailedPrecondition(
      "durability requires a checkpoint-managed algorithm "
      "(checkpointed/deamortized); " +
      spec.algorithm + " never checkpoints, so its log would have no "
      "recoverable prefix");
}

Status MakeReallocator(const ReallocatorSpec& spec, Space* space,
                       std::unique_ptr<Reallocator>* out) {
  if (space == nullptr || out == nullptr) {
    return Status::InvalidArgument("space and out must be non-null");
  }
  if (spec.worker_threads != 0) {
    return Status::InvalidArgument(
        "worker_threads > 0 selects the concurrent facade, which owns its "
        "per-shard spaces; build it with MakeConcurrentReallocator");
  }
  if (spec.shard_count > 1) {
    ShardedReallocator::Options options;
    options.shard_count = spec.shard_count;
    options.routing = spec.routing;
    std::unique_ptr<ShardedReallocator> sharded;
    Status status = ShardedReallocator::Make(spec, options, space, &sharded);
    if (!status.ok()) return status;
    *out = std::move(sharded);
    return Status::Ok();
  }
  const bool managed = space->checkpoint_manager() != nullptr;
  if (AlgorithmNeedsCheckpointManager(spec.algorithm) && !managed) {
    return Status::FailedPrecondition(
        spec.algorithm + " requires a CheckpointManager on the space");
  }
  if (spec.durability != nullptr) {
    // Single-instance durability wiring: log 0 observes the space and the
    // manager's checkpoints. (The sharded facades wire per-shard logs
    // themselves and clear this field before building their inners.)
    Status status = CheckDurabilityPrecondition(spec);
    if (!status.ok()) return status;
    MoveLog* log = spec.durability->LogForShard(0);
    space->checkpoint_manager()->AttachDurabilityLog(log);
    space->AddListener(log);
  }
  if (!AlgorithmNeedsCheckpointManager(spec.algorithm) && managed &&
      (spec.algorithm == "cost-oblivious" || spec.algorithm == "log-compact" ||
       spec.algorithm == "oracle")) {
    return Status::FailedPrecondition(
        spec.algorithm +
        " uses overlapping slides; detach the CheckpointManager");
  }
  if (spec.algorithm == "first-fit") {
    *out = std::make_unique<FirstFitAllocator>(space, spec.free_list_policy,
                                               spec.discipline);
  } else if (spec.algorithm == "best-fit") {
    *out = std::make_unique<BestFitAllocator>(space, spec.free_list_policy,
                                              spec.discipline);
  } else if (spec.algorithm == "buddy") {
    *out = std::make_unique<BuddyAllocator>(space);
  } else if (spec.algorithm == "log-compact") {
    LoggingCompactingReallocator::Options options;
    options.threshold = spec.threshold;
    *out = std::make_unique<LoggingCompactingReallocator>(space, options);
  } else if (spec.algorithm == "size-class") {
    *out = std::make_unique<SizeClassReallocator>(space);
  } else if (spec.algorithm == "pma") {
    PackedMemoryArray::Options options;
    options.slot_size = spec.slot_size;
    *out = std::make_unique<PackedMemoryArray>(space, options);
  } else if (spec.algorithm == "oracle") {
    *out = std::make_unique<CompactingOracle>(space);
  } else if (spec.algorithm == "cost-oblivious") {
    CostObliviousReallocator::Options options;
    options.epsilon = spec.epsilon;
    *out = std::make_unique<CostObliviousReallocator>(space, options);
  } else if (spec.algorithm == "checkpointed") {
    CheckpointedReallocator::Options options;
    options.epsilon = spec.epsilon;
    *out = std::make_unique<CheckpointedReallocator>(space, options);
  } else if (spec.algorithm == "deamortized") {
    DeamortizedReallocator::Options options;
    options.epsilon = spec.epsilon;
    options.work_factor = spec.work_factor;
    *out = std::make_unique<DeamortizedReallocator>(space, options);
  } else {
    return Status::InvalidArgument("unknown algorithm: " + spec.algorithm);
  }
  return Status::Ok();
}

Status MakeConcurrentReallocator(
    const ReallocatorSpec& spec,
    std::unique_ptr<ConcurrentShardedReallocator>* out) {
  if (spec.worker_threads == 0) {
    return Status::InvalidArgument(
        "spec.worker_threads == 0 means single-threaded; build that with "
        "MakeReallocator");
  }
  ConcurrentShardedReallocator::Options options;
  options.shard_count = spec.shard_count;
  options.worker_threads = spec.worker_threads;
  options.routing = spec.routing;
  return ConcurrentShardedReallocator::Make(spec, options, out);
}

}  // namespace cosr
