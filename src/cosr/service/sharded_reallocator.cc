#include "cosr/service/sharded_reallocator.h"

#include <algorithm>
#include <utility>

namespace cosr {

Status ShardedReallocator::Make(const ReallocatorSpec& inner_spec,
                                const Options& options, Space* parent,
                                std::unique_ptr<ShardedReallocator>* out) {
  if (parent == nullptr || out == nullptr) {
    return Status::InvalidArgument("parent and out must be non-null");
  }
  auto sharded = std::unique_ptr<ShardedReallocator>(new ShardedReallocator());
  COSR_RETURN_IF_ERROR(sharded->shards_.Build(
      inner_spec,
      {.shard_count = options.shard_count,
       .subrange_span = options.subrange_span,
       .routing = options.routing,
       .allow_migration = options.allow_migration},
      parent));
  sharded->name_ = "sharded[" + std::to_string(options.shard_count) + "," +
                   RoutingPolicyName(options.routing) + "]/" +
                   inner_spec.algorithm;
  *out = std::move(sharded);
  return Status::Ok();
}

Status ShardedReallocator::Run(const Request& op) {
  owner_fence_.Assert("ShardedReallocator");
  std::uint32_t target = 0;
  COSR_RETURN_IF_ERROR(shards_.Route(op, &target));
  const std::uint64_t start_ns = MonotonicNanos();
  Status status = shards_.Execute(target, op);
  const std::uint64_t elapsed =
      SaturatingElapsed(MonotonicNanos(), start_ns);
  ShardLatencyRecorders& latency = shards_.latency(target);
  latency.total.Record(elapsed);
  latency.service.Record(elapsed);
  if (status.ok()) shards_.Commit(op, target);
  return status;
}

Status ShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  return Run(Request::Insert(id, size));
}

Status ShardedReallocator::Delete(ObjectId id) {
  return Run(Request::Delete(id));
}

Status ShardedReallocator::MigrateObject(ObjectId id, std::uint32_t to) {
  owner_fence_.Assert("ShardedReallocator");
  // Shared parent: the source's Delete (inside MigrateOut) retires before
  // the destination's Insert here, or the parent would see the same id
  // placed twice.
  return shards_.MigrateOut(id, to, [&](std::uint64_t size) {
    return shards_.MigrateIn(to, id, size);
  });
}

void ShardedReallocator::Quiesce() {
  owner_fence_.Assert("ShardedReallocator");
  for (std::uint32_t i = 0; i < shard_count(); ++i) shards_.Quiesce(i);
}

void ShardedReallocator::CheckpointAll() {
  owner_fence_.Assert("ShardedReallocator");
  for (std::uint32_t i = 0; i < shard_count(); ++i) shards_.Checkpoint(i);
}

ShardStats ShardedReallocator::Stats() const {
  ShardStats stats;
  stats.shards.reserve(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    stats.AddShard(shards_.Snapshot(i));
    stats.global_max_end =
        std::max(stats.global_max_end, shards_.root_footprint(i));
  }
  return stats;
}

}  // namespace cosr
