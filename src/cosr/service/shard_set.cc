#include "cosr/service/shard_set.h"

#include <string>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/realloc/factory.h"

namespace cosr {

Status ShardSet::Build(const ReallocatorSpec& inner_spec,
                       const Options& options, Space* parent) {
  if (options.shard_count == 0) {
    return Status::InvalidArgument("shard_count must be >= 1");
  }
  if (options.subrange_span == 0 ||
      options.subrange_span > ~std::uint64_t{0} / options.shard_count) {
    return Status::InvalidArgument("subrange_span degenerate for K shards");
  }
  if (parent != nullptr && parent->checkpoint_manager() != nullptr) {
    return Status::FailedPrecondition(
        "sharded parent space must not carry a CheckpointManager; each "
        "shard scopes its own");
  }
  // Only hash routing re-derives a delete's shard from its id alone.
  keeps_map_ =
      options.routing != RoutingPolicy::kHashId || options.allow_migration;
  // pma's sparse tables hold uniform slot_size objects, so its inserts can
  // fail on a fresh id. A committed insert marks its id live before it
  // executes, so such a failure would leave the map claiming a ghost
  // object, and a migration's destination insert has no rejection path.
  if (keeps_map_ && options.commit_before_execution &&
      inner_spec.algorithm == "pma") {
    return Status::FailedPrecondition(
        inner_spec.algorithm +
        " inserts can fail on the shard, which the submit-time id "
        "placement map (map-keeping routing or rebalance) cannot "
        "represent; use hash routing without rebalance");
  }
  Status status = CheckDurabilityPrecondition(inner_spec);
  if (!status.ok()) return status;
  DurabilityHub* durability = inner_spec.durability;

  ReallocatorSpec spec = inner_spec;
  spec.shard_count = 1;  // the core is the only sharding layer
  spec.worker_threads = 0;
  spec.durability = nullptr;  // per-shard wiring happens here, not inside

  parent_ = parent;
  routing_ = options.routing;
  counters_ = std::vector<ShardCounters>(options.shard_count);
  latency_ = std::vector<ShardLatencyRecorders>(options.shard_count);
  if (keeps_map_) volumes_.assign(options.shard_count, 0);
  shards_.reserve(options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    const std::uint64_t base = std::uint64_t{i} * options.subrange_span;
    Shard shard;
    // A private root keeps the view based at i * span, so the physical
    // layout matches the shared parent's coordinate for coordinate.
    if (parent == nullptr) shard.space = std::make_unique<AddressSpace>();
    Space* root = parent != nullptr ? parent : shard.space.get();
    if (AlgorithmNeedsCheckpointManager(spec.algorithm)) {
      shard.manager = std::make_unique<CheckpointManager>();
    }
    shard.view = std::make_unique<SubSpaceView>(
        root, base, options.subrange_span, shard.manager.get());
    status = MakeReallocator(spec, shard.view.get(), &shard.inner);
    if (!status.ok()) return status;
    if (durability != nullptr) {
      // Checkpoint records flow through the shard's own manager (a root's
      // OnCheckpoint fan-out cannot attribute a checkpoint to a shard).
      shard.log = durability->LogForShard(i);
      shard.manager->AttachDurabilityLog(shard.log);
      if (parent != nullptr) {
        // The shared parent's listener stream interleaves every shard's
        // events; scope log i to sub-range i.
        shard.log_scope = std::make_unique<RangeScopedListener>(
            shard.log, base, base + options.subrange_span);
        parent->AddListener(shard.log_scope.get());
      } else {
        // A private root sees only its own shard's events.
        shard.space->AddListener(shard.log);
      }
    }
    shards_.push_back(std::move(shard));
  }
  return Status::Ok();
}

ShardSet::~ShardSet() {
  for (const Shard& shard : shards_) {
    if (shard.log_scope != nullptr) {
      parent_->RemoveListener(shard.log_scope.get());
    }
  }
}

std::uint32_t ShardSet::shard_for(ObjectId id, std::uint64_t size) const {
  if (routing_ == RoutingPolicy::kLeastLoaded) {
    std::uint32_t best = 0;
    for (std::uint32_t i = 1; i < volumes_.size(); ++i) {
      if (volumes_[i] < volumes_[best]) best = i;
    }
    return best;
  }
  return RouteToShard(routing_, shard_count(), id, size);
}

Status ShardSet::Route(const Request& op, std::uint32_t* shard) const {
  if (!keeps_map_) {
    *shard = shard_for(op.id, op.size);
    return Status::Ok();
  }
  const Placement* placement = placement_.Find(op.id);
  if (op.type == Request::Type::kInsert) {
    if (op.size == 0) return Status::InvalidArgument("size must be positive");
    // A live duplicate may sit on a *different* shard (same id, other
    // size class or load), which that shard's reallocator cannot detect.
    if (placement != nullptr) {
      return Status::AlreadyExists("object " + std::to_string(op.id) +
                                   " is live on shard " +
                                   std::to_string(placement->shard));
    }
    *shard = shard_for(op.id, op.size);
    return Status::Ok();
  }
  if (placement == nullptr) {
    return Status::NotFound("object " + std::to_string(op.id) +
                            " is not live on any shard");
  }
  *shard = placement->shard;
  return Status::Ok();
}

void ShardSet::Commit(const Request& op, std::uint32_t shard) {
  if (!keeps_map_) return;
  if (op.type == Request::Type::kInsert) {
    COSR_CHECK(placement_.TryAssign(op.id, shard, op.size));
    volumes_[shard] += op.size;
  } else {
    const Placement placement = placement_.Erase(op.id);
    volumes_[placement.shard] -= placement.size;
  }
}

std::uint32_t ShardSet::shard_of(ObjectId id) const {
  if (keeps_map_) {
    const Placement* placement = placement_.Find(id);
    return placement == nullptr ? shard_count() : placement->shard;
  }
  const std::uint32_t target = shard_for(id, /*size=*/0);
  return shards_[target].view->contains(id) ? target : shard_count();
}

void ShardSet::RefreshGauges(std::uint32_t i) {
  counters_[i].RefreshGauges(shards_[i].inner->volume(),
                             shards_[i].inner->reserved_footprint());
}

Status ShardSet::Execute(std::uint32_t i, const Request& op) {
  Reallocator& inner = *shards_[i].inner;
  const bool is_insert = op.type == Request::Type::kInsert;
  Status status =
      is_insert ? inner.Insert(op.id, op.size) : inner.Delete(op.id);
  counters_[i].RecordOp(is_insert, status.ok(), inner.volume(),
                        inner.reserved_footprint());
  return status;
}

Status ShardSet::MigrateIn(std::uint32_t i, ObjectId id, std::uint64_t size) {
  Reallocator& inner = *shards_[i].inner;
  COSR_RETURN_IF_ERROR(inner.Insert(id, size));
  counters_[i].RecordMigrateIn(inner.volume(), inner.reserved_footprint());
  return Status::Ok();
}

void ShardSet::Quiesce(std::uint32_t i) {
  shards_[i].inner->Quiesce();
  RefreshGauges(i);
}

void ShardSet::Checkpoint(std::uint32_t i) {
  if (shards_[i].manager == nullptr) return;
  shards_[i].view->Checkpoint();
  RefreshGauges(i);
}

ShardStats::PerShard ShardSet::Snapshot(std::uint32_t i) const {
  const Shard& shard = shards_[i];
  const ShardCountersSnapshot counters = ReadShardCounters(counters_[i]);
  ShardStats::PerShard per;
  per.base = shard.view->base();
  per.objects = shard.view->object_count();
  per.volume = shard.view->live_volume();
  per.reserved_footprint = shard.inner->reserved_footprint();
  per.space_footprint = shard.view->footprint();
  per.checkpoints =
      shard.manager != nullptr ? shard.manager->checkpoint_count() : 0;
  if (shard.log != nullptr) {
    const LogSink& sink = *shard.log->sink();
    per.log_syncs = sink.sync_count();
    per.log_compactions = shard.log->compactions();
    per.sync_wall_seconds = sink.sync_wall_seconds();
    per.max_sync_stall_seconds = sink.max_sync_stall_seconds();
  }
  per.ops = counters.ops;
  per.failed_ops = counters.failed_ops;
  per.peak_reserved_footprint = counters.peak_reserved_footprint;
  per.remote_batches = counters.remote_batches;
  per.batched_ops = counters.batched_ops;
  per.migrations = counters.migrations;
  per.migrated_bytes = counters.migrated_bytes;
  per.migrations_in = counters.migrations_in;
  per.latency_total = latency_[i].total.Snapshot();
  per.latency_queue_wait = latency_[i].queue_wait.Snapshot();
  per.latency_service = latency_[i].service.Snapshot();
  return per;
}

std::uint64_t ShardSet::root_footprint(std::uint32_t i) const {
  return shards_[i].space != nullptr ? shards_[i].space->footprint()
                                     : parent_->footprint();
}

Status ShardSet::MigrateOut(
    ObjectId id, std::uint32_t to,
    const std::function<Status(std::uint64_t size)>& place) {
  if (to >= shard_count()) {
    return Status::InvalidArgument("destination shard " + std::to_string(to) +
                                   " out of range");
  }
  if (!keeps_map_) {
    return Status::FailedPrecondition(
        "facade keeps no placement map, so a migrated id's shard could "
        "never be resolved again; build with Options::allow_migration or a "
        "map-keeping routing policy");
  }
  std::uint32_t from = 0;
  COSR_RETURN_IF_ERROR(Route(Request::Delete(id), &from));
  if (from == to) return Status::Ok();
  const std::uint64_t size = placement_.Find(id)->size;
  Reallocator& source = *shards_[from].inner;
  if (!source.DeletesDetachImmediately()) {
    return Status::FailedPrecondition(
        "source shard " + std::to_string(from) +
        " defers deletes while its flush drains; retry after it quiesces");
  }
  // The remove journals on the source's log like any other delete, before
  // the destination's place.
  COSR_RETURN_IF_ERROR(source.Delete(id));
  Status placed = place(size);
  if (!placed.ok()) {
    // Restore: the source just freed at least `size`, so re-inserting
    // there cannot fail.
    COSR_CHECK_OK(source.Insert(id, size));
    RefreshGauges(from);
    return placed;
  }
  placement_.Reassign(id, from, to);
  volumes_[from] -= size;
  volumes_[to] += size;
  counters_[from].RecordMigrateOut(size, source.volume(),
                                   source.reserved_footprint());
  return Status::Ok();
}

}  // namespace cosr
