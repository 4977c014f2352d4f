#include "cosr/service/concurrent_sharded_reallocator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "cosr/common/check.h"
#include "cosr/durability/durability_hub.h"
#include "cosr/realloc/factory.h"

namespace cosr {

Status ConcurrentShardedReallocator::Make(
    const ReallocatorSpec& inner_spec, const Options& options,
    std::unique_ptr<ConcurrentShardedReallocator>* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must be non-null");
  }
  Status status = CheckShardGeometry(options.shard_count,
                                     options.subrange_span);
  if (!status.ok()) return status;
  if (options.worker_threads > options.shard_count) {
    return Status::InvalidArgument(
        "worker_threads must be <= shard_count (a shard is owned by "
        "exactly one worker)");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  const bool needs_map =
      RoutingNeedsPlacementMap(options.routing) || options.rebalance;
  if (needs_map && AlgorithmInsertCanFailOnFreshId(inner_spec.algorithm)) {
    // The placement map marks an id live at submit time; an inner
    // algorithm that can then reject the insert on the shard would leave
    // the map permanently claiming a ghost object — and a migration's
    // destination insert has no submit-time rejection path at all.
    return Status::FailedPrecondition(
        inner_spec.algorithm +
        " inserts can fail on the shard, which the submit-time id "
        "placement map (map-keeping routing or rebalance) cannot "
        "represent; use hash routing without rebalance");
  }

  status = CheckDurabilityPrecondition(inner_spec);
  if (!status.ok()) return status;
  DurabilityHub* durability = inner_spec.durability;

  ReallocatorSpec spec = inner_spec;
  spec.shard_count = 1;  // the facade is the only sharding layer
  spec.worker_threads = 0;
  spec.durability = nullptr;  // per-shard wiring happens here, not inside

  const std::uint32_t workers = options.worker_threads == 0
                                    ? options.shard_count
                                    : options.worker_threads;

  auto facade = std::unique_ptr<ConcurrentShardedReallocator>(
      new ConcurrentShardedReallocator(options));
  facade->needs_routing_map_ = needs_map;
  facade->shards_.reserve(options.shard_count);
  facade->counters_ = std::vector<ShardCounters>(options.shard_count);
  facade->latency_ = std::vector<ShardLatencyRecorders>(options.shard_count);
  facade->dropped_ops_.assign(options.shard_count, 0);
  if (needs_map) facade->stamped_requests_.assign(options.shard_count, 0);
  if (options.routing == RoutingPolicy::kLeastLoaded) {
    facade->predicted_volume_.assign(options.shard_count, 0);
  }
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    Shard shard;
    // A private root per shard: the view is still based at i * span, so
    // the physical layout matches the single-threaded facade's shared
    // parent coordinate-for-coordinate, but workers share no mutable
    // storage state.
    shard.space = std::make_unique<AddressSpace>();
    shard.remote = std::make_unique<RemoteQueue<Delivery>>();
    if (AlgorithmNeedsCheckpointManager(spec.algorithm)) {
      shard.manager = std::make_unique<CheckpointManager>();
    }
    shard.view = std::make_unique<SubSpaceView>(
        shard.space.get(), std::uint64_t{i} * options.subrange_span,
        options.subrange_span, shard.manager.get());
    status = MakeReallocator(spec, shard.view.get(), &shard.inner);
    if (!status.ok()) return status;
    if (durability != nullptr) {
      // Private roots see only their own shard's events (in based/global
      // coordinates), so the log attaches directly — no range filter —
      // and fires exclusively on the shard's owning worker thread.
      MoveLog* log = durability->LogForShard(i);
      shard.log = log;
      shard.manager->AttachDurabilityLog(log);
      shard.space->AddListener(log);
    }
    shard.worker = i % workers;
    facade->shards_.push_back(std::move(shard));
  }
  facade->name_ =
      "concurrent-sharded[" + std::to_string(options.shard_count) + "x" +
      std::to_string(workers) + "," + RoutingPolicyName(options.routing) +
      (options.rebalance ? ",rebalance" : "") + "]/" + spec.algorithm;

  facade->workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    facade->workers_.push_back(std::make_unique<Worker>());
    facade->workers_.back()->last_ops.assign(options.shard_count, 0);
  }
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    facade->workers_[facade->shards_[i].worker]->owned_shards.push_back(i);
  }
  // Start the threads only once every shard and queue exists.
  for (std::uint32_t w = 0; w < workers; ++w) {
    Worker* worker = facade->workers_[w].get();
    ConcurrentShardedReallocator* self = facade.get();
    worker->thread = std::thread([self, worker] { self->WorkerLoop(*worker); });
  }
  *out = std::move(facade);
  return Status::Ok();
}

ConcurrentShardedReallocator::~ConcurrentShardedReallocator() {
  for (std::unique_ptr<Worker>& worker : workers_) {
    {
      std::lock_guard<std::mutex> lock(worker->mu);
      worker->stop = true;
    }
    worker->cv_ready.notify_all();
  }
  // Workers drain their remaining queue before honoring stop.
  for (std::unique_ptr<Worker>& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

Status ConcurrentShardedReallocator::Submit(const Request& op) {
  return SubmitBatch(&op, 1, /*tokens=*/nullptr, /*accepted=*/nullptr,
                     /*per_op=*/true);
}

std::shared_ptr<OpToken> ConcurrentShardedReallocator::SubmitTracked(
    const Request& op) {
  std::vector<std::shared_ptr<OpToken>> tokens;
  SubmitBatch(&op, 1, &tokens, /*accepted=*/nullptr, /*per_op=*/true);
  return std::move(tokens.front());
}

Status ConcurrentShardedReallocator::SubmitMany(const Request* ops,
                                                std::size_t count,
                                                std::size_t* accepted) {
  return SubmitBatch(ops, count, /*tokens=*/nullptr, accepted,
                     /*per_op=*/false);
}

Status ConcurrentShardedReallocator::SubmitMany(const std::vector<Request>& ops,
                                                std::size_t* accepted) {
  return SubmitBatch(ops.data(), ops.size(), /*tokens=*/nullptr, accepted,
                     /*per_op=*/false);
}

std::vector<std::shared_ptr<OpToken>>
ConcurrentShardedReallocator::SubmitManyTracked(const Request* ops,
                                                std::size_t count) {
  std::vector<std::shared_ptr<OpToken>> tokens;
  SubmitBatch(ops, count, &tokens, /*accepted=*/nullptr, /*per_op=*/false);
  return tokens;
}

Status ConcurrentShardedReallocator::SubmitBatch(
    const Request* ops, std::size_t count,
    std::vector<std::shared_ptr<OpToken>>* tokens, std::size_t* accepted,
    bool per_op) {
  if (tokens != nullptr) {
    tokens->clear();
    tokens->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      tokens->push_back(std::make_shared<OpToken>());
    }
  }
  requests_submitted_.fetch_add(count, std::memory_order_relaxed);
  std::size_t delivered_total = 0;
  Status first_error;

  // One submit stamp for the whole call, taken before routing and any
  // backpressure wait: the call is the submission event, and a per-op
  // clock read would cost more than the queue hop a batch amortizes.
  const std::uint64_t submit_ns = MonotonicNanos();
  // Each target shard's items, in op order: one delivery per shard.
  std::vector<std::vector<Item>> buckets(shard_count());
  const auto stage = [&](std::size_t i, std::uint32_t shard) {
    Item item;
    item.kind = ops[i].type == Request::Type::kInsert ? OpKind::kInsert
                                                      : OpKind::kDelete;
    item.shard = shard;
    item.id = ops[i].id;
    item.size = ops[i].size;
    item.submit_ns = submit_ns;
    if (tokens != nullptr) item.token = (*tokens)[i];
    buckets[shard].push_back(std::move(item));
  };

  if (!needs_routing_map_) {
    // Hash routing: no producer-side lock anywhere; each bucket is a
    // capacity-gated lock-free delivery. Per-op tracked submissions never
    // drop (a token must retire); everything else follows the policy.
    for (std::size_t i = 0; i < count; ++i) {
      stage(i, shard_for(ops[i].id, ops[i].size));
    }
    const bool droppable = options_.submit_max_retries > 0 &&
                           !(per_op && tokens != nullptr);
    // A drop statuses the call with the failure of the *earliest* op (in
    // op order) that failed to deliver, across all target shards.
    std::size_t first_error_index = count;
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (buckets[s].empty()) continue;
      std::size_t delivered = 0;
      Status status = PushRemote(s, std::move(buckets[s]), droppable,
                                 /*batched=*/!per_op, &delivered);
      delivered_total += delivered;
      if (status.ok()) continue;
      // Cold path: find shard s's first undelivered op in op order.
      std::size_t nth = delivered;
      for (std::size_t i = 0; i < first_error_index; ++i) {
        if (shard_for(ops[i].id, ops[i].size) == s && nth-- == 0) {
          first_error_index = i;
          first_error = std::move(status);
          break;
        }
      }
    }
    if (accepted != nullptr) *accepted = delivered_total;
    return first_error;
  }

  // Map-keeping routing: ONE routing_mu_ hold routes the whole call AND
  // pushes every bucket, so each shard receives its items in map order
  // (see the routing_mu_ comment). Map-kept items never drop — a drop
  // would falsify the map — and backpressure waits come after release.
  std::vector<std::uint32_t> targets;
  {
    std::lock_guard<std::mutex> lock(routing_mu_);
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t shard = 0;
      Status rejected = RouteLocked(ops[i], &shard);
      if (rejected.ok()) {
        stage(i, shard);
        continue;
      }
      // Submit-time rejection skips just this op; the batch continues.
      if (tokens != nullptr) (*tokens)[i]->Complete(rejected);
      if (first_error.ok()) first_error = std::move(rejected);
    }
    for (std::uint32_t s = 0; s < shard_count(); ++s) {
      if (buckets[s].empty()) continue;
      delivered_total += buckets[s].size();
      Push(s, std::move(buckets[s]), /*batched=*/!per_op);
      targets.push_back(s);
    }
  }
  for (std::uint32_t s : targets) {
    AwaitRoom(*workers_[shards_[s].worker], /*droppable=*/false);
  }
  if (accepted != nullptr) *accepted = delivered_total;
  return first_error;
}

Status ConcurrentShardedReallocator::RouteLocked(const Request& op,
                                                 std::uint32_t* shard) {
  if (op.type == Request::Type::kInsert) {
    if (op.size == 0) return Status::InvalidArgument("size must be positive");
    const std::uint32_t target = RouteInsertLocked(op.id, op.size);
    if (!placement_.TryAssign(op.id, target)) {
      return Status::AlreadyExists(
          "object " + std::to_string(op.id) + " is live on shard " +
          std::to_string(placement_.Lookup(op.id, shard_count())));
    }
    if (!predicted_volume_.empty()) {
      predicted_volume_[target] += op.size;
      sizes_.emplace(op.id, op.size);
    }
    *shard = target;
  } else {
    const std::uint32_t holder = placement_.Lookup(op.id, shard_count());
    if (holder == shard_count()) {
      return Status::NotFound("object " + std::to_string(op.id) +
                              " is not live on any shard");
    }
    placement_.Erase(op.id);
    if (!predicted_volume_.empty()) {
      auto it = sizes_.find(op.id);
      predicted_volume_[holder] -= it->second;
      sizes_.erase(it);
    }
    *shard = holder;
  }
  ++stamped_requests_[*shard];
  return Status::Ok();
}

void ConcurrentShardedReallocator::Push(std::uint32_t shard,
                                        std::vector<Item> items,
                                        bool batched) {
  COSR_CHECK(!items.empty());
  Worker& worker = *workers_[shards_[shard].worker];
  // Counted before the push so a Flush that captures its target after
  // observing the push always waits for these ops; nothing blocks between
  // the increment and the push, so the target stays reachable.
  worker.pushed.fetch_add(items.size(), std::memory_order_relaxed);
  auto* node = new RemoteQueue<Delivery>::Node(Delivery{});
  if (items.size() == 1) {
    node->value.single = std::move(items.front());
  } else {
    items.shrink_to_fit();  // the run waits in the queue: no spare capacity
    node->value.items = std::move(items);
  }
  node->value.batched = batched;
  if (shards_[shard].remote->Push(node)) {
    // Empty -> non-empty is the only transition that can race a worker
    // going to sleep. The empty critical section pairs our release-push
    // with the worker's under-lock predicate check: either the worker
    // sees the push, or it is already waiting and the notify lands.
    { std::lock_guard<std::mutex> lock(worker.mu); }
    worker.cv_ready.notify_one();
  }
}

std::size_t ConcurrentShardedReallocator::AwaitRoom(Worker& worker,
                                                    bool droppable) {
  // Soft in-flight bound: pushed - completed. `completed` is read first —
  // it only counts items `pushed` already counted, so the subtraction can
  // never underflow even with racy reads; reading it early at worst
  // overestimates in-flight, which is the safe direction.
  const std::size_t capacity = options_.queue_capacity;
  std::size_t room = 0;
  const auto has_room = [&] {
    const std::uint64_t completed =
        worker.completed.load(std::memory_order_acquire);
    const std::uint64_t in_flight =
        worker.pushed.load(std::memory_order_relaxed) - completed;
    room = in_flight >= capacity ? 0 : capacity - in_flight;
    return room > 0;
  };
  if (has_room()) return room;
  std::unique_lock<std::mutex> lock(worker.mu);
  if (!droppable) {
    worker.cv_space.wait(lock, has_room);
    return room;
  }
  // Bounded backpressure: wait-with-doubling-backoff up to the retry
  // budget, then report no room rather than stall the producer forever.
  auto backoff = options_.submit_retry_backoff;
  for (std::size_t attempt = 0; attempt < options_.submit_max_retries;
       ++attempt) {
    if (worker.cv_space.wait_for(lock, backoff, has_room)) return room;
    backoff *= 2;
  }
  return 0;
}

Status ConcurrentShardedReallocator::PushRemote(std::uint32_t shard,
                                                std::vector<Item> items,
                                                bool droppable, bool batched,
                                                std::size_t* delivered) {
  Worker& worker = *workers_[shards_[shard].worker];
  const std::size_t total = items.size();
  *delivered = 0;
  while (*delivered < total) {
    const std::size_t room = AwaitRoom(worker, droppable);
    if (room == 0) break;  // retries exhausted: drop the suffix
    // Chunked delivery: never push more than the room observed, so a
    // retry exhaustion drops exactly the undelivered suffix.
    const std::size_t chunk = std::min(room, total - *delivered);
    if (chunk == total) {
      Push(shard, std::move(items), batched);
    } else {
      const auto first =
          items.begin() + static_cast<std::ptrdiff_t>(*delivered);
      Push(shard,
           std::vector<Item>(std::make_move_iterator(first),
                             std::make_move_iterator(
                                 first + static_cast<std::ptrdiff_t>(chunk))),
           batched);
    }
    *delivered += chunk;
  }
  if (*delivered == total) return Status::Ok();
  const std::size_t dropped = total - *delivered;
  Status status = Status::ResourceExhausted(
      "shard " + std::to_string(shard) + " queue full after " +
      std::to_string(options_.submit_max_retries) +
      " bounded retries; dropped " + std::to_string(dropped) + " ops");
  {
    std::lock_guard<std::mutex> drop_lock(drop_mu_);
    dropped_ops_[shard] += dropped;
    last_drop_status_ = status;
  }
  for (std::size_t i = *delivered; i < total; ++i) {
    if (items[i].token != nullptr) items[i].token->Complete(status);
  }
  return status;
}

void ConcurrentShardedReallocator::PushMarker(Item item) {
  const std::uint32_t shard = item.shard;
  std::size_t delivered = 0;
  PushRemote(shard, {std::move(item)}, /*droppable=*/false,
             /*batched=*/false, &delivered);
}

void ConcurrentShardedReallocator::Flush() {
  for (std::unique_ptr<Worker>& worker : workers_) {
    std::unique_lock<std::mutex> lock(worker->mu);
    // `pushed` is bumped just before each lock-free push with nothing
    // blocking in between, so a captured target is always eventually
    // completed.
    const std::uint64_t target = worker->pushed.load(std::memory_order_relaxed);
    worker->cv_drained.wait(lock, [&] {
      return worker->completed.load(std::memory_order_acquire) >= target;
    });
  }
}

Status ConcurrentShardedReallocator::Insert(ObjectId id, std::uint64_t size) {
  return SubmitTracked(Request::Insert(id, size))->Wait();
}

Status ConcurrentShardedReallocator::Delete(ObjectId id) {
  return SubmitTracked(Request::Delete(id))->Wait();
}

std::uint64_t ConcurrentShardedReallocator::reserved_footprint() const {
  return MergeShardCounters(counters_).reserved_footprint;
}

std::uint64_t ConcurrentShardedReallocator::volume() const {
  return MergeShardCounters(counters_).volume;
}

void ConcurrentShardedReallocator::Quiesce() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    Item item;
    item.kind = OpKind::kQuiesce;
    item.shard = i;
    PushMarker(std::move(item));
  }
  Flush();
}

void ConcurrentShardedReallocator::CheckpointAll() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    if (shards_[i].manager == nullptr) continue;
    Item item;
    item.kind = OpKind::kCheckpoint;
    item.shard = i;
    PushMarker(std::move(item));
  }
  Flush();
}

ShardStats ConcurrentShardedReallocator::Stats() {
  // Each shard is snapshotted *on its owning worker* by a marker op on
  // the shard's remote queue: push order puts the marker behind every op
  // any entry point submitted before this call,
  // and only the owner ever touches the shard's mutable state, so the
  // read is race-free even while other producers keep submitting (their
  // later ops simply land behind the marker).
  std::vector<ShardStats::PerShard> per_shard(shard_count());
  std::vector<std::shared_ptr<OpToken>> tokens;
  tokens.reserve(shard_count());
  std::vector<std::uint64_t> max_end(shard_count(), 0);
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    Item item;
    item.kind = OpKind::kSnapshot;
    item.shard = i;
    item.snapshot_out = &per_shard[i];
    item.max_end_out = &max_end[i];
    item.token = std::make_shared<OpToken>();
    tokens.push_back(item.token);
    PushMarker(std::move(item));
  }
  for (const auto& token : tokens) token->Wait();

  ShardStats stats;
  stats.shards.reserve(shard_count());
  {
    std::lock_guard<std::mutex> drop_lock(drop_mu_);
    for (std::uint32_t i = 0; i < shard_count(); ++i) {
      per_shard[i].dropped_ops = dropped_ops_[i];
    }
    stats.last_drop_status = last_drop_status_;
  }
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    stats.AddShard(per_shard[i]);
    // Private roots hold based (global) coordinates, so the max of their
    // footprints is the shared parent's literal footprint.
    stats.global_max_end = std::max(stats.global_max_end, max_end[i]);
  }
  return stats;
}

void ConcurrentShardedReallocator::AddShardListener(std::uint32_t index,
                                                    SpaceListener* listener) {
  COSR_CHECK_MSG(requests_submitted_.load(std::memory_order_relaxed) == 0,
                 "AddShardListener must run before the first Insert/Delete "
                 "submission");
  COSR_CHECK_LT(index, shard_count());
  shards_[index].space->AddListener(listener);
}

std::uint32_t ConcurrentShardedReallocator::RouteInsertLocked(
    ObjectId id, std::uint64_t size) const {
  if (!predicted_volume_.empty()) {
    // Least-loaded: lowest predicted volume wins (lowest index breaking
    // ties). Predicted — not the execution-side frontier gauge — so the
    // decision is a pure function of the submission history, reproducible
    // regardless of worker timing.
    return LeastLoadedShard(predicted_volume_);
  }
  return shard_for(id, size);
}

void ConcurrentShardedReallocator::MaybeRebalance(Worker& worker) {
  // Plan over the relaxed footprint gauges: exact for this worker's own
  // shards (it wrote them), at-most-one-op stale for the rest — fine for
  // a heuristic that re-runs every check_interval cycles.
  std::vector<ShardLoad> loads(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    loads[i].footprint =
        counters_[i].reserved_footprint.load(std::memory_order_relaxed);
    const std::uint64_t ops =
        counters_[i].ops.load(std::memory_order_relaxed);
    loads[i].ops = ops - worker.last_ops[i];
    worker.last_ops[i] = ops;
  }
  const RebalancePlan plan = PlanRebalance(loads, options_.rebalance_options);
  if (!plan.has_move) return;
  // Only the hot shard's owner drains it: the source-side deletes touch
  // the shard's inner state, which belongs to exactly one worker.
  if (std::find(worker.owned_shards.begin(), worker.owned_shards.end(),
                plan.hot) == worker.owned_shards.end()) {
    return;
  }
  Shard& hot = shards_[plan.hot];
  // A source that would defer the physical remove (deamortized mid-flush)
  // would leave the object placed on its private root while the
  // destination re-places the same id — and would journal the remove
  // after the destination's place, breaking the remove-before-place
  // ordering the crash-consistency argument leans on. Wait it out.
  if (!hot.inner->DeletesDetachImmediately()) return;
  // The snapshot reads the hot shard's applied state — safe lock-free
  // because this thread is the only one that ever applies ops to it.
  const std::vector<std::pair<ObjectId, Extent>> victims =
      SelectRebalanceVictims(hot.view->Snapshot(), options_.rebalance_options,
                             hot.inner->reserved_footprint(),
                             loads[plan.cold].footprint,
                             plan.target_footprint);
  if (victims.empty()) return;

  std::lock_guard<std::mutex> lock(routing_mu_);
  // Safety gate: migrate only when the hot shard has no stamped-but-
  // unexecuted ops. Then the placement map and the applied state agree
  // for every id on the shard — in particular no victim has a pending
  // delete/reinsert that an out-of-band source delete would corrupt — and
  // holding routing_mu_ keeps it that way (every submission stamps under
  // this lock). stamped_requests_ is read under the lock; the executed-op
  // counter was written by this very thread, so its relaxed read is
  // exact. When the gate fails, the next scan simply retries.
  if (stamped_requests_[plan.hot] !=
      counters_[plan.hot].ops.load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<Item> arrivals;
  for (const std::pair<ObjectId, Extent>& victim : victims) {
    const ObjectId id = victim.first;
    const std::uint64_t size = victim.second.length;
    // Re-checked per victim: the previous victim's delete may itself have
    // started a deferred flush.
    if (!hot.inner->DeletesDetachImmediately()) break;
    // Source side, executed inline on the owner: the remove journals on
    // the hot shard's durability log like any other delete.
    COSR_CHECK_OK(hot.inner->Delete(id));
    counters_[plan.hot].RecordMigrateOut(size, hot.inner->volume(),
                                         hot.inner->reserved_footprint());
    placement_.Reassign(id, plan.hot, plan.cold);
    if (!predicted_volume_.empty()) {
      predicted_volume_[plan.hot] -= size;
      predicted_volume_[plan.cold] += size;
    }
    Item item;
    item.kind = OpKind::kMigrateIn;
    item.shard = plan.cold;
    item.id = id;
    item.size = size;
    arrivals.push_back(std::move(item));
  }
  // Destination side: the kMigrateIn items, pushed onto the cold shard's
  // remote queue while routing_mu_ is still held — capacity-exempt (a
  // worker must never park on a producer-side backpressure wait), but
  // ordered before any later-submitted op for these ids because such an
  // op can only be routed under this lock, and is pushed behind us. Lock
  // order routing_mu_ -> worker.mu matches the submit path, and the push
  // never blocks, so two workers rebalancing toward each other cannot
  // deadlock.
  Push(plan.cold, std::move(arrivals), /*batched=*/false);
}

void ConcurrentShardedReallocator::WorkerLoop(Worker& worker) {
  const auto pending = [&] {
    for (std::uint32_t s : worker.owned_shards) {
      if (!shards_[s].remote->empty()) return true;
    }
    return false;
  };
  for (;;) {
    bool stopping = false;
    {
      std::unique_lock<std::mutex> lock(worker.mu);
      worker.cv_ready.wait(lock, [&] { return pending() || worker.stop; });
      // Stop only once every owned shard's remote queue is drained.
      if (!pending()) break;
      stopping = worker.stop;
    }
    // Take each owned shard's whole list in one acquire-exchange, then
    // execute node-by-node in push order. Only this thread ever takes, so
    // no other synchronization. One clock read per item, not two: each
    // op's end timestamp is the next op's start (they run back to back).
    std::uint64_t now = MonotonicNanos();
    for (std::uint32_t s : worker.owned_shards) {
      auto* node = shards_[s].remote->TakeAll();
      while (node != nullptr) {
        const Delivery& delivery = node->value;
        const bool single = delivery.items.empty();
        const Item* item = single ? &delivery.single : delivery.items.data();
        const Item* end = single ? item + 1 : item + delivery.items.size();
        if (delivery.batched) counters_[s].RecordRemoteBatch(end - item);
        for (; item != end; ++item) {
          now = ExecuteTimed(*item, now);
          // Release pairs with Flush's and AwaitRoom's acquire: once a
          // reader observes the count, every effect of the op is visible.
          worker.completed.fetch_add(1, std::memory_order_release);
        }
        auto* next = node->next;
        delete node;
        node = next;
      }
    }
    {
      // Notify under the lock so a flusher can never check its predicate
      // between our increment and our notify and then sleep forever.
      std::lock_guard<std::mutex> lock(worker.mu);
    }
    worker.cv_drained.notify_all();
    // Completions free in-flight room for producers held at the bound.
    worker.cv_space.notify_all();
    // Background rebalancing rides the drain cadence: a scan every
    // check_interval cycles, skipped once shutdown has begun (a migration
    // must never land in a queue whose worker already exited).
    if (options_.rebalance && !stopping &&
        ++worker.drain_cycles >= options_.rebalance_options.check_interval) {
      worker.drain_cycles = 0;
      MaybeRebalance(worker);
    }
  }
}

void ConcurrentShardedReallocator::ExecuteItem(const Item& item) {
  Shard& shard = shards_[item.shard];
  ShardCounters& counters = counters_[item.shard];
  Status status;
  switch (item.kind) {
    case OpKind::kInsert:
      status = shard.inner->Insert(item.id, item.size);
      counters.RecordOp(/*is_insert=*/true, status.ok(),
                        shard.inner->volume(),
                        shard.inner->reserved_footprint());
      break;
    case OpKind::kDelete:
      status = shard.inner->Delete(item.id);
      counters.RecordOp(/*is_insert=*/false, status.ok(),
                        shard.inner->volume(),
                        shard.inner->reserved_footprint());
      break;
    case OpKind::kQuiesce:
      shard.inner->Quiesce();
      counters.RefreshGauges(shard.inner->volume(),
                             shard.inner->reserved_footprint());
      break;
    case OpKind::kCheckpoint:
      // On the owning worker, like every other touch of the shard's state.
      shard.view->Checkpoint();
      break;
    case OpKind::kMigrateIn:
      // The destination half of a migration; the source's owner already
      // deleted the object and repointed the map. The insert cannot fail:
      // Make rejects inner algorithms whose inserts can fail on a fresh
      // id whenever rebalancing is enabled. The place journals on this
      // shard's durability log like any other insert.
      COSR_CHECK_OK(shard.inner->Insert(item.id, item.size));
      counters.RecordMigrateIn(shard.inner->volume(),
                               shard.inner->reserved_footprint());
      break;
    case OpKind::kSnapshot: {
      const ShardCountersSnapshot snapshot = ReadShardCounters(counters);
      ShardStats::PerShard& per = *item.snapshot_out;
      per.base = shard.view->base();
      per.objects = shard.view->object_count();
      per.volume = shard.view->live_volume();
      per.reserved_footprint = shard.inner->reserved_footprint();
      per.space_footprint = shard.view->footprint();
      per.checkpoints =
          shard.manager != nullptr ? shard.manager->checkpoint_count() : 0;
      if (shard.log != nullptr) {
        // Owning worker reading its own shard's sink — single-writer, so
        // the sync/stall gauges are race-free here.
        const LogSink& sink = *shard.log->sink();
        per.log_syncs = sink.sync_count();
        per.log_compactions = shard.log->compactions();
        per.sync_wall_seconds = sink.sync_wall_seconds();
        per.max_sync_stall_seconds = sink.max_sync_stall_seconds();
      }
      per.ops = snapshot.ops;
      per.failed_ops = snapshot.failed_ops;
      per.peak_reserved_footprint = snapshot.peak_reserved_footprint;
      per.remote_batches = snapshot.remote_batches;
      per.batched_ops = snapshot.batched_ops;
      per.migrations = snapshot.migrations;
      per.migrated_bytes = snapshot.migrated_bytes;
      per.migrations_in = snapshot.migrations_in;
      // Snapshotting on the owning worker is what makes these cross-bucket
      // consistent with `ops` above: no tracked op can be mid-record here.
      per.latency_total = latency_[item.shard].total.Snapshot();
      per.latency_queue_wait = latency_[item.shard].queue_wait.Snapshot();
      per.latency_service = latency_[item.shard].service.Snapshot();
      *item.max_end_out = shard.space->footprint();
      break;
    }
  }
  if (item.token != nullptr) item.token->Complete(std::move(status));
}

std::uint64_t ConcurrentShardedReallocator::ExecuteTimed(
    const Item& item, std::uint64_t start_ns) {
  // Only client-visible ops (insert/delete) feed the latency histograms:
  // marker and migration items have no submitter waiting on them, and
  // excluding them keeps `latency count == ops` an exact identity.
  const bool tracked =
      item.kind == OpKind::kInsert || item.kind == OpKind::kDelete;
  ExecuteItem(item);
  if (!tracked) return MonotonicNanos();
  const std::uint64_t end_ns = MonotonicNanos();
  ShardLatencyRecorders& lat = latency_[item.shard];
  // queue_wait spans submit stamp -> execution start, so it includes any
  // backpressure stall the producer ate before its push, not just the time
  // the item sat in a queue.
  lat.queue_wait.Record(SaturatingElapsed(start_ns, item.submit_ns));
  lat.service.Record(SaturatingElapsed(end_ns, start_ns));
  lat.total.Record(SaturatingElapsed(end_ns, item.submit_ns));
  return end_ns;
}

}  // namespace cosr
