#include "cosr/service/concurrent_sharded_reallocator.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "cosr/common/check.h"

namespace cosr {

Status ConcurrentShardedReallocator::Make(
    const ReallocatorSpec& inner_spec, const Options& options,
    std::unique_ptr<ConcurrentShardedReallocator>* out) {
  if (out == nullptr) {
    return Status::InvalidArgument("out must be non-null");
  }
  if (options.worker_threads > options.shard_count) {
    return Status::InvalidArgument(
        "worker_threads must be <= shard_count (a shard is owned by "
        "exactly one worker)");
  }
  if (options.queue_capacity == 0) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  const std::uint32_t workers = options.worker_threads == 0
                                    ? options.shard_count
                                    : options.worker_threads;

  auto facade = std::unique_ptr<ConcurrentShardedReallocator>(
      new ConcurrentShardedReallocator(options));
  // Private roots (null parent): workers share no mutable storage state.
  // Routes commit at submit time, before the worker runs the op.
  COSR_RETURN_IF_ERROR(facade->shards_.Build(
      inner_spec,
      {.shard_count = options.shard_count,
       .subrange_span = options.subrange_span,
       .routing = options.routing,
       .allow_migration = options.rebalance,
       .commit_before_execution = true},
      /*parent=*/nullptr));
  facade->dropped_ops_.assign(options.shard_count, 0);
  if (facade->shards_.keeps_map()) {
    facade->stamped_requests_.assign(options.shard_count, 0);
  }
  facade->queues_ = std::vector<RemoteQueue<Delivery>>(options.shard_count);
  facade->name_ =
      "concurrent-sharded[" + std::to_string(options.shard_count) + "x" +
      std::to_string(workers) + "," + RoutingPolicyName(options.routing) +
      (options.rebalance ? ",rebalance" : "") + "]/" + inner_spec.algorithm;

  facade->workers_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    facade->workers_.push_back(std::make_unique<Worker>());
    facade->workers_.back()->last_ops.assign(options.shard_count, 0);
  }
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    facade->OwnerOf(i).owned_shards.push_back(i);
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
    buckets[shard].push_back(
        Item{.kind = ops[i].type == Request::Type::kInsert ? OpKind::kInsert
                                                           : OpKind::kDelete,
             .shard = shard,
             .id = ops[i].id,
             .size = ops[i].size,
             .submit_ns = submit_ns,
             .token = tokens != nullptr ? (*tokens)[i] : nullptr});
  };

  if (!shards_.keeps_map()) {
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
      Status rejected = shards_.Route(ops[i], &shard);
      if (rejected.ok()) {
        shards_.Commit(ops[i], shard);
        ++stamped_requests_[shard];
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
    AwaitRoom(OwnerOf(s), /*droppable=*/false);
  }
  if (accepted != nullptr) *accepted = delivered_total;
  return first_error;
}

void ConcurrentShardedReallocator::Push(std::uint32_t shard,
                                        std::vector<Item> items,
                                        bool batched) {
  COSR_CHECK(!items.empty());
  Worker& worker = OwnerOf(shard);
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
  if (queues_[shard].Push(node)) {
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
  Worker& worker = OwnerOf(shard);
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

void ConcurrentShardedReallocator::Quiesce() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    PushMarker(Item{.kind = OpKind::kQuiesce, .shard = i});
  }
  Flush();
}

void ConcurrentShardedReallocator::CheckpointAll() {
  Flush();
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    if (shards_.manager(i) != nullptr) {
      PushMarker(Item{.kind = OpKind::kCheckpoint, .shard = i});
    }
  }
  Flush();
}

ShardStats ConcurrentShardedReallocator::Stats() {
  // Each shard is snapshotted *on its owning worker* by a marker behind
  // every op submitted before this call. Only the owner touches the
  // shard's state, so the read is race-free while other producers keep
  // submitting (their later ops land behind the marker).
  std::vector<ShardStats::PerShard> per_shard(shard_count());
  std::vector<std::shared_ptr<OpToken>> tokens;
  tokens.reserve(shard_count());
  std::vector<std::uint64_t> max_end(shard_count(), 0);
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    tokens.push_back(std::make_shared<OpToken>());
    PushMarker(Item{.kind = OpKind::kSnapshot,
                    .shard = i,
                    .token = tokens.back(),
                    .snapshot_out = &per_shard[i],
                    .max_end_out = &max_end[i]});
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
  shards_.space(index)->AddListener(listener);
}

void ConcurrentShardedReallocator::MaybeRebalance(Worker& worker) {
  // Plan over the relaxed footprint gauges: exact for this worker's own
  // shards (it wrote them), at-most-one-op stale for the rest — fine for
  // a heuristic that re-runs every check_interval cycles.
  const std::vector<ShardCounters>& counters = shards_.counters();
  std::vector<ShardLoad> loads(shard_count());
  for (std::uint32_t i = 0; i < shard_count(); ++i) {
    loads[i].footprint =
        counters[i].reserved_footprint.load(std::memory_order_relaxed);
    const std::uint64_t ops = counters[i].ops.load(std::memory_order_relaxed);
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
  // A source that defers deletes (deamortized mid-flush) would journal
  // the remove after the destination's place, breaking the
  // remove-before-place order the crash-consistency argument leans on.
  // MigrateOut refuses it; checking here first skips the snapshot.
  if (!shards_.inner(plan.hot).DeletesDetachImmediately()) return;
  // The snapshot reads the hot shard's applied state — safe lock-free
  // because this thread is the only one that ever applies ops to it.
  const std::vector<std::pair<ObjectId, Extent>> victims =
      SelectRebalanceVictims(shards_.view(plan.hot).Snapshot(),
                             options_.rebalance_options,
                             shards_.inner(plan.hot).reserved_footprint(),
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
      counters[plan.hot].ops.load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<Item> arrivals;
  for (const std::pair<ObjectId, Extent>& victim : victims) {
    const ObjectId id = victim.first;
    // The gate above keeps the map in agreement with the applied state,
    // so the source half runs on this worker's own shard.
    COSR_CHECK_EQ(shards_.shard_of(id), plan.hot);
    // Source half inline on the owner; the destination half is staged.
    // Only the deferred-delete refusal can stop it: the previous
    // victim's delete may itself have started a deferred flush.
    const Status status =
        shards_.MigrateOut(id, plan.cold, [&](std::uint64_t size) {
          arrivals.push_back(Item{.kind = OpKind::kMigrateIn,
                                  .shard = plan.cold,
                                  .id = id,
                                  .size = size});
          return Status::Ok();
        });
    if (!status.ok()) {
      COSR_CHECK(status.code() == StatusCode::kFailedPrecondition);
      break;
    }
  }
  if (arrivals.empty()) return;
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
      if (!queues_[s].empty()) return true;
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
      auto* node = queues_[s].TakeAll();
      while (node != nullptr) {
        const Delivery& delivery = node->value;
        const bool single = delivery.items.empty();
        const Item* item = single ? &delivery.single : delivery.items.data();
        const Item* end = single ? item + 1 : item + delivery.items.size();
        if (delivery.batched) shards_.counters(s).RecordRemoteBatch(end - item);
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
  Status status;
  switch (item.kind) {
    case OpKind::kInsert:
      status = shards_.Execute(item.shard, Request::Insert(item.id, item.size));
      break;
    case OpKind::kDelete:
      status = shards_.Execute(item.shard, Request::Delete(item.id));
      break;
    case OpKind::kQuiesce:
      shards_.Quiesce(item.shard);
      break;
    case OpKind::kCheckpoint:
      shards_.Checkpoint(item.shard);
      break;
    case OpKind::kMigrateIn:
      // The destination half of a migration; the source's owner already
      // deleted the object and repointed the map. The insert cannot fail:
      // Make rejects inner algorithms whose inserts can fail on a fresh
      // id whenever rebalancing is enabled.
      COSR_CHECK_OK(shards_.MigrateIn(item.shard, item.id, item.size));
      break;
    case OpKind::kSnapshot:
      // On the owning worker, so no tracked op can be mid-record here and
      // the counters, histograms and log gauges are mutually consistent.
      *item.snapshot_out = shards_.Snapshot(item.shard);
      *item.max_end_out = shards_.root_footprint(item.shard);
      break;
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
  ShardLatencyRecorders& lat = shards_.latency(item.shard);
  // queue_wait spans submit stamp -> execution start, so it includes any
  // backpressure stall the producer ate before its push, not just the time
  // the item sat in a queue.
  lat.queue_wait.Record(SaturatingElapsed(start_ns, item.submit_ns));
  lat.service.Record(SaturatingElapsed(end_ns, start_ns));
  lat.total.Record(SaturatingElapsed(end_ns, item.submit_ns));
  return end_ns;
}

}  // namespace cosr
