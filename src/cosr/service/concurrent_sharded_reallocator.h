#ifndef COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_
#define COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cosr/common/status.h"
#include "cosr/common/types.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/service/remote_queue.h"
#include "cosr/service/routing.h"
#include "cosr/service/shard_rebalancer.h"
#include "cosr/service/shard_set.h"
#include "cosr/service/shard_stats.h"
#include "cosr/service/sub_space_view.h"
#include "cosr/storage/address_space.h"
#include "cosr/storage/checkpoint_manager.h"
#include "cosr/workload/request.h"

namespace cosr {

struct ReallocatorSpec;

/// Per-op completion handle for ConcurrentShardedReallocator::SubmitTracked.
///
/// Thread-safe: any thread may Wait()/done(); the owning facade's worker
/// completes it exactly once. The Status reference returned by Wait() stays
/// valid for the token's lifetime.
class OpToken {
 public:
  /// Blocks until the operation retires; returns its Status.
  const Status& Wait() const {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return done_; });
    return status_;
  }
  /// Non-blocking poll.
  bool done() const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_;
  }

 private:
  friend class ConcurrentShardedReallocator;

  void Complete(Status status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      status_ = std::move(status);
      done_ = true;
    }
    cv_.notify_all();
  }

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  Status status_;
  bool done_ = false;
};

/// The threaded executor over the shard core (ShardSet): each shard's
/// inner reallocator is driven by one of W worker threads over the shard's
/// lock-free MPSC remote queue, so the K reallocators run in parallel.
///
/// Why that is sound: the paper's guarantees are per-allocator, and the
/// shards' sub-problems are disjoint. Each shard here sits on a *private*
/// AddressSpace root, still based at shard * subrange_span, so every
/// coordinate, placement and footprint matches the single-threaded facade
/// over one shared parent (pinned op-for-op by `exp_concurrent --smoke`
/// and tests/concurrent_sharded_test.cc), while no two threads touch the
/// same storage state. The price is K private slot tables instead of one.
///
/// Thread-safety contract, per surface:
///   * Submit / SubmitTracked / Insert / Delete / SubmitMany /
///     SubmitManyTracked — thread-safe (MPSC: any number of producers).
///     Every entry point, and every internal marker, rides the same
///     per-shard remote queue, so one producer's ops on one shard execute
///     in that producer's submission order whichever entry points it
///     mixes (per-producer, per-shard FIFO); a batch's ops for one shard
///     execute in batch order. With multiple producers racing,
///     cross-producer order per shard is the queue arrival order.
///   * Flush / Quiesce — thread-safe; they drain everything submitted
///     before the call (release/acquire on the completion counters).
///   * Stats — thread-safe even while other producers keep submitting:
///     each shard is snapshotted *on its owning worker* by a marker op
///     that rides the queue, so it reflects every op enqueued before the
///     call (plus possibly some concurrent ones) with no racy reads.
///   * volume / reserved_footprint / counters — thread-safe at any time:
///     relaxed reads of per-shard single-writer accumulators
///     (ShardCounters), merged on read; exact once drained.
///   * AddShardListener / shard / shard_view / shard_space — the listener
///     hook must run before the first Insert/Delete (CHECK-enforced); the
///     accessors must only be read while no producer is submitting and
///     the facade is drained (external quiescence). Listeners fire on the
///     owning shard's worker thread only, so a listener shared across
///     shards must be internally synchronized (per-shard listeners need
///     no locking at all — the documented fan-out rule).
///
/// Statuses are reported through tokens (SubmitTracked) or, for
/// fire-and-forget Submit, counted per shard in failed_ops — nothing fails
/// silently.
class ConcurrentShardedReallocator final : public Reallocator {
 public:
  struct Options {
    std::uint32_t shard_count = 4;
    /// Worker threads W (<= shard_count; shard i is pinned to worker
    /// i % W). 0 means one worker per shard.
    std::uint32_t worker_threads = 0;
    RoutingPolicy routing = RoutingPolicy::kHashId;
    /// Width of each shard's sub-range (same default as the single-threaded
    /// facade, so layouts are comparable across modes).
    std::uint64_t subrange_span = 1ull << 44;
    /// Soft bound on each worker's in-flight ops (queued plus executing);
    /// producers block while the target worker is at the bound
    /// (backpressure, not drop). Soft because racing producers and a
    /// map-keeping batch (which pushes first and waits after, see
    /// routing_mu_) can overshoot it by one delivery each.
    std::size_t queue_capacity = 4096;
    /// Overload policy for fire-and-forget Submit when the target worker
    /// is at its in-flight bound. 0 (default) keeps pure backpressure:
    /// block until room frees up. With N >= 1 the producer retries up to N
    /// bounded waits with doubling backoff (starting at
    /// submit_retry_backoff); if there is still no room the op is
    /// DROPPED: Submit returns ResourceExhausted and the drop is recorded
    /// in Stats() (per-shard dropped_ops plus the facade-wide
    /// last_drop_status). Per-op tracked/synchronous
    /// submissions and internal markers always block — a token must
    /// retire. SubmitMany batches (tracked or not) follow the policy too:
    /// a batch that exhausts its retries drops exactly its undelivered
    /// suffix, counted per shard, with any suffix tokens completed as
    /// ResourceExhausted. Map-keeping modes (size-class or least-loaded
    /// routing, or rebalance) never drop: their id map is a submit-time
    /// prediction of execution that a drop would falsify (ghost/leaked map
    /// entries), so they always keep pure backpressure regardless of this
    /// knob.
    std::size_t submit_max_retries = 0;
    std::chrono::microseconds submit_retry_backoff{50};
    /// Selects nothing: the remote queues are the only delivery path.
    /// Kept only so existing callers that set it still compile.
    SubmitPath submit_path = SubmitPath::kRemoteBatched;
    /// Enables background rebalancing: every
    /// rebalance_options.check_interval drain cycles, each worker scans
    /// the facade's load and — when it owns the hottest shard — drains a
    /// bounded batch of that shard's frontier objects to the coldest
    /// shard (kMigrateIn ops delivered straight to the destination's
    /// owner). Forces the id placement map (a migrated id's hash no
    /// longer names its shard), which in turn forces pure backpressure.
    /// Rejected for inner algorithms whose inserts can fail on a fresh id
    /// (the destination insert of a migration must not fail).
    bool rebalance = false;
    RebalanceOptions rebalance_options;
  };

  /// Builds K private shards, each an inner `inner_spec` reallocator (its
  /// shard_count/worker_threads/routing fields are ignored), and starts the
  /// W worker threads. Fails when the spec is unknown or options are
  /// degenerate.
  static Status Make(const ReallocatorSpec& inner_spec, const Options& options,
                     std::unique_ptr<ConcurrentShardedReallocator>* out);

  /// Drains all queues, stops and joins the workers.
  ~ConcurrentShardedReallocator() override;

  /// Fire-and-forget submission. Ok means "accepted and enqueued"; the
  /// op's own outcome lands in the shard's failed_ops counter if it fails.
  /// A non-ok return is a submit-time rejection (map-keeping routing
  /// validates against its id map before enqueueing) or — only with
  /// Options::submit_max_retries > 0 — a ResourceExhausted drop after the
  /// bounded backpressure retries ran out.
  Status Submit(const Request& op);

  /// Like Submit, but returns a completion token carrying the op's final
  /// Status (already completed for submit-time rejections).
  std::shared_ptr<OpToken> SubmitTracked(const Request& op);

  /// Batched fire-and-forget submission: semantically `Submit(op)` for
  /// each op in order. A batch costs its producer one routing pass plus
  /// one lock-free push per target shard (map-keeping routing: one
  /// routing_mu_ hold per batch instead of per op), so the queue hop
  /// amortizes to noise against the ~0.6-1.5 us of per-op reallocation
  /// work.
  ///
  /// Returns Ok when every op was enqueued. Submit-time rejections
  /// (map-keeping validation) skip just that op and the batch
  /// continues; a bounded-retry drop (hash routing only, see Options)
  /// stops that shard's delivery and drops the undelivered suffix,
  /// counted in dropped_ops. Either way the first non-ok status in op
  /// order is returned and `*accepted` (when non-null) reports how many
  /// ops were actually enqueued.
  Status SubmitMany(const Request* ops, std::size_t count,
                    std::size_t* accepted = nullptr);
  Status SubmitMany(const std::vector<Request>& ops,
                    std::size_t* accepted = nullptr);

  /// Like SubmitMany, but returns one completion token per op (position-
  /// matched). Rejected ops' tokens are already completed; dropped-suffix
  /// tokens complete with ResourceExhausted — statuses never vanish.
  std::vector<std::shared_ptr<OpToken>> SubmitManyTracked(const Request* ops,
                                                          std::size_t count);

  /// Blocks until every op submitted before this call has retired.
  void Flush();

  // Reallocator interface: synchronous semantics via an internal token
  // round-trip per op — correct from any thread, but the throughput path
  // is Submit + Flush.
  Status Insert(ObjectId id, std::uint64_t size) override;
  Status Delete(ObjectId id) override;

  /// Merged relaxed view of the per-shard accumulators (exact once
  /// drained; a consistent running sum at any other time).
  std::uint64_t reserved_footprint() const override {
    return shards_.reserved_footprint();
  }
  std::uint64_t volume() const override { return shards_.volume(); }

  /// Drains, then runs every shard's deferred work on its own worker.
  void Quiesce() override;
  /// Drains, then checkpoints every managed shard on its own worker —
  /// forcing a durable point on every per-shard move log when the facade
  /// was built with a DurabilityHub. No-op for unmanaged shards.
  void CheckpointAll();
  const char* name() const override { return name_.c_str(); }

  /// Snapshots per-shard and aggregate accounting via per-shard marker
  /// ops on the owning workers (see the class contract): consistent per
  /// shard, safe under concurrent submission, exact when quiesced.
  ShardStats Stats();

  /// Registers a listener on shard `index`'s private space. Must be called
  /// before the first Insert/Delete submission (CHECK-enforced; internal
  /// Stats/Quiesce markers don't count); events are delivered on that
  /// shard's worker thread.
  void AddShardListener(std::uint32_t index, SpaceListener* listener);

  std::uint32_t shard_count() const { return shards_.shard_count(); }
  std::uint32_t worker_threads() const {
    return static_cast<std::uint32_t>(workers_.size());
  }
  RoutingPolicy routing() const { return options_.routing; }

  /// The static routing prediction for an (id, size) insert. For
  /// kLeastLoaded this is only the hash fallback: the live decision
  /// happens under routing_mu_ at submit time, over the shards'
  /// committed volumes (ShardSet::shard_for).
  std::uint32_t shard_for(ObjectId id, std::uint64_t size) const {
    return RouteToShard(options_.routing, shard_count(), id, size);
  }

  /// Quiesced-read accessors (Flush first; see the class contract).
  const Reallocator& shard(std::uint32_t index) const {
    return shards_.inner(index);
  }
  const SubSpaceView& shard_view(std::uint32_t index) const {
    return shards_.view(index);
  }
  const AddressSpace& shard_space(std::uint32_t index) const {
    return *shards_.space(index);
  }
  /// Shard `index`'s CheckpointManager (nullptr for unmanaged algorithms).
  /// Mutating it (e.g. SetCheckpointHook) must happen before the first
  /// Insert/Delete submission, like AddShardListener; hooks then fire on
  /// the shard's owning worker thread.
  CheckpointManager* shard_manager(std::uint32_t index) const {
    return shards_.manager(index);
  }
  /// Any-time read: the shard's accumulator block.
  const ShardCounters& counters(std::uint32_t index) const {
    return shards_.counters()[index];
  }

 private:
  enum class OpKind : std::uint8_t {
    kInsert,
    kDelete,
    kQuiesce,
    kCheckpoint,
    kSnapshot,
    /// A migrated object arriving on its destination shard, pushed by the
    /// source shard's owner under routing_mu_ (capacity-exempt), so it
    /// precedes any later op for the id, which routes through the
    /// already-repointed map.
    kMigrateIn,
  };

  struct Item {
    OpKind kind = OpKind::kInsert;
    std::uint32_t shard = 0;
    ObjectId id = kInvalidObjectId;
    std::uint64_t size = 0;
    /// Insert/delete only: MonotonicNanos() at submit time, taken before
    /// any routing or backpressure wait (one stamp per submission call),
    /// so queue-wait includes producer-side backpressure stalls.
    std::uint64_t submit_ns = 0;
    std::shared_ptr<OpToken> token = nullptr;  // null: fire-and-forget
    /// kSnapshot only: where the owning worker writes the shard's stats
    /// and its root's footprint; Stats() waits on the token to read them.
    ShardStats::PerShard* snapshot_out = nullptr;
    std::uint64_t* max_end_out = nullptr;
  };

  /// One remote-queue node: a run of items for one shard, in order. A
  /// one-item run (every per-op call) is held inline in `single` with
  /// `items` empty, so it costs one cross-thread allocation, not two.
  struct Delivery {
    Item single;
    std::vector<Item> items;
    bool batched = false;  // SubmitMany*: counted in remote_batches
  };

  /// One worker: its owned shards plus drain accounting. `stop` is
  /// guarded by `mu`. `pushed` is bumped right before each lock-free push
  /// to an owned shard and `completed` after each executed item, so
  /// Flush's wait predicate and the in-flight gate never need the lock.
  struct Worker {
    std::mutex mu;
    std::condition_variable cv_ready;    // worker waits: work available
    std::condition_variable cv_space;    // producers wait: in-flight bound
    std::condition_variable cv_drained;  // flushers wait: batch retired
    std::atomic<std::uint64_t> pushed{0};
    std::atomic<std::uint64_t> completed{0};
    bool stop = false;
    std::vector<std::uint32_t> owned_shards;
    std::thread thread;
    /// Rebalance pacing (worker thread only): drain cycles since the last
    /// scan, and each shard's op total at the previous scan.
    std::uint64_t drain_cycles = 0;
    std::vector<std::uint64_t> last_ops;
  };

  ConcurrentShardedReallocator(const Options& options) : options_(options) {}

  /// Shard i is pinned to worker i % W.
  Worker& OwnerOf(std::uint32_t shard) {
    return *workers_[shard % workers_.size()];
  }

  /// The one submission routine behind every entry point: routing,
  /// submit-time validation and delivery. A per-op call is a one-op batch
  /// with `per_op` set: its tracked form never drops, and it is not
  /// counted as a remote batch.
  Status SubmitBatch(const Request* ops, std::size_t count,
                     std::vector<std::shared_ptr<OpToken>>* tokens,
                     std::size_t* accepted, bool per_op);
  /// The lock-free delivery step: counts `items` into the owner's
  /// `pushed`, pushes them as one node and wakes the owner on the
  /// empty -> non-empty transition. Never blocks.
  void Push(std::uint32_t shard, std::vector<Item> items, bool batched);
  /// Blocks until `worker` is below its in-flight bound and returns the
  /// room left; with `droppable` the wait is the bounded-retry policy
  /// and 0 means the retries ran out.
  std::size_t AwaitRoom(Worker& worker, bool droppable);
  /// Capacity-gated Push, chunked to the room observed so a bounded-retry
  /// drop leaves exactly an undelivered suffix, counted per shard, whose
  /// tokens complete with the returned drop status.
  Status PushRemote(std::uint32_t shard, std::vector<Item> items,
                    bool droppable, bool batched, std::size_t* delivered);
  /// Capacity-gated, never-dropping delivery of one internal marker.
  void PushMarker(Item item);
  void WorkerLoop(Worker& worker);
  void ExecuteItem(const Item& item);
  /// ExecuteItem plus latency accounting for insert/delete items, started
  /// at `start_ns`. Returns the post-execution clock, so the drain loop
  /// reads the clock once per op.
  std::uint64_t ExecuteTimed(const Item& item, std::uint64_t start_ns);
  /// One background rebalance scan on `worker`: when it owns the hot
  /// shard, migrate a bounded victim batch to the cold shard.
  void MaybeRebalance(Worker& worker);

  Options options_;
  /// The shards over private roots. Every per-shard call, counters and
  /// latency recorders included, runs on the shard's owning worker, and
  /// Stats() reads them through the snapshot marker.
  ShardSet shards_;
  /// Each shard's lock-free remote queue, the only way items reach it:
  /// any thread pushes, only the owning worker takes.
  std::vector<RemoteQueue<Delivery>> queues_;
  std::vector<std::unique_ptr<Worker>> workers_;

  /// Map-keeping modes only (size-class or least-loaded routing, or
  /// rebalance): the one producer-side serialization point. It covers
  /// the core's Route/Commit pair AND the lock-free push of the routed
  /// items. Order proof: the lock totally orders map updates, each hold
  /// pushes its items before releasing, and a shard's queue hands them to
  /// the worker in push order, so per-shard execution order == map order,
  /// which keeps the map exact. Nothing blocks under the lock (a push is
  /// a CAS plus, on the empty -> non-empty edge, a brief worker.mu hold:
  /// lock order routing_mu_ before worker.mu); backpressure is taken
  /// after release, because MaybeRebalance takes this lock on a worker.
  std::mutex routing_mu_;
  /// Map-keeping modes only, guarded by routing_mu_: per-shard count of
  /// committed insert/delete submissions. The owner compares it with its
  /// executed-op counter to detect in-flight ops (the rebalancer's gate).
  std::vector<std::uint64_t> stamped_requests_;

  /// Count of real (insert/delete) submissions — the AddShardListener
  /// gate; internal markers do not count.
  std::atomic<std::uint64_t> requests_submitted_{0};

  /// Drop accounting for the bounded-retry policy. Cold path only, so a
  /// plain mutex keeps ShardCounters' single-writer discipline intact.
  mutable std::mutex drop_mu_;
  std::vector<std::uint64_t> dropped_ops_;  // per shard
  Status last_drop_status_;

  std::string name_;
};

}  // namespace cosr

#endif  // COSR_SERVICE_CONCURRENT_SHARDED_REALLOCATOR_H_
