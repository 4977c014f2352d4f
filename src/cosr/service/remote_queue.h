#ifndef COSR_SERVICE_REMOTE_QUEUE_H_
#define COSR_SERVICE_REMOTE_QUEUE_H_

#include <atomic>
#include <utility>

namespace cosr {

/// Lock-free MPSC hand-off list, llheap-style: any number of producers
/// push nodes with a Treiber-stack CAS; the single owning consumer takes
/// the *whole* list in one exchange and walks it in arrival order. This is
/// the per-shard "remote queue" of the batched submission path — producers
/// never touch a mutex on the hot path, and the owner pays one atomic
/// exchange per drain regardless of how many batches landed.
///
/// Memory-ordering argument (the whole of it — there are only two edges):
///
///   * Push publishes with a release CAS on `head_`. Everything the
///     producer wrote before the push — the node's payload, and anything
///     the payload points at — is sequenced before the CAS, so the release
///     makes it visible to whoever reads `head_` with acquire.
///   * TakeAll consumes with an acquire exchange. It synchronizes-with
///     every release CAS whose node it observes (each successful push is
///     part of the release sequence headed by the value the exchange
///     reads), so the owner sees fully-constructed payloads. empty() uses
///     an acquire load for the same reason, though callers only branch on
///     the null test.
///
/// Why ABA cannot bite: the push CAS never dereferences the old head — it
/// only stores it into `node->next` — and the consumer's TakeAll is an
/// unconditional exchange, not a compare. A recycled node address showing
/// up again is therefore harmless: no compare ever validates stale memory.
///
/// Ownership protocol: the producer owns a node until its CAS succeeds;
/// the queue owns it until TakeAll; the consumer owns (and deletes) it
/// after. Nodes are heap-allocated by producers and freed by the owner —
/// records flow home to their shard, never back.
///
/// Thread-safety: Push and empty() from any thread; TakeAll from the one
/// owning consumer only (concurrent TakeAll calls would both be "the"
/// owner — the single-consumer half of MPSC is the caller's contract).
/// Each queue fills its own cache line, so queues laid out side by side
/// never false-share a head between one shard's pushes and another's take.
template <typename T>
class alignas(64) RemoteQueue {
 public:
  struct Node {
    explicit Node(T payload) : value(std::move(payload)) {}
    T value;
    Node* next = nullptr;
  };

  RemoteQueue() = default;
  RemoteQueue(const RemoteQueue&) = delete;
  RemoteQueue& operator=(const RemoteQueue&) = delete;
  ~RemoteQueue() {
    Node* node = head_.load(std::memory_order_relaxed);
    while (node != nullptr) {
      Node* next = node->next;
      delete node;
      node = next;
    }
  }

  /// Pushes `node` (ownership transfers to the queue). Returns true when
  /// the queue was empty before this push — the "I made it non-empty"
  /// signal a producer uses to decide whether the owner needs a wakeup
  /// (pushes onto a non-empty list are covered by the notification of
  /// whoever made it non-empty).
  bool Push(Node* node) {
    Node* old_head = head_.load(std::memory_order_relaxed);
    do {
      node->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
    return old_head == nullptr;
  }

  /// Detaches the entire list and returns it in arrival (push) order —
  /// the stack is reversed here, once, by the owner. Per-producer FIFO
  /// follows: one producer's pushes CAS in program order, so they appear
  /// in the stack newest-first and come out oldest-first. Returns nullptr
  /// when nothing was pending. Caller walks `next` and deletes each node.
  Node* TakeAll() {
    Node* node = head_.exchange(nullptr, std::memory_order_acquire);
    Node* reversed = nullptr;
    while (node != nullptr) {
      Node* next = node->next;
      node->next = reversed;
      reversed = node;
      node = next;
    }
    return reversed;
  }

  bool empty() const {
    return head_.load(std::memory_order_acquire) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
};

}  // namespace cosr

#endif  // COSR_SERVICE_REMOTE_QUEUE_H_
