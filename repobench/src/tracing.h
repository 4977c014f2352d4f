// Span tracing for the benchmark's traced runs. Spans are recorded by
// decorators that sit between the benchmark code and the library's public
// interfaces (Space, Reallocator, FlushListener), and at the benchmark's
// own call sites. Nothing here reaches inside the library.
//
// A span has a name, a start, an end and a parent (the span open when it
// began). Spans are aggregated in memory per name: count, total time and
// self time (total minus the time its direct children cover). The untraced
// runs never construct these objects, so end-to-end figures carry no
// tracing cost; trace.overhead_ratio reports what tracing costs.
#ifndef REPOBENCH_TRACING_H_
#define REPOBENCH_TRACING_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common.h"
#include "cosr/core/flush_listener.h"
#include "cosr/realloc/reallocator.h"
#include "cosr/storage/space.h"

namespace repobench {

enum SpanName : int {
  kCoreInsert,
  kCoreDelete,
  kStoragePlace,
  kStorageRemove,
  kStorageApplyMoves,
  kStorageLookup,
  kStorageCheckpoint,
  kDbPut,
  kDbLookup,
  kRecovery,
  kServiceSubmit,
  kServiceDrain,
  kSpanNameCount,
};

/// Single-threaded span recorder: a stack of open spans plus per-name
/// aggregates. Only the thread that drives the traced run may use it.
class Tracer {
 public:
  struct Aggregate {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  void Begin(SpanName name) { stack_.push_back({name, NowNs(), 0}); }

  void End() {
    const std::uint64_t now = NowNs();
    const Frame frame = stack_.back();
    stack_.pop_back();
    const std::uint64_t duration = now - frame.start_ns;
    Aggregate& agg = aggregates_[frame.name];
    ++agg.count;
    agg.total_ns += duration;
    agg.self_ns += duration - frame.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
  }

  void Reset() { aggregates_ = {}; }

  /// Whether the innermost open span is `name`.
  bool Inside(SpanName name) const {
    return !stack_.empty() && stack_.back().name == name;
  }

  const Aggregate& at(SpanName name) const { return aggregates_[name]; }
  double total_s(SpanName name) const { return at(name).total_ns * 1e-9; }
  double self_s(SpanName name) const { return at(name).self_ns * 1e-9; }

 private:
  struct Frame {
    SpanName name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::array<Aggregate, kSpanNameCount> aggregates_{};
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, SpanName name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Space decorator over the root (or parent) space: times the storage
/// writes, checkpoints, and the reads issued directly under a db Lookup
/// (reads elsewhere, such as the block table snapshot at every checkpoint,
/// count toward their caller), and forwards everything, listeners and
/// checkpoint_manager() included, to the wrapped space.
class TracedSpace final : public cosr::Space {
 public:
  TracedSpace(cosr::Space* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void AddListener(cosr::SpaceListener* listener) override {
    inner_->AddListener(listener);
  }
  void RemoveListener(cosr::SpaceListener* listener) override {
    inner_->RemoveListener(listener);
  }
  bool TryPlace(cosr::ObjectId id, const cosr::Extent& extent) override {
    Span span(tracer_, kStoragePlace);
    return inner_->TryPlace(id, extent);
  }
  void Move(cosr::ObjectId id, const cosr::Extent& to) override {
    Span span(tracer_, kStorageApplyMoves);
    inner_->Move(id, to);
  }
  using cosr::Space::ApplyMoves;
  void ApplyMoves(const cosr::MovePlan* plans, std::size_t count) override {
    Span span(tracer_, kStorageApplyMoves);
    inner_->ApplyMoves(plans, count);
  }
  bool TryRemove(cosr::ObjectId id, cosr::Extent* removed) override {
    Span span(tracer_, kStorageRemove);
    return inner_->TryRemove(id, removed);
  }
  bool contains(cosr::ObjectId id) const override {
    Span span(LookupTracer(), kStorageLookup);
    return inner_->contains(id);
  }
  cosr::Extent extent_of(cosr::ObjectId id) const override {
    Span span(LookupTracer(), kStorageLookup);
    return inner_->extent_of(id);
  }
  bool TryExtentOf(cosr::ObjectId id, cosr::Extent* extent) const override {
    Span span(LookupTracer(), kStorageLookup);
    return inner_->TryExtentOf(id, extent);
  }
  std::uint64_t footprint() const override { return inner_->footprint(); }
  std::uint64_t footprint_in(std::uint64_t lo,
                             std::uint64_t hi) const override {
    return inner_->footprint_in(lo, hi);
  }
  std::uint64_t live_volume() const override { return inner_->live_volume(); }
  std::size_t object_count() const override { return inner_->object_count(); }
  void Checkpoint() override {
    Span span(tracer_, kStorageCheckpoint);
    inner_->Checkpoint();
  }
  cosr::CheckpointManager* checkpoint_manager() const override {
    return inner_->checkpoint_manager();
  }
  std::vector<std::pair<cosr::ObjectId, cosr::Extent>> Snapshot()
      const override {
    return inner_->Snapshot();
  }
  bool SelfCheck() const override { return inner_->SelfCheck(); }

 private:
  Tracer* LookupTracer() const {
    return tracer_ != nullptr && tracer_->Inside(kDbLookup) ? tracer_
                                                            : nullptr;
  }

  cosr::Space* inner_;
  Tracer* tracer_;
};

/// Reallocator decorator between the benchmark (or the block translation
/// layer) and the algorithm: one span per Insert/Delete.
class TracedReallocator final : public cosr::Reallocator {
 public:
  TracedReallocator(cosr::Reallocator* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  cosr::Status Insert(cosr::ObjectId id, std::uint64_t size) override {
    Span span(tracer_, kCoreInsert);
    return inner_->Insert(id, size);
  }
  cosr::Status Delete(cosr::ObjectId id) override {
    Span span(tracer_, kCoreDelete);
    return inner_->Delete(id);
  }
  std::uint64_t reserved_footprint() const override {
    return inner_->reserved_footprint();
  }
  std::uint64_t volume() const override { return inner_->volume(); }
  void Quiesce() override { inner_->Quiesce(); }
  bool DeletesDetachImmediately() const override {
    return inner_->DeletesDetachImmediately();
  }
  const char* name() const override { return inner_->name(); }

 private:
  cosr::Reallocator* inner_;
  Tracer* tracer_;
};

/// Counts buffer flushes and times each one from kBegin to kEnd.
class FlushTimer final : public cosr::FlushListener {
 public:
  void OnFlushEvent(const cosr::FlushEvent& event) override {
    if (event.stage == cosr::FlushEvent::Stage::kBegin) {
      begin_ns_ = NowNs();
    } else if (event.stage == cosr::FlushEvent::Stage::kEnd) {
      ++flushes_;
      flush_ns_ += NowNs() - begin_ns_;
    }
  }
  void Reset() { flushes_ = flush_ns_ = 0; }
  std::uint64_t flushes() const { return flushes_; }
  double flush_s() const { return flush_ns_ * 1e-9; }

 private:
  std::uint64_t begin_ns_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t flush_ns_ = 0;
};

}  // namespace repobench

#endif  // REPOBENCH_TRACING_H_
