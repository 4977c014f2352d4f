#ifndef COSR_STORAGE_EXTENT_SET_H_
#define COSR_STORAGE_EXTENT_SET_H_

#include <cstdint>
#include <vector>

#include "cosr/storage/extent.h"

namespace cosr {

/// A set of disjoint, maximal address intervals with merge-on-insert.
/// Used by the checkpoint manager to track frozen (freed-but-not-yet-
/// checkpointed) regions.
///
/// Internally a sorted vector of intervals rather than a std::map: the
/// checkpoint-storm access pattern is bursts of Add (every move/delete
/// freezes its source) against many Intersects probes (every write,
/// including every move of a batch, validates), then one bulk Clear per
/// checkpoint. Binary searches over a contiguous array beat pointer-chasing
/// tree walks on every one of those (bench/exp_checkpoints.cc measures the
/// delta against the old map representation). Add keeps O(n) worst-case
/// memmove, but merge-on-insert keeps n at the count of *maximal* frozen
/// runs, which checkpoint storms keep small.
class ExtentSet {
 public:
  /// Adds [e.offset, e.end()) to the set, merging with neighbors.
  void Add(const Extent& e);

  /// True when any part of `e` is in the set.
  bool Intersects(const Extent& e) const;

  /// True when the single address is in the set.
  bool Contains(std::uint64_t address) const;

  void Clear();

  std::uint64_t total_length() const { return total_length_; }
  std::size_t interval_count() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }

  /// Snapshot of the intervals in ascending order (for tests/diagnostics).
  std::vector<Extent> ToVector() const;

 private:
  struct Interval {
    std::uint64_t offset = 0;
    std::uint64_t end = 0;
  };

  std::vector<Interval> intervals_;  // ascending, disjoint, non-abutting
  std::uint64_t total_length_ = 0;
};

}  // namespace cosr

#endif  // COSR_STORAGE_EXTENT_SET_H_
