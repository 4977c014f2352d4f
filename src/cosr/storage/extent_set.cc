#include "cosr/storage/extent_set.h"

#include <algorithm>

namespace cosr {

// Intervals are disjoint, non-abutting, and ascending, so offsets *and*
// ends are strictly increasing: both binary searches below are valid.

void ExtentSet::Add(const Extent& e) {
  if (e.empty()) return;
  std::uint64_t new_offset = e.offset;
  std::uint64_t new_end = e.end();

  // First interval that could merge: the earliest one ending at or after
  // new_offset (overlap or abutment from the left).
  auto first = std::lower_bound(
      intervals_.begin(), intervals_.end(), new_offset,
      [](const Interval& iv, std::uint64_t value) { return iv.end < value; });
  // Absorb every interval that overlaps or abuts [new_offset, new_end).
  auto last = first;
  while (last != intervals_.end() && last->offset <= new_end) {
    new_offset = std::min(new_offset, last->offset);
    new_end = std::max(new_end, last->end);
    total_length_ -= last->end - last->offset;
    ++last;
  }
  if (first == last) {
    intervals_.insert(first, Interval{new_offset, new_end});
  } else {
    // Reuse the first absorbed slot; drop the rest with one memmove.
    first->offset = new_offset;
    first->end = new_end;
    intervals_.erase(first + 1, last);
  }
  total_length_ += new_end - new_offset;
}

bool ExtentSet::Intersects(const Extent& e) const {
  if (e.empty() || intervals_.empty()) return false;
  // First interval ending strictly after e.offset; it is the only candidate
  // that can reach into [e.offset, e.end()).
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), e.offset,
      [](std::uint64_t value, const Interval& iv) { return value < iv.end; });
  return it != intervals_.end() && it->offset < e.end();
}

bool ExtentSet::Contains(std::uint64_t address) const {
  return Intersects(Extent{address, 1});
}

void ExtentSet::Clear() {
  intervals_.clear();
  total_length_ = 0;
}

std::vector<Extent> ExtentSet::ToVector() const {
  std::vector<Extent> result;
  result.reserve(intervals_.size());
  for (const Interval& iv : intervals_) {
    result.push_back(Extent{iv.offset, iv.end - iv.offset});
  }
  return result;
}

}  // namespace cosr
