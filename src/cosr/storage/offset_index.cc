#include "cosr/storage/offset_index.h"

#include <utility>

namespace cosr {

namespace {

/// Number of leading elements of [first, first + n) whose key is below
/// `value` (or at most `value` when `inclusive`): std::lower_bound /
/// std::upper_bound over a sorted range, written so the compiler emits a
/// conditional move per halving step instead of a hard-to-predict branch.
template <typename T, typename KeyOf>
std::size_t CountBelow(const T* first, std::size_t n, std::uint64_t value,
                       bool inclusive, KeyOf key) {
  if (n == 0) return 0;
  const T* base = first;
  while (n > 1) {
    const std::size_t half = n / 2;
    const std::uint64_t k = key(base[half]);
    base = (k < value || (inclusive && k == value)) ? base + half : base;
    n -= half;
  }
  const std::uint64_t k = key(*base);
  return static_cast<std::size_t>(base - first) +
         ((k < value || (inclusive && k == value)) ? 1 : 0);
}

std::uint64_t MinKey(std::uint64_t min) { return min; }
std::uint64_t EntryKey(const OffsetIndex::Entry& e) { return e.offset; }

}  // namespace

std::size_t OffsetIndex::FindPage(std::uint64_t offset) const {
  const std::size_t above =
      CountBelow(page_min_.data(), page_min_.size(), offset, true, MinKey);
  return above == 0 ? 0 : above - 1;
}

const OffsetIndex::Entry* OffsetIndex::LastBefore(std::uint64_t limit) const {
  if (pages_.empty()) return nullptr;
  // The candidate page is the last one whose minimum is below `limit`.
  const std::size_t pages_below =
      CountBelow(page_min_.data(), page_min_.size(), limit, false, MinKey);
  if (pages_below == 0) return nullptr;
  const Page& page = pages_[pages_below - 1];
  const std::size_t below = CountBelow(
      page.entries.data(), page.entries.size(), limit, false, EntryKey);
  // page_min < limit guarantees at least one qualifying entry in the page.
  return &page.entries[below - 1];
}

OffsetIndex::Neighbors OffsetIndex::Insert(std::uint64_t offset, ObjectId id) {
  Neighbors neighbors;
  if (pages_.empty()) {
    pages_.emplace_back();
    pages_.back().entries.reserve(kPageCapacity);
    pages_.back().entries.push_back(Entry{offset, id});
    page_min_.push_back(offset);
    size_ = 1;
    return neighbors;
  }
  const std::size_t p = FindPage(offset);
  Page& page = pages_[p];
  const std::size_t i = CountBelow(page.entries.data(), page.entries.size(),
                                   offset, true, EntryKey);
  const auto pos = page.entries.begin() + static_cast<long>(i);
  if (i > 0) {
    neighbors.pred = page.entries[i - 1];
    neighbors.has_pred = true;
  } else if (p > 0) {
    neighbors.pred = pages_[p - 1].entries.back();
    neighbors.has_pred = true;
  }
  if (i < page.entries.size()) {
    neighbors.succ = page.entries[i];
    neighbors.has_succ = true;
  } else if (p + 1 < pages_.size()) {
    neighbors.succ = pages_[p + 1].entries.front();
    neighbors.has_succ = true;
  }
  page.entries.insert(pos, Entry{offset, id});
  if (i == 0) page_min_[p] = offset;
  ++size_;
  if (page.entries.size() >= kPageCapacity) Split(p);
  return neighbors;
}

void OffsetIndex::Split(std::size_t page_index) {
  Page upper;
  upper.entries.reserve(kPageCapacity);
  {
    Page& page = pages_[page_index];
    const std::size_t half = page.entries.size() / 2;
    upper.entries.assign(page.entries.begin() + static_cast<long>(half),
                         page.entries.end());
    page.entries.resize(half);
  }
  const std::uint64_t upper_min = upper.entries.front().offset;
  pages_.insert(pages_.begin() + static_cast<long>(page_index) + 1,
                std::move(upper));
  page_min_.insert(page_min_.begin() + static_cast<long>(page_index) + 1,
                   upper_min);
}

bool OffsetIndex::Erase(std::uint64_t offset) {
  if (pages_.empty()) return false;
  const std::size_t p = FindPage(offset);
  Page& page = pages_[p];
  const auto pos =
      page.entries.begin() +
      static_cast<long>(CountBelow(page.entries.data(), page.entries.size(),
                                   offset, false, EntryKey));
  if (pos == page.entries.end() || pos->offset != offset) return false;
  const bool was_front = pos == page.entries.begin();
  page.entries.erase(pos);
  --size_;
  if (page.entries.empty()) {
    pages_.erase(pages_.begin() + static_cast<long>(p));
    page_min_.erase(page_min_.begin() + static_cast<long>(p));
  } else if (was_front) {
    page_min_[p] = page.entries.front().offset;
  }
  return true;
}

void OffsetIndex::Clear() {
  pages_.clear();
  page_min_.clear();
  size_ = 0;
}

}  // namespace cosr
