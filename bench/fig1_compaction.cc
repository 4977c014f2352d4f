// Figure 1 — "Moving previously allocated blocks into holes left by
// deallocations can reduce the footprint of the data in storage."
// Rendered live from the simulator: a no-move allocator accumulates holes;
// moving blocks (here: one compaction pass) shrinks the footprint.

#include <cstdio>

#include "bench_util.h"
#include "cosr/alloc/first_fit_allocator.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/storage/address_space.h"
#include "cosr/viz/layout_renderer.h"

namespace cosr {
namespace {

void Run() {
  bench::Banner("Figure 1: holes and compaction",
                "moving blocks into deallocation holes reduces the footprint");

  AddressSpace space;
  LoggingCompactingReallocator::Options options;
  options.threshold = 100.0;  // effectively disable auto-compaction
  LoggingCompactingReallocator realloc(&space, options);
  ObjectId id = 1;
  for (const std::uint64_t size : {12u, 7u, 15u, 9u, 14u, 6u, 11u, 10u}) {
    (void)realloc.Insert(id++, size);
  }
  const std::uint64_t full = space.footprint();
  std::printf("\nafter 8 allocations (footprint %llu):\n  %s\n",
              static_cast<unsigned long long>(full),
              RenderSpace(space, full, 84).c_str());

  (void)realloc.Delete(2);  // B
  (void)realloc.Delete(5);  // E
  (void)realloc.Delete(7);  // G
  std::printf(
      "\nafter deleting B, E and G — holes, footprint unchanged (%llu):\n  %s\n",
      static_cast<unsigned long long>(space.footprint()),
      RenderSpace(space, full, 84).c_str());

  // Move the remaining blocks into the holes (one compaction pass).
  std::uint64_t cursor = 0;
  for (const auto& [obj, extent] : space.Snapshot()) {
    if (extent.offset != cursor) space.Move(obj, Extent{cursor, extent.length});
    cursor += extent.length;
  }
  std::printf(
      "\nafter moving blocks into the holes (footprint %llu <- %llu):\n  %s\n",
      static_cast<unsigned long long>(space.footprint()),
      static_cast<unsigned long long>(full),
      RenderSpace(space, full, 84).c_str());
  bench::Verdict(space.footprint() < full,
                 "reallocation recovered the deallocated space");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::Run();
  return cosr::bench::VerdictExitCode();
}
