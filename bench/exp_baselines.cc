// E3 — Section 2 intuition: cost-function-specific strategies fail outside
// their regime, while one cost-oblivious algorithm covers both.
//   * logging-and-compacting: (2,2)-competitive for linear f, but a single
//     size-∆ deletion costs Θ(∆) under constant f (∆ unit objects move);
//   * the size-class specialist: O(1) moves per update (great for constant
//     f) but the moved volume per update is Θ(∆) (bad for linear f).

#include <cstdio>

#include "bench_util.h"
#include "cosr/storage/address_space.h"
#include "cosr/core/cost_oblivious_reallocator.h"
#include "cosr/cost/cost_battery.h"
#include "cosr/metrics/run_harness.h"
#include "cosr/realloc/logging_compacting_reallocator.h"
#include "cosr/realloc/size_class_reallocator.h"
#include "cosr/workload/adversary.h"

namespace cosr {
namespace {

void LoggingSide() {
  std::printf(
      "\n-- logging-and-compacting on its killer trace (rounds of: insert "
      "big(delta), insert delta units, delete old units, delete big) --\n");
  CostBattery battery = MakeDefaultBattery();
  bench::Table table({"delta", "algorithm", "linear realloc ratio",
                      "constant worst op cost", "constant worst / delta"});
  bool shape_holds = true;
  for (const std::uint64_t delta : {256u, 1024u, 4096u}) {
    Trace trace = MakeLoggingKillerTrace(delta, /*rounds=*/12);
    {
      AddressSpace space;
      LoggingCompactingReallocator realloc(&space);
      RunReport report = RunTrace(realloc, space, trace, battery);
      const double linear = report.function("linear")->realloc_ratio;
      const double worst = report.function("constant")->max_op_cost;
      shape_holds &= linear <= 3.0;  // (2,2)-competitive for linear f
      shape_holds &= worst >= 0.9 * static_cast<double>(delta);
      table.AddRow({std::to_string(delta), "log-compact", bench::Fmt(linear),
                    bench::Fmt(worst, 0),
                    bench::Fmt(worst / static_cast<double>(delta), 2)});
    }
    {
      AddressSpace space;
      CostObliviousReallocator realloc(&space);
      RunReport report = RunTrace(realloc, space, trace, battery);
      table.AddRow({std::to_string(delta), "cost-oblivious",
                    bench::Fmt(report.function("linear")->realloc_ratio),
                    bench::Fmt(report.function("constant")->max_op_cost, 0),
                    bench::Fmt(report.function("constant")->max_op_cost /
                                   static_cast<double>(delta),
                               2)});
    }
  }
  table.Print();
  bench::Verdict(shape_holds,
                 "log-compact: constant-f worst-op cost grows ~1x delta "
                 "while its linear ratio stays ~2 — one regime only");
}

void SizeClassSide() {
  std::printf(
      "\n-- size-class specialist on the cascade trace (gapless pyramid + "
      "alternating unit insert/delete) --\n");
  CostBattery battery = MakeDefaultBattery();
  bench::Table table({"delta (2^k)", "algorithm", "constant realloc ratio",
                      "linear realloc ratio"});
  bool shape_holds = true;
  for (const int max_order : {8, 10, 12}) {
    Trace trace = MakeSizeClassCascadeTrace(max_order, /*rounds=*/100);
    {
      AddressSpace space;
      SizeClassReallocator realloc(&space);
      RunReport report = RunTrace(realloc, space, trace, battery);
      const double constant = report.function("constant")->realloc_ratio;
      const double linear = report.function("linear")->realloc_ratio;
      shape_holds &= linear > 4.0 * constant;  // linear blows up, f=1 mild
      table.AddRow({std::to_string(1u << max_order), "size-class",
                    bench::Fmt(constant), bench::Fmt(linear)});
    }
    {
      AddressSpace space;
      CostObliviousReallocator realloc(&space);
      RunReport report = RunTrace(realloc, space, trace, battery);
      table.AddRow({std::to_string(1u << max_order), "cost-oblivious",
                    bench::Fmt(report.function("constant")->realloc_ratio),
                    bench::Fmt(report.function("linear")->realloc_ratio)});
    }
  }
  table.Print();
  bench::Verdict(shape_holds,
                 "size-class: linear-f ratio grows with delta (cascades move "
                 "geometric volume) while constant-f stays ~log delta");
}

}  // namespace
}  // namespace cosr

int main() {
  cosr::bench::Banner("E3: cost-function-specific baselines fail out of regime",
                      "log-compact is (2,2) for linear f but Theta(delta) per "
                      "deletion for constant f; the size-class structure is "
                      "O(1) moves for constant f but (2, Theta(log delta)) "
                      "for linear f");
  cosr::LoggingSide();
  cosr::SizeClassSide();
  return cosr::bench::VerdictExitCode();
}
