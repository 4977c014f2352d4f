// Shared plumbing of the benchmark workloads: run options, the result
// report (the JSON line the runner forwards), the round loop and the
// order statistics every workload reports.
#ifndef REPOBENCH_COMMON_H_
#define REPOBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace repobench {

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct RunOptions {
  std::uint64_t seed = 1;
  /// Wall-clock budget of the measured rounds (set-up included).
  double seconds = 10;
  /// false: end-to-end metrics from untraced rounds. true: per-layer
  /// metrics from traced rounds, untraced rounds and rung replays.
  bool trace = false;
  /// Directory for the files a workload writes (durability logs).
  std::string scratch_dir = ".";
};

/// What a workload run reports: correctness, request accounting and
/// named metrics, printed as one JSON object on the last output line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (printed to stderr right away).
  void Fail(const std::string& what);
  void CountRequests(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

/// Rounds per run: enough for a stable median, bounded so one run ends
/// well inside its time limit on a slow host.
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;

double Median(std::vector<double> values);
/// The q-quantile of whole-tick samples, interpolated within its tick:
/// the samples that read one tick value are taken as spread evenly over
/// [tick - 0.5, tick + 0.5), so the result does not stick to whole ticks
/// when thousands of samples share one. Reorders the samples.
double Quantile(std::vector<std::uint64_t>& samples, double q);
double SecondsSince(std::uint64_t start_ns);
/// ru_maxrss of this process, in MB.
double PeakRssMb();

/// Calls round(i) for i = 0, 1, ... until the rounds together took
/// `seconds` of wall time, and at least kMinRounds (at most kMaxRounds)
/// rounds ran. Returns the process's peak RSS (MB) after the first round:
/// later rounds repeat its work, so whatever they add is heap
/// fragmentation from the repetition, which varies with the round count.
template <typename RoundFn>
double RunRounds(double seconds, RoundFn&& round) {
  const std::uint64_t start = NowNs();
  double first_round_rss_mb = 0;
  for (int i = 0; i < kMaxRounds; ++i) {
    if (i >= kMinRounds && SecondsSince(start) >= seconds) break;
    round(i);
    if (i == 0) first_round_rss_mb = PeakRssMb();
  }
  return first_round_rss_mb;
}

}  // namespace repobench

#endif  // REPOBENCH_COMMON_H_
