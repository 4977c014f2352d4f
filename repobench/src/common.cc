#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>

namespace repobench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++checks_failed_;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<std::uint64_t>& samples, double q) {
  if (samples.empty()) return 0;
  const std::size_t n = samples.size();
  const double rank = q * static_cast<double>(n);
  const auto at = std::min(static_cast<std::size_t>(rank), n - 1);
  std::nth_element(samples.begin(), samples.begin() + at, samples.end());
  const std::uint64_t tick = samples[at];
  std::size_t below = 0;
  std::size_t equal = 0;
  for (const std::uint64_t sample : samples) {
    below += sample < tick;
    equal += sample == tick;
  }
  return static_cast<double>(tick) - 0.5 +
         (rank - static_cast<double>(below)) / static_cast<double>(equal);
}

double SecondsSince(std::uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace repobench
