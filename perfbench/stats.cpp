#include "stats.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "obs/obs.hpp"

namespace perfbench {

std::size_t samples_beyond(std::size_t n, double q) {
  // The rank obs::nearest_rank selects is its value over the ranks 1..n, so
  // the count follows the program's one percentile convention exactly.
  std::vector<double> ranks(n);
  std::iota(ranks.begin(), ranks.end(), 1.0);
  return n - static_cast<std::size_t>(rabit::obs::nearest_rank(ranks, q));
}

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < kMinTail) ++n;
  return n;
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  p.value = rabit::obs::nearest_rank(samples, q);
  p.beyond = samples_beyond(samples.size(), q);
  p.reportable = p.beyond >= kMinTail;
  return p;
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 0.5).value; }

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::string Ratio::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.0f/%.0f", numerator, base);
  return buf;
}

}  // namespace perfbench
