#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace servebench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

std::int64_t Outcome::refused() const {
  return dropped + shed + rejected + unroutable;
}

double miss_rate(const Outcome& o) {
  if (o.submitted <= 0) {
    return 0.0;
  }
  return static_cast<double>(o.deadline_misses + o.refused()) /
         static_cast<double>(o.submitted);
}

double fail_rate(const Outcome& o, std::int64_t extra_failures) {
  if (o.submitted <= 0) {
    return 0.0;
  }
  return static_cast<double>(o.refused() + extra_failures) /
         static_cast<double>(o.submitted);
}

double good_ratio(const Outcome& o) {
  if (o.submitted <= 0) {
    return 0.0;
  }
  return static_cast<double>(o.completed - o.deadline_misses) /
         static_cast<double>(o.submitted);
}

double rate_per_s(double count, double wall_s) {
  return wall_s > 0.0 ? count / wall_s : 0.0;
}

std::vector<std::int64_t> queue_depths(
    const std::vector<double>& arrivals_ms,
    std::vector<double> shed_deadlines_ms,
    const std::vector<BatchRecord>& batches) {
  std::sort(shed_deadlines_ms.begin(), shed_deadlines_ms.end());
  std::vector<std::int64_t> depths;
  depths.reserve(batches.size());
  std::size_t arrived = 0;
  std::size_t shed = 0;
  std::int64_t taken = 0;
  for (const BatchRecord& b : batches) {
    while (arrived < arrivals_ms.size() && arrivals_ms[arrived] <= b.start_ms) {
      ++arrived;
    }
    while (shed < shed_deadlines_ms.size() &&
           shed_deadlines_ms[shed] <= b.start_ms) {
      ++shed;
    }
    depths.push_back(static_cast<std::int64_t>(arrived) - taken -
                     static_cast<std::int64_t>(shed));
    taken += b.size;
  }
  return depths;
}

double ls_slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) {
    return 0.0;
  }
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

}  // namespace servebench
