// Arithmetic the benchmark reports with: percentiles, refusal-aware
// rates, queue depth rebuilt from a schedule and its executed batches,
// and the gap-vs-depth slope.  Pure functions over plain vectors, so the
// benchmark's own tests can pin each definition on hand-built inputs.
#pragma once

#include <cstdint>
#include <vector>

namespace servebench {

/// p-th percentile (0 <= p <= 100) with linear interpolation between the
/// two closest ranks (numpy's default): rank = p/100 * (n - 1).
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, double p);

double median(std::vector<double> values);

/// Outcome counts of one serve session, as the loop accounts them.
struct Outcome {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t dropped = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t unroutable = 0;

  /// Requests that were never served: dropped + shed + rejected +
  /// unroutable.
  std::int64_t refused() const;
};

/// (deadline misses + refused) / submitted.  A refused request counts as
/// a miss, so shedding or admission cannot make this look better while
/// serving fewer requests (unlike ServerStats::miss_rate, which divides by
/// completed).  0 when nothing was submitted.
double miss_rate(const Outcome& o);

/// (refused + extra_failures) / submitted; extra_failures counts work the
/// benchmark itself attempted and could not finish (e.g. replay batches).
double fail_rate(const Outcome& o, std::int64_t extra_failures = 0);

/// Completions inside their deadline / submitted.
double good_ratio(const Outcome& o);

/// Per-second rate of `count` over `wall_s` (0 when wall_s <= 0).
double rate_per_s(double count, double wall_s);

/// One executed batch as a BatchObserver reports it.
struct BatchRecord {
  std::int64_t size = 0;
  std::int64_t level = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Queue depth each batch was popped from, rebuilt from the schedule and
/// the executed batches: requests that had arrived by the batch's start
/// (arrival <= start, the loop's admission rule), minus those taken by
/// earlier batches, minus never-batched requests that left the queue at
/// their deadline (deadline <= start, the shedding rule).
/// `shed_deadlines_ms` holds the deadlines of never-batched requests when
/// the session sheds; leave it empty when unbatched requests stay queued
/// until the session ends.  Requests rejected at admission are not known
/// here, so with admission on the depth is an upper bound.
std::vector<std::int64_t> queue_depths(const std::vector<double>& arrivals_ms,
                                       std::vector<double> shed_deadlines_ms,
                                       const std::vector<BatchRecord>& batches);

/// Least-squares slope of y against x (0 when x has no spread).
double ls_slope(const std::vector<double>& x, const std::vector<double>& y);

/// Peak resident set size of this process, MB.
double peak_rss_mb();

}  // namespace servebench
