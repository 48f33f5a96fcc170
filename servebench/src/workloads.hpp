// The benchmark's three workloads (see README.md in this directory for
// why each was chosen and which layer metric should move which end-to-end
// metric).  Each runs in one process from a seed, checks its outputs, and
// reports either the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace servebench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Wall budget of the timed repetitions.
  double seconds = 10.0;
  /// false: end-to-end metrics; true: the traced run's per-layer metrics
  /// (spans go to .servebench/ under the working directory).
  bool trace = false;
};

struct MetricValue {
  double value = 0.0;
  std::string unit;
};

struct Result {
  /// Benchmark operations attempted (timed serve sessions, or replay
  /// batches) and how many of them failed.  Requests the system refuses
  /// are a measured outcome (fail_rate), not a failed operation.
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::pair<std::string, MetricValue>> metrics;
  /// Check violations; any makes the run incorrect.
  std::vector<std::string> failures;
  /// Human-readable context for stderr (counts, fingerprints, paths).
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
Result run_workload(const Options& options);

}  // namespace servebench
