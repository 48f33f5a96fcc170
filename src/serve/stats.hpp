// Aggregated statistics for one serve session, built on common/stats.
//
// ServerStats is the SNAPSHOT VIEW of a session's accounting: the serving
// loops bump counters inline (mirrored 1:1 into a MetricsRegistry via
// publish(), where the same numbers carry stable labeled names), keep the
// raw per-request series here so percentiles stay exact, and carry the
// obs-layer miss attribution — every deadline miss is classified into
// exactly one of miss_queued / miss_switch / miss_exec, which sum to
// deadline_misses by construction (see obs/attribution.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rt3 {

class MetricsRegistry;
class MetricLabels;

/// Everything the serving loop records about one session.  Raw per-request
/// latencies are kept so percentiles are exact, not sketched; at this
/// repo's session sizes (tens of thousands of requests) that is cheap.
struct ServerStats {
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  /// Requests still queued when the battery died (accounted, never silent).
  std::int64_t dropped = 0;
  /// Requests shed because their deadline was already blown before they
  /// occupied a batch slot (only with ServerConfig::shed_expired).
  std::int64_t shed = 0;
  /// Requests rejected at ingress by feasibility-based admission: their
  /// deadline lay inside now + batch_latency(1, level) when they arrived,
  /// so not even an immediate solo launch could have met it (only with
  /// ServerConfig::admit_feasible).  Counted separately from `shed`, which
  /// drops requests whose deadline has ALREADY passed at pop time.
  std::int64_t rejected = 0;
  std::int64_t batches = 0;
  /// Pattern-set switches performed between batches.
  std::int64_t switches = 0;
  std::int64_t deadline_misses = 0;
  /// Miss attribution (obs/attribution.hpp): every deadline miss is
  /// classified into exactly one cause, so the three always sum to
  /// deadline_misses.  miss_queued = queueing/batching delay killed it;
  /// miss_switch = drain-then-switch stalls were the marginal cause;
  /// miss_exec = even a zero-wait solo launch at this level would have
  /// missed (execution latency alone blows the deadline).
  std::int64_t miss_queued = 0;
  std::int64_t miss_switch = 0;
  std::int64_t miss_exec = 0;

  /// Execution backend the session ran on ("analytic" / "measured").
  std::string backend;
  /// Scheduling policy the session ran under ("fifo" / "edf" / "edf-prio").
  std::string policy;

  /// Virtual time when the last batch finished.
  double sim_end_ms = 0.0;
  /// Virtual time spent executing batches.
  double busy_ms = 0.0;
  /// Virtual time spent inside pattern-set switches.
  double switch_ms_total = 0.0;
  /// Per-switch modeled latency (virtual ms), one entry per pattern-set
  /// switch.  NOTE: this is the reconfiguration duration itself, set by
  /// the pattern-set storage size — it does not respond to scheduling or
  /// batching; switch_lag_ms is the governor-sensitive tail.
  std::vector<double> switch_ms;
  /// Drain-then-switch lag (virtual ms): for each switch, the time from
  /// the battery crossing the governor threshold (interpolated inside the
  /// batch that crossed it) to the batch boundary where the switch could
  /// actually run.  THIS is the tail governor-aware batching shrinks —
  /// smaller batches near the threshold mean the boundary lands sooner.
  std::vector<double> switch_lag_ms;
  double energy_used_mj = 0.0;
  /// Host wall time spent inside backend kernels (0 on the analytic path).
  double kernel_wall_ms_total = 0.0;
  /// Host wall time of each per-switch execution-plan swap (PlanCache
  /// pointer swaps; one entry per level activation, including the first).
  std::vector<double> plan_swap_ms;
  double plan_swap_ms_total = 0.0;

  /// Queue-to-completion latency per completed request (ms).
  std::vector<double> latency_ms;
  /// Per-request latency decomposition, parallel to latency_ms: for every
  /// completed request, latency_ms[i] == queue_wait_ms[i] +
  /// batch_wait_ms[i] + switch_stall_req_ms[i] + exec_req_ms[i] (exact up
  /// to FP rounding; see obs/attribution.hpp for the definitions).
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_wait_ms;
  std::vector<double> switch_stall_req_ms;
  std::vector<double> exec_req_ms;
  /// Completed requests per governor-level position (fast -> slow).
  std::vector<double> runs_per_level;
  std::vector<std::int64_t> batch_sizes;
  /// Per-priority-class accounting (index = class, 0 = most urgent); sized
  /// lazily to cover every class seen, so single-class sessions carry one
  /// entry and the summary stays uncluttered.
  std::vector<std::int64_t> completed_per_class;
  std::vector<std::int64_t> misses_per_class;

  /// Grows the per-class vectors to cover `priority_class`.
  void ensure_class(std::int64_t priority_class);

  /// Completed requests per virtual second of session time.
  double throughput_rps() const;
  /// Deadline misses over completed requests (0 when none completed).
  double miss_rate() const;
  /// Deadline misses over completed requests within one priority class.
  double class_miss_rate(std::int64_t priority_class) const;
  double mean_batch_size() const;
  /// p-th latency percentile over completed requests.
  double latency_percentile(double p) const;
  /// p-th percentile of per-switch modeled latency (0 when no switches).
  double switch_percentile(double p) const;
  /// p-th percentile of drain-then-switch lag (0 when no switches).
  double switch_lag_percentile(double p) const;
  /// Sums over the per-request wait decomposition vectors.
  double queue_wait_total_ms() const;
  double batch_wait_total_ms() const;
  double switch_stall_total_ms() const;

  /// Mirrors every countable total into `registry` under stable labeled
  /// names (serve.completed{model=...}, serve.miss_switch{...}, ...) and
  /// fills the latency / wait-decomposition histograms — the scrapeable
  /// snapshot of this stats view.
  void publish(MetricsRegistry& registry, const MetricLabels& labels) const;

  /// Multi-line human-readable summary.
  std::string summary() const;
  /// One flat JSON object (machine-readable bench output).
  std::string to_json() const;
};

/// Aggregated statistics for one multi-model ServeNode session: the full
/// per-model ServerStats (keyed by model id, ascending) plus node totals.
/// Every countable total is the exact sum of its per-model counterparts —
/// the serving loop writes only into per-model stats and aggregate() derives
/// the rest — so per-model and node-level accounting can never drift.
struct NodeStats {
  /// Per-model session stats, sorted by model id.
  std::vector<std::pair<std::int64_t, ServerStats>> per_model;

  /// Requests whose model_id matched no registered model (counted at
  /// routing, attributable to no shard).
  std::int64_t unroutable = 0;
  /// Virtual time when the node's last batch (or switch) finished.
  double sim_end_ms = 0.0;

  // Node totals, all derived by aggregate() as sums over per_model.
  std::int64_t submitted = 0;  // + unroutable
  std::int64_t completed = 0;
  std::int64_t dropped = 0;
  std::int64_t shed = 0;
  std::int64_t rejected = 0;
  std::int64_t batches = 0;
  std::int64_t switches = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t miss_queued = 0;
  std::int64_t miss_switch = 0;
  std::int64_t miss_exec = 0;
  double busy_ms = 0.0;
  double energy_used_mj = 0.0;
  double switch_ms_total = 0.0;

  /// Stats of one model (throws CheckError when the id is not present).
  const ServerStats& model(std::int64_t model_id) const;
  bool has_model(std::int64_t model_id) const;

  /// Recomputes every node total from per_model (+ unroutable).
  void aggregate();

  /// Deadline misses over completed requests across all models.
  double miss_rate() const;
  /// Completed requests per virtual second of node session time.
  double throughput_rps() const;
  /// p-th latency percentile over ALL completed requests (merged models).
  double latency_percentile(double p) const;
  /// p-th percentile of drain-then-switch lag over ALL models' switches
  /// (0 when no switches happened).
  double switch_lag_percentile(double p) const;

  /// Publishes per-model stats (labeled model=<id>) plus node-level
  /// gauges into `registry`.
  void publish(MetricsRegistry& registry) const;

  /// Multi-line human-readable summary: node totals + one row per model.
  std::string summary() const;
  /// JSON: node totals plus a "models" object of per-model ServerStats.
  std::string to_json() const;
};

}  // namespace rt3
