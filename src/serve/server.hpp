// Battery-aware inference server with deadline-aware dynamic batching:
// ONE model's serving machinery (batcher, scheduler, engine, backend).
//
// The Server turns the per-inference ReconfigEngine + battery/governor
// machinery into a system under load: requests arrive open-loop (see
// traffic.hpp), a Batcher forms batches under a max-size/max-wait policy,
// and each batch executes at the V/F level the governor picks for the
// current battery fraction.  When the governor steps the ladder down the
// server DRAINS the in-flight batch first, then performs the pattern-set
// switch — never mid-batch, and never dropping queued requests — and
// accounts the switch latency and energy against the session.
//
// Time is virtual (ms since session start): batch latency comes from the
// calibrated LatencyModel with the fixed per-inference runtime cost
// amortized across the batch, energy from the PowerModel, so a session is
// bit-reproducible and runs in milliseconds of host time.  Ingestion may
// still be genuinely concurrent: serve_concurrent() feeds the session from
// any number of producer threads through the MPMC RequestQueue.
//
// OWNERSHIP.  A Server OWNS its ReconfigEngine and ExecutionBackend when
// they are handed over via adopt_engine()/adopt_backend() — which is how
// a ModelDeployment (serve/node.hpp) wires a shard — so one object owns
// one model's full serving machinery.
//
// GOVERNOR.  The level decision at every decision point goes through a
// GovernorPolicy (serve/governor_policy.hpp), passed in as a
// GovernorHandle.  A plain Governor converts implicitly to the default
// LadderPolicy, which reproduces the historical threshold behaviour
// bit-for-bit; adaptive and learned policies plug in through the same
// handle.
//
// ONE LOOP.  Several backbone-resident models on one device share one
// battery and one governor through the multi-model ServeNode front-end
// (node.hpp), which drives per-model Server shards on a single clock.
// Both front-ends run the same loop, serve_shards(): Server::serve is a
// session with this server as its only shard and its own battery.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dvfs/dvfs.hpp"
#include "exec/analytic_backend.hpp"
#include "exec/backend.hpp"
#include "perf/latency_model.hpp"
#include "perf/model_spec.hpp"
#include "runtime/engine.hpp"
#include "serve/batcher.hpp"
#include "serve/governor_policy.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"

namespace rt3 {

class TraceRecorder;
class MetricsRegistry;
class TelemetrySampler;
class SloMonitor;

struct ServerConfig {
  double battery_capacity_mj = 5e4;
  BatchPolicy batch;
  /// Batch-composition order: FIFO (the historical behaviour, default),
  /// EDF, or EDF with priority classes + aging (see serve/policy.hpp).
  SchedulerConfig scheduler;
  /// When false, only the V/F level changes with the battery (the paper's
  /// E2 baseline): the level-0 sub-model runs everywhere and no switch
  /// cost is paid.
  bool software_reconfig = true;
  /// Energy cost of one pattern-set switch (mJ).
  double switch_energy_mj = 0.5;
  /// Switch latency when no ReconfigEngine is attached; with an engine
  /// the modeled pattern-set switch time is used instead.
  double switch_latency_ms = 5.0;
  ExecMode exec_mode = ExecMode::kPattern;
  /// Load shedding: drop a request once its deadline is already blown,
  /// before it occupies a batch slot (counted in ServerStats::shed).
  bool shed_expired = false;
  /// Feasibility-based admission: reject a request at ingress when its
  /// deadline lies inside now + batch_latency(1, level) — not even an
  /// immediate solo launch could meet it, so admitting it can only blow
  /// other deadlines too (the EDF domino under sustained overload).
  /// Counted in ServerStats::rejected, separately from shed.
  bool admit_feasible = false;
  /// Governor-aware batching: while the battery fraction sits within this
  /// margin above the governor's next step-down threshold, batches are
  /// capped at governor_shrink_batch so the in-flight work drains — and
  /// the drain-then-switch point arrives — sooner.  0 disables.
  double governor_margin = 0.0;
  /// Batch cap applied inside the governor margin (clamped to
  /// [1, batch.max_batch_size]).
  std::int64_t governor_shrink_batch = 1;
};

/// Called after every executed batch: the batch, the governor-level
/// position it ran at, and its virtual start/end times.
using BatchObserver = std::function<void(
    const std::vector<Request>&, std::int64_t, double, double)>;

/// The observers attached to a session (each may be null).  Observing is
/// pure: a session with any of them attached is byte-identical to a bare
/// one, and every instrumentation site is a single null check.
struct SessionObservers {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  TelemetrySampler* telemetry = nullptr;
  SloMonitor* slo = nullptr;
};

class Server {
 public:
  /// `sparsities[i]` is the overall model sparsity of the sub-model for
  /// governor-level position i (fast -> slow, one per governor level).
  /// `governor` accepts a plain Governor (wrapped in the default
  /// LadderPolicy) or any shared GovernorPolicy.
  Server(ServerConfig config, VfTable table, GovernorHandle governor,
         PowerModel power, LatencyModel latency, ModelSpec spec,
         std::vector<double> sparsities);

  /// Takes ownership of a live ReconfigEngine (the deployment path):
  /// level switches then re-compose real masks and use the engine's
  /// modeled switch latency.  One pattern set per governor level required.
  void adopt_engine(std::unique_ptr<ReconfigEngine> engine);

  /// Takes ownership of an execution backend (the deployment path);
  /// nullptr restores the built-in AnalyticBackend.  The backend's
  /// run_batch drives batch latency and its activate_level is called at
  /// every drain-then-switch point (and once at session start).
  void adopt_backend(std::unique_ptr<ExecutionBackend> backend);

  const ExecutionBackend& backend() const { return *backend_; }
  /// Mutable backend access for the serving loop, which executes batches.
  ExecutionBackend& exec_backend() { return *backend_; }
  /// The engine switched at drain-then-switch points (nullptr when the
  /// session runs without one).
  ReconfigEngine* reconfig_engine() { return engine_; }

  void set_batch_observer(BatchObserver observer);
  /// The installed observer (empty when none); the serving loop invokes
  /// it after every batch this shard executes.
  const BatchObserver& batch_observer() const { return observer_; }

  /// Attaches a trace recorder (nullptr detaches): the serve loop then
  /// emits request-lifecycle spans, batch/switch spans, and governor
  /// instants, and forwards the recorder to the engine, backend, and
  /// batcher.  Every instrumentation site is a single `if (trace_)`
  /// branch, so trace-off sessions are bitwise-identical to untraced ones.
  void set_trace(TraceRecorder* trace);
  TraceRecorder* trace() const { return observers_.trace; }

  /// Directs the session's metric counters into an external registry
  /// (nullptr restores the internal throwaway one): serve() mirrors every
  /// ServerStats countable into it under labeled names via
  /// ServerStats::publish.
  void set_metrics(MetricsRegistry* metrics);

  /// Attaches a continuous-telemetry sampler (nullptr detaches): serve()
  /// then reports every batch boundary, shed/reject count, and switch to
  /// it.  Same single-null-check overhead contract as set_trace —
  /// telemetry-off sessions are bitwise-identical to unattached ones.
  void set_telemetry(TelemetrySampler* telemetry);
  TelemetrySampler* telemetry() const { return observers_.telemetry; }

  /// Attaches an SLO monitor (nullptr detaches): serve() then feeds it
  /// every batch boundary, forwards the trace recorder to it for
  /// breach/recover events, and publishes its breach counts into the
  /// metrics registry (when one is attached) at session end.
  void set_slo(SloMonitor* slo);
  SloMonitor* slo() const { return observers_.slo; }

  /// Runs one full session over a pre-generated arrival schedule (sorted
  /// by arrival time) against this server's battery: serve_shards() with
  /// this server as the only shard (model id 0), so every request is
  /// served here whatever its Request::model_id says.  Deterministic.
  ServerStats serve(const std::vector<Request>& schedule);

  /// ANALYTIC latency of one batch at a governor-level position: the fixed
  /// per-inference runtime cost is paid once, the MAC cost per request.
  /// This is the built-in AnalyticBackend's formula regardless of which
  /// backend is attached (kept as the modeled reference).
  double batch_latency_ms(std::int64_t batch_size,
                          std::int64_t level_pos) const;

  const ServerConfig& config() const { return config_; }
  /// The level ladder behind the active policy (level list + thresholds).
  const Governor& governor() const { return governor_.ladder(); }
  /// The policy deciding levels for this server's sessions.
  GovernorPolicy& governor_policy() { return governor_.policy(); }
  const GovernorHandle& governor_handle() const { return governor_; }
  const Battery& battery() const { return battery_; }
  const VfTable& vf_table() const { return table_; }
  const PowerModel& power() const { return power_; }

 private:
  double sparsity_for(std::int64_t level_pos) const;
  void set_engine(ReconfigEngine* engine);
  void set_backend(ExecutionBackend* backend);

  ServerConfig config_;
  VfTable table_;
  GovernorHandle governor_;
  PowerModel power_;
  LatencyModel latency_;
  ModelSpec spec_;
  std::vector<double> sparsities_;
  Battery battery_;
  /// Engine/backend storage for the owned-deployment path.
  std::unique_ptr<ReconfigEngine> owned_engine_;
  std::unique_ptr<ExecutionBackend> owned_backend_;
  ReconfigEngine* engine_ = nullptr;
  /// Built-in analytic path; backend_ points here unless one is attached.
  std::unique_ptr<AnalyticBackend> analytic_;
  ExecutionBackend* backend_ = nullptr;
  BatchObserver observer_;
  SessionObservers observers_;
};

/// One shard of a serving session: its model id (trace lane model id + 1,
/// telemetry series, stats key) and the Server holding its machinery.
struct SessionShard {
  std::int64_t model_id = 0;
  Server* server = nullptr;
};

/// THE serving loop, behind Server::serve (one shard) and ServeNode::serve
/// (one shard per registered model).  All shards run on one virtual clock
/// against one battery and one governor policy: batches serialize (one
/// mobile core), and when the policy changes level every shard drains and
/// switches at that one batch boundary.  `shards` must ascend by model
/// id.  With `route_by_model_id` each request goes to the shard of its
/// Request::model_id (unknown ids count as NodeStats::unroutable);
/// without it every request goes to the first shard.  The observers are
/// wired into each shard's engine, backend and batcher for the session
/// only; `metrics` receives the SLO breach counts and the trace's dropped
/// events — the caller publishes the stats under its own labels.
NodeStats serve_shards(const std::vector<SessionShard>& shards,
                       bool route_by_model_id,
                       const std::vector<Request>& schedule, Battery& battery,
                       GovernorPolicy& governor,
                       const SessionObservers& observers);

/// Pushes `schedule` through a RequestQueue from `producers` pool threads
/// (round-robin slices) while the server consumes — the real MPMC
/// ingestion path.  Stats are identical to server.serve(schedule): races
/// in ingestion order are erased by arrival-timestamp ordering.
ServerStats serve_concurrent(Server& server,
                             const std::vector<Request>& schedule,
                             std::int64_t producers);

}  // namespace rt3
