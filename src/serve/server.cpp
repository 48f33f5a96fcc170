#include "serve/server.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "obs/attribution.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/concurrent.hpp"
#include "serve/policy.hpp"

namespace rt3 {

Server::Server(ServerConfig config, VfTable table, GovernorHandle governor,
               PowerModel power, LatencyModel latency, ModelSpec spec,
               std::vector<double> sparsities)
    : config_(config),
      table_(std::move(table)),
      governor_(std::move(governor)),
      power_(power),
      latency_(latency),
      spec_(std::move(spec)),
      sparsities_(std::move(sparsities)),
      battery_(config.battery_capacity_mj) {
  const Governor& ladder = governor_.ladder();
  check(sparsities_.size() == ladder.levels().size(),
        "Server: one sparsity per governor level required");
  check(config_.governor_margin >= 0.0 && config_.governor_margin < 1.0,
        "Server: governor_margin out of [0, 1)");
  check(config_.governor_shrink_batch >= 1,
        "Server: governor_shrink_batch must be >= 1");
  Batcher policy_probe(config_.batch,
                       config_.scheduler);  // reject a bad policy up front
  std::vector<double> freqs;
  std::vector<double> effective_sparsities;
  for (std::size_t i = 0; i < ladder.levels().size(); ++i) {
    const std::int64_t li = ladder.levels()[i];
    check(li >= 0 && li < table_.size(), "Server: governor level not in table");
    freqs.push_back(table_.level(li).freq_mhz);
    effective_sparsities.push_back(
        sparsity_for(static_cast<std::int64_t>(i)));
  }
  analytic_ = std::make_unique<AnalyticBackend>(
      latency_, spec_, config_.exec_mode, std::move(freqs),
      std::move(effective_sparsities));
  backend_ = analytic_.get();
}

void Server::set_engine(ReconfigEngine* engine) {
  if (engine != nullptr) {
    check(engine->num_levels() == governor_.policy().num_levels(),
          "Server: engine must have one pattern set per governor level");
  }
  engine_ = engine;
}

void Server::set_backend(ExecutionBackend* backend) {
  backend_ = backend != nullptr ? backend : analytic_.get();
}

void Server::adopt_engine(std::unique_ptr<ReconfigEngine> engine) {
  set_engine(engine.get());
  owned_engine_ = std::move(engine);
}

void Server::adopt_backend(std::unique_ptr<ExecutionBackend> backend) {
  set_backend(backend.get());
  owned_backend_ = std::move(backend);
}

void Server::set_batch_observer(BatchObserver observer) {
  observer_ = std::move(observer);
}

void Server::set_trace(TraceRecorder* trace) { observers_.trace = trace; }

void Server::set_metrics(MetricsRegistry* metrics) {
  observers_.metrics = metrics;
}

void Server::set_telemetry(TelemetrySampler* telemetry) {
  observers_.telemetry = telemetry;
}

void Server::set_slo(SloMonitor* slo) { observers_.slo = slo; }

double Server::sparsity_for(std::int64_t level_pos) const {
  return config_.software_reconfig
             ? sparsities_[static_cast<std::size_t>(level_pos)]
             : sparsities_.front();
}

double Server::batch_latency_ms(std::int64_t batch_size,
                                std::int64_t level_pos) const {
  return analytic_->batch_latency_ms(batch_size, level_pos);
}

ServerStats Server::serve(const std::vector<Request>& schedule) {
  NodeStats session = serve_shards({{0, this}}, /*route_by_model_id=*/false,
                                   schedule, battery_, governor_.policy(),
                                   observers_);
  ServerStats stats = std::move(session.per_model.front().second);
  if (observers_.metrics != nullptr) {
    const MetricLabels labels{{"policy", stats.policy},
                              {"backend", stats.backend}};
    stats.publish(*observers_.metrics, labels);
  }
  return stats;
}

NodeStats serve_shards(const std::vector<SessionShard>& shard_list,
                       bool route_by_model_id,
                       const std::vector<Request>& schedule, Battery& battery,
                       GovernorPolicy& gov, const SessionObservers& observers) {
  check(!shard_list.empty(), "serve_shards: no shards");
  TraceRecorder* const trace = observers.trace;
  TelemetrySampler* const telemetry = observers.telemetry;
  SloMonitor* const slo = observers.slo;
  const Governor& ladder = gov.ladder();
  gov.reset();  // fresh episode: EWMAs / recurrent state, never weights

  /// One model's in-flight serving state inside the loop.
  struct Shard {
    std::int64_t model_id = 0;
    Server* server = nullptr;
    Batcher batcher;
    ServerStats stats;
    Shard(std::int64_t id, Server* s)
        : model_id(id),
          server(s),
          batcher(s->config().batch, s->config().scheduler) {}
  };

  std::vector<Shard> shards;
  shards.reserve(shard_list.size());
  for (const SessionShard& ref : shard_list) {
    check(shards.empty() || shards.back().model_id < ref.model_id,
          "serve_shards: model ids must ascend");
    Server* server = ref.server;
    shards.emplace_back(ref.model_id, server);
    Shard& sh = shards.back();
    sh.stats.backend = server->backend().name();
    sh.stats.policy = scheduling_policy_name(server->config().scheduler.policy);
    sh.stats.runs_per_level.assign(ladder.levels().size(), 0.0);
  }
  // A node dispatches each request by Request::model_id (nullptr: no such
  // model); a single Server serves every request whatever its id says.
  const auto route = [&](const Request& r) -> Shard* {
    if (!route_by_model_id) {
      return &shards.front();
    }
    for (Shard& sh : shards) {
      if (sh.model_id == r.model_id) {
        return &sh;
      }
    }
    return nullptr;
  };

  NodeStats node;
  battery.recharge();

  // Session-wide interval records for miss attribution: batches and switch
  // epochs from EVERY model serialize on the one core, so one shared pair
  // of accounts describes what any waiting request was stalled behind.
  IntervalAccount switch_ivals;
  IntervalAccount exec_ivals;
  // Wiring: each shard's engine, backend and batcher report to the
  // session's observers on the model's lane (model id + 1); lane 0
  // carries governor/battery events.  Undone after the loop.
  for (Shard& sh : shards) {
    ReconfigEngine* engine = sh.server->reconfig_engine();
    if (trace != nullptr) {
      if (engine != nullptr) {
        engine->set_trace(trace);
      }
      sh.server->exec_backend().set_trace(trace, sh.model_id + 1);
      sh.batcher.set_trace(trace, sh.model_id + 1);
    }
    if (telemetry != nullptr && engine != nullptr) {
      engine->set_telemetry(telemetry);
    }
  }
  if (trace != nullptr) {
    trace->set_now_ms(0.0);
  }
  if (slo != nullptr) {
    slo->set_trace(trace);
  }
  if (telemetry != nullptr) {
    telemetry->set_now_ms(0.0);
  }

  const auto n = static_cast<std::int64_t>(schedule.size());
  std::int64_t next = 0;     // next schedule index to route
  std::int64_t active = -1;  // current governor-level position
  // Drain-then-switch lag of the next switch epoch: set when a batch's
  // energy drain crosses a governor threshold (interpolated inside the
  // batch), consumed when the switch fires at the following batch
  // boundary.  Within an epoch, shard k's switch can only fire after
  // shards 0..k-1 have switched, so the recorded lag accumulates.
  double pending_switch_lag = 0.0;
  double now = 0.0;

  const auto total_pending = [&] {
    std::int64_t pending = 0;
    for (const Shard& sh : shards) {
      pending += sh.batcher.pending();
    }
    return pending;
  };

  // Session-wide deadline pressure: the most urgent shard's consumed share
  // of its max-wait budget (shard order is deterministic).
  const auto max_pressure = [&](double at_ms) {
    double pressure = 0.0;
    for (const Shard& sh : shards) {
      pressure = std::max(
          pressure, deadline_pressure(at_ms, sh.batcher.release_at_ms(),
                                      sh.batcher.policy().max_wait_ms));
    }
    return pressure;
  };

  while (next < n || total_pending() > 0) {
    if (battery.empty()) {
      break;
    }
    // Governor decision at the batch boundary only: in-flight work has
    // drained by construction, queued requests survive the switch.
    GovernorObservation gobs;
    gobs.now_ms = now;
    gobs.battery_fraction = battery.fraction();
    gobs.queue_depth = total_pending();
    gobs.deadline_pressure = max_pressure(now);
    const std::int64_t pos = gov.decide(gobs);
    if (pos != active) {
      // Shared-governor switch: the battery crossing is one event, and
      // EVERY resident model switches at this batch boundary — in model-id
      // order, serialized on the single core — so no shard keeps serving a
      // sub-model the new V/F level cannot afford.
      double lag = pending_switch_lag;
      bool battery_died = false;
      if (trace != nullptr && active >= 0) {
        trace->set_now_ms(now);
        trace->record(TraceEvent("governor.step", "governor", now, 0)
                          .arg("from_level", active)
                          .arg("to_level", pos)
                          .arg("battery_fraction", battery.fraction()));
      }
      for (Shard& sh : shards) {
        const ServerConfig& cfg = sh.server->config();
        ReconfigEngine* engine = sh.server->reconfig_engine();
        // An engine with a plan-swap hook swaps plans inside switch_to;
        // the hook's wall cost is folded into this switch's swap entry so
        // the subsequent (then no-op) activate_level is not double-counted
        // as zero.
        double engine_swap_ms = 0.0;
        if (cfg.software_reconfig && active >= 0) {
          if (!battery.drain(cfg.switch_energy_mj)) {
            battery_died = true;  // mid-epoch death: leftovers drop below
            if (trace != nullptr) {
              trace->record(TraceEvent("battery.dead", "governor", now, 0)
                                .arg("model_id", sh.model_id));
            }
            break;
          }
          sh.stats.energy_used_mj += cfg.switch_energy_mj;
          double switch_ms = cfg.switch_latency_ms;
          if (trace != nullptr) {
            trace->set_now_ms(now);
          }
          if (telemetry != nullptr) {
            telemetry->set_now_ms(now);
          }
          if (engine != nullptr) {
            const SwitchReport report = engine->switch_to(pos);
            switch_ms = report.modeled_ms;
            engine_swap_ms = report.plan_swap_wall_ms;
          }
          ++sh.stats.switches;
          switch_ivals.add(now, now + switch_ms);
          if (trace != nullptr) {
            TraceEvent ev("switch", "switch", now, sh.model_id + 1);
            ev.ph = 'X';
            ev.dur_ms = switch_ms;
            ev.arg("to_level", pos).arg("drain_lag_ms", lag);
            trace->record(std::move(ev));
          }
          now += switch_ms;
          sh.stats.switch_ms_total += switch_ms;
          sh.stats.switch_ms.push_back(switch_ms);
          sh.stats.switch_lag_ms.push_back(lag);
          if (telemetry != nullptr) {
            telemetry->record_switch(switch_ms);
          }
          lag += switch_ms;
        } else if (cfg.software_reconfig && engine != nullptr) {
          // Initial activation: free at t = 0.
          engine_swap_ms = engine->switch_to(pos).plan_swap_wall_ms;
        }
        // Swap the active execution-plan set along with the pattern set
        // (virtual-time free: precompiled plans make this a pointer swap,
        // but the wall cost is reported per switch).
        const double swap_ms =
            engine_swap_ms + sh.server->exec_backend().activate_level(pos);
        sh.stats.plan_swap_ms.push_back(swap_ms);
        sh.stats.plan_swap_ms_total += swap_ms;
      }
      pending_switch_lag = 0.0;
      if (battery_died) {
        break;
      }
      active = pos;
      continue;  // re-read the fraction in case the switches drained it dry
    }

    // Governor-aware batching, per shard (each deployment carries its own
    // margin/cap) against the one shared battery: close enough to the next
    // step-down threshold, shrink the batch cap so in-flight work — and
    // therefore the drain-then-switch point — comes sooner.  On the last
    // ladder level there is no switch left to hasten (next_step_down is
    // 0), so the full cap stays and batch amortization is preserved
    // exactly when charge is scarcest.
    for (Shard& sh : shards) {
      const ServerConfig& cfg = sh.server->config();
      const double margin = gov.shrink_margin(cfg.governor_margin);
      if (margin > 0.0) {
        const double fraction = battery.fraction();
        const double threshold = gov.next_step_down(fraction);
        const bool near_switch =
            threshold > 0.0 && fraction - threshold <= margin;
        sh.batcher.set_batch_cap(near_switch ? cfg.governor_shrink_batch
                                             : cfg.batch.max_batch_size);
      }
    }

    // Route everything that has arrived by now.  Feasibility-based
    // admission rejects a request whose deadline lies inside the fastest
    // possible completion (an immediate solo launch at the current level):
    // admitting it could only miss AND queue-delay feasible work behind it
    // — the EDF domino under sustained overload.
    while (next < n &&
           schedule[static_cast<std::size_t>(next)].arrival_ms <= now) {
      const Request& r = schedule[static_cast<std::size_t>(next)];
      Shard* sh = route(r);
      if (sh == nullptr) {
        ++node.unroutable;
        if (telemetry != nullptr) {
          telemetry->count_unroutable();
        }
        if (trace != nullptr) {
          TraceEvent ev("unroutable", "router", r.arrival_ms, 0);
          ev.id = r.id;
          ev.arg("model_id", r.model_id);
          trace->record(std::move(ev));
        }
        ++next;
        continue;
      }
      ++sh->stats.submitted;
      const bool admitted =
          !sh->server->config().admit_feasible ||
          r.deadline_ms >= now + sh->server->batch_latency_ms(1, pos);
      if (!admitted) {
        ++sh->stats.rejected;
        if (telemetry != nullptr) {
          telemetry->count_reject(sh->model_id);
        }
      }
      if (trace != nullptr) {
        const char* kind = admitted ? "arrive" : "reject";
        TraceEvent ev(kind, "request", r.arrival_ms, sh->model_id + 1);
        ev.id = r.id;
        ev.arg("deadline_ms", r.deadline_ms).arg("model_id", sh->model_id);
        trace->record(std::move(ev));
      }
      if (admitted) {
        sh->batcher.push(r);
      }
      ++next;
    }

    // Load shedding per shard: a request whose deadline has already passed
    // cannot be served in time, so drop it before it occupies a batch slot.
    for (Shard& sh : shards) {
      if (sh.server->config().shed_expired) {
        const std::int64_t n_shed =
            static_cast<std::int64_t>(sh.batcher.shed_expired(now).size());
        sh.stats.shed += n_shed;
        if (telemetry != nullptr && n_shed > 0) {
          telemetry->count_shed(sh.model_id, n_shed);
        }
      }
    }
    if (next >= n && total_pending() == 0) {
      continue;  // everything left was shed/rejected; the loop ends it
    }

    // Pick the shard to run: batches serialize on the one core, so take
    // the ready shard whose forced-release point is earliest (the oldest
    // waiting work), ties to the lowest model id.
    Shard* run = nullptr;
    for (Shard& sh : shards) {
      if (!sh.batcher.ready(now)) {
        continue;
      }
      if (run == nullptr ||
          sh.batcher.release_at_ms() < run->batcher.release_at_ms()) {
        run = &sh;
      }
    }
    if (run == nullptr) {
      // Nothing to do yet: jump to the earliest actionable instant — the
      // max-wait release of the oldest pending request or the next
      // arrival, whichever comes first.
      double wake = next < n
                        ? schedule[static_cast<std::size_t>(next)].arrival_ms
                        : std::numeric_limits<double>::infinity();
      for (const Shard& sh : shards) {
        wake = std::min(wake, sh.batcher.release_at_ms());
      }
      check(wake < std::numeric_limits<double>::infinity(),
            "serve_shards: idle with nothing pending");  // loop bars this
      now = std::max(now, wake);
      continue;
    }

    const std::vector<Request> batch = run->batcher.pop_batch(now);
    if (trace != nullptr) {
      trace->set_now_ms(now);
    }
    const BatchExecution exec = run->server->exec_backend().run_batch(
        static_cast<std::int64_t>(batch.size()), pos);
    const double lat_ms = exec.latency_ms;
    run->stats.kernel_wall_ms_total += exec.kernel_wall_ms;
    const VfLevel& level = run->server->vf_table().level(
        ladder.levels()[static_cast<std::size_t>(pos)]);
    const double energy = run->server->power().energy_mj(level, lat_ms);
    const double frac_before = battery.fraction();
    if (!battery.drain(energy)) {
      // Not enough charge for this batch: the session ends here.  The
      // popped batch is lost; every other leftover is attributed after the
      // loop.
      run->stats.dropped += static_cast<std::int64_t>(batch.size());
      if (trace != nullptr) {
        trace->record(TraceEvent("battery.dead", "governor", now, 0)
                          .arg("model_id", run->model_id));
      }
      break;
    }
    // Did this batch's drain cross the policy's decision boundary?  If so
    // the switch can only fire at the batch boundary: the policy
    // interpolates the crossing inside the (linear) drain — this is the
    // drain-then-switch delay governor-aware batching shrinks.  Negative
    // means no boundary was crossed.
    const double frac_after = battery.fraction();
    const double drain_lag =
        gov.drain_lag_ms(pos, frac_before, frac_after, lat_ms);
    if (drain_lag >= 0.0) {
      pending_switch_lag = drain_lag;
    }
    const double end = now + lat_ms;
    std::int64_t batch_misses = 0;
    double batch_latency_sum = 0.0;
    ServerStats& stats = run->stats;
    const std::int64_t lane = run->model_id + 1;
    for (const Request& r : batch) {
      stats.latency_ms.push_back(end - r.arrival_ms);
      batch_latency_sum += end - r.arrival_ms;
      // Decompose the wait against the recorded switch / exec intervals
      // BEFORE this batch joins exec_ivals, so its own execution counts as
      // exec_ms and not as queueing.  Waiting behind ANOTHER model's batch
      // is queue_wait too — cross-model head-of-line blocking is visible.
      const WaitBreakdown w =
          attribute_wait(switch_ivals, exec_ivals, r.arrival_ms, now, end);
      stats.queue_wait_ms.push_back(w.queue_wait_ms);
      stats.batch_wait_ms.push_back(w.batch_wait_ms);
      stats.switch_stall_req_ms.push_back(w.switch_stall_ms);
      stats.exec_req_ms.push_back(w.exec_ms);
      stats.ensure_class(r.priority);
      ++stats.completed_per_class[static_cast<std::size_t>(r.priority)];
      MissClass miss = MissClass::kNone;
      if (end > r.deadline_ms) {
        ++stats.deadline_misses;
        ++batch_misses;
        ++stats.misses_per_class[static_cast<std::size_t>(r.priority)];
        miss = classify_miss(w, r.arrival_ms, end, r.deadline_ms);
        switch (miss) {
          case MissClass::kQueued: ++stats.miss_queued; break;
          case MissClass::kSwitch: ++stats.miss_switch; break;
          case MissClass::kExec: ++stats.miss_exec; break;
          case MissClass::kNone: break;  // unreachable: end > deadline
        }
      }
      if (trace != nullptr) {
        TraceEvent span("request", "request", r.arrival_ms, lane);
        span.ph = 'X';
        span.dur_ms = end - r.arrival_ms;
        span.id = r.id;
        span.arg("queue_wait_ms", w.queue_wait_ms)
            .arg("batch_wait_ms", w.batch_wait_ms)
            .arg("switch_stall_ms", w.switch_stall_ms)
            .arg("exec_ms", w.exec_ms)
            .arg("deadline_ms", r.deadline_ms);
        trace->record(std::move(span));
        if (miss != MissClass::kNone) {
          TraceEvent ev("miss", "request", end, lane);
          ev.id = r.id;
          ev.arg("cause", std::string(miss_class_name(miss)))
              .arg("over_by_ms", end - r.deadline_ms);
          trace->record(std::move(ev));
        }
      }
    }
    exec_ivals.add(now, end);
    {
      // The policy's only outcome channel: per-batch energy draw and
      // misses.  Stateless policies ignore it; for stateful ones this also
      // closes the decision epoch opened at the batch boundary.
      BatchFeedback feedback;
      feedback.start_ms = now;
      feedback.end_ms = end;
      feedback.batch_size = static_cast<std::int64_t>(batch.size());
      feedback.level_pos = pos;
      feedback.energy_mj = energy;
      feedback.battery_fraction = frac_after;
      feedback.drain_fraction = frac_before - frac_after;
      feedback.misses = batch_misses;
      gov.observe_batch(feedback);
    }
    if (trace != nullptr) {
      TraceEvent ev("batch", "batch", now, lane);
      ev.ph = 'X';
      ev.dur_ms = lat_ms;
      ev.arg("size", static_cast<std::int64_t>(batch.size()))
          .arg("level", pos)
          .arg("energy_mj", energy);
      trace->record(std::move(ev));
    }
    stats.energy_used_mj += energy;
    stats.completed += static_cast<std::int64_t>(batch.size());
    stats.runs_per_level[static_cast<std::size_t>(pos)] +=
        static_cast<double>(batch.size());
    ++stats.batches;
    stats.batch_sizes.push_back(static_cast<std::int64_t>(batch.size()));
    stats.busy_ms += lat_ms;
    if (telemetry != nullptr) {
      BatchSample sample;
      sample.model_id = run->model_id;
      sample.start_ms = now;
      sample.end_ms = end;
      sample.batch_size = static_cast<std::int64_t>(batch.size());
      sample.level_pos = pos;
      sample.energy_mj = energy;
      sample.battery_fraction = battery.fraction();
      sample.queue_depth = run->batcher.pending();
      sample.node_queue_depth = total_pending();
      sample.misses = batch_misses;
      sample.latency_sum_ms = batch_latency_sum;
      telemetry->on_batch(sample);
    }
    if (slo != nullptr) {
      // One SLO monitor for the session: batches from every model feed
      // it, so a breach means the DEVICE is burning its error budget
      // regardless of which resident model the misses came from.
      SloObservation obs;
      obs.end_ms = end;
      obs.completed = static_cast<std::int64_t>(batch.size());
      obs.missed = batch_misses;
      obs.battery_fraction = battery.fraction();
      obs.mean_latency_ms =
          batch_latency_sum / static_cast<double>(batch.size());
      slo->observe(obs);
    }
    if (run->server->batch_observer()) {
      run->server->batch_observer()(batch, pos, now, end);
    }
    now = end;
  }

  if (battery.empty()) {
    // Battery died: queued requests drop where they sat, unrouted ones
    // still attribute to their target model (or unroutable), so per-model
    // submitted always sums to the schedule.
    for (Shard& sh : shards) {
      sh.stats.dropped += sh.batcher.pending();
    }
    for (; next < n; ++next) {
      Shard* sh = route(schedule[static_cast<std::size_t>(next)]);
      if (sh == nullptr) {
        ++node.unroutable;
      } else {
        ++sh->stats.submitted;
        ++sh->stats.dropped;
      }
    }
  }

  node.sim_end_ms = now;
  for (Shard& sh : shards) {
    // Detach so a later unobserved session on the same wiring stays clean.
    ReconfigEngine* engine = sh.server->reconfig_engine();
    if (trace != nullptr) {
      if (engine != nullptr) {
        engine->set_trace(nullptr);
      }
      sh.server->exec_backend().set_trace(nullptr, 0);
    }
    if (telemetry != nullptr && engine != nullptr) {
      engine->set_telemetry(nullptr);
    }
    sh.stats.sim_end_ms = now;
    node.per_model.emplace_back(sh.model_id, std::move(sh.stats));
  }
  node.aggregate();
  if (slo != nullptr) {
    slo->set_trace(nullptr);
  }
  if (observers.metrics != nullptr) {
    if (slo != nullptr) {
      slo->publish(*observers.metrics);
    }
    if (trace != nullptr) {
      observers.metrics->gauge("trace.dropped_events")
          .set(static_cast<double>(trace->dropped_events()));
    }
  }
  return node;
}

ServerStats serve_concurrent(Server& server,
                             const std::vector<Request>& schedule,
                             std::int64_t producers) {
  const auto serve = [&server](const std::vector<Request>& sorted) {
    return server.serve(sorted);
  };
  return consume_schedule_concurrently(schedule, producers, serve);
}

}  // namespace rt3
