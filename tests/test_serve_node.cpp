// Multi-model ServeNode front-end: deployment ownership, model-id
// routing determinism under concurrent ingestion, feasibility-based
// admission, per-model -> node stats aggregation, and the
// shared-governor drain-then-switch across every resident model.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "exec/analytic_backend.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "nn/linear.hpp"
#include "pruning/model_pruner.hpp"
#include "pruning/pattern_prune.hpp"
#include "runtime/engine.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

Request make_request(std::int64_t id, double arrival_ms, double deadline_ms,
                     std::int64_t model_id = 0) {
  Request r;
  r.id = id;
  r.arrival_ms = arrival_ms;
  r.deadline_ms = deadline_ms;
  r.model_id = model_id;
  return r;
}

/// A minimal analytic deployment over the paper ladder (no engine).
ModelDeployment paper_deployment(ServerConfig cfg) {
  const LatencyModel latency = paper_calibrated_latency();
  ModelDeployment dep;
  dep.config(cfg)
      .spec(ModelSpec::paper_transformer())
      .latency(latency)
      .sparsities(paper_ladder_sparsities(latency, 115.0));
  return dep;
}

ServerConfig paper_server_config(double capacity_mj, BatchPolicy batch) {
  ServerConfig cfg;
  cfg.battery_capacity_mj = capacity_mj;
  cfg.batch = batch;
  return cfg;
}

std::vector<Request> generate_node_traffic(std::int64_t num_models,
                                           double rate_rps,
                                           double duration_ms = 60'000.0) {
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = duration_ms;
  tcfg.rate_rps = rate_rps;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.3;
  tcfg.tight_slack_ms = 350.0;
  tcfg.num_models = num_models;
  return generate_traffic(tcfg);
}

TEST(ModelDeployment, BuildRequiresSparsities) {
  ModelDeployment dep;
  EXPECT_THROW(std::move(dep).build(
                   VfTable::odroid_xu3_a7(),
                   Governor::equal_tranches(paper_serve_ladder()),
                   PowerModel()),
               CheckError);
}

TEST(ModelRegistry, RejectsDuplicateIdsAndFindsShards) {
  ModelRegistry registry;
  registry.add(
      1, std::move(paper_deployment(paper_server_config(1e4, {2, 20.0})))
             .build(VfTable::odroid_xu3_a7(),
                    Governor::equal_tranches(paper_serve_ladder()),
                    PowerModel()));
  EXPECT_NE(registry.find(1), nullptr);
  EXPECT_EQ(registry.find(2), nullptr);
  EXPECT_THROW(
      registry.add(
          1, std::move(paper_deployment(paper_server_config(1e4, {2, 20.0})))
                 .build(VfTable::odroid_xu3_a7(),
                        Governor::equal_tranches(paper_serve_ladder()),
                        PowerModel())),
      CheckError);
}

// A node with ONE registered model must reproduce the single-model
// session exactly: full stats, telemetry and SLO dumps, over a table of
// configurations covering every loop branch (fifo/edf/edf-prio, shedding,
// admission, governor margin, hardware-only, battery death, adaptive).
// The single-model dumps are also pinned by FNV-1a hash and byte length.
// Both front-ends run serve_shards(), so the traces match byte for byte.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct DumpPin {
  std::size_t size;
  std::uint64_t hash;
};

struct SingleModelCase {
  const char* name;
  ServeSessionConfig config;
  TrafficConfig traffic;
  DumpPin stats;
  DumpPin telemetry;
  DumpPin slo;
};

struct SessionDumps {
  std::string stats;
  std::string telemetry;
  std::string slo;
  std::string trace;
};

/// Runs the session `serve` with trace, telemetry and SLO attached via
/// `attach`, and returns the stats JSON and the three observer exports.
template <typename Attach, typename Serve>
SessionDumps observed_dumps(Attach&& attach, Serve&& serve) {
  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler telemetry;
  SloMonitor slo(SloMonitor::default_rules());
  attach(&trace, &telemetry, &slo);
  SessionDumps d;
  d.stats = serve().to_json();
  attach(nullptr, nullptr, nullptr);
  telemetry.export_counters(trace);
  d.telemetry = telemetry.to_json();
  d.slo = slo.to_json();
  d.trace = trace.to_chrome_json();
  return d;
}

std::vector<SingleModelCase> single_model_cases() {
  TrafficConfig burst;
  burst.scenario = TrafficScenario::kBurst;
  burst.duration_ms = 120'000.0;
  burst.rate_rps = 6.0;
  burst.deadline_slack_ms = 1'000.0;
  burst.tight_fraction = 0.3;
  burst.tight_slack_ms = 350.0;

  std::vector<SingleModelCase> cases;
  {
    SingleModelCase c{"steady_fifo", {}, {}, {}, {}, {}};
    c.config.battery_capacity_mj = 18'000.0;
    c.config.batch = BatchPolicy{4, 30.0};
    c.traffic.scenario = TrafficScenario::kSteady;
    c.traffic.duration_ms = 60'000.0;
    c.traffic.rate_rps = 5.0;
    c.stats = {830U, 0xf71ea1070847e9b3ULL};
    c.telemetry = {78720U, 0xe07adad26f8b76abULL};
    c.slo = {1902U, 0x4e0e21b32c28829fULL};
    cases.push_back(c);
  }
  {
    SingleModelCase c{"burst_edf_shed_admit", {}, burst, {}, {}, {}};
    c.config.battery_capacity_mj = 30'000.0;
    c.config.scheduler.policy = SchedulingPolicy::kEdf;
    c.config.shed_expired = true;
    c.config.admit_feasible = true;
    c.traffic.tight_slack_ms = 150.0;  // queued tight requests turn infeasible
    c.stats = {838U, 0x16738aa92e053fdeULL};
    c.telemetry = {104523U, 0xfd1050cd4c7256b2ULL};
    c.slo = {2443U, 0xd7e88c5e8867665bULL};
    cases.push_back(c);
  }
  {
    SingleModelCase c{"edf_prio_margin", {}, burst, {}, {}, {}};
    c.config.battery_capacity_mj = 30'000.0;
    c.config.scheduler.policy = SchedulingPolicy::kEdfPriority;
    c.config.governor_margin = 0.05;
    c.traffic.priority_classes = 3;
    c.traffic.seed = 5;
    c.stats = {870U, 0x97bd376c67b1702eULL};
    c.telemetry = {135367U, 0x81efe95dfecbfd23ULL};
    c.slo = {4161U, 0x3cad7251f66e3f6ULL};
    cases.push_back(c);
  }
  {
    SingleModelCase c{"hardware_only", {}, burst, {}, {}, {}};
    c.config.battery_capacity_mj = 30'000.0;
    c.config.software_reconfig = false;
    c.stats = {808U, 0x533c5929c91dc6acULL};
    c.telemetry = {83929U, 0x2372266b4d2f2fb2ULL};
    c.slo = {1376U, 0x712022623ce98c0eULL};
    cases.push_back(c);
  }
  {
    SingleModelCase c{"battery_death", {}, burst, {}, {}, {}};
    c.config.battery_capacity_mj = 9'000.0;
    c.config.scheduler.policy = SchedulingPolicy::kEdf;
    c.config.shed_expired = true;
    c.traffic.duration_ms = 300'000.0;
    c.traffic.seed = 9;
    c.stats = {837U, 0xb93928f63d767093ULL};
    c.telemetry = {37504U, 0x405238a74863a46fULL};
    c.slo = {1970U, 0x5f3152844516ba9ULL};
    cases.push_back(c);
  }
  {
    SingleModelCase c{"adaptive", {}, burst, {}, {}, {}};
    c.config.battery_capacity_mj = 30'000.0;
    c.config.governor = GovernorKind::kAdaptive;
    c.config.scheduler.policy = SchedulingPolicy::kEdf;
    c.traffic.seed = 3;
    c.stats = {833U, 0x5fa004d903124e13ULL};
    c.telemetry = {125815U, 0x1c34c6225e00456dULL};
    c.slo = {5181U, 0x51d7b7583123724ULL};
    cases.push_back(c);
  }
  return cases;
}

TEST(ServeNode, SingleModelNodeMatchesServerBitwise) {
  for (const SingleModelCase& c : single_model_cases()) {
    SCOPED_TRACE(c.name);
    const std::vector<Request> schedule = generate_traffic(c.traffic);
    ServeSession single(c.config);
    NodeSession node_session(c.config, 1);
    Server& server = single.server();
    ServeNode& node = node_session.node();

    const SessionDumps s = observed_dumps(
        [&](TraceRecorder* t, TelemetrySampler* tel, SloMonitor* slo) {
          server.set_trace(t);
          server.set_telemetry(tel);
          server.set_slo(slo);
        },
        [&] { return server.serve(schedule); });
    const SessionDumps n = observed_dumps(
        [&](TraceRecorder* t, TelemetrySampler* tel, SloMonitor* slo) {
          node.set_trace(t);
          node.set_telemetry(tel);
          node.set_slo(slo);
        },
        [&] { return node.serve(schedule).model(0); });

    EXPECT_EQ(s.stats, n.stats);
    EXPECT_EQ(s.telemetry, n.telemetry);
    EXPECT_EQ(s.slo, n.slo);
    // One loop, one event vocabulary: the traces are byte-equal too.
    EXPECT_EQ(s.trace, n.trace);
    EXPECT_EQ(s.stats.size(), c.stats.size);
    EXPECT_EQ(fnv1a(s.stats), c.stats.hash);
    EXPECT_EQ(s.telemetry.size(), c.telemetry.size);
    EXPECT_EQ(fnv1a(s.telemetry), c.telemetry.hash);
    EXPECT_EQ(s.slo.size(), c.slo.size);
    EXPECT_EQ(fnv1a(s.slo), c.slo.hash);
  }
}

// Routing must be deterministic under genuinely concurrent multi-producer
// ingestion: races in push order are erased by (arrival, id) ordering, so
// per-model results are identical to the direct serve() path.
TEST(ServeNode, RoutingIsDeterministicUnderMultiProducerQueue) {
  ServeSessionConfig config;
  NodeSession session(config, 3);
  const std::vector<Request> schedule = generate_node_traffic(3, 3.0);

  const NodeStats direct = session.node().serve(schedule);
  for (const std::int64_t producers : {2, 5}) {
    const NodeStats queued =
        serve_node_concurrent(session.node(), schedule, producers);
    ASSERT_EQ(direct.per_model.size(), queued.per_model.size());
    for (std::size_t m = 0; m < direct.per_model.size(); ++m) {
      const ServerStats& a = direct.per_model[m].second;
      const ServerStats& b = queued.per_model[m].second;
      EXPECT_EQ(direct.per_model[m].first, queued.per_model[m].first);
      EXPECT_EQ(a.submitted, b.submitted);
      EXPECT_EQ(a.completed, b.completed);
      EXPECT_EQ(a.batches, b.batches);
      EXPECT_EQ(a.deadline_misses, b.deadline_misses);
      ASSERT_EQ(a.latency_ms.size(), b.latency_ms.size());
      for (std::size_t i = 0; i < a.latency_ms.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.latency_ms[i], b.latency_ms[i]);
      }
    }
    EXPECT_DOUBLE_EQ(direct.sim_end_ms, queued.sim_end_ms);
    EXPECT_DOUBLE_EQ(direct.energy_used_mj, queued.energy_used_mj);
  }
}

// Per-model stats must sum exactly to the node totals, and every
// submitted request must be accounted somewhere.
TEST(ServeNode, PerModelStatsSumToNodeTotals) {
  ServeSessionConfig config;
  config.shed_expired = true;
  config.admit_feasible = true;
  NodeSession session(config, 3);
  const std::vector<Request> schedule = generate_node_traffic(3, 6.0);
  const NodeStats stats = session.node().serve(schedule);

  std::int64_t submitted = 0, completed = 0, dropped = 0, shed = 0,
               rejected = 0, batches = 0, switches = 0, misses = 0;
  double energy = 0.0;
  for (const auto& [id, s] : stats.per_model) {
    submitted += s.submitted;
    completed += s.completed;
    dropped += s.dropped;
    shed += s.shed;
    rejected += s.rejected;
    batches += s.batches;
    switches += s.switches;
    misses += s.deadline_misses;
    energy += s.energy_used_mj;
    // Per-model conservation: everything submitted to a shard is served,
    // dropped, shed, or rejected.
    EXPECT_EQ(s.completed + s.dropped + s.shed + s.rejected, s.submitted);
  }
  EXPECT_EQ(stats.submitted, submitted + stats.unroutable);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.dropped, dropped);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.batches, batches);
  EXPECT_EQ(stats.switches, switches);
  EXPECT_EQ(stats.deadline_misses, misses);
  EXPECT_DOUBLE_EQ(stats.energy_used_mj, energy);
  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(schedule.size()));
  EXPECT_EQ(stats.unroutable, 0);
}

// Feasibility admission must reject EXACTLY the requests whose deadline
// lies inside now + batch_latency(1, level) at ingress — no more, no
// less — and attribute them to their target model.
TEST(ServeNode, AdmissionRejectsExactlyTheInfeasibleSet) {
  NodeConfig ncfg;
  ncfg.battery_capacity_mj = 1e9;  // never dies
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  ServerConfig cfg = paper_server_config(1e9, BatchPolicy{1, 0.0});
  cfg.admit_feasible = true;
  node.add_model(0, paper_deployment(cfg));
  node.add_model(1, paper_deployment(cfg));
  const double lat1 = node.model(0).batch_latency_ms(1, 0);

  const std::vector<Request> schedule = {
      make_request(0, 0.0, 1e12, 0),        // feasible
      make_request(1, 0.0, lat1 * 0.5, 0),  // INFEASIBLE at ingress
      make_request(2, 0.0, lat1, 1),        // boundary: exactly feasible
      make_request(3, 0.0, lat1 * 0.9, 1),  // INFEASIBLE at ingress
      make_request(4, 0.0, 1e12, 1),        // feasible
  };
  const NodeStats stats = node.serve(schedule);

  EXPECT_EQ(stats.model(0).rejected, 1);
  EXPECT_EQ(stats.model(1).rejected, 1);
  EXPECT_EQ(stats.model(0).completed, 1);
  EXPECT_EQ(stats.model(1).completed, 2);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
  // The boundary request (deadline == now + lat1) was ADMITTED — the
  // feasibility test is >= — but then queued behind model 0's batch and
  // missed: ingress admission is a necessary-condition filter, not a
  // completion guarantee.
  EXPECT_EQ(stats.model(1).deadline_misses, 1);

  // The same schedule with admission off: nothing rejected, the
  // infeasible requests occupy batch slots and miss instead.
  ServeNode no_admit(ncfg, VfTable::odroid_xu3_a7(),
                     Governor::equal_tranches(paper_serve_ladder()),
                     PowerModel());
  ServerConfig cfg_off = cfg;
  cfg_off.admit_feasible = false;
  no_admit.add_model(0, paper_deployment(cfg_off));
  no_admit.add_model(1, paper_deployment(cfg_off));
  const NodeStats off = no_admit.serve(schedule);
  EXPECT_EQ(off.rejected, 0);
  EXPECT_EQ(off.completed, off.submitted);
  EXPECT_GE(off.deadline_misses, 2);  // the two infeasible ones now miss
}

// Requests targeting an unregistered model are counted, not crashed on.
TEST(ServeNode, UnroutableRequestsAreCounted) {
  NodeConfig ncfg;
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  node.add_model(7, paper_deployment(paper_server_config(1e9, {2, 10.0})));
  const std::vector<Request> schedule = {
      make_request(0, 0.0, 1e12, 7),
      make_request(1, 1.0, 1e12, 99),  // no such model
      make_request(2, 2.0, 1e12, 7),
  };
  const NodeStats stats = node.serve(schedule);
  EXPECT_EQ(stats.unroutable, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_TRUE(stats.has_model(7));
  EXPECT_FALSE(stats.has_model(99));
}

// A single Server serves every request whatever its model id says, and a
// battery that dies paying a switch is traced like one that dies paying a
// batch: one battery.dead on lane 0 naming the model, leftovers dropped.
TEST(ServeNode, ServerIgnoresModelIdsAndTracesDeathPayingASwitch) {
  ServerConfig cfg = paper_server_config(3'000.0, {2, 20.0});
  // More than the 2000 mJ left at the first step-down of three tranches.
  cfg.switch_energy_mj = 2'500.0;
  std::unique_ptr<Server> server =
      std::move(paper_deployment(cfg))
          .build(VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  std::vector<Request> schedule = generate_node_traffic(1, 5.0);
  for (Request& r : schedule) {
    r.model_id = r.id % 3 == 0 ? 5 : 0;
  }
  TraceRecorder trace(/*record_wall=*/false);
  server->set_trace(&trace);
  const ServerStats stats = server->serve(schedule);
  server->set_trace(nullptr);

  EXPECT_EQ(stats.submitted, static_cast<std::int64_t>(schedule.size()));
  EXPECT_EQ(stats.switches, 0);
  EXPECT_GT(stats.completed, 0);
  EXPECT_GT(stats.dropped, 0);
  EXPECT_EQ(stats.completed + stats.dropped, stats.submitted);
  EXPECT_TRUE(server->battery().empty());
  std::int64_t deaths = 0;
  for (const TraceEvent& ev : trace.merged()) {
    if (ev.name == "battery.dead") {
      ++deaths;
      EXPECT_EQ(ev.tid, 0);
      ASSERT_EQ(ev.num_args, 1);
      EXPECT_STREQ(ev.args[0].key, "model_id");
      EXPECT_EQ(ev.args[0].i, 0);
    }
    if (ev.name == "arrive") {
      EXPECT_EQ(ev.tid, 1);  // the one shard's lane, not model 5's
    }
  }
  EXPECT_EQ(deaths, 1);
}

// One battery step-down must drain-then-switch EVERY resident model at
// the same boundary: equal switch counts everywhere, every engine on the
// final ladder level, and all levels actually serving per model.
TEST(ServeNode, SharedGovernorSwitchDrainsAllShards) {
  ServeSessionConfig config;
  config.battery_capacity_mj = 18'000.0;
  config.batch = BatchPolicy{4, 30.0};
  NodeSession session(config, 3);
  const std::vector<Request> schedule = generate_node_traffic(3, 5.0);
  // Per-shard batch observers fire from the node loop too: every batch a
  // shard runs is reported with a monotone non-decreasing level position.
  std::vector<std::int64_t> observed_batches(3, 0);
  std::vector<std::int64_t> last_level(3, 0);
  for (std::int64_t m = 0; m < 3; ++m) {
    session.node().model(m).set_batch_observer(
        [&observed_batches, &last_level, m](const std::vector<Request>& batch,
                                            std::int64_t pos, double start,
                                            double end) {
          EXPECT_LT(start, end);
          EXPECT_FALSE(batch.empty());
          EXPECT_GE(pos, last_level[static_cast<std::size_t>(m)]);
          last_level[static_cast<std::size_t>(m)] = pos;
          ++observed_batches[static_cast<std::size_t>(m)];
        });
  }
  const NodeStats stats = session.node().serve(schedule);
  for (std::int64_t m = 0; m < 3; ++m) {
    EXPECT_EQ(observed_batches[static_cast<std::size_t>(m)],
              stats.model(m).batches);
  }

  // Two step-downs on the {l6, l4, l3} ladder with this battery.
  ASSERT_EQ(stats.per_model.size(), 3U);
  for (const auto& [id, s] : stats.per_model) {
    EXPECT_EQ(s.switches, 2) << "model " << id;
    ASSERT_EQ(s.runs_per_level.size(), 3U);
    for (double runs : s.runs_per_level) {
      EXPECT_GT(runs, 0.0) << "model " << id;
    }
    EXPECT_EQ(s.completed, s.submitted) << "model " << id;
  }
  EXPECT_EQ(stats.switches, 6);
  EXPECT_EQ(stats.dropped, 0);
  // Every resident engine ended on the slowest level — no shard was left
  // behind on a sub-model the final V/F level cannot afford.
  for (std::int64_t m = 0; m < 3; ++m) {
    ReconfigEngine* engine = session.node().model(m).reconfig_engine();
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->current_level(), 2) << "model " << m;
  }
}

// Multi-model traffic: the single-model path is bitwise-stable, the
// multi-model merge is deterministic, sorted, and respects weights.
TEST(Traffic, MultiModelMixIsDeterministicAndWeighted) {
  TrafficConfig base;
  base.scenario = TrafficScenario::kBurst;
  base.duration_ms = 60'000.0;
  base.rate_rps = 20.0;

  // num_models = 1 must not perturb the historical stream.
  const std::vector<Request> single = generate_traffic(base);
  TrafficConfig one = base;
  one.num_models = 1;
  const std::vector<Request> still_single = generate_traffic(one);
  ASSERT_EQ(single.size(), still_single.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_DOUBLE_EQ(single[i].arrival_ms, still_single[i].arrival_ms);
    EXPECT_DOUBLE_EQ(single[i].deadline_ms, still_single[i].deadline_ms);
    EXPECT_EQ(still_single[i].model_id, 0);
  }

  TrafficConfig multi = base;
  multi.num_models = 3;
  const std::vector<Request> a = generate_traffic(multi);
  const std::vector<Request> b = generate_traffic(multi);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::int64_t> per_model(3, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_ms, b[i].arrival_ms);
    EXPECT_EQ(a[i].model_id, b[i].model_id);
    EXPECT_EQ(a[i].id, static_cast<std::int64_t>(i));
    ASSERT_GE(a[i].model_id, 0);
    ASSERT_LT(a[i].model_id, 3);
    ++per_model[static_cast<std::size_t>(a[i].model_id)];
    if (i > 0) {
      EXPECT_GE(a[i].arrival_ms, a[i - 1].arrival_ms);
    }
  }
  // Uniform weights: each model carries roughly a third of the load.
  for (const std::int64_t count : per_model) {
    EXPECT_GT(count, static_cast<std::int64_t>(a.size()) / 6);
  }

  // A 10:1:1 weighting skews the mix decisively toward model 0.
  TrafficConfig weighted = multi;
  weighted.model_weights = {10.0, 1.0, 1.0};
  std::vector<std::int64_t> skewed(3, 0);
  for (const Request& r : generate_traffic(weighted)) {
    ++skewed[static_cast<std::size_t>(r.model_id)];
  }
  EXPECT_GT(skewed[0], 3 * skewed[1]);
  EXPECT_GT(skewed[0], 3 * skewed[2]);
}

}  // namespace
}  // namespace rt3
