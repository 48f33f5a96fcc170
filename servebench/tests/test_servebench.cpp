// The benchmark's own tests: its arithmetic on hand-built inputs, the
// refusal-counting miss rate, the span self-time rule, the output checks,
// and that the governor decorator leaves device results identical.
//
// Run: python3 servebench/run.py --self-test
// (or ctest in the benchmark's build directory).
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "governor_probe.hpp"
#include "metrics.hpp"
#include "serve/session.hpp"
#include "serve/traffic.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what, int line) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "test_servebench.cpp:%d: FAILED: %s\n", line,
                 what.c_str());
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b) \
  expect(std::abs((a) - (b)) <= 1e-12 * (1.0 + std::abs(b)), #a " ~ " #b, __LINE__)

using namespace servebench;

void test_percentile() {
  EXPECT_NEAR(percentile({}, 50.0), 0.0);
  EXPECT_NEAR(percentile({7.0}, 99.0), 7.0);
  EXPECT_NEAR(percentile({4.0, 1.0, 3.0, 2.0}, 50.0), 2.5);
  EXPECT_NEAR(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_NEAR(percentile({4.0, 1.0, 3.0, 2.0}, 100.0), 4.0);
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) {
    v.push_back(i);
  }
  EXPECT_NEAR(percentile(v, 90.0), 10.0);
  EXPECT_NEAR(percentile(v, 95.0), 10.5);
  EXPECT_NEAR(median({5.0, 1.0, 3.0}), 3.0);
}

void test_rates() {
  Outcome o;
  o.submitted = 100;
  o.completed = 50;
  o.deadline_misses = 10;
  o.shed = 30;
  o.rejected = 15;
  o.dropped = 4;
  o.unroutable = 1;
  EXPECT(o.refused() == 50);
  EXPECT_NEAR(miss_rate(o), 0.60);
  EXPECT_NEAR(fail_rate(o), 0.50);
  EXPECT_NEAR(fail_rate(o, 5), 0.55);
  EXPECT_NEAR(good_ratio(o), 0.40);
  EXPECT_NEAR(miss_rate(Outcome{}), 0.0);
  EXPECT_NEAR(rate_per_s(500.0, 2.0), 250.0);
  EXPECT_NEAR(rate_per_s(500.0, 0.0), 0.0);
}

void test_refusals_count_as_misses() {
  // Same traffic, same completions-in-deadline; one session refuses half of
  // what the other serves late.  ServerStats::miss_rate divides by
  // completed, so refusing looks better there; over submitted it must not.
  rt3::ServerStats served;
  served.submitted = 100;
  served.completed = 100;
  served.deadline_misses = 50;
  rt3::ServerStats refusing;
  refusing.submitted = 100;
  refusing.completed = 60;
  refusing.deadline_misses = 10;
  refusing.shed = 25;
  refusing.rejected = 15;
  EXPECT(refusing.miss_rate() < served.miss_rate());
  Outcome a{served.submitted, served.completed, served.deadline_misses,
            0, 0, 0, 0};
  Outcome b{refusing.submitted, refusing.completed, refusing.deadline_misses,
            refusing.dropped, refusing.shed, refusing.rejected, 0};
  EXPECT_NEAR(miss_rate(a), 0.5);
  EXPECT_NEAR(miss_rate(b), 0.5);
  EXPECT(good_ratio(a) == good_ratio(b));
}

void test_queue_depths() {
  const std::vector<double> arrivals = {0.0, 10.0, 20.0, 30.0, 40.0};
  const std::vector<BatchRecord> batches = {
      {1, 0, 0.0, 8.0}, {2, 0, 25.0, 33.0}, {2, 0, 45.0, 53.0}};
  // Arrived by start, minus taken before: 1 - 0, 3 - 1, 5 - 3.
  EXPECT((queue_depths(arrivals, {}, batches) ==
          std::vector<std::int64_t>{1, 2, 2}));
  // A request arriving exactly at a batch start is admitted to it.
  EXPECT((queue_depths({0.0, 25.0}, {}, {{1, 0, 0.0, 1.0}, {1, 0, 25.0, 26.0}}) ==
          std::vector<std::int64_t>{1, 1}));
  // Shedding: the one never-batched request leaves at its deadline once
  // that is <= the batch start; without shedding it stays queued.
  const std::vector<double> arrivals6 = {0.0, 10.0, 20.0, 30.0, 40.0, 41.0};
  EXPECT((queue_depths(arrivals6, {45.0}, batches) ==
          std::vector<std::int64_t>{1, 2, 2}));
  EXPECT((queue_depths(arrivals6, {60.0}, batches) ==
          std::vector<std::int64_t>{1, 2, 3}));
  EXPECT((queue_depths(arrivals6, {}, batches) ==
          std::vector<std::int64_t>{1, 2, 3}));
}

void test_slope() {
  EXPECT_NEAR(ls_slope({0.0, 1.0, 2.0, 3.0}, {1.0, 4.0, 7.0, 10.0}), 3.0);
  EXPECT_NEAR(ls_slope({2.0, 2.0, 2.0}, {1.0, 5.0, 9.0}), 0.0);
  EXPECT_NEAR(ls_slope({1.0}, {1.0}), 0.0);
}

void test_spans() {
  EXPECT(layer_of("serve.loop.batch") == "serve.loop");
  EXPECT(layer_of("serve.loop") == "serve.loop");
  EXPECT(layer_of("governor.decide") == "governor");
  EXPECT(layer_of("serve.loopy").empty());
  EXPECT(layer_of("unknown").empty());
  SpanRecorder rec;
  rec.set_setup_reps(2);
  rec.add("serve.session", 0.0, 3000.0);
  rec.add("serve.session", 0.0, 1000.0);
  rec.set_phase(Phase::kOnce);
  rec.add("bench.check", 0.0, 500.0);
  rec.set_phase(Phase::kTimed);
  rec.set_timed_reps(2);
  const std::int64_t loop = rec.add("serve.loop", 0.0, 10000.0);
  const std::int64_t batch = rec.add("serve.loop.batch", 1000.0, 5000.0, loop, 0);
  rec.add("governor.decide", 1000.0, 2000.0, batch, 0);
  rec.add("serve.loop", 20000.0, 22000.0);
  const std::vector<double> self = rec.self_us();
  EXPECT_NEAR(self[3], 6000.0);
  EXPECT_NEAR(self[4], 3000.0);
  EXPECT_NEAR(self[5], 1000.0);
  const auto by_layer = rec.self_ms_by_layer();
  EXPECT_NEAR(by_layer.at("serve.session"), 2.0);    // 4 ms over 2 set-ups
  EXPECT_NEAR(by_layer.at("serve.loop"), 5.5);       // 11 ms over 2 reps
  EXPECT_NEAR(by_layer.at("governor"), 0.5);
  EXPECT_NEAR(by_layer.at("bench"), 0.5);            // once per run
  EXPECT_NEAR(by_layer.at("exec"), 0.0);
  const std::string json = rec.to_chrome_json();
  EXPECT(json.find("\"name\": \"governor.decide\"") != std::string::npos);
  EXPECT(json.find("\"parent\": 4") != std::string::npos);
}

rt3::TrafficConfig small_traffic() {
  rt3::TrafficConfig t;
  t.scenario = rt3::TrafficScenario::kBurst;
  t.rate_rps = 6.0;
  t.duration_ms = 60'000.0;
  t.tight_fraction = 0.3;
  t.tight_slack_ms = 350.0;
  t.seed = 5;
  return t;
}

rt3::ServeSessionConfig small_session() {
  rt3::ServeSessionConfig cfg;
  cfg.scheduler.policy = rt3::SchedulingPolicy::kEdf;
  cfg.shed_expired = true;
  cfg.governor_margin = 0.05;
  cfg.battery_capacity_mj = 3'000.0;  // dies mid-session: drops too
  return cfg;
}

void test_governor_decorator_is_device_identical() {
  const std::vector<rt3::Request> schedule = rt3::generate_traffic(small_traffic());
  rt3::ServeSession plain(small_session());
  const rt3::ServerStats want = plain.server().serve(schedule);

  std::int64_t calls = 0;
  rt3::ServeSessionConfig cfg = small_session();
  cfg.governor_policy = std::make_shared<TimedGovernor>(
      std::make_shared<rt3::LadderPolicy>(
          rt3::Governor::equal_tranches(rt3::paper_serve_ladder())),
      [] { return 0.0; }, [&calls](double, double) { ++calls; });
  rt3::ServeSession timed(cfg);
  const rt3::ServerStats got = timed.server().serve(schedule);
  EXPECT(calls > 0);
  EXPECT(want.switches > 0);
  EXPECT(device_fingerprint(got) == device_fingerprint(want));

  // Same for a node, where one decorated policy is shared by all shards.
  rt3::TrafficConfig t = small_traffic();
  t.num_models = 3;
  const std::vector<rt3::Request> node_schedule = rt3::generate_traffic(t);
  rt3::NodeSession plain_node(small_session(), 3);
  rt3::NodeSession timed_node(cfg, 3);
  EXPECT(device_fingerprint(plain_node.node().serve(node_schedule)) ==
         device_fingerprint(timed_node.node().serve(node_schedule)));
}

void test_checks_catch_violations() {
  const std::vector<rt3::Request> schedule = rt3::generate_traffic(small_traffic());
  rt3::ServeSession session(small_session());
  const rt3::ServerStats stats = session.server().serve(schedule);
  const double max_draw = max_draw_mj(session.server());
  {
    Checker c;
    check_server_stats(c, stats, "clean");
    check_energy(c, stats.energy_used_mj, session.server().battery(), max_draw,
                 "clean");
    EXPECT(c.ok());
    EXPECT(stats.dropped > 0 && stats.shed > 0);  // both refusal paths ran
  }
  {
    rt3::ServerStats bad = stats;
    ++bad.shed;
    Checker c;
    check_server_stats(c, bad, "conservation");
    EXPECT(!c.ok());
  }
  {
    rt3::ServerStats bad = stats;
    ++bad.miss_exec;
    Checker c;
    check_server_stats(c, bad, "attribution");
    EXPECT(!c.ok());
  }
  {
    rt3::ServerStats bad = stats;
    bad.exec_req_ms[0] += 1.0;
    Checker c;
    check_server_stats(c, bad, "decomposition");
    EXPECT(!c.ok());
  }
  {
    Checker c;
    check_energy(c, stats.energy_used_mj - max_draw,
                 session.server().battery(), max_draw, "energy");
    EXPECT(!c.ok());
    rt3::Battery full(100.0);
    Checker live;
    check_energy(live, 1.0, full, max_draw, "live battery");
    EXPECT(!live.ok());
  }
  {
    rt3::ServerStats moved = stats;
    moved.latency_ms.back() = std::nextafter(moved.latency_ms.back(), 1e300);
    EXPECT(device_fingerprint(moved) != device_fingerprint(stats));
    rt3::ServerStats host_only = stats;
    host_only.kernel_wall_ms_total += 5.0;
    EXPECT(device_fingerprint(host_only) == device_fingerprint(stats));
  }
}

void test_plan_check() {
  rt3::ServeSessionConfig cfg;
  cfg.backend = rt3::ExecBackendKind::kMeasured;
  cfg.measured_layers = 2;
  cfg.measured_layer_dim = 24;
  cfg.measured_threads = 2;
  rt3::ServeSession session(cfg);
  Checker c;
  check_plans_bitwise(c, session.measured_backend(), 3);
  EXPECT(c.ok());
  EXPECT(session.measured_backend().plans().active_level() == 0);
}

}  // namespace

int main() {
  test_percentile();
  test_rates();
  test_refusals_count_as_misses();
  test_queue_depths();
  test_slope();
  test_spans();
  test_governor_decorator_is_device_identical();
  test_checks_catch_violations();
  test_plan_check();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("servebench tests passed\n");
  return 0;
}
