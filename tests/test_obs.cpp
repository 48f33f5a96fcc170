// Observability layer (src/obs/): IntervalAccount overlap accounting,
// deadline-miss classification, attribution invariants on real serve and
// node sessions, trace determinism + Chrome-JSON validity, the metrics
// registry, and stats JSON round-trips.
#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/attribution.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "serve/traffic.hpp"

namespace rt3 {
namespace {

// ---------------------------------------------------------------------
// Minimal strict JSON syntax checker (objects, arrays, strings, numbers,
// literals).  The repo emits JSON by hand, so tests validate the full
// grammar rather than trusting substring checks alone.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    i_ = 0;
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) {
      return false;
    }
    switch (s_[i_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++i_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++i_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool array() {
    ++i_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++i_;
        continue;
      }
      if (peek() == ']') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') {
      return false;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = i_;
    if (peek() == '-') {
      ++i_;
    }
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  bool literal(const std::string& word) {
    if (s_.compare(i_, word.size(), word) != 0) {
      return false;
    }
    i_ += word.size();
    return true;
  }

  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }

  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

/// Extracts the number following `"key": ` in flat hand-rolled JSON.
double json_num_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  check(at != std::string::npos, "json_num_field: no key " + key);
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

/// Server over the paper ladder, exactly like the simulate CLI path.
Server make_paper_server(double capacity_mj, BatchPolicy policy) {
  const LatencyModel latency = paper_calibrated_latency();
  ServerConfig cfg;
  cfg.battery_capacity_mj = capacity_mj;
  cfg.batch = policy;
  return Server(cfg, VfTable::odroid_xu3_a7(),
                Governor::equal_tranches(paper_serve_ladder()), PowerModel(),
                latency, ModelSpec::paper_transformer(),
                paper_ladder_sparsities(latency, 115.0));
}

/// Bursty traffic with a tight-deadline fraction, so sessions produce
/// misses of more than one class.
std::vector<Request> tight_traffic(double rate_rps, std::int64_t num_models,
                                   double duration_ms = 60'000.0) {
  TrafficConfig tcfg;
  tcfg.scenario = TrafficScenario::kBurst;
  tcfg.duration_ms = duration_ms;
  tcfg.rate_rps = rate_rps;
  tcfg.deadline_slack_ms = 1'000.0;
  tcfg.tight_fraction = 0.4;
  tcfg.tight_slack_ms = 250.0;
  tcfg.num_models = num_models;
  return generate_traffic(tcfg);
}

ModelDeployment paper_deployment(ServerConfig cfg) {
  const LatencyModel latency = paper_calibrated_latency();
  ModelDeployment dep;
  dep.config(cfg)
      .spec(ModelSpec::paper_transformer())
      .latency(latency)
      .sparsities(paper_ladder_sparsities(latency, 115.0));
  return dep;
}

// ---------------------------------------------------------------------
// IntervalAccount

TEST(IntervalAccount, EmptyHasNoOverlap) {
  IntervalAccount acc;
  EXPECT_EQ(acc.size(), 0);
  EXPECT_DOUBLE_EQ(acc.total(), 0.0);
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 1e9), 0.0);
}

TEST(IntervalAccount, OverlapClipsAtBothEnds) {
  IntervalAccount acc;
  acc.add(10.0, 20.0);
  acc.add(30.0, 40.0);
  EXPECT_EQ(acc.size(), 2);
  EXPECT_DOUBLE_EQ(acc.total(), 20.0);
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 100.0), 20.0);  // covers everything
  EXPECT_DOUBLE_EQ(acc.overlap(0.0, 15.0), 5.0);    // clips head
  EXPECT_DOUBLE_EQ(acc.overlap(15.0, 35.0), 10.0);  // spans the gap
  EXPECT_DOUBLE_EQ(acc.overlap(12.0, 18.0), 6.0);   // inside one interval
  EXPECT_DOUBLE_EQ(acc.overlap(20.0, 30.0), 0.0);   // exactly the gap
  EXPECT_DOUBLE_EQ(acc.overlap(40.0, 50.0), 0.0);   // past the end
  EXPECT_DOUBLE_EQ(acc.overlap(35.0, 35.0), 0.0);   // empty query window
}

TEST(IntervalAccount, IgnoresZeroLengthAndRejectsOutOfOrder) {
  IntervalAccount acc;
  acc.add(5.0, 5.0);  // zero-length: ignored
  EXPECT_EQ(acc.size(), 0);
  acc.add(10.0, 20.0);
  acc.add(20.0, 25.0);  // abutting is fine (start == previous end)
  EXPECT_EQ(acc.size(), 2);
  EXPECT_THROW(acc.add(15.0, 30.0), CheckError);  // overlaps the past
}

// ---------------------------------------------------------------------
// attribute_wait / classify_miss

TEST(Attribution, FourPartsSumToLatency) {
  IntervalAccount switches;
  IntervalAccount execs;
  execs.add(0.0, 50.0);      // another batch runs while we wait
  switches.add(50.0, 60.0);  // then a pattern-set switch stalls us
  // Request: arrives at 10, starts at 80, ends at 120.
  const WaitBreakdown w = attribute_wait(switches, execs, 10.0, 80.0, 120.0);
  EXPECT_DOUBLE_EQ(w.queue_wait_ms, 40.0);    // [10, 50) of exec
  EXPECT_DOUBLE_EQ(w.switch_stall_ms, 10.0);  // [50, 60) of switch
  EXPECT_DOUBLE_EQ(w.batch_wait_ms, 20.0);    // [60, 80) idle hold
  EXPECT_DOUBLE_EQ(w.exec_ms, 40.0);          // [80, 120) own batch
  EXPECT_DOUBLE_EQ(
      w.queue_wait_ms + w.batch_wait_ms + w.switch_stall_ms + w.exec_ms,
      120.0 - 10.0);
}

TEST(Attribution, ClassifiesEachMissCauseExactlyOnce) {
  WaitBreakdown w;
  w.exec_ms = 40.0;
  w.switch_stall_ms = 10.0;
  // Met: end before deadline.
  EXPECT_EQ(classify_miss(w, 0.0, 90.0, 100.0), MissClass::kNone);
  // Exec: even a zero-wait solo launch (arrival + exec) blows it.
  EXPECT_EQ(classify_miss(w, 0.0, 120.0, 30.0), MissClass::kExec);
  // Switch: without the 10 ms stall it would have met the deadline.
  EXPECT_EQ(classify_miss(w, 0.0, 105.0, 100.0), MissClass::kSwitch);
  // Queued: stall removal is not enough, but the level was fast enough.
  EXPECT_EQ(classify_miss(w, 0.0, 130.0, 100.0), MissClass::kQueued);
  EXPECT_STREQ(miss_class_name(MissClass::kNone), "none");
  EXPECT_STREQ(miss_class_name(MissClass::kQueued), "queued");
  EXPECT_STREQ(miss_class_name(MissClass::kSwitch), "switch");
  EXPECT_STREQ(miss_class_name(MissClass::kExec), "exec");
}

TEST(Attribution, SessionInvariantsHoldOnRealTraffic) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats stats = server.serve(tight_traffic(12.0, 1));
  ASSERT_GT(stats.completed, 0);
  ASSERT_GT(stats.deadline_misses, 0);  // traffic is tight enough to miss
  // Every miss lands in exactly one class.
  EXPECT_EQ(stats.miss_queued + stats.miss_switch + stats.miss_exec,
            stats.deadline_misses);
  // The decomposition vectors are parallel to latency_ms and each
  // request's four parts sum to its latency.
  const std::size_t n = stats.latency_ms.size();
  ASSERT_EQ(stats.queue_wait_ms.size(), n);
  ASSERT_EQ(stats.batch_wait_ms.size(), n);
  ASSERT_EQ(stats.switch_stall_req_ms.size(), n);
  ASSERT_EQ(stats.exec_req_ms.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double parts = stats.queue_wait_ms[i] + stats.batch_wait_ms[i] +
                         stats.switch_stall_req_ms[i] + stats.exec_req_ms[i];
    EXPECT_NEAR(parts, stats.latency_ms[i], 1e-6);
  }
  // The totals are the sums of the same vectors, so the summed
  // decomposition also closes against total latency.
  double latency_total = 0.0;
  for (double x : stats.latency_ms) {
    latency_total += x;
  }
  double exec_total = 0.0;
  for (double x : stats.exec_req_ms) {
    exec_total += x;
  }
  EXPECT_NEAR(stats.queue_wait_total_ms() + stats.batch_wait_total_ms() +
                  stats.switch_stall_total_ms() + exec_total,
              latency_total, 1e-6 * static_cast<double>(n + 1));
}

// ---------------------------------------------------------------------
// Tracing: overhead contract, determinism, Chrome JSON validity

TEST(Trace, OffPathIsBitwiseIdenticalToUntraced) {
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  Server plain = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats untraced = plain.serve(schedule);

  Server traced_server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  traced_server.set_trace(&trace);
  const ServerStats traced = traced_server.serve(schedule);

  EXPECT_GT(trace.num_events(), 0);
  EXPECT_EQ(untraced.to_json(), traced.to_json());
}

TEST(Trace, SameSeedSameTraceBytes) {
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    Server server = make_paper_server(9'000.0, {4, 30.0});
    TraceRecorder trace(/*record_wall=*/false);
    server.set_trace(&trace);
    server.serve(schedule);
    dumps.push_back(trace.to_chrome_json());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Trace, ChromeJsonIsValidAndCarriesLifecycle) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));

  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // One complete request span per completed request.
  std::int64_t request_spans = 0;
  std::int64_t miss_instants = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.name == "request" && e.ph == 'X') {
      ++request_spans;
    }
    if (e.name == "miss") {
      ++miss_instants;
    }
    EXPECT_GE(e.ts_ms, 0.0);
  }
  EXPECT_EQ(request_spans, stats.completed);
  EXPECT_EQ(miss_instants, stats.deadline_misses);
  // Track metadata names the governor lane.
  EXPECT_NE(json.find("node: governor + battery"), std::string::npos);
}

TEST(Trace, AttachIsStickyUntilExplicitDetach) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  server.set_trace(&trace);
  const std::vector<Request> schedule = tight_traffic(10.0, 1);
  server.serve(schedule);
  const std::int64_t events_after_first = trace.num_events();
  EXPECT_GT(events_after_first, 0);
  // The recorder stays attached across sessions...
  server.serve(schedule);
  const std::int64_t events_after_second = trace.num_events();
  EXPECT_GT(events_after_second, events_after_first);
  // ...until explicitly detached; then a session records nothing.
  server.set_trace(nullptr);
  server.serve(schedule);
  EXPECT_EQ(trace.num_events(), events_after_second);
}

// ---------------------------------------------------------------------
// Metrics registry

TEST(Metrics, LabelsAreOrderIndependent) {
  MetricLabels ab;
  ab.add("policy", "edf").add("backend", "analytic");
  MetricLabels ba;
  ba.add("backend", "analytic").add("policy", "edf");
  EXPECT_EQ(ab.suffix(), ba.suffix());
  EXPECT_EQ(ab.suffix(), "{backend=\"analytic\",policy=\"edf\"}");
  EXPECT_EQ(MetricLabels{}.suffix(), "");
}

TEST(Metrics, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  registry.counter("serve.completed").inc(3);
  registry.counter("serve.completed").inc();
  EXPECT_EQ(registry.counter_value("serve.completed"), 4);
  MetricLabels labels;
  labels.add("model", std::int64_t{7});
  registry.counter("serve.completed", labels).inc(10);
  EXPECT_EQ(registry.counter_value("serve.completed", labels), 10);
  EXPECT_EQ(registry.counter_value("serve.completed"), 4);  // unlabeled
  EXPECT_EQ(registry.counter_value("serve.missing"), 0);
  registry.gauge("battery.fraction").set(0.25);
  EXPECT_EQ(registry.size(), 3);
}

TEST(Metrics, HistogramBucketsAreLogScale) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);  // edges 1,2,4,8,16 + rails
  h.observe(0.5);   // underflow rail
  h.observe(1.0);   // [1, 2)
  h.observe(3.9);   // [2, 4)
  h.observe(100.0); // overflow rail
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 105.4);
  const std::vector<std::int64_t>& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 6U);
  EXPECT_EQ(buckets.front(), 1);
  EXPECT_EQ(buckets[1], 1);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets.back(), 1);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(1), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 4.0);
}

TEST(Metrics, RegistryJsonIsValidWithLabeledKeys) {
  MetricsRegistry registry;
  MetricLabels labels;
  labels.add("policy", "edf-prio");
  registry.counter("serve.completed", labels).inc(5);
  registry.histogram("serve.latency_ms", labels).observe(12.0);
  const std::string json = registry.to_json();
  // Label suffixes embed quotes; they must arrive escaped, still valid.
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("serve.completed{policy=\\\"edf-prio\\\"}"),
            std::string::npos);
}

TEST(Metrics, ServeSessionPublishesMirrorOfStats) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  MetricsRegistry registry;
  server.set_metrics(&registry);
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));
  MetricLabels labels;
  labels.add("policy", stats.policy).add("backend", stats.backend);
  EXPECT_EQ(registry.counter_value("serve.completed", labels),
            stats.completed);
  EXPECT_EQ(registry.counter_value("serve.deadline_misses", labels),
            stats.deadline_misses);
  EXPECT_EQ(registry.counter_value("serve.miss_queued", labels) +
                registry.counter_value("serve.miss_switch", labels) +
                registry.counter_value("serve.miss_exec", labels),
            stats.deadline_misses);
  EXPECT_TRUE(JsonChecker(registry.to_json()).valid());
}

// ---------------------------------------------------------------------
// Stats JSON round-trips and node aggregation

TEST(ServerStatsJson, RoundTripsThroughParser) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats stats = server.serve(tight_traffic(10.0, 1));
  const std::string json = stats.to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "completed")),
            stats.completed);
  EXPECT_EQ(
      static_cast<std::int64_t>(json_num_field(json, "deadline_misses")),
      stats.deadline_misses);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_queued")),
            stats.miss_queued);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_switch")),
            stats.miss_switch);
  EXPECT_EQ(static_cast<std::int64_t>(json_num_field(json, "miss_exec")),
            stats.miss_exec);
  // to_json renders doubles at ostream default precision (6 sig figs).
  EXPECT_NEAR(json_num_field(json, "miss_rate"), stats.miss_rate(), 1e-5);
  // summary() surfaces the attribution line too.
  EXPECT_NE(stats.summary().find("miss attribution"), std::string::npos);
}

TEST(NodeStats, AggregateTotalsEqualPerModelSums) {
  NodeConfig ncfg;
  ncfg.battery_capacity_mj = 16'000.0;
  ServeNode node(ncfg, VfTable::odroid_xu3_a7(),
                 Governor::equal_tranches(paper_serve_ladder()),
                 PowerModel());
  ServerConfig cfg;
  cfg.battery_capacity_mj = ncfg.battery_capacity_mj;
  cfg.batch = {4, 30.0};
  node.add_model(0, paper_deployment(cfg));
  node.add_model(1, paper_deployment(cfg));
  NodeStats stats = node.serve(tight_traffic(10.0, 2));
  ASSERT_EQ(stats.per_model.size(), 2U);
  ASSERT_GT(stats.completed, 0);

  std::int64_t submitted = stats.unroutable;
  std::int64_t completed = 0;
  std::int64_t misses = 0;
  std::int64_t queued = 0;
  std::int64_t switched = 0;
  std::int64_t exec = 0;
  double energy = 0.0;
  for (const auto& [id, s] : stats.per_model) {
    submitted += s.submitted;
    completed += s.completed;
    misses += s.deadline_misses;
    queued += s.miss_queued;
    switched += s.miss_switch;
    exec += s.miss_exec;
    energy += s.energy_used_mj;
    // Per-shard attribution closes as well.
    EXPECT_EQ(s.miss_queued + s.miss_switch + s.miss_exec,
              s.deadline_misses);
  }
  EXPECT_EQ(stats.submitted, submitted);
  EXPECT_EQ(stats.completed, completed);
  EXPECT_EQ(stats.deadline_misses, misses);
  EXPECT_EQ(stats.miss_queued, queued);
  EXPECT_EQ(stats.miss_switch, switched);
  EXPECT_EQ(stats.miss_exec, exec);
  EXPECT_NEAR(stats.energy_used_mj, energy, 1e-9);
  EXPECT_EQ(stats.miss_queued + stats.miss_switch + stats.miss_exec,
            stats.deadline_misses);
  EXPECT_TRUE(JsonChecker(stats.to_json()).valid());
}

TEST(NodeStats, TracedNodeSessionStaysBitwiseIdentical) {
  const std::vector<Request> schedule = tight_traffic(10.0, 2);
  const auto build = [] {
    NodeConfig ncfg;
    ncfg.battery_capacity_mj = 16'000.0;
    auto node = std::make_unique<ServeNode>(
        ncfg, VfTable::odroid_xu3_a7(),
        Governor::equal_tranches(paper_serve_ladder()), PowerModel());
    ServerConfig cfg;
    cfg.battery_capacity_mj = ncfg.battery_capacity_mj;
    cfg.batch = BatchPolicy{4, 30.0};
    node->add_model(0, paper_deployment(cfg));
    node->add_model(1, paper_deployment(cfg));
    return node;
  };
  auto plain = build();
  const NodeStats untraced = plain->serve(schedule);

  auto traced_node = build();
  TraceRecorder trace(/*record_wall=*/false);
  traced_node->set_trace(&trace);
  const NodeStats traced = traced_node->serve(schedule);

  EXPECT_GT(trace.num_events(), 0);
  EXPECT_EQ(untraced.to_json(), traced.to_json());
  EXPECT_TRUE(JsonChecker(trace.to_chrome_json()).valid());
  // Per-model lanes show up as named tracks.
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"model 0\""), std::string::npos);
  EXPECT_NE(json.find("\"model 1\""), std::string::npos);
}

// ---------------------------------------------------------------------
// TimeSeries: fixed-capacity buffer with stride-doubling downsampling

TEST(TimeSeries, StoresEveryPointBelowCapacity) {
  TimeSeries ts(8);
  for (int i = 0; i < 5; ++i) {
    ts.record(static_cast<double>(i * 10), static_cast<double>(i));
  }
  EXPECT_EQ(ts.size(), 5);
  EXPECT_EQ(ts.offered(), 5);
  EXPECT_EQ(ts.stride(), 1);
  EXPECT_DOUBLE_EQ(ts.times().front(), 0.0);
  EXPECT_DOUBLE_EQ(ts.times().back(), 40.0);
  EXPECT_DOUBLE_EQ(ts.last_value(), 4.0);
}

TEST(TimeSeries, DownsamplesByStrideDoublingAtCapacity) {
  TimeSeries ts(4);
  const int offered = 25;
  for (int i = 0; i < offered; ++i) {
    ts.record(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.offered(), offered);
  EXPECT_LE(ts.size(), 4);
  EXPECT_GT(ts.stride(), 1);
  // Stored points are exactly the offered indices {0, s, 2s, ...}: a pure
  // function of the offered sequence, independent of compaction timing.
  for (std::int64_t i = 0; i < ts.size(); ++i) {
    EXPECT_DOUBLE_EQ(ts.values()[static_cast<std::size_t>(i)],
                     static_cast<double>(i * ts.stride()));
  }
  // last_value tracks the last OFFERED point even when downsampled away.
  EXPECT_DOUBLE_EQ(ts.last_value(), static_cast<double>(offered - 1));
  // The full time span is preserved at halved resolution: the first
  // stored point is still t=0.
  EXPECT_DOUBLE_EQ(ts.times().front(), 0.0);
}

TEST(TimeSeries, LongSessionStaysWithinCapacity) {
  TimeSeries ts(16);
  for (int i = 0; i < 10'000; ++i) {
    ts.record(static_cast<double>(i), 1.0);
  }
  EXPECT_LE(ts.size(), 16);
  EXPECT_EQ(ts.offered(), 10'000);
  EXPECT_EQ(ts.stride() % 2, 0);  // power-of-two stride after compactions
}

// ---------------------------------------------------------------------
// TelemetrySampler

BatchSample batch_at(double end_ms, std::int64_t misses,
                     double latency_sum_ms, std::int64_t size = 2) {
  BatchSample s;
  s.model_id = 0;
  s.start_ms = end_ms - 10.0;
  s.end_ms = end_ms;
  s.batch_size = size;
  s.energy_mj = 5.0;
  s.battery_fraction = 0.9;
  s.misses = misses;
  s.latency_sum_ms = latency_sum_ms;
  return s;
}

TEST(Telemetry, EwmaUpdatesEveryBatchWhileCadenceThinsStorage) {
  TelemetryConfig cfg;
  cfg.sample_every_batches = 2;
  cfg.ewma_alpha = 0.5;
  TelemetrySampler sampler(cfg);
  // 4 batches: miss fractions 1, 0, 1, 0 — EWMA seeded from the first
  // observation, then halved toward each next one.
  sampler.on_batch(batch_at(100.0, 2, 200.0));  // miss frac 1.0 -> ewma 1.0
  sampler.on_batch(batch_at(200.0, 0, 100.0));  // -> 0.5
  sampler.on_batch(batch_at(300.0, 2, 200.0));  // -> 0.75
  sampler.on_batch(batch_at(400.0, 0, 100.0));  // -> 0.375
  EXPECT_EQ(sampler.batches_seen(), 4);
  EXPECT_DOUBLE_EQ(sampler.miss_ewma(0), 0.375);
  EXPECT_DOUBLE_EQ(sampler.miss_ewma(99), 0.0);  // unseen model
  // Cadence 2 stores only batches 0 and 2.
  const TimeSeries* series = sampler.series("m0.miss_ewma");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->size(), 2);
  EXPECT_DOUBLE_EQ(series->times()[0], 100.0);
  EXPECT_DOUBLE_EQ(series->times()[1], 300.0);
  EXPECT_EQ(sampler.series("m0.nonexistent"), nullptr);
}

TEST(Telemetry, SessionDumpIsDeterministicAndPureObservation) {
  const std::vector<Request> schedule = tight_traffic(12.0, 1);
  Server plain = make_paper_server(9'000.0, {4, 30.0});
  const ServerStats bare = plain.serve(schedule);

  std::vector<std::string> dumps;
  for (int run = 0; run < 2; ++run) {
    Server server = make_paper_server(9'000.0, {4, 30.0});
    TelemetrySampler sampler;
    server.set_telemetry(&sampler);
    const ServerStats stats = server.serve(schedule);
    // Telemetry attachment is pure observation.
    EXPECT_EQ(stats.to_json(), bare.to_json());
    EXPECT_GT(sampler.batches_seen(), 0);
    EXPECT_GT(sampler.num_points(), 0);
    dumps.push_back(sampler.to_json());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_TRUE(JsonChecker(dumps[0]).valid());
  EXPECT_NE(dumps[0].find("\"node.battery_fraction\""), std::string::npos);
  EXPECT_NE(dumps[0].find("\"m0.queue_depth\""), std::string::npos);
}

TEST(Telemetry, ExportCountersEmitsValidCounterEvents) {
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TelemetrySampler sampler;
  server.set_telemetry(&sampler);
  server.serve(tight_traffic(12.0, 1));

  TraceRecorder trace(/*record_wall=*/false);
  sampler.export_counters(trace);
  std::int64_t counter_events = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.ph == 'C') {
      ++counter_events;
      EXPECT_GE(e.ts_ms, 0.0);
    }
  }
  // One counter event per stored point.
  EXPECT_EQ(counter_events, sampler.num_points());
  EXPECT_TRUE(JsonChecker(trace.to_chrome_json()).valid());
}

// ---------------------------------------------------------------------
// SloMonitor rule state machines

SloObservation slo_obs(double end_ms, std::int64_t completed,
                       std::int64_t missed, double battery = 0.9,
                       double mean_latency_ms = 100.0) {
  SloObservation o;
  o.end_ms = end_ms;
  o.completed = completed;
  o.missed = missed;
  o.battery_fraction = battery;
  o.mean_latency_ms = mean_latency_ms;
  return o;
}

SloRule miss_burn_rule() {
  SloRule rule;
  rule.name = "burn";
  rule.kind = SloRuleKind::kMissBurn;
  rule.short_window_ms = 1'000.0;
  rule.long_window_ms = 4'000.0;
  rule.short_threshold = 0.5;
  rule.long_threshold = 0.2;
  rule.min_misses = 2;
  return rule;
}

TEST(Slo, MissBurnBreachesOnBothWindowsAndRecovers) {
  SloMonitor monitor({miss_burn_rule()});
  // All-missed batches: short and long rates hit 1.0 once 2 misses land.
  monitor.observe(slo_obs(100.0, 2, 2));
  ASSERT_EQ(monitor.breaches(), 1);
  EXPECT_EQ(monitor.active_breaches(), 1);
  const SloEpisode& open = monitor.episodes().front();
  EXPECT_EQ(open.rule, "burn");
  EXPECT_DOUBLE_EQ(open.start_ms, 100.0);
  EXPECT_DOUBLE_EQ(open.end_ms, -1.0);
  EXPECT_GE(open.trigger_misses, 2);
  EXPECT_DOUBLE_EQ(open.trigger_value, 1.0);
  // Clean batches push the short-window rate to zero: recover.
  monitor.observe(slo_obs(1'600.0, 4, 0));
  EXPECT_EQ(monitor.active_breaches(), 0);
  EXPECT_DOUBLE_EQ(monitor.episodes().front().end_ms, 1'600.0);
  EXPECT_EQ(monitor.breaches(), 1);  // one closed episode, not two
}

TEST(Slo, MissBurnFloorSuppressesSingleMissPages) {
  SloMonitor monitor({miss_burn_rule()});  // min_misses = 2
  // One missed request out of one: 100% rate but below the floor.
  monitor.observe(slo_obs(100.0, 1, 1));
  EXPECT_EQ(monitor.breaches(), 0);
  // A second miss inside the short window crosses the floor.
  monitor.observe(slo_obs(200.0, 1, 1));
  EXPECT_EQ(monitor.breaches(), 1);
}

TEST(Slo, LatencyEwmaBreachesAboveThreshold) {
  SloRule rule;
  rule.name = "lat";
  rule.kind = SloRuleKind::kLatencyEwma;
  rule.latency_threshold_ms = 100.0;
  rule.ewma_alpha = 1.0;  // ewma == latest observation
  SloMonitor monitor({rule});
  monitor.observe(slo_obs(100.0, 2, 0, 0.9, 50.0));
  EXPECT_EQ(monitor.breaches(), 0);
  monitor.observe(slo_obs(200.0, 2, 0, 0.9, 150.0));
  EXPECT_EQ(monitor.active_breaches(), 1);
  EXPECT_DOUBLE_EQ(monitor.episodes().front().trigger_value, 150.0);
  monitor.observe(slo_obs(300.0, 2, 0, 0.9, 50.0));
  EXPECT_EQ(monitor.active_breaches(), 0);
}

TEST(Slo, BatterySlopeProjectsTimeToEmpty) {
  SloRule rule;
  rule.name = "batt";
  rule.kind = SloRuleKind::kBatterySlope;
  rule.slope_window_ms = 10'000.0;
  rule.min_projected_ms = 60'000.0;
  SloMonitor monitor({rule});
  // Window spans less than half its width: rule holds (no breach).
  monitor.observe(slo_obs(0.0, 1, 0, 1.0));
  monitor.observe(slo_obs(2'000.0, 1, 0, 0.9));
  EXPECT_EQ(monitor.breaches(), 0);
  // Fast drain: 0.5 fraction over 6 s projects 6 s to empty — breach.
  monitor.observe(slo_obs(6'000.0, 1, 0, 0.5));
  ASSERT_EQ(monitor.active_breaches(), 1);
  EXPECT_NEAR(monitor.episodes().front().trigger_value, 6'000.0, 1.0);
}

TEST(Slo, TransitionsEmitRuleTaggedTraceEvents) {
  SloMonitor monitor({miss_burn_rule()});
  TraceRecorder trace(/*record_wall=*/false);
  monitor.set_trace(&trace);
  monitor.observe(slo_obs(100.0, 2, 2));
  monitor.observe(slo_obs(1'600.0, 4, 0));
  std::int64_t breach_events = 0;
  std::int64_t recover_events = 0;
  for (const TraceEvent& e : trace.merged()) {
    if (e.name == "slo.breach") {
      ++breach_events;
    }
    if (e.name == "slo.recover") {
      ++recover_events;
    }
    EXPECT_EQ(e.tid, 0);  // transitions live on the node/governor lane
  }
  EXPECT_EQ(breach_events, 1);
  EXPECT_EQ(recover_events, 1);
  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"rule\": \"burn\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(monitor.to_json()).valid());
  // Metrics publication counts the episode.
  MetricsRegistry registry;
  monitor.publish(registry);
  EXPECT_EQ(registry.counter_value("slo.breaches"), 1);
}

// The ISSUE acceptance criterion: breach decisions must agree with the
// post-hoc per-request attribution — every flagged miss-burn window
// contains at least the rule's min_misses classified misses.
TEST(Slo, BreachEpisodesAgreeWithMissAttribution) {
  const std::vector<Request> schedule = tight_traffic(12.0, 1);
  Server server = make_paper_server(9'000.0, {4, 30.0});
  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler sampler;
  SloMonitor monitor(SloMonitor::default_rules());
  server.set_trace(&trace);
  server.set_telemetry(&sampler);
  server.set_slo(&monitor);
  const ServerStats stats = server.serve(schedule);
  ASSERT_GT(stats.deadline_misses, 0);
  ASSERT_GT(monitor.breaches(), 0);  // the tight traffic must page

  const SloRule* burn = nullptr;
  for (const SloRule& rule : monitor.rules()) {
    if (rule.kind == SloRuleKind::kMissBurn) {
      burn = &rule;
    }
  }
  ASSERT_NE(burn, nullptr);
  std::int64_t burn_episodes = 0;
  for (const SloEpisode& ep : monitor.episodes()) {
    if (ep.rule != burn->name) {
      continue;
    }
    ++burn_episodes;
    EXPECT_GE(ep.trigger_misses, burn->min_misses);
    // Post-hoc check against the trace: the classified "miss" instants
    // inside [start - short_window, start] must cover the floor.
    std::int64_t misses_in_window = 0;
    for (const TraceEvent& e : trace.merged()) {
      if (e.name == "miss" && e.ts_ms >= ep.start_ms - burn->short_window_ms &&
          e.ts_ms <= ep.start_ms) {
        ++misses_in_window;
      }
    }
    EXPECT_GE(misses_in_window, burn->min_misses)
        << "episode at " << ep.start_ms;
  }
  EXPECT_GT(burn_episodes, 0);
}

// ---------------------------------------------------------------------
// TraceRecorder event cap

TEST(Trace, MaxEventsCapDropsAndCounts) {
  TraceConfig cfg;
  cfg.max_events = 5;
  TraceRecorder trace(cfg);
  for (int i = 0; i < 8; ++i) {
    TraceEvent ev("tick", "test", static_cast<double>(i), 0);
    ev.ph = 'i';
    trace.record(std::move(ev));
  }
  EXPECT_EQ(trace.num_events(), 5);
  EXPECT_EQ(trace.dropped_events(), 3);
  EXPECT_EQ(trace.max_events(), 5);
  const std::string json = trace.to_chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  // The footer surfaces the drop count for tooling.
  EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"max_events\": 5"), std::string::npos);
}

TEST(Trace, ZeroMaxEventsMeansUnlimited) {
  TraceRecorder trace(/*record_wall=*/false);
  for (int i = 0; i < 100; ++i) {
    TraceEvent ev("tick", "test", static_cast<double>(i), 0);
    ev.ph = 'i';
    trace.record(std::move(ev));
  }
  EXPECT_EQ(trace.num_events(), 100);
  EXPECT_EQ(trace.dropped_events(), 0);
  EXPECT_NE(trace.to_chrome_json().find("\"dropped_events\": 0"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Prometheus text exposition

TEST(Prometheus, SanitizesNamesAndEscapesLabelValues) {
  MetricsRegistry registry;
  MetricLabels labels;
  labels.add("path", "a\\b\"c\nd");  // every escape class at once
  registry.counter("serve.completed", labels).inc(7);
  registry.gauge("battery.fraction").set(0.25);
  const std::string text = registry.to_prometheus();
  // Dots sanitize to underscores; the family gets one TYPE line.
  EXPECT_NE(text.find("# TYPE serve_completed counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE battery_fraction gauge"), std::string::npos);
  // Label values escape backslash, quote, and newline per the 0.0.4
  // text-exposition rules.
  EXPECT_NE(text.find("serve_completed{path=\"a\\\\b\\\"c\\nd\"} 7"),
            std::string::npos);
  EXPECT_EQ(text.find("serve.completed"), std::string::npos);
}

TEST(Prometheus, HistogramRendersCumulativeBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("serve.latency_ms");
  h = Histogram(/*lo=*/1.0, /*num_buckets=*/3);  // edges 1, 2, 4, 8
  h.observe(0.5);  // underflow
  h.observe(1.5);  // [1, 2)
  h.observe(3.0);  // [2, 4)
  h.observe(9.0);  // overflow
  const std::string text = registry.to_prometheus();
  EXPECT_NE(text.find("# TYPE serve_latency_ms histogram"),
            std::string::npos);
  // Cumulative counts at the upper edges: le="1" holds the underflow
  // rail, each next bucket adds its own count.
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"4\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_bucket{le=\"+Inf\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("serve_latency_ms_count 4"), std::string::npos);
}

// ---------------------------------------------------------------------
// Histogram bucket boundaries (log2 buckets, lo = 1): 0 is underflow,
// exact powers of two open their own bucket, the top rail saturates.

TEST(Metrics, HistogramBucketBoundariesAtPowersOfTwo) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);  // buckets [1,2) [2,4) [4,8) [8,16)
  EXPECT_DOUBLE_EQ(h.lo(), 1.0);
  h.observe(0.0);   // below lo: underflow rail
  h.observe(1.0);   // exactly lo: first bucket, not underflow
  h.observe(2.0);   // exact power of two: lower-inclusive -> [2, 4)
  h.observe(4.0);   // -> [4, 8)
  h.observe(8.0);   // -> [8, 16)
  h.observe(16.0);  // exactly the top edge: overflow rail
  const std::vector<std::int64_t>& buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 6U);
  EXPECT_EQ(buckets[0], 1);  // underflow: 0.0
  EXPECT_EQ(buckets[1], 1);  // 1.0
  EXPECT_EQ(buckets[2], 1);  // 2.0
  EXPECT_EQ(buckets[3], 1);  // 4.0
  EXPECT_EQ(buckets[4], 1);  // 8.0
  EXPECT_EQ(buckets[5], 1);  // overflow: 16.0
  EXPECT_EQ(h.count(), 6);
}

TEST(Metrics, HistogramTopBucketSaturates) {
  Histogram h(/*lo=*/1.0, /*num_buckets=*/4);
  h.observe(16.0);
  h.observe(1e18);  // astronomically large still lands in the top rail
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.buckets().back(), 3);
  EXPECT_EQ(h.count(), 3);
}

// ---------------------------------------------------------------------
// JsonWriter: the one number/string writer behind every obs export

std::string printf_17g(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

std::string writer_number(double x) {
  std::string out;
  JsonWriter(out).number(x);
  return out;
}

TEST(JsonWriter, NumberMatchesPrintf17gOnEdgeValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> edges = {
      0.0,    -0.0,     5e-324,  -5e-324, DBL_MIN, DBL_MAX, -DBL_MAX,
      1e21,   1e-7,     0.1,     1.0,     -1.0,    42.0,    123456789.0,
      1e17,   9007199254740993.0, 1e-5, 1e16, 0.30000000000000004,
      inf,    -inf};
  for (const double x : edges) {
    EXPECT_EQ(writer_number(x), printf_17g(x)) << "value " << printf_17g(x);
    EXPECT_EQ(trace_json_num(x), printf_17g(x));
  }
  EXPECT_EQ(writer_number(-0.0), "-0");
  EXPECT_EQ(writer_number(0.1), "0.10000000000000001");
  EXPECT_EQ(writer_number(inf), "inf");
}

TEST(JsonWriter, NumberMatchesPrintf17gOnRandomBitPatterns) {
  Rng rng(20211205);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    if (x != x) continue;  // NaN payload/sign rendering is not pinned
    ASSERT_EQ(writer_number(x), printf_17g(x)) << "bits " << bits;
  }
}

TEST(JsonWriter, IntegersAndEscapes) {
  std::string out;
  JsonWriter w(out);
  w.integer(0).raw(' ').integer(-42).raw(' ').integer(
      std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(out, "0 -42 -9223372036854775808");

  const std::string nasty = "a\"b\\c\nd\te";
  out.clear();
  w.escaped(nasty);
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(out, trace_json_escape(nasty));
  out.clear();
  w.string("plain");
  EXPECT_EQ(out, "\"plain\"");
  EXPECT_EQ(trace_json_escape(""), "");
}

// ---------------------------------------------------------------------
// Pinned dumps: the trace, telemetry and SLO exports of one seeded
// 3-model node session, fixed by FNV-1a hash and byte length.  Any change
// to the exporters' bytes (number format, escaping, event order, series
// order) breaks these.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(ObsDumps, SeededNodeSessionBytesArePinned) {
  ServeSessionConfig cfg;
  cfg.scheduler.policy = SchedulingPolicy::kEdfPriority;
  cfg.shed_expired = true;
  cfg.admit_feasible = true;
  cfg.governor_margin = 0.05;
  // Sized so the battery walks the ladder and dies near the end: the
  // dumps carry switches, sheds, misses, SLO episodes and battery.dead.
  cfg.battery_capacity_mj = 5e4;
  NodeSession session(cfg, 3);
  TrafficConfig t;
  t.scenario = TrafficScenario::kBurst;
  t.rate_rps = 5.0;
  t.duration_ms = 300'000.0;
  t.deadline_slack_ms = 1'000.0;
  t.tight_fraction = 0.3;
  t.tight_slack_ms = 350.0;
  t.seed = 14;
  t.priority_classes = 3;
  t.num_models = 3;
  TraceRecorder trace(/*record_wall=*/false);
  TelemetrySampler telemetry;
  SloMonitor slo(SloMonitor::default_rules());
  session.node().set_trace(&trace);
  session.node().set_telemetry(&telemetry);
  session.node().set_slo(&slo);
  const NodeStats stats = session.node().serve(generate_traffic(t));
  ASSERT_GT(stats.shed, 0);
  ASSERT_GT(stats.dropped, 0);
  ASSERT_GT(stats.switches, 0);
  ASSERT_GT(slo.breaches(), 0);
  telemetry.export_counters(trace);

  const std::string trace_json = trace.to_chrome_json();
  const std::string telemetry_json = telemetry.to_json();
  const std::string slo_json = slo.to_json();
  EXPECT_EQ(trace.num_events(), 13191);
  EXPECT_EQ(trace_json.size(), 2080773U);
  EXPECT_EQ(fnv1a(trace_json), 0x94662f24a06a679bULL);
  EXPECT_EQ(telemetry_json.size(), 221293U);
  EXPECT_EQ(fnv1a(telemetry_json), 0xda8ce92bc572a483ULL);
  EXPECT_EQ(slo_json.size(), 1300U);
  EXPECT_EQ(fnv1a(slo_json), 0x8f2686e1da4307f3ULL);
  // merged() (the copying view tests use) agrees with the export order.
  const std::vector<TraceEvent> merged = trace.merged();
  ASSERT_EQ(static_cast<std::int64_t>(merged.size()), trace.num_events());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    ASSERT_LE(merged[i - 1].ts_ms, merged[i].ts_ms);
  }
}

// The per-thread buffer cache holds one recorder at a time: a thread
// alternating between live recorders re-finds its own buffer in each, so
// every recorder keeps exactly its own events, in append order (equal
// sort keys leave only the per-thread sequence to order them).
TEST(Trace, AlternatingRecordersOnOneThreadKeepTheirOwnEvents) {
  TraceRecorder a(/*record_wall=*/false);
  TraceRecorder b(/*record_wall=*/false);
  constexpr std::int64_t kEvents = 300;
  for (std::int64_t i = 0; i < kEvents; ++i) {
    a.record(TraceEvent("a", "t", 0.0, 0).arg("i", i));
    b.record(TraceEvent("b", "t", 0.0, 0).arg("i", i));
    if (i % 3 == 0) {
      b.record(TraceEvent("b", "t", 0.0, 0).arg("i", i));  // uneven mix
    }
  }
  const auto check_own = [](const TraceRecorder& rec, const char* name,
                            std::int64_t expected) {
    const std::vector<TraceEvent> events = rec.merged();
    ASSERT_EQ(static_cast<std::int64_t>(events.size()), expected);
    std::int64_t last = -1;
    for (const TraceEvent& ev : events) {
      EXPECT_EQ(ev.name, name);
      EXPECT_GE(ev.args[0].i, last);
      last = ev.args[0].i;
    }
  };
  check_own(a, "a", kEvents);
  check_own(b, "b", kEvents + kEvents / 3);
  {
    // A recorder created after another died never sees its events, even
    // at a recycled address.
    TraceRecorder c(/*record_wall=*/false);
    c.record(TraceEvent("c", "t", 0.0, 0).arg("i", std::int64_t{0}));
    check_own(c, "c", 1);
  }
  TraceRecorder d(/*record_wall=*/false);
  EXPECT_EQ(d.num_events(), 0);
  d.record(TraceEvent("d", "t", 0.0, 0).arg("i", std::int64_t{0}));
  check_own(d, "d", 1);
  check_own(a, "a", kEvents);
}

TEST(Trace, TypedArgsRenderAtExport) {
  TraceRecorder trace(/*record_wall=*/false);
  TraceEvent ev("e", "c", 1.5, 2);
  ev.id = 9;
  const std::string rule = "r\"1";
  ev.arg("d", 0.1).arg("i", std::int64_t{-3}).arg("s", rule).arg("t",
                                                                  "x\ty");
  trace.record(std::move(ev));
  const std::string json = trace.to_chrome_json();
  EXPECT_NE(json.find("\"ts\": 1500, \"pid\": 1, \"tid\": 2, \"s\": \"t\", "
                      "\"args\": {\"id\": 9, \"d\": 0.10000000000000001, "
                      "\"i\": -3, \"s\": \"r\\\"1\", \"t\": \"x\\ty\"}}"),
            std::string::npos)
      << json;
  EXPECT_TRUE(JsonChecker(json).valid());
}

TEST(Trace, ArgCapacityIsChecked) {
  TraceEvent ev("e", "c", 0.0, 0);
  for (std::size_t k = 0; k < TraceEvent::kMaxArgs; ++k) {
    ev.arg("k", std::int64_t{1});
  }
  EXPECT_THROW(ev.arg("k", std::int64_t{1}), CheckError);
}

}  // namespace
}  // namespace rt3
