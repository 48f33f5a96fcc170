#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/rng.hpp"
#include "exec/kernels.hpp"

namespace servebench {
namespace {

/// FNV-1a over raw bytes: bit-exact, so any device difference shows.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  template <typename T>
  void vec(const std::vector<T>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

void hash_stats(Fnv& h, const rt3::ServerStats& s) {
  for (std::int64_t v :
       {s.submitted, s.completed, s.dropped, s.shed, s.rejected, s.batches,
        s.switches, s.deadline_misses, s.miss_queued, s.miss_switch,
        s.miss_exec}) {
    h.i64(v);
  }
  h.str(s.backend);
  h.str(s.policy);
  for (double v : {s.sim_end_ms, s.busy_ms, s.switch_ms_total,
                   s.energy_used_mj}) {
    h.f64(v);
  }
  h.vec(s.switch_ms);
  h.vec(s.switch_lag_ms);
  h.vec(s.latency_ms);
  h.vec(s.queue_wait_ms);
  h.vec(s.batch_wait_ms);
  h.vec(s.switch_stall_req_ms);
  h.vec(s.exec_req_ms);
  h.vec(s.runs_per_level);
  h.vec(s.batch_sizes);
  h.vec(s.completed_per_class);
  h.vec(s.misses_per_class);
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

}  // namespace

void Checker::expect(bool ok, const std::string& what) {
  if (!ok) {
    failures_.push_back(what);
  }
}

void check_server_stats(Checker& c, const rt3::ServerStats& s,
                        const std::string& label) {
  c.expect(s.submitted == s.completed + s.dropped + s.shed + s.rejected,
           label + ": submitted != completed + dropped + shed + rejected");
  c.expect(s.miss_queued + s.miss_switch + s.miss_exec == s.deadline_misses,
           label + ": miss attribution does not sum to deadline_misses");
  const std::size_t n = s.latency_ms.size();
  c.expect(n == static_cast<std::size_t>(s.completed) &&
               s.queue_wait_ms.size() == n && s.batch_wait_ms.size() == n &&
               s.switch_stall_req_ms.size() == n && s.exec_req_ms.size() == n,
           label + ": per-request series length != completed");
  if (s.queue_wait_ms.size() != n || s.batch_wait_ms.size() != n ||
      s.switch_stall_req_ms.size() != n || s.exec_req_ms.size() != n) {
    return;
  }
  std::int64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double parts = s.queue_wait_ms[i] + s.batch_wait_ms[i] +
                         s.switch_stall_req_ms[i] + s.exec_req_ms[i];
    // The decomposition is exact up to FP rounding of four sums.
    if (std::abs(s.latency_ms[i] - parts) >
        1e-9 * std::max(1.0, std::abs(s.latency_ms[i]))) {
      ++bad;
    }
  }
  c.expect(bad == 0, label + ": " + std::to_string(bad) +
                         " request latencies != queue + batch + stall + exec");
}

void check_node_stats(Checker& c, const rt3::NodeStats& s,
                      std::int64_t schedule_size) {
  std::int64_t shard_submitted = 0;
  for (const auto& [id, shard] : s.per_model) {
    check_server_stats(c, shard, "model " + std::to_string(id));
    shard_submitted += shard.submitted;
  }
  c.expect(s.submitted == schedule_size &&
               shard_submitted + s.unroutable == schedule_size,
           "node: shards + unroutable != schedule size");
  c.expect(s.submitted == s.completed + s.dropped + s.shed + s.rejected +
                              s.unroutable,
           "node: submitted != completed + dropped + shed + rejected + "
           "unroutable");
  c.expect(s.miss_queued + s.miss_switch + s.miss_exec == s.deadline_misses,
           "node: miss attribution does not sum to deadline_misses");
}

void check_energy(Checker& c, double used_mj, const rt3::Battery& battery,
                  double max_refused_mj, const std::string& label) {
  const double unbooked = battery.capacity_mj() - battery.remaining_mj() -
                          used_mj;
  const double tol = 1e-9 * battery.capacity_mj();
  if (!battery.empty()) {
    c.expect(std::abs(unbooked) <= tol,
             label + ": energy used != capacity - remaining");
  } else {
    c.expect(unbooked >= -tol && unbooked < max_refused_mj + tol,
             label + ": dead battery left " + std::to_string(unbooked) +
                 " mJ unbooked, outside [0, largest refused draw)");
  }
}

double max_draw_mj(const rt3::Server& server) {
  double worst = server.config().switch_energy_mj;
  const std::vector<std::int64_t>& levels = server.governor().levels();
  for (std::size_t pos = 0; pos < levels.size(); ++pos) {
    const double lat = server.batch_latency_ms(
        server.config().batch.max_batch_size, static_cast<std::int64_t>(pos));
    worst = std::max(worst, server.power().energy_mj(
                                server.vf_table().level(levels[pos]), lat));
  }
  return worst;
}

std::string device_fingerprint(const rt3::ServerStats& s) {
  Fnv h;
  hash_stats(h, s);
  return std::to_string(s.submitted) + "/" + std::to_string(s.completed) +
         "/" + hex(h.value());
}

std::string device_fingerprint(const rt3::NodeStats& s) {
  Fnv h;
  h.i64(s.unroutable);
  h.f64(s.sim_end_ms);
  for (const auto& [id, shard] : s.per_model) {
    h.i64(id);
    hash_stats(h, shard);
  }
  return std::to_string(s.submitted) + "/" + std::to_string(s.completed) +
         "/" + hex(h.value());
}

void check_plans_bitwise(Checker& c, rt3::MeasuredBackend& backend,
                         std::uint64_t seed) {
  rt3::Rng rng(seed);
  const rt3::PlanCache& plans = backend.plans();
  for (std::int64_t level = 0; level < plans.num_levels(); ++level) {
    backend.activate_level(level);
    for (std::int64_t layer = 0; layer < plans.num_layers(); ++layer) {
      const rt3::LayerPlan& plan = plans.plan(layer, level);
      const rt3::Tensor x = rt3::Tensor::randn(
          {plan.cols, 2 * backend.config().cols_per_request}, rng);
      const rt3::Tensor got = backend.run_layer(layer, x);
      const rt3::Tensor want =
          rt3::naive_dense_matmul(plan.dense_equivalent(), x);
      c.expect(got.numel() == want.numel() &&
                   std::memcmp(got.data(), want.data(),
                               sizeof(float) *
                                   static_cast<std::size_t>(want.numel())) ==
                       0,
               "plan (layer " + std::to_string(layer) + ", level " +
                   std::to_string(level) +
                   ") run_layer output != naive_dense_matmul reference");
    }
  }
  backend.activate_level(0);
}

}  // namespace servebench
