// Output checks the benchmark runs on every session it times.  A
// violation is recorded, the run's result reads "correct": false, and the
// process exits non-zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exec/measured_backend.hpp"
#include "serve/node.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace servebench {

/// Collects check violations.
class Checker {
 public:
  void expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

/// One shard's accounting: submitted = completed + dropped + shed +
/// rejected; miss_queued + miss_switch + miss_exec = deadline_misses; and
/// per request latency = queue + batch + stall + exec.
void check_server_stats(Checker& c, const rt3::ServerStats& s,
                        const std::string& label);

/// Every shard as above, plus the node totals including unroutable
/// requests against the schedule size.
void check_node_stats(Checker& c, const rt3::NodeStats& s,
                      std::int64_t schedule_size);

/// Energy ledger: used = capacity - remaining.  When the battery died the
/// loop drains the charge it could not spend to 0 without booking it, so
/// then 0 <= capacity - used < `max_refused_mj` (the largest single draw
/// the loop can refuse).
void check_energy(Checker& c, double used_mj, const rt3::Battery& battery,
                  double max_refused_mj, const std::string& label);

/// Largest single draw `server` can attempt: a switch or a full batch at
/// any level (analytic batch latency).
double max_draw_mj(const rt3::Server& server);

/// Hash of every device-clock field of a session (counts, virtual times,
/// energy, per-request series); host-wall fields are left out.  Equal
/// strings mean bit-identical device results.
std::string device_fingerprint(const rt3::ServerStats& s);
std::string device_fingerprint(const rt3::NodeStats& s);

/// For every (layer, level) plan of `backend`, the active-plan output of
/// run_layer must be bitwise equal to naive_dense_matmul(dense_equivalent(),
/// x) on a seeded activation.  Leaves level 0 active.
void check_plans_bitwise(Checker& c, rt3::MeasuredBackend& backend,
                         std::uint64_t seed);

}  // namespace servebench
