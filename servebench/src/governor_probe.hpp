// Forwarding GovernorPolicy that times each decide() call of the policy it
// wraps.  Used in the traced run only: every other hook forwards
// unchanged, so a session under it is device-identical to one under the
// wrapped policy.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "serve/governor_policy.hpp"

namespace servebench {

class TimedGovernor final : public rt3::GovernorPolicy {
 public:
  /// Returns the host-wall clock in microseconds.
  using Clock = std::function<double()>;
  /// Receives each decide() call's start/end on that clock.
  using Sink = std::function<void(double, double)>;

  TimedGovernor(std::shared_ptr<rt3::GovernorPolicy> inner, Clock clock,
                Sink sink)
      : GovernorPolicy(inner->ladder()),
        inner_(std::move(inner)),
        clock_(std::move(clock)),
        sink_(std::move(sink)) {}

  std::string name() const override { return inner_->name(); }
  std::int64_t decide(const rt3::GovernorObservation& obs) override {
    const double t0 = clock_();
    const std::int64_t pos = inner_->decide(obs);
    sink_(t0, clock_());
    return pos;
  }
  double shrink_margin(double configured_margin) const override {
    return inner_->shrink_margin(configured_margin);
  }
  void observe_batch(const rt3::BatchFeedback& feedback) override {
    inner_->observe_batch(feedback);
  }
  double drain_lag_ms(std::int64_t active_pos, double frac_before,
                      double frac_after, double lat_ms) const override {
    return inner_->drain_lag_ms(active_pos, frac_before, frac_after, lat_ms);
  }
  void reset() override { inner_->reset(); }

 private:
  std::shared_ptr<rt3::GovernorPolicy> inner_;
  Clock clock_;
  Sink sink_;
};

}  // namespace servebench
