#include "obs/timeseries.hpp"

#include <utility>

#include "obs/json_writer.hpp"
#include "obs/trace.hpp"

namespace rt3 {

TimeSeries::TimeSeries(std::int64_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {
  t_.reserve(static_cast<std::size_t>(capacity_));
  v_.reserve(static_cast<std::size_t>(capacity_));
}

void TimeSeries::record(double t_ms, double value) {
  const std::int64_t i = offered_++;
  last_value_ = value;
  if (i % stride_ != 0) return;
  if (static_cast<std::int64_t>(t_.size()) == capacity_) {
    // Compact: keep even stored indices (offered indices 0, 2s, 4s, ...)
    // and double the stride.
    std::size_t w = 0;
    for (std::size_t r = 0; r < t_.size(); r += 2, ++w) {
      t_[w] = t_[r];
      v_[w] = v_[r];
    }
    t_.resize(w);
    v_.resize(w);
    stride_ *= 2;
    if (i % stride_ != 0) return;  // no longer on the widened stride
  }
  t_.push_back(t_ms);
  v_.push_back(value);
}

TelemetrySampler::TelemetrySampler(TelemetryConfig config)
    : config_(config) {
  if (config_.sample_every_batches < 1) config_.sample_every_batches = 1;
  if (config_.series_capacity < 2) config_.series_capacity = 2;
  if (config_.ewma_alpha <= 0.0 || config_.ewma_alpha > 1.0) {
    config_.ewma_alpha = 0.2;
  }
}

TimeSeries& TelemetrySampler::series_for(const std::string& name,
                                         std::int64_t lane) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(std::piecewise_construct, std::forward_as_tuple(name),
                      std::forward_as_tuple(config_.series_capacity, lane))
             .first;
  }
  return it->second.ts;
}

void TelemetrySampler::on_batch(const BatchSample& sample) {
  const double alpha = config_.ewma_alpha;
  const double n = sample.batch_size > 0
                       ? static_cast<double>(sample.batch_size)
                       : 1.0;
  const double miss_frac = static_cast<double>(sample.misses) / n;
  const double mean_latency = sample.latency_sum_ms / n;
  ModelLane& m = lanes_[sample.model_id];
  if (!m.seen) {
    m.seen = true;
    m.miss_ewma = miss_frac;
    m.latency_ewma_ms = mean_latency;
  } else {
    m.miss_ewma += alpha * (miss_frac - m.miss_ewma);
    m.latency_ewma_ms += alpha * (mean_latency - m.latency_ewma_ms);
  }

  const std::int64_t k = batches_++;
  now_ms_ = sample.end_ms;
  if (k % config_.sample_every_batches != 0) return;

  NodeSeries& node = node_series_;
  if (node.battery_fraction == nullptr) {
    node.battery_fraction = &series_for("node.battery_fraction", 0);
    node.level = &series_for("node.level", 0);
    node.queue_depth = &series_for("node.queue_depth", 0);
    node.unroutable = &series_for("node.unroutable", 0);
  }
  ModelSeries& ms = m.series;
  if (ms.queue_depth == nullptr) {
    const std::int64_t lane = sample.model_id + 1;
    std::string p = "m";
    p += std::to_string(sample.model_id);
    ms.queue_depth = &series_for(p + ".queue_depth", lane);
    ms.batch_size = &series_for(p + ".batch_size", lane);
    ms.energy_mj = &series_for(p + ".energy_mj", lane);
    ms.miss_ewma = &series_for(p + ".miss_ewma", lane);
    ms.latency_ewma_ms = &series_for(p + ".latency_ewma_ms", lane);
    ms.shed = &series_for(p + ".shed", lane);
    ms.rejected = &series_for(p + ".rejected", lane);
  }
  const double t = sample.end_ms;
  node.battery_fraction->record(t, sample.battery_fraction);
  node.level->record(t, static_cast<double>(sample.level_pos));
  node.queue_depth->record(t, static_cast<double>(sample.node_queue_depth));
  node.unroutable->record(t, static_cast<double>(unroutable_));
  ms.queue_depth->record(t, static_cast<double>(sample.queue_depth));
  ms.batch_size->record(t, static_cast<double>(sample.batch_size));
  ms.energy_mj->record(t, sample.energy_mj);
  ms.miss_ewma->record(t, m.miss_ewma);
  ms.latency_ewma_ms->record(t, m.latency_ewma_ms);
  ms.shed->record(t, static_cast<double>(m.shed));
  ms.rejected->record(t, static_cast<double>(m.rejected));
}

void TelemetrySampler::count_shed(std::int64_t model_id, std::int64_t n) {
  lanes_[model_id].shed += n;
}

void TelemetrySampler::count_reject(std::int64_t model_id, std::int64_t n) {
  lanes_[model_id].rejected += n;
}

void TelemetrySampler::count_unroutable(std::int64_t n) {
  unroutable_ += n;
}

void TelemetrySampler::record_switch(double duration_ms) {
  series_for("node.switch_ms", 0).record(now_ms_, duration_ms);
}

void TelemetrySampler::record_swap_bytes(double bytes) {
  series_for("node.swap_bytes", 0).record(now_ms_, bytes);
}

double TelemetrySampler::miss_ewma(std::int64_t model_id) const {
  auto it = lanes_.find(model_id);
  return it == lanes_.end() ? 0.0 : it->second.miss_ewma;
}

double TelemetrySampler::latency_ewma_ms(std::int64_t model_id) const {
  auto it = lanes_.find(model_id);
  return it == lanes_.end() ? 0.0 : it->second.latency_ewma_ms;
}

std::int64_t TelemetrySampler::num_points() const {
  std::int64_t total = 0;
  for (const auto& [name, entry] : series_) total += entry.ts.size();
  return total;
}

const TimeSeries* TelemetrySampler::series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second.ts;
}

void TelemetrySampler::export_counters(TraceRecorder& trace) const {
  for (const auto& [name, entry] : series_) {
    const TimeSeries& ts = entry.ts;
    for (std::int64_t i = 0; i < ts.size(); ++i) {
      TraceEvent ev(name, "telemetry",
                    ts.times()[static_cast<std::size_t>(i)], entry.lane);
      ev.ph = 'C';
      ev.arg("value", ts.values()[static_cast<std::size_t>(i)]);
      trace.record(std::move(ev));
    }
  }
}

std::string TelemetrySampler::to_json() const {
  std::string out;
  out.reserve(256 + static_cast<std::size_t>(num_points()) * 48);
  JsonWriter w(out);
  const auto write_array = [&w](const std::vector<double>& xs) {
    const char* comma = "";
    for (const double x : xs) {
      w.raw(comma).number(x);
      comma = ", ";
    }
  };
  w.raw("{\"sample_every\": ").integer(config_.sample_every_batches);
  w.raw(", \"capacity\": ").integer(config_.series_capacity);
  w.raw(", \"batches\": ").integer(batches_).raw(", \"series\": {");
  const char* sep = "";
  for (const auto& [name, entry] : series_) {
    const TimeSeries& ts = entry.ts;
    w.raw(sep).string(name).raw(": {\"lane\": ").integer(entry.lane);
    w.raw(", \"stride\": ").integer(ts.stride());
    w.raw(", \"offered\": ").integer(ts.offered());
    w.raw(", \"t\": [");
    write_array(ts.times());
    w.raw("], \"v\": [");
    write_array(ts.values());
    w.raw("]}");
    sep = ", ";
  }
  w.raw("}}");
  return out;
}

}  // namespace rt3
