#include "obs/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/json_writer.hpp"

namespace rt3 {

MetricLabels::MetricLabels(
    std::initializer_list<std::pair<std::string, std::string>> kv) {
  for (const auto& [key, value] : kv) {
    add(key, value);
  }
}

MetricLabels& MetricLabels::add(const std::string& key,
                                const std::string& value) {
  kv_.emplace_back(key, value);
  std::sort(kv_.begin(), kv_.end());
  return *this;
}

MetricLabels& MetricLabels::add(const std::string& key, std::int64_t value) {
  return add(key, std::to_string(value));
}

std::string MetricLabels::suffix() const {
  if (kv_.empty()) {
    return "";
  }
  std::string out = "{";
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    out += (i ? "," : "") + kv_[i].first + "=\"";
    // Prometheus exposition escaping; a no-op for ordinary values, and
    // it keeps `"` / `\` / newline inside a value from corrupting the
    // key (the suffix IS the metric identity).
    for (const char c : kv_[i].second) {
      switch (c) {
        case '\\':
          out += "\\\\";
          break;
        case '"':
          out += "\\\"";
          break;
        case '\n':
          out += "\\n";
          break;
        default:
          out += c;
      }
    }
    out += "\"";
  }
  return out + "}";
}

Histogram::Histogram(double lo, std::int64_t num_buckets) : lo_(lo) {
  check(lo > 0.0, "Histogram: lo must be positive");
  check(num_buckets >= 1, "Histogram: need at least one bucket");
  buckets_.assign(static_cast<std::size_t>(num_buckets) + 2, 0);
}

void Histogram::observe(double x) {
  ++count_;
  sum_ += x;
  if (x < lo_) {
    ++buckets_.front();
    return;
  }
  // Doubling edges: bucket i covers [lo * 2^i, lo * 2^(i+1)).  The loop
  // (vs log2) keeps the edge comparison in plain double arithmetic, so
  // boundary values land deterministically on every platform.
  double edge = lo_;
  for (std::size_t i = 1; i + 1 < buckets_.size(); ++i) {
    if (x < edge * 2.0) {
      ++buckets_[i];
      return;
    }
    edge *= 2.0;
  }
  ++buckets_.back();
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::bucket_lo(std::int64_t i) const {
  check(i >= 0 && static_cast<std::size_t>(i) < buckets_.size(),
        "Histogram: bucket index out of range");
  if (i == 0) {
    return 0.0;
  }
  double edge = lo_;
  for (std::int64_t k = 1; k < i; ++k) {
    edge *= 2.0;
  }
  return edge;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const MetricLabels& labels) {
  return counters_[name + labels.suffix()];
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const MetricLabels& labels) {
  return gauges_[name + labels.suffix()];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const MetricLabels& labels, double lo,
                                      std::int64_t num_buckets) {
  const std::string key = name + labels.suffix();
  const auto it = histograms_.find(key);
  if (it != histograms_.end()) {
    return it->second;
  }
  return histograms_.emplace(key, Histogram(lo, num_buckets)).first->second;
}

std::int64_t MetricsRegistry::counter_value(
    const std::string& name, const MetricLabels& labels) const {
  const auto it = counters_.find(name + labels.suffix());
  return it == counters_.end() ? 0 : it->second.value();
}

std::int64_t MetricsRegistry::size() const {
  return static_cast<std::int64_t>(counters_.size() + gauges_.size() +
                                   histograms_.size());
}

std::string MetricsRegistry::to_json() const {
  std::string out;
  JsonWriter w(out);
  // Metric names embed label suffixes like {model="1"}, so keys MUST be
  // escaped to stay valid JSON.
  w.raw("{\"counters\": {");
  const char* sep = "";
  for (const auto& [name, c] : counters_) {
    w.raw(sep).string(name).raw(": ").integer(c.value());
    sep = ", ";
  }
  w.raw("}, \"gauges\": {");
  sep = "";
  for (const auto& [name, g] : gauges_) {
    w.raw(sep).string(name).raw(": ").number(g.value());
    sep = ", ";
  }
  w.raw("}, \"histograms\": {");
  sep = "";
  for (const auto& [name, h] : histograms_) {
    w.raw(sep).string(name).raw(": {\"count\": ").integer(h.count());
    w.raw(", \"sum\": ").number(h.sum()).raw(", \"buckets\": [");
    const char* comma = "";
    for (const std::int64_t b : h.buckets()) {
      w.raw(comma).integer(b);
      comma = ", ";
    }
    w.raw("]}");
    sep = ", ";
  }
  w.raw("}}");
  return out;
}

namespace {

/// Sanitizes a metric name to the Prometheus charset [a-zA-Z0-9_:]
/// (dots become underscores; a leading digit gets a '_' prefix).
std::string prom_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Splits a stored registry key into base name and `{...}` label suffix.
void split_key(const std::string& key, std::string* name,
               std::string* labels) {
  const std::size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *name = key;
    labels->clear();
  } else {
    *name = key.substr(0, brace);
    *labels = key.substr(brace);
  }
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::string out;
  JsonWriter w(out);
  // Map keys sort a bare name directly before its labeled variants
  // ('{' > every name character we emit), so one pass emits each
  // family's TYPE line exactly once, before its samples.
  std::string family;
  std::string name;
  std::string labels;
  // Splits `key` into the sanitized family name and its label suffix,
  // writing the TYPE line when a new family starts.
  const auto begin_sample = [&](const std::string& key, const char* type) {
    split_key(key, &name, &labels);
    const std::string pname = prom_name(name);
    if (pname != family) {
      w.raw("# TYPE ").raw(pname).raw(' ').raw(type).raw('\n');
      family = pname;
    }
  };
  for (const auto& [key, c] : counters_) {
    begin_sample(key, "counter");
    w.raw(family).raw(labels).raw(' ').integer(c.value()).raw('\n');
  }
  family.clear();
  for (const auto& [key, g] : gauges_) {
    begin_sample(key, "gauge");
    w.raw(family).raw(labels).raw(' ').number(g.value()).raw('\n');
  }
  family.clear();
  for (const auto& [key, h] : histograms_) {
    begin_sample(key, "histogram");
    // `le` joins the label suffix: {le="x"} or {k="v",le="x"}.
    std::string le_open = labels.empty() ? "{" : labels;
    if (!labels.empty()) le_open.back() = ',';
    le_open += "le=\"";
    const auto& buckets = h.buckets();
    std::int64_t cum = 0;
    // Bucket i (underflow = 0 .. last finite = n) has upper edge
    // bucket_lo(i + 1); the overflow bucket folds into +Inf.
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      w.raw(family).raw("_bucket").raw(le_open);
      if (i + 1 < buckets.size()) {
        w.number(h.bucket_lo(static_cast<std::int64_t>(i) + 1));
      } else {
        w.raw("+Inf");
      }
      w.raw("\"} ").integer(cum).raw('\n');
    }
    w.raw(family).raw("_sum").raw(labels).raw(' ').number(h.sum()).raw('\n');
    w.raw(family).raw("_count").raw(labels).raw(' ').integer(h.count());
    w.raw('\n');
  }
  return out;
}

}  // namespace rt3
