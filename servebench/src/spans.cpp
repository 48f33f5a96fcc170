#include "spans.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace servebench {

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names = {
      "serve.traffic", "serve.session", "serve.loop", "governor",
      "runtime",       "exec",          "obs",        "bench"};
  return names;
}

std::string layer_of(const std::string& span_name) {
  std::string best;
  for (const std::string& layer : layer_names()) {
    const bool match =
        span_name == layer ||
        (span_name.size() > layer.size() &&
         span_name.compare(0, layer.size(), layer) == 0 &&
         span_name[layer.size()] == '.');
    if (match && layer.size() > best.size()) {
      best = layer;
    }
  }
  return best;
}

std::int64_t SpanRecorder::add(std::string name, double start_us,
                               double end_us, std::int64_t parent,
                               std::int64_t batch) {
  Span s;
  s.name = std::move(name);
  s.start_us = start_us;
  s.end_us = end_us;
  s.parent = parent;
  s.batch = batch;
  s.phase = phase_;
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::set_end(std::int64_t span, double end_us) {
  spans_.at(static_cast<std::size_t>(span)).end_us = end_us;
}

std::vector<double> SpanRecorder::self_us() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_us - spans_[i].start_us;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
    }
  }
  return self;
}

std::map<std::string, double> SpanRecorder::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const std::string& layer : layer_names()) {
    out[layer] = 0.0;
  }
  const std::vector<double> self = self_us();
  const double setup_reps =
      static_cast<double>(setup_reps_ > 0 ? setup_reps_ : 1);
  const double reps = static_cast<double>(timed_reps_ > 0 ? timed_reps_ : 1);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string layer = layer_of(spans_[i].name);
    if (layer.empty()) {
      continue;
    }
    const double divisor = spans_[i].phase == Phase::kSetup   ? setup_reps
                           : spans_[i].phase == Phase::kTimed ? reps
                                                              : 1.0;
    out[layer] += self[i] / 1000.0 / divisor;
  }
  return out;
}

std::string SpanRecorder::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.17g, \"dur\": %.17g, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"span\": %zu, \"parent\": %lld, "
                  "\"batch\": %lld, \"phase\": \"%s\"}}%s\n",
                  s.name.c_str(), layer_of(s.name).c_str(), s.start_us,
                  s.end_us - s.start_us, i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.batch),
                  s.phase == Phase::kSetup  ? "setup"
                  : s.phase == Phase::kOnce ? "once"
                                            : "timed",
                  i + 1 < spans_.size() ? "," : "");
    out += buf;
  }
  out += "]}\n";
  return out;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path);
  out << to_chrome_json();
  if (!out.good()) {
    throw std::runtime_error("cannot write span trace: " + path);
  }
}

}  // namespace servebench
