// In-memory span recorder for the traced run.  Spans are recorded from
// the benchmark's own files around each call into a library layer: a
// name, host-wall start/end, the span that caused it, and the batch it
// belongs to (spans of one batch share that id).  Nothing is written
// until the run ends, when the spans go out as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace servebench {

/// The layers spans are attributed to, by longest dotted-prefix match of
/// the span name ("serve.loop.batch" -> "serve.loop").  serve.router and
/// dvfs work happens inside serve() and has no span of its own; "bench"
/// is the benchmark's own checking.
const std::vector<std::string>& layer_names();
/// Layer of a span name ("" when it matches none).
std::string layer_of(const std::string& span_name);

/// When a span ran: inside the repeated set-up, once per run, or inside
/// the repeated timed phase.
enum class Phase { kSetup, kOnce, kTimed };

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Index of the causing span, -1 for a root.
  std::int64_t parent = -1;
  /// Batch id shared by every span of one batch, -1 outside batches.
  std::int64_t batch = -1;
  /// Set-up and timed spans are reported per repetition of their phase.
  Phase phase = Phase::kSetup;
};

class SpanRecorder {
 public:
  SpanRecorder() : t0_(std::chrono::steady_clock::now()) {}

  /// Host wall microseconds since the recorder was created.
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

  /// The phase subsequent spans belong to.
  void set_phase(Phase phase) { phase_ = phase; }
  /// Number of repetitions the set-up / timed-phase spans cover.
  void set_setup_reps(std::int64_t reps) { setup_reps_ = reps; }
  void set_timed_reps(std::int64_t reps) { timed_reps_ = reps; }

  /// Records a finished span; returns its index.
  std::int64_t add(std::string name, double start_us, double end_us,
                   std::int64_t parent = -1, std::int64_t batch = -1);
  void set_end(std::int64_t span, double end_us);
  /// A fresh batch id, unique within this recorder.
  std::int64_t new_batch_id() { return next_batch_id_++; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span: its duration minus the part its children
  /// cover (children are assumed nested and disjoint).
  std::vector<double> self_us() const;

  /// Self time per layer in ms per run: set-up and timed spans divided by
  /// their phase's repetitions, once-per-run spans as they are.  Every
  /// layer of layer_names() is present.
  std::map<std::string, double> self_ms_by_layer() const;

  std::string to_chrome_json() const;
  /// Writes to_chrome_json() to `path`, creating its directory.
  void write_chrome_json(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  Phase phase_ = Phase::kSetup;
  std::int64_t setup_reps_ = 1;
  std::int64_t timed_reps_ = 1;
  std::int64_t next_batch_id_ = 0;
};

/// Runs `f`, recording it as a span when `rec` is non-null; returns f's
/// result.
template <typename F>
auto with_span(SpanRecorder* rec, const char* name, std::int64_t parent,
               F&& f) {
  if (rec == nullptr) {
    return f();
  }
  const double t0 = rec->now_us();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    rec->add(name, t0, rec->now_us(), parent);
  } else {
    auto result = f();
    rec->add(name, t0, rec->now_us(), parent);
    return result;
  }
}

}  // namespace servebench
