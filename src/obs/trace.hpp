// Deterministic tracing for the serving stack: structured spans for every
// request's lifecycle (arrive, admit/reject, enqueue, batch-form, exec,
// complete/miss/shed/drop) and every governor action (step-down decision,
// drain-then-switch, plan swap), exported as Chrome trace-event JSON that
// loads directly in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Determinism contract: event timestamps come from the VIRTUAL serving
// clock (the driver loop publishes it via set_now_ms), so two runs of the
// same seeded session emit byte-identical traces.  Host wall-clock stamps
// are genuinely useful for kernel work but nondeterministic, so they are
// recorded only when `record_wall` is on (the CLI default; tests leave it
// off when they compare traces byte-for-byte).
//
// Threading: record() appends to a per-thread buffer (registered lazily,
// one mutex acquisition per thread lifetime, lock-free appends after
// that), and export merges all buffers in a canonical order keyed by
// (virtual ts, track, name, id) — so even events recorded from racing
// producer threads serialize identically run to run.
//
// Overhead contract: every instrumentation site in the serving path is
// guarded by a single `if (trace_ != nullptr)` branch — perfectly
// predicted when tracing is off — and the trace-off serving results are
// bitwise-identical to an uninstrumented build (proven by the
// observability cell in bench_serve_traffic).  With tracing on, record()
// stores typed args in chunked per-thread buffers (nothing is rendered
// until export), and export sorts a pointer index over those buffers
// rather than copying events.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/lockdep.hpp"
#include "common/thread_annotations.hpp"
#include "common/wall_time.hpp"

namespace rt3 {

/// One typed trace-event argument.  Values stay binary until export, so
/// recording an event renders nothing.
struct TraceArg {
  enum class Kind : std::uint8_t { kDouble, kInt, kString };
  /// A string literal: keys are fixed at every instrumentation site, so
  /// they are referenced, never copied.
  const char* key = nullptr;
  Kind kind = Kind::kInt;
  /// kString: the value is TraceEvent::arg_text[i, i + len).
  std::uint32_t len = 0;
  union {
    double d;
    std::int64_t i = 0;
  };
};

/// One Chrome trace-event.  Fixed-name events stay off the heap: name and
/// cat fit the std::string small buffer, args live inline, and only string
/// arg values are copied (into `arg_text`).
struct TraceEvent {
  /// Inline arg capacity; the widest event (a request span) carries 5.
  static constexpr std::size_t kMaxArgs = 6;

  std::string name;
  /// Event category ("request", "batch", "governor", "kernel", ...).
  std::string cat;
  /// Chrome phase: 'X' complete span, 'i' instant, 'C' counter.
  char ph = 'i';
  /// Virtual timestamp (ms since session start) and span duration.
  double ts_ms = 0.0;
  double dur_ms = 0.0;
  /// Logical track: 0 = node/governor lane, model id + 1 = a model's lane.
  std::int64_t tid = 0;
  /// Request id for lifecycle events (-1 when not request-scoped).
  std::int64_t id = -1;
  /// Args, emitted in insertion order.
  std::array<TraceArg, kMaxArgs> args{};
  std::uint8_t num_args = 0;
  /// Backing store of the string-valued args.
  std::string arg_text;

  TraceEvent() = default;
  /// Instant at `ts_ms` on track `tid`; set ph/dur_ms after construction
  /// to turn it into a span.
  TraceEvent(std::string name, std::string cat, double ts_ms,
             std::int64_t tid)
      : name(std::move(name)), cat(std::move(cat)), ts_ms(ts_ms), tid(tid) {}

  /// `key` must be a string literal (static storage; see TraceArg::key).
  template <std::size_t N>
  TraceEvent& arg(const char (&key)[N], double value) {
    push_arg(key, TraceArg::Kind::kDouble).d = value;
    return *this;
  }
  template <std::size_t N>
  TraceEvent& arg(const char (&key)[N], std::int64_t value) {
    push_arg(key, TraceArg::Kind::kInt).i = value;
    return *this;
  }
  template <std::size_t N>
  TraceEvent& arg(const char (&key)[N], std::string_view value) {
    TraceArg& a = push_arg(key, TraceArg::Kind::kString);
    a.i = static_cast<std::int64_t>(arg_text.size());
    a.len = static_cast<std::uint32_t>(value.size());
    arg_text.append(value);
    return *this;
  }

 private:
  TraceArg& push_arg(const char* key, TraceArg::Kind kind);
};

/// Renders a double as a JSON number with round-trip precision (%.17g).
std::string trace_json_num(double value);
/// JSON string-escapes `s` (quotes, backslashes, newlines, tabs).
std::string trace_json_escape(std::string_view s);

struct TraceConfig {
  /// Record nondeterministic host wall-clock args on events.
  bool record_wall = false;
  /// Hard cap on stored events (0 = unbounded).  Once `max_events` have
  /// been accepted, further record() calls are dropped and counted —
  /// long diurnal runs stay O(max_events) instead of growing without
  /// bound.  Admission order is the arrival order at the recorder (a
  /// deterministic serving session admits the same prefix every run).
  std::int64_t max_events = 0;
};

/// Collects TraceEvents into per-thread buffers and exports them merged
/// in canonical order as Chrome trace-event JSON.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool record_wall = false);
  explicit TraceRecorder(const TraceConfig& config);

  /// Appends an event to the calling thread's buffer; drops it (and
  /// counts the drop) once the max_events cap is reached.
  void record(TraceEvent event);

  std::int64_t max_events() const { return config_.max_events; }
  /// Events dropped at the max_events cap so far.
  std::int64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Publishes the driver loop's virtual clock; components without clock
  /// access (batcher, engine, backend) stamp events with this.
  void set_now_ms(double now_ms) { now_ms_ = now_ms; }
  double now_ms() const { return now_ms_; }

  /// True when events should carry host wall-clock args (nondeterministic
  /// but informative; off for byte-identical trace comparisons).
  bool record_wall() const { return config_.record_wall; }
  /// Host wall ms since recorder construction (only meaningful when
  /// record_wall() is true).
  double wall_since_start_ms() const { return wall_ms_since(t0_); }

  /// Copies of all events merged across thread buffers in canonical
  /// order: (ts, tid, cat, name, id, per-thread sequence).
  std::vector<TraceEvent> merged() const RT3_EXCLUDES(mu_);
  std::int64_t num_events() const RT3_EXCLUDES(mu_);

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with one metadata
  /// thread_name event per track, loadable in Perfetto.  Walks the
  /// buffers through a sorted pointer index; no event is copied.
  std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  /// One thread's events in fixed-size chunks: an append never moves a
  /// stored event (no regrowth copies, no doubled peak), and a chunk is
  /// small enough for the allocator to recycle across sessions.
  struct Buffer {
    static constexpr std::size_t kChunk = 2048;
    std::vector<std::vector<TraceEvent>> chunks;
    std::size_t size = 0;
    /// Process-unique ordinal of the thread that owns this buffer.
    std::uint64_t thread_ordinal = 0;

    void push(TraceEvent&& event);
    const TraceEvent& operator[](std::size_t i) const {
      return chunks[i / kChunk][i % kChunk];
    }
  };
  Buffer* local_buffer() RT3_EXCLUDES(mu_);
  /// Pointers to every stored event in canonical merge order.
  std::vector<const TraceEvent*> sorted_events() const RT3_EXCLUDES(mu_);

  /// Distinguishes recorders in the thread-local buffer cache (a new
  /// recorder at a recycled address must not alias a dead one's cached
  /// buffer).
  const std::uint64_t recorder_id_;
  mutable Mutex mu_{"TraceRecorder::mu_"};
  /// Registration (growing the vector) requires mu_; each Buffer's
  /// events are appended lock-free by exactly the owning thread, and
  /// readers (merged/num_events) take mu_ and rely on the caller's
  /// happens-before with all recording threads (session teardown).
  std::vector<std::unique_ptr<Buffer>> buffers_ RT3_GUARDED_BY(mu_);
  double now_ms_ = 0.0;
  WallTimePoint t0_;
  TraceConfig config_;
  /// record() attempts admitted against the cap (only counted up while a
  /// cap is set); drops past it.
  std::atomic<std::int64_t> admitted_{0};
  std::atomic<std::int64_t> dropped_{0};
};

}  // namespace rt3
