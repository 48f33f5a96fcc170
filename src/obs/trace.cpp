#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "common/check.hpp"
#include "obs/json_writer.hpp"

namespace rt3 {

namespace {

std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_thread_ordinal() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Appends one event's Chrome JSON object.
void write_event(JsonWriter& w, const TraceEvent& e) {
  w.raw("  {\"name\": ").string(e.name).raw(", \"cat\": ").string(e.cat);
  w.raw(", \"ph\": \"").raw(e.ph).raw("\", \"ts\": ").number(e.ts_ms * 1000.0);
  w.raw(", \"pid\": 1, \"tid\": ").integer(e.tid);
  if (e.ph == 'X') {
    w.raw(", \"dur\": ").number(e.dur_ms * 1000.0);
  }
  if (e.ph == 'i') {
    w.raw(", \"s\": \"t\"");  // instant scope: thread
  }
  if (e.id >= 0 || e.num_args > 0) {
    w.raw(", \"args\": {");
    const char* sep = "";
    if (e.id >= 0) {
      w.raw("\"id\": ").integer(e.id);
      sep = ", ";
    }
    for (std::size_t k = 0; k < e.num_args; ++k) {
      const TraceArg& a = e.args[k];
      w.raw(sep).string(a.key).raw(": ");
      sep = ", ";
      switch (a.kind) {
        case TraceArg::Kind::kDouble:
          w.number(a.d);
          break;
        case TraceArg::Kind::kInt:
          w.integer(a.i);
          break;
        case TraceArg::Kind::kString: {
          const std::string_view text(e.arg_text);
          w.string(text.substr(static_cast<std::size_t>(a.i), a.len));
          break;
        }
      }
    }
    w.raw('}');
  }
  w.raw('}');
}

}  // namespace

std::string trace_json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  JsonWriter(out).escaped(s);
  return out;
}

std::string trace_json_num(double value) {
  std::string out;
  JsonWriter(out).number(value);
  return out;
}

TraceArg& TraceEvent::push_arg(const char* key, TraceArg::Kind kind) {
  check(num_args < kMaxArgs, "TraceEvent: more than kMaxArgs args");
  TraceArg& a = args[num_args++];
  a.key = key;
  a.kind = kind;
  return a;
}

TraceRecorder::TraceRecorder(bool record_wall)
    : TraceRecorder(TraceConfig{record_wall, 0}) {}

TraceRecorder::TraceRecorder(const TraceConfig& config)
    : recorder_id_(next_recorder_id()), t0_(wall_now()), config_(config) {}

TraceRecorder::Buffer* TraceRecorder::local_buffer() {
  // One cached (recorder, buffer) pair per thread, keyed by a unique
  // recorder id, not the address: a recorder constructed at a dead one's
  // address must not inherit its buffer.  A miss (first event, or a
  // thread alternating between recorders) finds this thread's buffer in
  // the recorder, so the cache never outgrows one entry.
  struct Cached {
    std::uint64_t recorder_id = ~std::uint64_t{0};
    Buffer* buffer = nullptr;
  };
  // rt3-lint: allow(raw-parallel) per-thread cache and identity, no sharing
  thread_local Cached cached;
  if (cached.recorder_id == recorder_id_) {
    return cached.buffer;
  }
  // rt3-lint: allow(raw-parallel) per-thread cache and identity, no sharing
  thread_local const std::uint64_t thread_ordinal = next_thread_ordinal();
  MutexLock lock(mu_);
  Buffer* buffer = nullptr;
  for (const auto& b : buffers_) {
    if (b->thread_ordinal == thread_ordinal) {
      buffer = b.get();
      break;
    }
  }
  if (buffer == nullptr) {
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread_ordinal = thread_ordinal;
  }
  cached = {recorder_id_, buffer};
  return buffer;
}

void TraceRecorder::record(TraceEvent event) {
  if (config_.max_events > 0 &&
      admitted_.fetch_add(1, std::memory_order_relaxed) >=
          config_.max_events) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  local_buffer()->push(std::move(event));
}

void TraceRecorder::Buffer::push(TraceEvent&& event) {
  if (size % kChunk == 0) {
    chunks.emplace_back().reserve(kChunk);
  }
  chunks.back().push_back(std::move(event));
  ++size;
}

std::vector<const TraceEvent*> TraceRecorder::sorted_events() const {
  // The two leading sort keys ride inline, so most comparisons never
  // touch the events themselves.
  struct Keyed {
    double ts_ms;
    std::int64_t tid;
    const TraceEvent* event;
    std::size_t seq;  // per-thread append order, the last tie-break
  };
  std::vector<Keyed> keyed;
  {
    MutexLock lock(mu_);
    std::size_t n = 0;
    for (const auto& buffer : buffers_) n += buffer->size;
    keyed.reserve(n);
    for (const auto& buffer : buffers_) {
      for (std::size_t i = 0; i < buffer->size; ++i) {
        const TraceEvent& e = (*buffer)[i];
        keyed.push_back({e.ts_ms, e.tid, &e, i});
      }
    }
  }
  // Canonical order: virtual time first, then stable content keys so the
  // merge is independent of which thread recorded what and of buffer
  // registration order.
  std::stable_sort(keyed.begin(), keyed.end(),
                   [](const Keyed& a, const Keyed& b) {
                     if (a.ts_ms != b.ts_ms) {
                       return a.ts_ms < b.ts_ms;
                     }
                     if (a.tid != b.tid) {
                       return a.tid < b.tid;
                     }
                     const TraceEvent& x = *a.event;
                     const TraceEvent& y = *b.event;
                     if (x.cat != y.cat) {
                       return x.cat < y.cat;
                     }
                     if (x.name != y.name) {
                       return x.name < y.name;
                     }
                     if (x.id != y.id) {
                       return x.id < y.id;
                     }
                     return a.seq < b.seq;
                   });
  std::vector<const TraceEvent*> out;
  out.reserve(keyed.size());
  for (const Keyed& k : keyed) {
    out.push_back(k.event);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::merged() const {
  const std::vector<const TraceEvent*> events = sorted_events();
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  for (const TraceEvent* e : events) {
    out.push_back(*e);
  }
  return out;
}

std::int64_t TraceRecorder::num_events() const {
  MutexLock lock(mu_);
  std::int64_t n = 0;
  for (const auto& buffer : buffers_) {
    n += static_cast<std::int64_t>(buffer->size);
  }
  return n;
}

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<const TraceEvent*> events = sorted_events();
  std::string out;
  // ~190 bytes per serving event; one up-front reservation instead of
  // log2(size) regrowth copies of a multi-megabyte buffer.
  out.reserve(256 + events.size() * 192);
  JsonWriter w(out);
  w.raw("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  // Metadata: name every track so Perfetto shows lanes, not bare tids.
  std::vector<std::int64_t> tids;
  for (const TraceEvent* e : events) {
    if (std::find(tids.begin(), tids.end(), e->tid) == tids.end()) {
      tids.push_back(e->tid);
    }
  }
  std::sort(tids.begin(), tids.end());
  const char* sep = "";
  for (const std::int64_t tid : tids) {
    w.raw(sep).raw("  {\"name\": \"thread_name\", \"ph\": \"M\", ");
    w.raw("\"pid\": 1, \"tid\": ").integer(tid);
    w.raw(", \"args\": {\"name\": \"");
    if (tid == 0) {
      w.raw("node: governor + battery");
    } else {
      w.raw("model ").integer(tid - 1);
    }
    w.raw("\"}}");
    sep = ",\n";
  }
  for (const TraceEvent* e : events) {
    w.raw(sep);
    write_event(w, *e);
    sep = ",\n";
  }
  // Footer: how complete this trace is.  Extra top-level keys are legal
  // in the JSON-object trace format and ignored by Perfetto.
  w.raw("\n], \"rt3\": {\"max_events\": ").integer(config_.max_events);
  w.raw(", \"dropped_events\": ").integer(dropped_events()).raw("}}\n");
  return out;
}

void TraceRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  check(out.good(), "TraceRecorder: cannot open " + path);
  out << to_chrome_json();
}

}  // namespace rt3
