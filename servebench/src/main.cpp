// servebench — runs one workload and prints its result as the last line
// of stdout:
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//
//   {"correct": true, "attempted": 12, "failed": 0,
//    "metrics": {"sim_rps": {"value": ..., "unit": "1/s"}, ...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the run's spans to .servebench/ in the working directory.
// Context (counts, device fingerprints, check violations) goes to stderr.
// Exit code: 0 correct, 1 a check failed, 2 bad arguments or an error.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why.c_str());
  for (const std::string& w : servebench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  servebench::Options opt;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        return usage("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        opt.trace = value == "1";
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception& e) {
    return usage(std::string("bad argument: ") + e.what());
  }
  if (!have_workload) {
    return usage("--workload is required");
  }
  if (!(opt.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }

  // Steady-state allocator: blocks up to 32 MiB come from the heap and the
  // heap is not trimmed, so memory one repetition frees is reused by the
  // next instead of being unmapped and faulted in again, and peak_rss_mb
  // does not depend on glibc's adaptive mmap threshold (which otherwise
  // moved peak RSS by up to a third between seeds of one workload).
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 512 * 1024 * 1024);

  servebench::Result res;
  try {
    res = servebench::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  for (const auto& [name, m] : res.metrics) {
    if (!std::isfinite(m.value)) {
      res.failures.push_back("metric " + name + " is not finite");
    }
  }
  for (const std::string& note : res.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = res.failures.empty();
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(res.attempted) +
                    ", \"failed\": " + std::to_string(res.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& [name, m] = res.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + json_escape(name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" +
           json_escape(m.unit) + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}
