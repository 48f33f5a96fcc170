// Shared MPMC ingestion harness behind serve_concurrent (single-model
// Server) and serve_node_concurrent (multi-model ServeNode): fan the
// schedule out over producer pool threads in round-robin slices, close
// the queue once every producer drained its slice, and drain it on this
// thread.  The drained requests are ordered by (arrival, id) — which
// erases every ingestion race — and handed to the caller's serve(), with
// exceptions from either side re-thrown after the closer joins (consumer
// errors first, and the queue is closed on a consumer throw so no
// producer stays blocked on a bounded queue).
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "serve/request.hpp"
#include "serve/thread_pool.hpp"

namespace rt3 {

/// `serve(const std::vector<Request>&)` runs on the calling thread over
/// the drained, (arrival, id)-ordered requests and returns the session
/// stats; its result is returned once ingestion has wound down.
template <typename Serve>
auto consume_schedule_concurrently(const std::vector<Request>& schedule,
                                   std::int64_t producers, Serve&& serve) {
  check(producers >= 1, "serve_concurrent: need at least one producer");
  RequestQueue queue;
  ThreadPool pool(producers);
  for (std::int64_t p = 0; p < producers; ++p) {
    pool.submit([&, p] {
      // Round-robin slice: producer p pushes requests p, p+P, p+2P, ...
      for (std::size_t i = static_cast<std::size_t>(p); i < schedule.size();
           i += static_cast<std::size_t>(producers)) {
        queue.push(schedule[i]);
      }
    });
  }
  // Close the queue once every producer has drained its slice, so the
  // consumer (below, on this thread) unblocks after the last request.
  std::exception_ptr producer_error;
  std::thread closer([&] {
    try {
      pool.wait_idle();
    } catch (...) {
      producer_error = std::current_exception();
    }
    queue.close();
  });
  decltype(serve(schedule)) stats{};
  std::exception_ptr consumer_error;
  try {
    std::vector<Request> collected;
    Request r;
    while (queue.pop(r)) {
      collected.push_back(r);
    }
    const auto by_arrival = [](const Request& a, const Request& b) {
      return a.arrival_ms != b.arrival_ms ? a.arrival_ms < b.arrival_ms
                                          : a.id < b.id;
    };
    std::sort(collected.begin(), collected.end(), by_arrival);
    stats = serve(collected);
  } catch (...) {
    consumer_error = std::current_exception();
    queue.close();  // unblock any producer stuck on a bounded queue
  }
  closer.join();
  if (consumer_error != nullptr) {
    std::rethrow_exception(consumer_error);
  }
  if (producer_error != nullptr) {
    std::rethrow_exception(producer_error);
  }
  return stats;
}

}  // namespace rt3
