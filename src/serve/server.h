// Decode-serving front end: bounded queue, admission control, plan-shared
// batching (ppm::serve).
//
// DecodeServer is the request-facing layer over decode_overlapped, which
// runs the codec's recovery ladder with hedged concurrent reads. Its
// contract (docs/SERVING.md):
//
//  * Admission — submit() enqueues when the queue is below
//    ServerOptions::queue_depth and returns a future; at or above the
//    watermark it rejects immediately (std::nullopt) so callers get
//    backpressure instead of unbounded latency. Rejections are counted
//    (serve.rejected) — a load balancer's signal to shed or retry
//    elsewhere.
//  * Batching — a dispatcher popping a request also claims every queued
//    request with the same failure scenario (same plan key). The plan is
//    fetched/verified once through the codec's cache and each member is
//    then one region pass over its own stripe — the decode_batch idea,
//    applied across independent requests.
//  * Reads — the server owns one Reactor of dispatchers ×
//    overlap.reactor_threads threads for its lifetime; each decode runs
//    its survivor reads on its own session of it, so no request starts
//    threads.
//  * Completion — once a decode's ladder has finished (faulty blocks
//    recovered and verified, or classified), its dispatcher hands the
//    reads still in flight (hedge losers, stragglers a hedge beat) off
//    to the server and moves on to the next request. The future resolves
//    when that request's own last read lands, on the reactor worker that
//    finished it, never behind another request's tail. Every admitted
//    future is eventually fulfilled, including on shutdown (the queue and
//    every tail drain first). Futures carry the full OverlapResult, the
//    recovery ladder's report included.
//
// Buffers, the block source and the expected-CRC span named in a request
// are caller-owned and must stay valid until its future resolves.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "decode/scenario.h"
#include "serve/overlap.h"

namespace ppm::serve {

struct ServerOptions {
  /// Admission watermark: submit() rejects once this many requests wait.
  std::size_t queue_depth = 64;
  /// Dispatcher threads (each runs one batch at a time, up to the
  /// verified recovery of each member).
  unsigned dispatchers = 2;
  /// Per-decode fetch/hedge/solve configuration.
  OverlapOptions overlap;
};

/// One decode request. The scenario is copied; everything referenced by
/// pointer/span must outlive the returned future's completion.
struct ServeRequest {
  FailureScenario scenario;
  io::BlockSource* source = nullptr;
  std::uint8_t* const* blocks = nullptr;
  std::size_t block_bytes = 0;
  std::span<const std::uint32_t> expected_crc;
};

class DecodeServer {
 public:
  DecodeServer(Codec& codec, ServerOptions options = {});
  ~DecodeServer();  ///< shutdown(): drains the queue and every tail

  DecodeServer(const DecodeServer&) = delete;
  DecodeServer& operator=(const DecodeServer&) = delete;

  /// Admit a request (future resolves with its OverlapResult) or reject
  /// with std::nullopt when the queue is at the watermark or the server
  /// is shutting down.
  std::optional<std::future<OverlapResult>> submit(ServeRequest request);

  /// Stop admitting, drain every queued request, join the dispatchers,
  /// then wait until every tail has drained and its future resolved.
  /// Idempotent.
  void shutdown();

  /// Requests currently queued (excludes the one a dispatcher is on).
  std::size_t depth() const;

 private:
  struct Pending {
    ServeRequest request;
    std::promise<OverlapResult> promise;
    std::int64_t enqueue_ns = 0;
  };

  /// A decoded request whose session still has reads in flight.
  struct Draining {
    Pending pending;
    OverlapResult result;
    OverlapTail tail;
  };

  void dispatcher_loop();
  /// Resolve `it` once its session has drained; runs on the reactor
  /// worker that finished the last read, or on the dispatcher.
  void resolve(std::list<Draining>::iterator it);

  Codec* codec_;
  ServerOptions options_;
  Timer clock_;
  Reactor reactor_;  ///< every decode's session runs here; outlives them
  mutable std::mutex mutex_;
  std::condition_variable cv_;          ///< dispatchers wait for requests
  std::condition_variable drained_cv_;  ///< shutdown() waits for tails
  std::deque<Pending> queue_;
  std::list<Draining> draining_;  ///< handed-off tails, not yet drained
  bool stop_ = false;
  std::vector<std::jthread> dispatchers_;  ///< last member: joins first
};

}  // namespace ppm::serve
