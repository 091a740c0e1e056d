// Completion-driven async block reads for the serving front end
// (ppm::serve).
//
// The resilient pipeline (codec/resilient.h) pulls survivors one blocking
// read at a time, so a single straggler stalls the whole decode for its
// full delay. A ThreadedAsyncSource breaks that serialization: callers
// queue every survivor read at once and drain completions as they land,
// which is what lets the overlap scheduler (overlap.h) start each
// independent O1 group's solve the moment its inputs arrive and lets the
// hedging policy duplicate reads that are taking too long.
//
// The backend is thread-backed: a Reactor is a pool of threads running
// plain blocking reads, and a ThreadedAsyncSource is one decode's session
// on it, multiplexing reads over any concurrency-tolerant io::BlockSource.
// A DecodeServer owns one reactor for its lifetime and opens a session per
// decode; a standalone decode_overlapped builds a private one.
//
// Concurrency contract: submit() and poll() are individually thread-safe,
// but completions are delivered to whichever caller polls — a session is
// designed for ONE logical consumer (the overlap event loop) at a time.
// Destination buffers are caller-owned and must stay valid until the
// attempt's completion has been polled (or, after detach(), until the
// drain hook runs); distinct in-flight attempts must use distinct buffers
// (the hedging layer gives every attempt its own scratch buffer for
// exactly this reason).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "io/block_source.h"

namespace ppm::serve {

/// One finished read attempt, identified by the token submit() returned.
struct ReadCompletion {
  std::uint64_t token = 0;
  std::size_t block = 0;
  io::ReadStatus status = io::ReadStatus::kFailed;
};

class ThreadedAsyncSource;

/// `threads` workers running the reads its sessions submit, in submission
/// order across all sessions. Up to `threads` reads make wall-clock
/// progress at once — a straggler occupies one worker for its delay while
/// the rest keep draining the queue. Every session must be destroyed
/// before its reactor.
class Reactor {
 public:
  explicit Reactor(unsigned threads);
  ~Reactor();  ///< joins the workers

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

 private:
  friend class ThreadedAsyncSource;

  struct Op {
    ThreadedAsyncSource* session = nullptr;
    std::uint64_t token = 0;
    std::size_t block = 0;
    std::uint8_t* dst = nullptr;
    std::size_t bytes = 0;
  };

  void post(const Op& op);
  /// Drop `session`'s queued ops and wait until none of its ops runs.
  void cancel(const ThreadedAsyncSource* session);
  void worker_loop(std::size_t worker);

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for queued ops
  std::condition_variable idle_cv_;  ///< cancel() waits for running ops
  std::deque<Op> pending_;
  /// Per worker: the session whose op it is running, or nullptr.
  std::vector<const ThreadedAsyncSource*> running_;
  bool stop_ = false;
  std::vector<std::jthread> workers_;  ///< last member: joins first
};

/// One decode's session on a Reactor: reads of `inner`, which must
/// tolerate concurrent read() with distinct destination buffers (see
/// io/block_source.h) and outlive every read submitted here. Destroying
/// the session drops its queued reads and waits out its running ones.
class ThreadedAsyncSource {
 public:
  ThreadedAsyncSource(Reactor& reactor, io::BlockSource& inner);
  ~ThreadedAsyncSource();

  ThreadedAsyncSource(const ThreadedAsyncSource&) = delete;
  ThreadedAsyncSource& operator=(const ThreadedAsyncSource&) = delete;

  std::size_t block_count() const { return inner_->block_count(); }
  std::size_t block_bytes() const { return inner_->block_bytes(); }

  /// Queue a read of the first `bytes` bytes of `block` into `dst`.
  /// Returns the token its completion will carry. `dst` must remain
  /// valid and untouched by the caller until that completion is polled.
  std::uint64_t submit(std::size_t block, std::uint8_t* dst,
                       std::size_t bytes);

  /// Append finished reads to `out`; returns how many were appended.
  /// Blocks up to `wait` when nothing is ready yet and reads are in
  /// flight; a zero wait is a pure poll. Returns 0 immediately when
  /// nothing is in flight.
  std::size_t poll(std::vector<ReadCompletion>& out,
                   std::chrono::nanoseconds wait);

  /// Submitted attempts whose completion has not been polled yet.
  std::size_t in_flight() const;

  /// Stop consuming: nothing is polled or submitted after this call.
  /// `on_drained` runs once every attempt submitted so far has finished
  /// reading — on the reactor worker that finished the last one, or
  /// inline when none is left. It may destroy this session.
  void detach(std::function<void()> on_drained);

 private:
  friend class Reactor;

  /// A worker finished `done`. Returns the drain hook when that was the
  /// last unfinished read of a detached session; the worker runs it.
  std::function<void()> finish(const ReadCompletion& done);

  Reactor* reactor_;
  io::BlockSource* inner_;
  mutable std::mutex mutex_;
  std::condition_variable done_cv_;  ///< pollers wait for completions
  std::vector<ReadCompletion> done_;
  std::uint64_t next_token_ = 1;
  std::size_t in_flight_ = 0;   ///< submitted, completion not yet polled
  std::size_t unfinished_ = 0;  ///< submitted, read not yet finished
  bool detached_ = false;
  std::function<void()> on_drained_;
};

}  // namespace ppm::serve
