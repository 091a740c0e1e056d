// Fixed-size worker pool.
//
// Every Codec owns one, created on its first fan-out: its decode, encode
// and batch decode queue one task per stripe×slice on it
// (CachedPlan::execute_sliced, fed through a TaskGroup). The serving
// layer's group solves run on ThreadPool::shared().
//
// Shutdown contract (see docs/CONCURRENCY.md):
//   * stop() begins shutdown. Every task accepted before stop() is
//     guaranteed to run — the destructor joins the workers only after the
//     queue drains.
//   * submit() after stop() throws std::runtime_error; try_submit()
//     returns false instead. A submit racing stop() is atomic either way:
//     the task is accepted (and will run) or rejected — never silently
//     dropped into a dead queue.
//   * The destructor calls stop() and joins. Destroying the pool while
//     another thread still holds a reference to it is, as for any object,
//     the caller's bug; racing submit against *stop* is supported.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ppm {

class ThreadPool {
 public:
  /// Start `threads` workers (>= 1).
  explicit ThreadPool(unsigned threads);

  /// Stops, drains the queue, joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for execution by any worker. Throws std::runtime_error
  /// if the pool has been stopped.
  void submit(std::function<void()> task);

  /// Like submit(), but returns false instead of throwing when the pool
  /// has been stopped. For callers racing shutdown.
  bool try_submit(std::function<void()> task);

  /// Begin shutdown: no new tasks are accepted, already-queued tasks still
  /// run to completion. Idempotent; safe to call concurrently with
  /// submit()/try_submit() from other threads. Workers are joined by the
  /// destructor, not here.
  void stop();

  /// True once stop() (or the destructor) has begun shutdown.
  bool stopping() const;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Process-wide pool sized to the hardware thread count.
  static ThreadPool& shared();

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::jthread> workers_;
};

}  // namespace ppm
