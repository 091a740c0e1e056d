#include "parallel/thread_pool.h"

#include <stdexcept>
#include <utility>

#include "common/cpu.h"

namespace ppm {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) throw std::invalid_argument("ThreadPool: zero threads");
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  stop();
  // jthread joins in its destructor; workers exit once the queue drains.
}

void ThreadPool::stop() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

bool ThreadPool::stopping() const {
  const std::scoped_lock lock(mutex_);
  return stopping_;
}

void ThreadPool::submit(std::function<void()> task) {
  if (!try_submit(std::move(task))) {
    throw std::runtime_error("ThreadPool: submit after stop");
  }
}

bool ThreadPool::try_submit(std::function<void()> task) {
  {
    const std::scoped_lock lock(mutex_);
    if (stopping_) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

}  // namespace ppm
