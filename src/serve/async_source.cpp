#include "serve/async_source.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/timer.h"

namespace ppm::serve {

Reactor::Reactor(unsigned threads) {
  if (threads == 0) threads = 1;
  running_.assign(threads, nullptr);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Reactor::~Reactor() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // jthread members join on destruction, before the state they use goes.
}

void Reactor::post(const Op& op) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(op);
  }
  work_cv_.notify_one();
}

void Reactor::cancel(const ThreadedAsyncSource* session) {
  std::unique_lock<std::mutex> lock(mutex_);
  std::erase_if(pending_,
                [session](const Op& op) { return op.session == session; });
  idle_cv_.wait(lock, [this, session] {
    return std::find(running_.begin(), running_.end(), session) ==
           running_.end();
  });
}

void Reactor::worker_loop(std::size_t worker) {
  for (;;) {
    Op op;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
      if (stop_) return;
      op = pending_.front();
      pending_.pop_front();
      running_[worker] = op.session;
    }
    const Timer clock;
    const io::ReadStatus status =
        op.session->inner_->read(op.block, op.dst, op.bytes);
    serve_metrics().read_seconds.record_nanos(
        static_cast<std::uint64_t>(clock.nanos()));
    if (status != io::ReadStatus::kOk) serve_metrics().reads_failed.add();
    const std::function<void()> on_drained =
        op.session->finish(ReadCompletion{op.token, op.block, status});
    {
      // From here on the session may be destroyed (cancel() returns).
      const std::lock_guard<std::mutex> lock(mutex_);
      running_[worker] = nullptr;
      idle_cv_.notify_all();
    }
    if (on_drained) on_drained();
  }
}

ThreadedAsyncSource::ThreadedAsyncSource(Reactor& reactor,
                                         io::BlockSource& inner)
    : reactor_(&reactor), inner_(&inner) {}

ThreadedAsyncSource::~ThreadedAsyncSource() {
  // Queued reads are abandoned (nobody could poll them); running ones
  // write into caller buffers, so they must finish first.
  reactor_->cancel(this);
}

std::uint64_t ThreadedAsyncSource::submit(std::size_t block,
                                          std::uint8_t* dst,
                                          std::size_t bytes) {
  std::uint64_t token;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    token = next_token_++;
    ++in_flight_;
    ++unfinished_;
  }
  reactor_->post(Reactor::Op{this, token, block, dst, bytes});
  serve_metrics().reads_submitted.add();
  return token;
}

std::size_t ThreadedAsyncSource::poll(std::vector<ReadCompletion>& out,
                                      std::chrono::nanoseconds wait) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (done_.empty() && wait.count() > 0 && in_flight_ > 0) {
    done_cv_.wait_for(lock, wait, [this] { return !done_.empty(); });
  }
  const std::size_t n = done_.size();
  if (n != 0) {
    out.insert(out.end(), done_.begin(), done_.end());
    done_.clear();
    in_flight_ -= n;
  }
  return n;
}

std::size_t ThreadedAsyncSource::in_flight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadedAsyncSource::detach(std::function<void()> on_drained) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    detached_ = true;
    if (unfinished_ > 0) {
      on_drained_ = std::move(on_drained);
      return;
    }
  }
  on_drained();  // last: it may destroy this session
}

std::function<void()> ThreadedAsyncSource::finish(
    const ReadCompletion& done) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --unfinished_;
    if (detached_) {
      return unfinished_ == 0 ? std::move(on_drained_)
                              : std::function<void()>{};
    }
    done_.push_back(done);
  }
  done_cv_.notify_one();
  return {};
}

}  // namespace ppm::serve
