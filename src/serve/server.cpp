#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace ppm::serve {

DecodeServer::DecodeServer(Codec& codec, ServerOptions options)
    : codec_(&codec),
      options_(std::move(options)),
      reactor_(std::max(options_.dispatchers, 1u) *
               options_.overlap.reactor_threads) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.dispatchers == 0) options_.dispatchers = 1;
  dispatchers_.reserve(options_.dispatchers);
  for (unsigned i = 0; i < options_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_loop(); });
  }
}

DecodeServer::~DecodeServer() { shutdown(); }

std::optional<std::future<OverlapResult>> DecodeServer::submit(
    ServeRequest request) {
  ServeMetrics& metrics = serve_metrics();
  metrics.requests.add();
  Pending pending;
  pending.request = std::move(request);
  pending.enqueue_ns = clock_.nanos();
  std::future<OverlapResult> future = pending.promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= options_.queue_depth) {
      metrics.rejected.add();
      return std::nullopt;
    }
    queue_.push_back(std::move(pending));
  }
  metrics.accepted.add();
  cv_.notify_one();
  return future;
}

void DecodeServer::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& d : dispatchers_) {
    if (d.joinable()) d.join();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return draining_.empty(); });
}

std::size_t DecodeServer::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void DecodeServer::dispatcher_loop() {
  ServeMetrics& metrics = serve_metrics();
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and fully drained
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      // Claim every queued request sharing the leader's plan key. One
      // plan fetch below serves them all; order among the claimed
      // requests is preserved, everyone else keeps their place. Copy the
      // key: push_back below may reallocate `batch` and a reference into
      // it would dangle mid-claim.
      const FailureScenario key = batch.front().request.scenario;
      for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->request.scenario == key) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
    }
    metrics.batches.add();
    metrics.batched_requests.add(batch.size());
    // One plan fetch/verify for the whole batch; each member's
    // decode_overlapped then hits the cache.
    codec_->plan_for(batch.front().request.scenario);
    for (Pending& p : batch) {
      metrics.queue_seconds.record_nanos(
          static_cast<std::uint64_t>(clock_.nanos() - p.enqueue_ns));
      const ServeRequest& r = p.request;
      if (r.source == nullptr || r.blocks == nullptr) {
        metrics.request_seconds.record_nanos(
            static_cast<std::uint64_t>(clock_.nanos() - p.enqueue_ns));
        p.promise.set_value(OverlapResult{});  // malformed: incomplete
        continue;
      }
      OverlapTail tail;
      OverlapResult result = decode_overlapped(
          *codec_, r.scenario, *r.source, r.blocks, r.block_bytes,
          options_.overlap, r.expected_crc, reactor_, tail);
      // Hand the reads still in flight to the server and move on; the
      // future resolves when the last of them lands.
      std::list<Draining>::iterator it;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        it = draining_.insert(
            draining_.end(),
            Draining{std::move(p), std::move(result), std::move(tail)});
      }
      it->tail.session->detach([this, it] { resolve(it); });
    }
  }
}

void DecodeServer::resolve(std::list<Draining>::iterator it) {
  it->result.total_ns = it->tail.clock.nanos();
  serve_metrics().request_seconds.record_nanos(
      static_cast<std::uint64_t>(clock_.nanos() - it->pending.enqueue_ns));
  it->pending.promise.set_value(std::move(it->result));
  std::list<Draining> done;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    done.splice(done.end(), draining_, it);
    // Notify under the lock: once shutdown() sees the list empty the
    // server may be destroyed, condition variable included.
    if (draining_.empty()) drained_cv_.notify_all();
  }
  // `done` goes here, session and scratch with it; nothing of the
  // server is touched after the lock is released.
}

}  // namespace ppm::serve
