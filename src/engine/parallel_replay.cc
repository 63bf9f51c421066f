#include "engine/parallel_replay.h"

#include <cstdlib>

namespace rewinddb {
namespace replay {

int DefaultReplayThreads() {
  static const int cached = [] {
    const char* env = std::getenv("REWINDDB_REPLAY_THREADS");
    if (env == nullptr || *env == '\0') return 1;
    int n = std::atoi(env);
    if (n < 1) return 1;
    if (n > 64) return 64;
    return n;
  }();
  return cached;
}

PagePool::PagePool(int threads, ApplyFn apply, size_t queue_capacity)
    : capacity_batches_(queue_capacity / kBatchRecords == 0
                            ? 1
                            : queue_capacity / kBatchRecords),
      apply_(std::move(apply)) {
  int n = threads < 1 ? 1 : threads;
  if (n == 1) return;  // inline mode: no queues, no threads
  queues_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) queues_.push_back(std::make_unique<Queue>());
  staging_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; i++) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

PagePool::~PagePool() {
  Status s = Finish();
  (void)s;
}

void PagePool::Poison(Status s) {
  {
    std::lock_guard<std::mutex> g(error_mu_);
    if (first_error_.ok()) first_error_ = std::move(s);
  }
  failed_.store(true, std::memory_order_release);
  // Unblock a dispatcher parked on any full queue.
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> g(q->mu);
    q->not_full.notify_all();
  }
}

bool PagePool::Dispatch(Lsn lsn, const LogRecord& rec) {
  if (failed_.load(std::memory_order_acquire)) return false;
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  if (workers_.empty()) {
    Status s = apply_(0, lsn, rec);
    if (!s.ok()) {
      Poison(std::move(s));
      return false;
    }
    return true;
  }
  size_t w = PagePartition(rec.page_id, queues_.size());
  Batch& pending = staging_[w];
  pending.emplace_back(lsn, rec);
  if (pending.size() < kBatchRecords) return true;
  return PushBatch(w);
}

bool PagePool::PushBatch(size_t w) {
  Queue& q = *queues_[w];
  std::unique_lock<std::mutex> g(q.mu);
  q.not_full.wait(g, [&] {
    return q.batches.size() < capacity_batches_ ||
           failed_.load(std::memory_order_acquire);
  });
  if (failed_.load(std::memory_order_acquire)) return false;
  const bool was_empty = q.batches.empty();
  q.batches.push_back(std::move(staging_[w]));
  staging_[w].clear();
  if (was_empty) q.not_empty.notify_one();
  return true;
}

void PagePool::WorkerLoop(size_t w) {
  Queue& q = *queues_[w];
  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> g(q.mu);
      q.not_empty.wait(g, [&] { return !q.batches.empty() || q.closed; });
      if (q.batches.empty()) return;  // closed and drained
      batch = std::move(q.batches.front());
      q.batches.pop_front();
      q.not_full.notify_one();
    }
    for (auto& [lsn, rec] : batch) {
      // A poisoned pool drains without applying, so every worker
      // reaches its closed+empty exit no matter where the failure
      // happened.
      if (failed_.load(std::memory_order_acquire)) break;
      Status s = apply_(w, lsn, rec);
      if (!s.ok()) {
        Poison(std::move(s));
        break;
      }
    }
  }
}

Status PagePool::Finish() {
  if (finished_) {
    std::lock_guard<std::mutex> g(error_mu_);
    return first_error_;
  }
  finished_ = true;
  // Flush the staged partial batches, then close every queue.
  for (size_t w = 0; w < staging_.size(); w++) {
    if (!staging_[w].empty() && !failed_.load(std::memory_order_acquire)) {
      PushBatch(w);
    }
  }
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> g(q->mu);
    q->closed = true;
    q->not_empty.notify_all();
  }
  for (auto& t : workers_) t.join();
  std::lock_guard<std::mutex> g(error_mu_);
  return first_error_;
}

Status ParallelFor(int threads, size_t n,
                   const std::function<Status(size_t)>& fn,
                   const std::function<void()>& on_first_error) {
  if (n == 0) return Status::OK();
  size_t workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  if (workers > n) workers = n;
  if (workers == 1) {
    for (size_t i = 0; i < n; i++) {
      Status s = fn(i);
      if (!s.ok()) {
        if (on_first_error) on_first_error();
        return s;
      }
    }
    return Status::OK();
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  Status first_error;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; w++) {
    pool.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n || failed.load(std::memory_order_acquire)) return;
        Status s = fn(i);
        if (!s.ok()) {
          bool first;
          {
            std::lock_guard<std::mutex> g(error_mu);
            first = first_error.ok();
            if (first) first_error = std::move(s);
            failed.store(true, std::memory_order_release);
          }
          if (first && on_first_error) on_first_error();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return first_error;
}

}  // namespace replay
}  // namespace rewinddb
