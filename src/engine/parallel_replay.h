// Parallel replay: the worker-pool machinery behind crash-recovery
// redo/undo and snapshot background undo.
//
// Two partitioning schemes, matching the two phases' ordering
// invariants:
//
//  * PagePool -- redo. A single dispatcher (the caller) scans the log
//    once in LSN order and routes every record to the worker that owns
//    its page (hash(page_id) % workers). Because a page's records all
//    land in one worker's FIFO queue, the per-page apply order equals
//    the dispatch order -- exactly the invariant ARIES redo needs --
//    while different pages replay concurrently. Queues are bounded, so
//    a slow worker back-pressures the dispatcher instead of buffering
//    the whole log span.
//
//  * ParallelFor -- undo. Crash restart partitions it by loser
//    transaction: a chain walk is inherently sequential (each CLR names
//    the next record to undo), but different losers' effects are
//    disjoint -- user rows by two-phase locking, system-transaction
//    pages by the tree latch their SMO held. It undoes system losers
//    first (they revert structure the by-key user undo re-traverses),
//    then fans user losers out here. A snapshot's background pass
//    partitions by tree: each tree's loser records are undone in
//    descending-LSN order by one worker, and trees share no page, so it
//    fans every tree out here.
//
// Error contract: the first failing apply poisons the pool; remaining
// queued work is drained without being applied, Dispatch tells the
// dispatcher to stop, and Finish/ParallelFor surface that first Status.
// No error path blocks: a poisoned pool always joins.
#ifndef REWINDDB_ENGINE_PARALLEL_REPLAY_H_
#define REWINDDB_ENGINE_PARALLEL_REPLAY_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "log/log_record.h"

namespace rewinddb {
namespace replay {

/// Default worker count for DatabaseOptions::replay_threads: 1 (no
/// worker threads) unless the REWINDDB_REPLAY_THREADS environment
/// variable names another value (how CI's parallel-replay test variant
/// runs the whole suite with workers on). Clamped to [1, 64].
int DefaultReplayThreads();

/// Page-partitioned record fan-out (see file comment). With
/// `threads` <= 1 there are no worker threads and Dispatch applies
/// inline -- the degenerate case is byte-for-byte the serial path.
class PagePool {
 public:
  /// Applies one record on the worker's thread. `worker` is the queue
  /// index (workers never share a page, so the callee needs no
  /// same-page synchronization of its own).
  using ApplyFn = std::function<Status(size_t worker, Lsn lsn,
                                       const LogRecord& rec)>;

  PagePool(int threads, ApplyFn apply, size_t queue_capacity = 256);
  ~PagePool();

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  /// Route `rec` to the worker owning rec.page_id, blocking while that
  /// worker's queue is full. Records are staged into per-worker batches
  /// (kBatchRecords each) before they hit the queue, so the
  /// dispatcher/worker handoff costs one lock per batch, not per
  /// record. Returns false once the pool is poisoned (some apply
  /// failed) -- the dispatcher should stop scanning and call Finish()
  /// for the error.
  bool Dispatch(Lsn lsn, const LogRecord& rec);

  /// Records per dispatcher->worker handoff.
  static constexpr size_t kBatchRecords = 64;

  /// Drain every queue, join the workers and return the first apply
  /// error (OK when all records applied).
  Status Finish();

  /// Records handed to workers (or applied inline) so far.
  uint64_t dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  using Batch = std::vector<std::pair<Lsn, LogRecord>>;

  struct Queue {
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Batch> batches;
    bool closed = false;
  };

  void WorkerLoop(size_t w);
  void Poison(Status s);
  /// Move worker w's staged batch into its queue (blocking on a full
  /// queue). False when the pool is poisoned.
  bool PushBatch(size_t w);

  const size_t capacity_batches_;
  ApplyFn apply_;
  std::vector<std::unique_ptr<Queue>> queues_;
  /// Dispatcher-local staging, one batch per worker (no locking).
  std::vector<Batch> staging_;
  std::vector<std::thread> workers_;
  std::atomic<bool> failed_{false};
  std::atomic<uint64_t> dispatched_{0};
  std::mutex error_mu_;
  Status first_error_;
  bool finished_ = false;
};

/// Run fn(0) .. fn(n-1) across min(threads, n) workers, returning the
/// first error. Indices are claimed dynamically (losers vary wildly in
/// chain length); once any call fails no new index is started.
/// `threads` <= 1 runs inline, in order. Test seam: `on_first_error`,
/// if set, runs once, right after the first error is recorded and new
/// work is stopped.
Status ParallelFor(int threads, size_t n,
                   const std::function<Status(size_t)>& fn,
                   const std::function<void()>& on_first_error = {});

}  // namespace replay
}  // namespace rewinddb

#endif  // REWINDDB_ENGINE_PARALLEL_REPLAY_H_
