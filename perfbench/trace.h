// In-memory span tracing around the benchmark's own calls into each
// engine layer. Off in the end-to-end runs (a span then costs one
// branch); on in the traced run, which keeps every span in per-thread
// buffers and writes them out when the workload ends.
#ifndef REWINDDB_PERFBENCH_TRACE_H_
#define REWINDDB_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names; the index is the name id stored in each Span.
enum SpanName : uint32_t {
  kTxn,           // one transaction, Begin to commit acknowledged (root)
  kInvestigation, // one AS OF investigation, mount to drop (root)
  kLiveQuery,     // one live query round (root)
  kApiDml,        // Connection::Get/Update/Insert
  kApiCommit,     // Txn::Commit
  kApiMount,      // AsOfSnapshot::Create (CREATE DATABASE ... AS SNAPSHOT)
  kApiDrop,       // snapshot drop
  kSqlParse,      // ParseSql
  kExecPlan,      // exec::PlanSelect
  kExecRun,       // executor Open + Next to the last row
  kClientPing,    // client::Client::Ping
  kClientBegin,
  kClientGet,
  kClientUpdate,
  kClientInsert,
  kClientCommit,
  kClientExecute,
  kSpanNameCount
};

inline const char* SpanNameText(uint32_t n) {
  static const char* const kNames[kSpanNameCount] = {
      "txn",           "investigation", "live_query",   "api.dml",
      "api.commit",    "api.mount",     "api.drop",     "sql.parse",
      "exec.plan",     "exec.run",      "client.ping",  "client.begin",
      "client.get",    "client.update", "client.insert", "client.commit",
      "client.execute"};
  return n < kSpanNameCount ? kNames[n] : "?";
}

class Tracer {
 public:
  static Tracer& Get() {
    static Tracer t;
    return t;
  }

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  struct ThreadState {
    std::vector<Span> spans;
    uint64_t next_id = 1;
    uint64_t thread_tag = 0;
    uint64_t current = 0;   // innermost open span on this thread
    uint64_t request = 0;   // root span id of the open request
  };

  ThreadState* Local() {
    thread_local ThreadState* st = nullptr;
    if (st == nullptr) {
      auto owned = std::make_unique<ThreadState>();
      owned->spans.reserve(1 << 16);
      std::lock_guard<std::mutex> g(mu_);
      owned->thread_tag = static_cast<uint64_t>(threads_.size() + 1) << 40;
      st = owned.get();
      threads_.push_back(std::move(owned));
    }
    return st;
  }

  /// Every span recorded so far, all threads. Call once the workload's
  /// threads have been joined.
  std::vector<Span> Collect() {
    std::lock_guard<std::mutex> g(mu_);
    std::vector<Span> all;
    for (auto& t : threads_) {
      all.insert(all.end(), t->spans.begin(), t->spans.end());
    }
    return all;
  }

 private:
  Tracer() = default;
  bool enabled_ = false;
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// RAII span. A span opened with no span open on its thread is a root
/// and starts a new request.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) {
    Tracer& t = Tracer::Get();
    if (!t.enabled()) return;
    st_ = t.Local();
    span_.name = name;
    span_.id = st_->thread_tag | st_->next_id++;
    span_.parent = st_->current;
    if (st_->current == 0) st_->request = span_.id;
    span_.request = st_->request;
    st_->current = span_.id;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (st_ == nullptr) return;
    span_.end_ns = NowNs();
    st_->current = span_.parent;
    if (span_.parent == 0) st_->request = 0;
    st_->spans.push_back(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::ThreadState* st_ = nullptr;
  Span span_;
};

}  // namespace perfbench

#endif  // REWINDDB_PERFBENCH_TRACE_H_
