// Row-granular strict two-phase lock manager.
//
// Lock keys are opaque strings built by the engine (tree id ++ encoded
// row key). Shared/exclusive modes, FIFO-ish wakeups, timeout-based
// deadlock resolution (the waiter aborts). Only the live database
// locks rows: an as-of snapshot keeps queries off the uncommitted rows
// of transactions in flight at its SplitLSN by undoing a tree's loser
// records before any query reads that tree
// (AsOfSnapshot::EnsureTreeRecovered), so it needs no lock manager.
#ifndef REWINDDB_TXN_LOCK_MANAGER_H_
#define REWINDDB_TXN_LOCK_MANAGER_H_

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace rewinddb {

enum class LockMode { kShared, kExclusive };

/// Build the canonical lock key for a row.
std::string RowLockKey(TreeId tree, const std::string& encoded_key);

/// Table-level schema lock key: DML holds it shared, DROP TABLE holds
/// it exclusive, so a drop can never deallocate pages under a
/// transaction with in-flight changes to the table.
std::string SchemaLockKey(TreeId tree);

class LockManager {
 public:
  /// \param timeout_micros how long a waiter blocks before it is
  ///        declared deadlocked and aborted.
  explicit LockManager(uint64_t timeout_micros = 1'000'000)
      : timeout_(timeout_micros) {}

  /// Acquire `key` in `mode` for `txn`. Blocks; returns Aborted on
  /// timeout. Re-entrant: a holder re-requesting a covered mode
  /// succeeds immediately; S->X upgrade succeeds when `txn` is the sole
  /// holder.
  Status Acquire(TxnId txn, const std::string& key, LockMode mode);

  /// Non-blocking variant; returns Busy instead of waiting.
  Status TryAcquire(TxnId txn, const std::string& key, LockMode mode);

  /// Release every lock held by `txn` (commit/abort).
  void ReleaseAll(TxnId txn);

  /// Number of distinct keys currently locked (tests/metrics).
  size_t LockedKeyCount() const;

  /// True if `txn` holds `key` in a mode covering `mode`.
  bool Holds(TxnId txn, const std::string& key, LockMode mode) const;

 private:
  struct LockState {
    // Granted holders: txn -> mode.
    std::map<TxnId, LockMode> holders;
    int waiters = 0;
  };

  bool CompatibleLocked(const LockState& st, TxnId txn, LockMode mode) const;
  Status AcquireInternal(TxnId txn, const std::string& key, LockMode mode,
                         bool blocking);

  const uint64_t timeout_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<std::string, LockState> locks_;
  std::unordered_map<TxnId, std::vector<std::string>> held_;
};

}  // namespace rewinddb

#endif  // REWINDDB_TXN_LOCK_MANAGER_H_
