// Transaction descriptor and the transaction manager.
#ifndef REWINDDB_TXN_TRANSACTION_H_
#define REWINDDB_TXN_TRANSACTION_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/types.h"
#include "txn/lock_manager.h"
#include "wal/commit_mode.h"
#include "wal/wal.h"
#include "wal/wal_writer.h"

namespace rewinddb {

enum class TxnState { kActive, kCommitted, kAborted };

/// A running transaction. The engine threads one of these through every
/// DML call; the transaction manager owns the storage.
struct Transaction {
  TxnId id = kInvalidTxnId;
  TxnState state = TxnState::kActive;
  /// LSN of the first published record -- the BEGIN record, which the
  /// writer stages at Begin and publishes together with the first
  /// update (log-retention floor for active txns). Atomic: written by
  /// the owning thread as it publishes, read cross-thread by fuzzy
  /// checkpoints (ActiveTransactions) and the retention floor
  /// (OldestActiveFirstLsn) while the owner keeps running.
  std::atomic<Lsn> first_lsn{kInvalidLsn};
  /// LSN of the most recent record (head of the prevLSN chain). Same
  /// cross-thread read contract as first_lsn.
  std::atomic<Lsn> last_lsn{kInvalidLsn};
  /// Odd while TransactionManager::Publish has put a record in the log
  /// that first_lsn/last_lsn may not show yet.
  std::atomic<uint64_t> publishing{0};
  /// System transactions wrap B-tree structure modifications and page
  /// (de)allocations: short, committed within the operation, and undone
  /// *physically* during recovery (their pages cannot have been touched
  /// by anyone else in between).
  bool is_system = false;
  /// Durability level of this transaction's commit (set from the
  /// engine/connection default at Begin; Txn::Commit(mode) overrides).
  CommitMode commit_mode = CommitMode::kGroup;
  /// True once the COMMIT/ABORT record has been appended to the log.
  /// Guarded by TransactionManager::mu_. A decided transaction must
  /// never appear in a fuzzy checkpoint's ATT: its descriptor lingers
  /// in `active_` through the durability wait, and an ATT entry whose
  /// last_lsn is a completion record would let a later analysis pass
  /// (whose scan starts above that LSN) resurrect the transaction as a
  /// loser and undo committed work.
  bool completion_logged = false;
  /// Per-transaction WAL write handle: stages record encodings locally
  /// and publishes them in batches.
  wal::Writer writer;
};

/// Logical-undo callback implemented by the engine layer: applies the
/// inverse of `rec` and logs a CLR whose undo_next_lsn is
/// `rec.prev_lsn`.
class UndoApplier {
 public:
  virtual ~UndoApplier() = default;
  virtual Status UndoRecord(Transaction* txn, Lsn lsn,
                            const LogRecord& rec) = 0;
};

/// Creates transactions, logs their begin/commit/abort, drives
/// rollback, and tracks the active transaction table (ATT).
class TransactionManager {
 public:
  TransactionManager(wal::Wal* wal, LockManager* locks, Clock* clock,
                     CommitMode default_commit_mode = CommitMode::kGroup)
      : wal_(wal), locks_(locks), clock_(clock),
        default_commit_mode_(default_commit_mode) {}

  /// Start a transaction. The BEGIN record is staged in the
  /// transaction's writer and published with its first update, so a
  /// read-only transaction costs no log space until commit.
  Transaction* Begin(bool is_system = false);

  /// Commit: append COMMIT (with wall-clock for SplitLSN search), then
  /// wait per the transaction's CommitMode (user transactions; system
  /// transactions piggyback on the next flush), release locks.
  Status Commit(Transaction* txn);

  /// Roll back every change of `txn` via logical undo + CLRs, then log
  /// ABORT and release locks.
  Status Abort(Transaction* txn, UndoApplier* applier);

  /// Publish `rec` through the transaction's writer and advance its
  /// prevLSN chain; returns the record's LSN. The engine's one path for
  /// a transaction's non-completion records.
  Lsn Publish(Transaction* txn, const LogRecord& rec);

  /// Snapshot of the ATT for checkpoint-end records. A publish in
  /// flight is waited out first, so when the caller appended its
  /// checkpoint begin record beforehand, every transaction record
  /// below it shows in the ATT -- which analysis, starting at that
  /// record, relies on.
  std::vector<AttEntry> ActiveTransactions() const;

  /// Log-retention floor: the oldest first_lsn among active
  /// transactions, or kInvalidLsn if none are active.
  Lsn OldestActiveFirstLsn() const;

  /// Forget a finished transaction's descriptor.
  void Forget(Transaction* txn);

  /// Register a descriptor reconstructed by crash recovery.
  Transaction* AdoptForRecovery(TxnId id, Lsn last_lsn);

  /// Highest transaction id issued (persisted via checkpoints so ids
  /// stay unique across restarts).
  TxnId NextTxnIdHint() const;
  void BumpTxnId(TxnId floor);

 private:
  /// Keep the prevLSN chain and ATT current after publishing a record
  /// for `txn`. `publish_base` is the LSN of the first byte the publish
  /// spliced (the staged BEGIN when the writer held one); it anchors
  /// first_lsn.
  void OnAppended(Transaction* txn, Lsn lsn, Lsn publish_base = kInvalidLsn);

  wal::Wal* wal_;
  LockManager* locks_;
  Clock* clock_;
  const CommitMode default_commit_mode_;

  mutable std::mutex mu_;
  TxnId next_id_ = 1;
  std::map<TxnId, std::unique_ptr<Transaction>> active_;
};

/// Drive the rollback of one transaction chain: walks prevLSN from
/// `from_lsn` with a wal::Cursor, calling `applier` for undoable
/// records and honouring CLR undo_next jumps. Shared by runtime abort
/// and crash-recovery undo, which rolls a loser back exactly like a
/// runtime abort. (Snapshot loser undo is unlogged and per tree; see
/// AsOfSnapshot.)
Status RollbackChain(wal::Wal* wal, Transaction* txn, Lsn from_lsn,
                     UndoApplier* applier);

/// What an ARIES analysis pass found.
struct LogAnalysis {
  /// Losers: transactions in flight at the end of the scan -> the head
  /// (last LSN) of their prevLSN chain.
  std::unordered_map<TxnId, Lsn> att;
  /// Dirty page table: page -> recLSN (filled only when asked for).
  std::unordered_map<PageId, Lsn> dpt;
  /// Records the scan decoded.
  uint64_t records = 0;
  /// Whether the scan passed a checkpoint end record.
  bool passed_checkpoint_end = false;
};

/// ARIES analysis of the records in [start, stop), shared by crash
/// restart and snapshot mounts. A checkpoint end record's tables are
/// merged with what the scan itself sees, since the checkpoint may be
/// fuzzy:
///  * its ATT entries never resurrect a transaction whose COMMIT/ABORT
///    the scan already passed (a commit can land between the begin
///    record and the end record's capture);
///  * DPT entries (`with_dpt`) merge with MIN(recLSN): a page modified
///    between checkpoint begin and end is seen by the scan FIRST with a
///    too-late recLSN, and the checkpoint's older entry must win or
///    redo would skip its unflushed pre-checkpoint records.
/// Finally a loser whose chain head is a COMMIT/ABORT record is
/// dropped: a checkpoint ATT written by an older build can list a
/// decided transaction whose completion record predates `start`
/// (captured during its durability wait), and undo would walk past that
/// record into committed history.
Status AnalyzeLog(wal::Wal* wal, Lsn start, Lsn stop, bool with_dpt,
                  LogAnalysis* out);

}  // namespace rewinddb

#endif  // REWINDDB_TXN_TRANSACTION_H_
