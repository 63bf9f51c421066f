#include "txn/transaction.h"

#include <thread>
#include <unordered_set>

namespace rewinddb {

Transaction* TransactionManager::Begin(bool is_system) {
  std::unique_lock<std::mutex> g(mu_);
  auto txn = std::make_unique<Transaction>();
  txn->id = next_id_++;
  txn->is_system = is_system;
  txn->commit_mode = default_commit_mode_;
  txn->writer = wal_->MakeWriter();
  Transaction* raw = txn.get();
  active_[raw->id] = std::move(txn);
  g.unlock();
  // Stage (don't publish) the BEGIN record: it reaches the log in one
  // splice with the transaction's first update.
  LogRecord begin;
  begin.type = LogType::kBegin;
  begin.txn_id = raw->id;
  begin.is_system = is_system;
  raw->writer.Stage(begin);
  return raw;
}

Lsn TransactionManager::Publish(Transaction* txn, const LogRecord& rec) {
  // The record gets its LSN inside the log's append lock, so a
  // checkpoint whose begin record follows it sees the odd count, and
  // its ATT capture waits for the even one, which follows last_lsn.
  txn->publishing++;
  Lsn base = kInvalidLsn;
  Lsn lsn = txn->writer.Append(rec, &base);
  OnAppended(txn, lsn, base);
  txn->publishing++;
  return lsn;
}

void TransactionManager::OnAppended(Transaction* txn, Lsn lsn,
                                    Lsn publish_base) {
  if (txn->first_lsn == kInvalidLsn) {
    txn->first_lsn = publish_base != kInvalidLsn ? publish_base : lsn;
  }
  txn->last_lsn = lsn;
}

Status TransactionManager::Commit(Transaction* txn) {
  if (txn->last_lsn == kInvalidLsn) {
    // Read-only: nothing was published (the staged BEGIN is simply
    // discarded with the descriptor), so there is nothing to log or
    // make durable -- commit is lock release alone.
    txn->state = TxnState::kCommitted;
    locks_->ReleaseAll(txn->id);
    Forget(txn);
    return Status::OK();
  }
  LogRecord rec;
  rec.type = LogType::kCommit;
  rec.txn_id = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.wall_clock = clock_->NowMicros();
  Lsn lsn;
  {
    // Append the COMMIT record and mark the transaction decided in one
    // step relative to ActiveTransactions(): a fuzzy checkpoint racing
    // the durability wait below must not capture this transaction as
    // active once its completion record has an LSN (see
    // Transaction::completion_logged).
    std::lock_guard<std::mutex> g(mu_);
    Lsn base = kInvalidLsn;
    lsn = txn->writer.Append(rec, &base);
    OnAppended(txn, lsn, base);
    txn->completion_logged = true;
  }
  // Durability: user commits wait per their CommitMode (kGroup parks on
  // the group-commit pipeline; kSync forces the log in this thread).
  // System transactions piggyback on the next flush, which is safe
  // because their effects only matter once referencing user records
  // are durable.
  if (!txn->is_system) {
    REWIND_RETURN_IF_ERROR(wal_->WaitCommit(lsn, txn->commit_mode));
  }
  txn->state = TxnState::kCommitted;
  locks_->ReleaseAll(txn->id);
  Forget(txn);
  return Status::OK();
}

Status RollbackChain(wal::Wal* wal, Transaction* txn, Lsn from_lsn,
                     UndoApplier* applier) {
  wal::Cursor cur = wal->OpenCursor();
  REWIND_RETURN_IF_ERROR(cur.SeekToChain(from_lsn));
  while (cur.Valid()) {
    const LogRecord& rec = cur.record();
    switch (rec.type) {
      case LogType::kClr:
        // Already-compensated region: skip to what remains.
        REWIND_RETURN_IF_ERROR(cur.FollowUndoNext());
        break;
      case LogType::kBegin:
        return Status::OK();
      case LogType::kCommit:
      case LogType::kAbort:
        return Status::Corruption("rollback hit a completion record");
      default:
        REWIND_RETURN_IF_ERROR(applier->UndoRecord(txn, cur.lsn(), rec));
        REWIND_RETURN_IF_ERROR(cur.FollowPrev());
        break;
    }
  }
  return Status::OK();
}

Status AnalyzeLog(wal::Wal* wal, Lsn start, Lsn stop, bool with_dpt,
                  LogAnalysis* out) {
  *out = LogAnalysis();
  std::unordered_set<TxnId> ended;  // committed/aborted in the scan
  wal::Cursor cur = wal->OpenCursor();
  REWIND_RETURN_IF_ERROR(cur.SeekTo(start));
  while (cur.Valid() && cur.lsn() < stop) {
    const LogRecord& rec = cur.record();
    out->records++;
    if (rec.type == LogType::kCheckpointEnd) {
      out->passed_checkpoint_end = true;
      for (const AttEntry& e : rec.att) {
        if (ended.count(e.txn_id) == 0) {
          out->att.emplace(e.txn_id, e.last_lsn);
        }
      }
      if (with_dpt) {
        for (const DptEntry& e : rec.dpt) {
          auto [it, fresh] = out->dpt.emplace(e.page_id, e.rec_lsn);
          if (!fresh && e.rec_lsn < it->second) it->second = e.rec_lsn;
        }
      }
    } else {
      if (rec.txn_id != kInvalidTxnId) {
        if (rec.type == LogType::kCommit || rec.type == LogType::kAbort) {
          out->att.erase(rec.txn_id);
          ended.insert(rec.txn_id);
        } else {
          out->att[rec.txn_id] = cur.lsn();
        }
      }
      if (with_dpt && rec.IsPageRecord()) {
        out->dpt.emplace(rec.page_id, cur.lsn());
      }
    }
    REWIND_RETURN_IF_ERROR(cur.Next());
  }
  for (auto it = out->att.begin(); it != out->att.end();) {
    REWIND_RETURN_IF_ERROR(cur.SeekToChain(it->second));
    const LogType head = cur.Valid() ? cur.record().type : LogType::kBegin;
    if (head == LogType::kCommit || head == LogType::kAbort) {
      it = out->att.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn, UndoApplier* applier) {
  REWIND_RETURN_IF_ERROR(RollbackChain(wal_, txn, txn->last_lsn, applier));
  if (txn->last_lsn != kInvalidLsn) {
    LogRecord rec;
    rec.type = LogType::kAbort;
    rec.txn_id = txn->id;
    rec.prev_lsn = txn->last_lsn;
    std::lock_guard<std::mutex> g(mu_);
    Lsn base = kInvalidLsn;
    Lsn lsn = txn->writer.Append(rec, &base);
    OnAppended(txn, lsn, base);
    txn->completion_logged = true;
  }
  txn->state = TxnState::kAborted;
  locks_->ReleaseAll(txn->id);
  Forget(txn);
  return Status::OK();
}

std::vector<AttEntry> TransactionManager::ActiveTransactions() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<AttEntry> att;
  att.reserve(active_.size());
  for (const auto& [id, txn] : active_) {
    // Decided transactions linger in active_ through the durability
    // wait; they are not recovery work and must not be captured.
    if (txn->completion_logged) continue;
    // A record published before the caller's begin record may not show
    // in last_lsn yet (it may even be the transaction's first): wait
    // for that publish to finish. Publish takes no lock held here.
    const uint64_t seq = txn->publishing.load();
    if (seq % 2 != 0) {
      while (txn->publishing.load() == seq) std::this_thread::yield();
    }
    if (txn->last_lsn != kInvalidLsn) att.push_back({id, txn->last_lsn});
  }
  return att;
}

Lsn TransactionManager::OldestActiveFirstLsn() const {
  std::lock_guard<std::mutex> g(mu_);
  Lsn oldest = kInvalidLsn;
  for (const auto& [id, txn] : active_) {
    if (txn->first_lsn == kInvalidLsn) continue;
    if (oldest == kInvalidLsn || txn->first_lsn < oldest) {
      oldest = txn->first_lsn;
    }
  }
  return oldest;
}

void TransactionManager::Forget(Transaction* txn) {
  std::lock_guard<std::mutex> g(mu_);
  active_.erase(txn->id);  // destroys the descriptor
}

Transaction* TransactionManager::AdoptForRecovery(TxnId id, Lsn last_lsn) {
  std::lock_guard<std::mutex> g(mu_);
  auto txn = std::make_unique<Transaction>();
  txn->id = id;
  txn->last_lsn = last_lsn;
  txn->writer = wal_->MakeWriter();
  txn->commit_mode = default_commit_mode_;
  Transaction* raw = txn.get();
  active_[id] = std::move(txn);
  if (id >= next_id_) next_id_ = id + 1;
  return raw;
}

TxnId TransactionManager::NextTxnIdHint() const {
  std::lock_guard<std::mutex> g(mu_);
  return next_id_;
}

void TransactionManager::BumpTxnId(TxnId floor) {
  std::lock_guard<std::mutex> g(mu_);
  if (floor > next_id_) next_id_ = floor;
}

}  // namespace rewinddb
