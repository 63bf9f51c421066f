#include "engine/flashback.h"

#include <shared_mutex>
#include <vector>

#include "btree/btree.h"
#include "catalog/catalog.h"
#include "page/slotted_page.h"
#include "txn/lock_manager.h"

namespace rewinddb {

namespace {

/// One reversible row operation of the victim, in log order.
struct VictimOp {
  LogType op;
  TreeId tree;
  std::string image;   // insert/delete: the entry; update: OLD entry
  std::string image2;  // update: NEW entry (the victim's after-image)
};

}  // namespace

Result<FlashbackResult> FlashbackTransaction(Database* db, TxnId victim) {
  wal::Wal* log = db->log();

  // Locate the victim's commit record with one forward cursor pass (the
  // ATT only knows active transactions); bounded by the retained log.
  // The commit record's prev_lsn is the chain head to undo from.
  Lsn commit_prev = kInvalidLsn;
  bool committed = false;
  bool aborted = false;
  {
    wal::Cursor cur = log->OpenCursor();
    REWIND_RETURN_IF_ERROR(cur.SeekTo(log->start_lsn()));
    while (cur.Valid()) {
      const LogRecord& rec = cur.record();
      if (rec.txn_id == victim) {
        if (rec.type == LogType::kCommit) {
          committed = true;
          commit_prev = rec.prev_lsn;
          break;
        }
        if (rec.type == LogType::kAbort) {
          aborted = true;
          break;
        }
      }
      REWIND_RETURN_IF_ERROR(cur.Next());
    }
  }
  if (aborted) {
    return Status::InvalidArgument("transaction " + std::to_string(victim) +
                                   " was rolled back; nothing to undo");
  }
  if (!committed) {
    // Either unknown or still active.
    return Status::NotFound("no committed transaction " +
                            std::to_string(victim) +
                            " found in the retained log");
  }

  // Collect the victim's row operations by walking its chain backwards
  // from the commit record (honouring CLR skips from any partial
  // rollback it performed while running).
  std::vector<VictimOp> reversed;  // in reverse-execution order
  {
    wal::Cursor cur = log->OpenCursor();
    REWIND_RETURN_IF_ERROR(cur.SeekToChain(commit_prev));
    while (cur.Valid()) {
      const LogRecord& rec = cur.record();
      if (rec.type == LogType::kClr) {
        REWIND_RETURN_IF_ERROR(cur.FollowUndoNext());
        continue;
      }
      if (rec.type == LogType::kBegin) break;
      if (!rec.is_system &&
          (rec.type == LogType::kInsert || rec.type == LogType::kDelete ||
           rec.type == LogType::kUpdate)) {
        if (rec.tree_id == Catalog::kSysTablesRoot ||
            rec.tree_id == Catalog::kSysIndexesRoot) {
          // DDL: the catalog rows name pages the commit allocated or
          // freed. Undoing the rows alone would leak a created object's
          // pages, or resurrect a dropped one over freed pages.
          return Status::InvalidArgument(
              "transaction " + std::to_string(victim) +
              " changed the schema; flashback undoes row changes only");
        }
        reversed.push_back({rec.type, rec.tree_id, rec.image, rec.image2});
      }
      REWIND_RETURN_IF_ERROR(cur.FollowPrev());
    }
  }

  // Apply the inverses in a fresh transaction, with conflict checks.
  Transaction* txn = db->Begin();
  TreeWriteContext ctx = db->write_ctx();
  Status failure;
  size_t undone = 0;
  for (const VictimOp& op : reversed) {
    Slice entry = op.image;
    Slice key = SlottedPage::EntryKey(entry);
    // Strict 2PL on the row, then the tree's writer latch.
    failure = db->locks()->Acquire(txn->id, RowLockKey(op.tree, key.ToString()),
                                   LockMode::kExclusive);
    if (!failure.ok()) break;
    BTree tree(op.tree);
    std::unique_lock<std::shared_mutex> tl(*db->TreeLatch(op.tree));
    switch (op.op) {
      case LogType::kInsert: {
        // Undo an insert: the row must still hold the victim's value.
        auto cur = tree.Get(ctx.buffers, key);
        if (!cur.ok()) {
          failure = cur.status().IsNotFound()
                        ? Status::Aborted("flashback conflict: row deleted "
                                          "by a later transaction")
                        : cur.status();
          break;
        }
        if (Slice(*cur) != SlottedPage::EntryValue(entry)) {
          failure = Status::Aborted(
              "flashback conflict: row re-modified by a later transaction");
          break;
        }
        failure = tree.Delete(ctx, txn, key);
        break;
      }
      case LogType::kDelete: {
        // Undo a delete: the key must still be absent.
        auto cur = tree.Get(ctx.buffers, key);
        if (cur.ok()) {
          failure = Status::Aborted(
              "flashback conflict: key re-inserted by a later transaction");
          break;
        }
        if (!cur.status().IsNotFound()) {
          failure = cur.status();
          break;
        }
        failure = tree.Insert(ctx, txn, key,
                              SlottedPage::EntryValue(entry));
        break;
      }
      case LogType::kUpdate: {
        // Undo an update: the row must still hold the victim's NEW
        // value; restore the OLD one.
        auto cur = tree.Get(ctx.buffers, key);
        if (!cur.ok()) {
          failure = cur.status().IsNotFound()
                        ? Status::Aborted("flashback conflict: row deleted "
                                          "by a later transaction")
                        : cur.status();
          break;
        }
        if (Slice(*cur) != SlottedPage::EntryValue(op.image2)) {
          failure = Status::Aborted(
              "flashback conflict: row re-modified by a later transaction");
          break;
        }
        failure = tree.Update(ctx, txn, key,
                              SlottedPage::EntryValue(entry));
        break;
      }
      default:
        failure = Status::Corruption("flashback: unexpected op");
        break;
    }
    if (!failure.ok()) break;
    undone++;
  }

  if (!failure.ok()) {
    Status a = db->Abort(txn);
    (void)a;
    return failure;
  }
  FlashbackResult out;
  out.compensating_txn = txn->id;
  out.operations_undone = undone;
  REWIND_RETURN_IF_ERROR(db->Commit(txn));
  return out;
}

}  // namespace rewinddb
