// Single-transaction undo: the paper's stated future work (§8, "we are
// working on extending our scheme to undo a specific transaction").
//
// Given the id of a COMMITTED transaction, FlashbackTransaction walks
// its prevLSN chain backwards and applies the logical inverse of every
// row operation inside a fresh transaction: inserts are deleted,
// deletes re-inserted, updates restored. Before each inverse the
// current row is compared with the victim's after-image; if a later
// transaction has since re-modified the row, the flashback aborts with
// Status::Aborted (a write-write conflict the application must
// reconcile -- exactly the caveat the paper's §8 anticipates).
#ifndef REWINDDB_ENGINE_FLASHBACK_H_
#define REWINDDB_ENGINE_FLASHBACK_H_

#include "common/result.h"
#include "engine/database.h"

namespace rewinddb {

struct FlashbackResult {
  /// Id of the compensating transaction that was committed.
  TxnId compensating_txn = kInvalidTxnId;
  /// Row operations reversed.
  size_t operations_undone = 0;
};

/// Undo the committed transaction `victim`. The whole flashback is
/// atomic: on any conflict or error the compensating transaction is
/// rolled back and the database is unchanged.
///
/// DEPRECATED as an application surface: call Connection::Flashback
/// (or the SQL statement FLASHBACK TRANSACTION <id>) instead; this free
/// function remains the engine-level implementation underneath both.
///
/// Errors: NotFound if no trace of `victim` is in the retained log,
/// InvalidArgument if `victim` did not commit (aborted or still
/// active) or changed the schema (CREATE/DROP TABLE or INDEX), Aborted
/// on a write-write conflict with a later transaction.
Result<FlashbackResult> FlashbackTransaction(Database* db, TxnId victim);

}  // namespace rewinddb

#endif  // REWINDDB_ENGINE_FLASHBACK_H_
