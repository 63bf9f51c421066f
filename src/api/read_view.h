// The unified time-travel query surface (the paper's §5–§8 made into an
// API): a ReadView is "a database you can read", whether that is
//
//   * the live database, untracked (read-committed-ish point reads),
//   * the live database under a transaction's two-phase row locks, or
//   * an as-of snapshot of an arbitrary wall-clock time within the
//     retention period.
//
// Every view hands out TableViews with the same Get/Scan/IndexScan/
// Count signatures, so a query written once runs unchanged against the
// present or the past -- which is the paper's whole point: point-in-time
// queries should look like ordinary queries.
#ifndef REWINDDB_API_READ_VIEW_H_
#define REWINDDB_API_READ_VIEW_H_

#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/value.h"

namespace rewinddb {

class AsOfSnapshot;
class Database;
struct Transaction;

/// Read-only handle to one table of a ReadView.
class TableView {
 public:
  using RowCallback = std::function<bool(const Row&)>;

  virtual ~TableView() = default;

  virtual const Schema& schema() const = 0;
  virtual const TableInfo& info() const = 0;
  virtual const std::vector<IndexInfo>& indexes() const = 0;

  /// Point lookup by key values (a Row of the key columns).
  virtual Result<Row> Get(const Row& key_values) = 0;

  /// Scan rows with key in [lower, upper) in key order; nullopt bounds
  /// are open. The callback returns false to stop early.
  virtual Status Scan(const std::optional<Row>& lower,
                      const std::optional<Row>& upper,
                      const RowCallback& cb) = 0;

  /// Equality lookup through a secondary index: `prefix_values` are
  /// values for (a prefix of) the index's key columns.
  virtual Status IndexScan(const std::string& index_name,
                           const Row& prefix_values,
                           const RowCallback& cb) = 0;

  /// Row count (O(n) in the worst case).
  virtual Result<uint64_t> Count() = 0;
};

/// A queryable, transactionally consistent view of the database: live,
/// or as of a point in time.
class ReadView {
 public:
  virtual ~ReadView() = default;

  virtual Result<std::unique_ptr<TableView>> OpenTable(
      const std::string& name) = 0;
  virtual Result<std::vector<TableInfo>> ListTables() = 0;

  /// True for as-of snapshot views.
  virtual bool is_snapshot() const = 0;

  /// Snapshot boundary wall-clock (microseconds); 0 for live views.
  virtual WallClock as_of() const { return 0; }

  /// Snapshot views: block until the background undo of in-flight
  /// transactions finishes, and report its failure. Queries are correct
  /// before that: a query of a tree the pass has not undone yet waits
  /// for that tree's undo or runs it, and a tree whose undo failed is
  /// retried, never read as is. Live views: no-op.
  virtual Status WaitReady() { return Status::OK(); }
};

/// Live view over `db`. With `txn`, reads run under that transaction's
/// two-phase row locks (repeatable); with nullptr, reads are untracked.
/// Borrows both pointers: the view must not outlive them.
std::unique_ptr<ReadView> WrapLive(Database* db, Transaction* txn = nullptr);

/// As-of view borrowing an engine-owned snapshot. The view must not
/// outlive `snap`; snapshot lifecycle stays with the caller. Prefer
/// Connection::AsOf / Connection::Snapshot, which own the lifetime.
std::unique_ptr<ReadView> WrapSnapshot(AsOfSnapshot* snap);

namespace api_internal {

/// Shared ownership cell behind Connection's snapshot handles. The
/// snapshot can be released deterministically (DROP DATABASE) while
/// outstanding ReadView/TableView handles stay safe: they take `mu`
/// shared for the duration of each call and fail cleanly once `snap`
/// is null.
struct SnapshotState {
  SnapshotState();
  ~SnapshotState();

  std::shared_mutex mu;
  std::unique_ptr<AsOfSnapshot> owned;  // engine object (null if borrowed)
  AsOfSnapshot* snap = nullptr;         // null once dropped
};

/// Wrap an owned snapshot into a state cell.
std::shared_ptr<SnapshotState> AdoptSnapshot(
    std::unique_ptr<AsOfSnapshot> snap);

/// A ReadView sharing ownership of `state`.
std::shared_ptr<ReadView> ViewOf(std::shared_ptr<SnapshotState> state);

/// Deterministically destroy the snapshot behind `state`: waits out
/// in-flight reads, joins the background undo, deletes the side file.
/// Handles that survive return Status::Aborted afterwards.
Status ReleaseSnapshot(SnapshotState* state);

}  // namespace api_internal

}  // namespace rewinddb

#endif  // REWINDDB_API_READ_VIEW_H_
