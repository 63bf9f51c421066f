// SqlSession: the paper's SQL surface as a thin parser shim over
// Connection. Every statement parses into a SqlCommand and dispatches
// to exactly one Connection call:
//
//   CREATE DATABASE s AS SNAPSHOT OF db AS OF t  -> CreateSnapshot
//   DROP DATABASE s                              -> DropSnapshot
//   ALTER DATABASE db SET UNDO_INTERVAL = n U    -> SetRetention
//   FLASHBACK TRANSACTION n                      -> Flashback
//   SET COMMIT_MODE = SYNC|GROUP|ASYNC|NONE      -> SetDefaultCommitMode
//   CREATE TABLE / DROP TABLE                    -> CreateTable/DropTable
//   CHECKPOINT                                   -> FuzzyCheckpoint
//   SHOW STATS                                   -> engine counter rowset
//
// Statements execute against the session's own Connection, except the
// named-snapshot lifecycle (CREATE/DROP DATABASE, GetSnapshot), which
// routes to an optional shared *registry* Connection so snapshots
// created by one network session are visible to every other session of
// the same server.
#ifndef REWINDDB_SQL_SESSION_H_
#define REWINDDB_SQL_SESSION_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/connection.h"
#include "sql/parser.h"

namespace rewinddb {

/// The serializable result of one SQL statement: a human-readable
/// message plus, for rowset-producing statements (SHOW STATS), column
/// metadata and rows. This is the shape the wire protocol ships.
struct SqlResult {
  std::string message;
  bool has_rowset = false;
  std::vector<std::string> column_names;
  std::vector<ColumnType> column_types;
  std::vector<Row> rows;
};

class SqlSession {
 public:
  /// Shim over a caller-owned Connection. `snapshot_registry` (may be
  /// null = use `conn`) receives CREATE/DROP DATABASE and GetSnapshot,
  /// making named snapshots shareable across sessions.
  explicit SqlSession(Connection* conn,
                      Connection* snapshot_registry = nullptr)
      : conn_(conn), registry_(snapshot_registry) {}

  /// Parse and execute one statement; returns a human-readable result
  /// line (examples print it). Failures carry the offending statement
  /// fragment in the message.
  Result<std::string> Execute(const std::string& sql);

  /// Parse and execute one statement, returning the full structured
  /// result (message + optional rowset). The network server's entry
  /// point.
  Result<SqlResult> ExecuteStatement(const std::string& sql);

  /// Stable handle to a snapshot created by CREATE DATABASE ... AS
  /// SNAPSHOT. Safe to hold across DROP DATABASE: operations on a
  /// dropped snapshot fail with Status::Aborted instead of dangling.
  Result<std::shared_ptr<ReadView>> GetSnapshot(const std::string& name);

  /// Extra (metric, value) rows appended to SHOW STATS output: how the
  /// network server injects its session/admission counters.
  using StatsRow = std::pair<std::string, int64_t>;
  using ExtraStatsFn = std::function<void(std::vector<StatsRow>*)>;
  void set_extra_stats(ExtraStatsFn fn) { extra_stats_ = std::move(fn); }

  Connection* connection() { return conn_; }
  /// Where named-snapshot statements execute.
  Connection* registry() { return registry_ != nullptr ? registry_ : conn_; }
  Database* db() { return conn_->engine(); }

 private:
  SqlResult ShowStats();

  Connection* conn_;
  Connection* registry_ = nullptr;
  ExtraStatsFn extra_stats_;
};

}  // namespace rewinddb

#endif  // REWINDDB_SQL_SESSION_H_
