#include "sql/session.h"

#include "exec/planner.h"

namespace rewinddb {

namespace {
/// Append the statement fragment to an execution error, unless a parse
/// error already embedded one: wire clients must always see which
/// statement failed.
Status WithStatement(const Status& st, const std::string& sql) {
  if (st.ok()) return st;
  if (st.message().find("[statement:") != std::string::npos) return st;
  std::string msg = st.message() + " [statement: \"" +
                    StatementFragment(sql) + "\"]";
  return Status::FromCode(st.code(), std::move(msg));
}
}  // namespace

Result<std::string> SqlSession::Execute(const std::string& sql) {
  REWIND_ASSIGN_OR_RETURN(SqlResult r, ExecuteStatement(sql));
  return r.message;
}

Result<SqlResult> SqlSession::ExecuteStatement(const std::string& sql) {
  Result<SqlCommand> parsed = ParseSql(sql);
  if (!parsed.ok()) return parsed.status();
  const SqlCommand& cmd = *parsed;
  SqlResult out;
  switch (cmd.kind) {
    case SqlCommand::Kind::kCreateSnapshot: {
      Status s = registry()->CreateSnapshot(cmd.name, cmd.as_of);
      if (!s.ok()) return WithStatement(s, sql);
      Result<std::shared_ptr<ReadView>> view = registry()->Snapshot(cmd.name);
      if (!view.ok()) return WithStatement(view.status(), sql);
      out.message = "Created snapshot " + cmd.name + " as of " +
                    FormatTimestamp((*view)->as_of());
      return out;
    }
    case SqlCommand::Kind::kAlterUndoInterval: {
      Status s = conn_->SetRetention(cmd.undo_interval_micros);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = std::string("Undo interval set to ") +
                    std::to_string(cmd.undo_interval_micros / 1'000'000) +
                    " seconds";
      return out;
    }
    case SqlCommand::Kind::kDropDatabase: {
      Status s = registry()->DropSnapshot(cmd.name);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Dropped snapshot " + cmd.name;
      return out;
    }
    case SqlCommand::Kind::kFlashback: {
      Result<FlashbackResult> r = conn_->Flashback(cmd.txn_id);
      if (!r.ok()) return WithStatement(r.status(), sql);
      out.message = "Flashback of transaction " + std::to_string(cmd.txn_id) +
                    " undid " + std::to_string(r->operations_undone) +
                    " operations (compensating transaction " +
                    std::to_string(r->compensating_txn) + ")";
      return out;
    }
    case SqlCommand::Kind::kCreateTable: {
      Status s = conn_->CreateTable(cmd.name, cmd.schema);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Created table " + cmd.name;
      return out;
    }
    case SqlCommand::Kind::kDropTable: {
      Status s = conn_->DropTable(cmd.name);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Dropped table " + cmd.name;
      return out;
    }
    case SqlCommand::Kind::kSetCommitMode: {
      conn_->SetDefaultCommitMode(cmd.commit_mode);
      out.message = std::string("Commit mode set to ") +
                    CommitModeName(cmd.commit_mode);
      return out;
    }
    case SqlCommand::Kind::kSetMountMode: {
      conn_->SetLazyMounts(cmd.lazy_mount);
      out.message = std::string("Mount mode set to ") +
                    (cmd.lazy_mount ? "LAZY" : "EAGER");
      return out;
    }
    case SqlCommand::Kind::kCheckpoint: {
      Status s = conn_->FuzzyCheckpoint();
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Checkpoint complete";
      return out;
    }
    case SqlCommand::Kind::kShowStats:
      return ShowStats();
    case SqlCommand::Kind::kCreateIndex: {
      Status s = conn_->CreateIndex(cmd.name, cmd.source, cmd.index_columns);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Created index " + cmd.name + " on " + cmd.source;
      return out;
    }
    case SqlCommand::Kind::kDropIndex: {
      Status s = conn_->DropIndex(cmd.name);
      if (!s.ok()) return WithStatement(s, sql);
      out.message = "Dropped index " + cmd.name;
      return out;
    }
    case SqlCommand::Kind::kSelect:
    case SqlCommand::Kind::kExplain: {
      const sql::SelectStmt& stmt = *cmd.select;
      // Resolve the view the statement's time-travel clause names:
      // SNAPSHOT OF -> the shared named snapshot, AS OF -> a fresh
      // as-of view, neither -> the live database. The planner and
      // executors see only the ReadView, never which kind it is.
      std::shared_ptr<ReadView> shared_view;
      std::unique_ptr<ReadView> live_view;
      ReadView* view = nullptr;
      if (!stmt.snapshot.empty()) {
        Result<std::shared_ptr<ReadView>> v = registry()->Snapshot(
            stmt.snapshot);
        if (!v.ok()) return WithStatement(v.status(), sql);
        shared_view = std::move(*v);
        view = shared_view.get();
      } else if (stmt.as_of != 0) {
        Result<std::shared_ptr<ReadView>> v = conn_->AsOf(stmt.as_of);
        if (!v.ok()) return WithStatement(v.status(), sql);
        shared_view = std::move(*v);
        view = shared_view.get();
      } else {
        live_view = conn_->Live();
        view = live_view.get();
      }
      Status ready = view->WaitReady();
      if (!ready.ok()) return WithStatement(ready, sql);
      if (cmd.kind == SqlCommand::Kind::kExplain) {
        Result<exec::PreparedQuery> q = exec::PlanSelect(view, stmt);
        if (!q.ok()) return WithStatement(q.status(), sql);
        out.has_rowset = true;
        out.column_names = {"plan"};
        out.column_types = {ColumnType::kString};
        for (std::string& line : q->ExplainLines()) {
          out.rows.push_back({Value(std::move(line))});
        }
        out.message = std::to_string(out.rows.size()) + " plan steps";
        return out;
      }
      Result<exec::SelectOutput> r = exec::RunSelect(view, stmt);
      if (!r.ok()) return WithStatement(r.status(), sql);
      out.has_rowset = true;
      out.column_names = std::move(r->column_names);
      out.column_types = std::move(r->column_types);
      out.rows = std::move(r->rows);
      out.message = std::to_string(out.rows.size()) +
                    (out.rows.size() == 1 ? " row" : " rows");
      return out;
    }
  }
  return WithStatement(Status::InvalidArgument("unhandled statement"), sql);
}

SqlResult SqlSession::ShowStats() {
  SqlResult out;
  out.has_rowset = true;
  out.column_names = {"metric", "value"};
  out.column_types = {ColumnType::kString, ColumnType::kInt64};

  std::vector<StatsRow> rows;
  auto add = [&rows](const char* name, uint64_t v) {
    rows.emplace_back(name, static_cast<int64_t>(v));
  };

  BufferManager::Stats bs = conn_->BufferStats();
  add("buffer.hits", bs.hits);
  add("buffer.misses", bs.misses);
  add("buffer.evictions", bs.evictions);
  add("buffer.shards", bs.shards);
  add("buffer.pool_pages", bs.pool_pages);
  add("buffer.frames", bs.frames);

  VersionStore::Stats vs = conn_->VersionStoreStats();
  add("version_store.exact_hits", vs.exact_hits);
  add("version_store.partial_hits", vs.partial_hits);
  add("version_store.misses", vs.misses);
  add("version_store.published", vs.published);
  add("version_store.evictions", vs.evictions);
  add("version_store.cap_drops", vs.cap_drops);
  add("version_store.truncation_drops", vs.truncation_drops);
  const VersionStore* versions = conn_->engine()->version_store();
  add("version_store.versions", versions->version_count());
  add("version_store.bytes_used", versions->bytes_used());

  wal::WalStats ws = conn_->engine()->log()->stats();
  add("wal.fsyncs", ws.fsyncs);
  add("wal.flushed_bytes", ws.flushed_bytes);
  add("wal.max_batch_bytes", ws.max_batch_bytes);
  add("wal.appends", ws.appends);
  add("wal.group_commit_waits", ws.group_commit_waits);
  add("wal.sync_commits", ws.sync_commits);
  add("wal.group_commits", ws.group_commits);
  add("wal.async_commits", ws.async_commits);
  add("wal.none_commits", ws.none_commits);
  // WAL-diet evidence: per-kind record bytes (nonzero kinds only), FPI
  // delta effectiveness, and flush-batch compression frames.
  for (size_t i = 0; i < wal::WalStats::kTypeSlots; i++) {
    if (ws.record_counts[i] == 0) continue;
    const std::string kind = LogTypeName(static_cast<LogType>(i));
    rows.emplace_back("wal.record_counts." + kind,
                      static_cast<int64_t>(ws.record_counts[i]));
    rows.emplace_back("wal.record_bytes." + kind,
                      static_cast<int64_t>(ws.record_bytes[i]));
  }
  add("wal.fpi_delta_hits", ws.fpi_delta_hits);
  add("wal.fpi_delta_fallbacks", ws.fpi_delta_fallbacks);
  add("wal.frames_written", ws.frames_written);
  add("wal.frame_logical_bytes", ws.frame_logical_bytes);
  add("wal.frame_physical_bytes", ws.frame_physical_bytes);

  wal::ArchiveStats as = conn_->ArchiveStats();
  add("archive.segments_sealed", as.segments_sealed);
  add("archive.segments_dropped", as.segments_dropped);
  add("archive.bytes_sealed", as.bytes_sealed);
  add("archive.bytes_dropped", as.bytes_dropped);
  add("archive.bytes_read", as.bytes_read);
  add("archive.verifications", as.verifications);

  LazyMountCounters lm = conn_->LazyMountStats();
  add("lazy_mount.lazy_mounts", lm.lazy_mounts);
  add("lazy_mount.eager_mounts", lm.eager_mounts);
  add("lazy_mount.pages_recovered_on_demand", lm.pages_recovered_on_demand);
  add("lazy_mount.trees_recovered_on_demand", lm.trees_recovered_on_demand);
  add("lazy_mount.sweeps_completed", lm.sweeps_completed);

  add("retention.undo_interval_micros", conn_->retention_micros());
  add("snapshots.named", registry()->ListSnapshots().size());
  add("snapshots.open_anchors", conn_->engine()->SnapshotAnchorCount());

  if (extra_stats_) extra_stats_(&rows);

  out.rows.reserve(rows.size());
  for (const StatsRow& r : rows) {
    out.rows.push_back({Value(r.first), Value(r.second)});
  }
  out.message = std::to_string(out.rows.size()) + " metrics";
  return out;
}

Result<std::shared_ptr<ReadView>> SqlSession::GetSnapshot(
    const std::string& name) {
  return registry()->Snapshot(name);
}

}  // namespace rewinddb
