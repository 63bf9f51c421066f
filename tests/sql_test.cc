// Tests for the SQL shim: parser and session execution.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "engine/database.h"
#include "engine/table.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

TEST(SqlParserTest, CreateSnapshotWithTimestamp) {
  auto cmd = ParseSql(
      "CREATE DATABASE SampleDBAsOfSnap AS SNAPSHOT OF SampleDB "
      "AS OF '2012-03-22 17:26:25.473'");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->kind, SqlCommand::Kind::kCreateSnapshot);
  EXPECT_EQ(cmd->name, "SampleDBAsOfSnap");
  EXPECT_EQ(cmd->source, "SampleDB");
  // 2012-03-22 17:26:25.473 UTC.
  auto expected = ParseTimestamp("2012-03-22 17:26:25.473");
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(cmd->as_of, *expected);
  EXPECT_EQ(*expected % 1'000'000, 473'000u);
}

TEST(SqlParserTest, CreateSnapshotWithMicrosecondLiteral) {
  auto cmd = ParseSql("create database s1 as snapshot of db as of 123456789");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->as_of, 123456789u);
  EXPECT_EQ(cmd->name, "s1");
}

TEST(SqlParserTest, AlterUndoIntervalUnits) {
  auto hours =
      ParseSql("ALTER DATABASE SampleDB SET UNDO_INTERVAL = 24 HOURS");
  ASSERT_TRUE(hours.ok()) << hours.status().ToString();
  EXPECT_EQ(hours->kind, SqlCommand::Kind::kAlterUndoInterval);
  EXPECT_EQ(hours->undo_interval_micros, 24ULL * 3600 * 1'000'000);

  auto minutes = ParseSql("alter database d set undo_interval = 90 minutes");
  ASSERT_TRUE(minutes.ok());
  EXPECT_EQ(minutes->undo_interval_micros, 90ULL * 60 * 1'000'000);

  auto seconds = ParseSql("ALTER DATABASE d SET UNDO_INTERVAL = 5 SECONDS");
  ASSERT_TRUE(seconds.ok());
  EXPECT_EQ(seconds->undo_interval_micros, 5ULL * 1'000'000);
}

TEST(SqlParserTest, DropStatements) {
  auto snap = ParseSql("DROP DATABASE snap1");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->kind, SqlCommand::Kind::kDropDatabase);
  EXPECT_EQ(snap->name, "snap1");

  auto table = ParseSql("DROP TABLE orders");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->kind, SqlCommand::Kind::kDropTable);
  EXPECT_EQ(table->name, "orders");
}

TEST(SqlParserTest, CreateTableReordersKeyPrefix) {
  auto cmd = ParseSql(
      "CREATE TABLE orders (note TEXT, o_id INT, total DOUBLE, "
      "w_id INT, PRIMARY KEY (w_id, o_id))");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  const Schema& s = cmd->schema;
  ASSERT_EQ(s.num_columns(), 4u);
  EXPECT_EQ(s.num_key_columns(), 2u);
  EXPECT_EQ(s.columns()[0].name, "w_id");
  EXPECT_EQ(s.columns()[1].name, "o_id");
  EXPECT_EQ(s.columns()[0].type, ColumnType::kInt32);
  // Non-key columns follow in declaration order.
  EXPECT_EQ(s.columns()[2].name, "note");
  EXPECT_EQ(s.columns()[3].name, "total");
}

TEST(SqlParserTest, VarcharLengthIgnored) {
  auto cmd = ParseSql(
      "CREATE TABLE t (id INT, name VARCHAR(255), PRIMARY KEY (id))");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->schema.columns()[1].type, ColumnType::kString);
}

TEST(SqlParserTest, Errors) {
  EXPECT_TRUE(ParseSql("SELECT 1").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("CREATE VIEW v").status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("CREATE DATABASE s AS SNAPSHOT OF").status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("CREATE TABLE t (id INT)").status()
                  .IsInvalidArgument());  // no primary key
  EXPECT_TRUE(
      ParseSql("ALTER DATABASE d SET UNDO_INTERVAL = 5 FORTNIGHTS").status()
          .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("CREATE DATABASE s AS SNAPSHOT OF d AS OF 'nope'")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseSql("DROP TABLE 'unterminated").status()
                  .IsInvalidArgument());
}

TEST(SqlParserTest, FlashbackTransaction) {
  auto cmd = ParseSql("FLASHBACK TRANSACTION 42");
  ASSERT_TRUE(cmd.ok()) << cmd.status().ToString();
  EXPECT_EQ(cmd->kind, SqlCommand::Kind::kFlashback);
  EXPECT_EQ(cmd->txn_id, 42u);
  EXPECT_TRUE(ParseSql("FLASHBACK").status().IsInvalidArgument());
  EXPECT_TRUE(
      ParseSql("FLASHBACK TRANSACTION oops").status().IsInvalidArgument());
}

TEST(SqlParserTest, OversizedNumbersAreErrorsNotAborts) {
  // The lexer admits arbitrarily long digit strings; overflow must
  // surface as InvalidArgument, never as a thrown std::out_of_range.
  const std::string big = "99999999999999999999999999999";
  EXPECT_TRUE(
      ParseSql("FLASHBACK TRANSACTION " + big).status().IsInvalidArgument());
  EXPECT_TRUE(ParseSql("CREATE DATABASE s AS SNAPSHOT OF d AS OF " + big)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ParseSql("ALTER DATABASE d SET UNDO_INTERVAL = " + big + " HOURS")
          .status()
          .IsInvalidArgument());
  // Unit multiplication overflow with an in-range count.
  EXPECT_TRUE(ParseSql("ALTER DATABASE d SET UNDO_INTERVAL = "
                       "18446744073709551615 HOURS")
                  .status()
                  .IsInvalidArgument());
}

TEST(SqlParserTest, TimestampRoundTrip) {
  auto t = ParseTimestamp("2012-03-22 17:26:25.473000");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(FormatTimestamp(*t), "2012-03-22 17:26:25.473000");
  auto no_frac = ParseTimestamp("2026-06-10 00:00:00");
  ASSERT_TRUE(no_frac.ok());
  EXPECT_EQ(*no_frac % 1'000'000, 0u);
}

class SqlSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_sql" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    conn_ = Connection::Attach(db_.get());
    session_ = std::make_unique<SqlSession>(conn_.get());
  }
  void TearDown() override {
    session_.reset();
    conn_.reset();
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(SqlSessionTest, EndToEndSnapshotWorkflow) {
  ASSERT_TRUE(session_
                  ->Execute("CREATE TABLE accounts (id INT, balance DOUBLE, "
                            "PRIMARY KEY (id))")
                  .ok());
  auto table = db_->OpenTable("accounts");
  ASSERT_TRUE(table.ok());
  clock_->Advance(10 * kSecond);
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(table->Insert(txn, {i, 100.0 * i}).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  clock_->Advance(kSecond);
  WallClock before = clock_->NowMicros();
  clock_->Advance(10 * kSecond);

  Transaction* oops = db_->Begin();
  ASSERT_TRUE(db_->DropTable(oops, "accounts").ok());
  ASSERT_TRUE(db_->Commit(oops).ok());

  auto msg = session_->Execute(
      "CREATE DATABASE recovery AS SNAPSHOT OF primary AS OF " +
      std::to_string(before));
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();
  auto snap = session_->GetSnapshot("recovery");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitReady().ok());
  auto old_table = (*snap)->OpenTable("accounts");
  ASSERT_TRUE(old_table.ok());
  EXPECT_EQ(*(*old_table)->Count(), 10u);

  ASSERT_TRUE(session_->Execute("DROP DATABASE recovery").ok());
  EXPECT_TRUE(session_->GetSnapshot("recovery").status().IsNotFound());
  // The stable handles survive the drop; page access fails cleanly.
  EXPECT_TRUE((*snap)->OpenTable("accounts").status().IsAborted());
  EXPECT_TRUE((*old_table)->Count().status().IsAborted());
}

TEST_F(SqlSessionTest, AlterUndoIntervalApplies) {
  ASSERT_TRUE(
      session_->Execute("ALTER DATABASE primary SET UNDO_INTERVAL = 2 HOURS")
          .ok());
  EXPECT_EQ(db_->undo_interval_micros(), 2ULL * 3600 * 1'000'000);
}

TEST_F(SqlSessionTest, DuplicateSnapshotNameRejected) {
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  ASSERT_TRUE(session_
                  ->Execute("CREATE DATABASE s AS SNAPSHOT OF p AS OF " +
                            std::to_string(t))
                  .ok());
  EXPECT_TRUE(session_
                  ->Execute("CREATE DATABASE s AS SNAPSHOT OF p AS OF " +
                            std::to_string(t))
                  .status()
                  .IsAlreadyExists());
}

TEST_F(SqlSessionTest, FlashbackViaSql) {
  ASSERT_TRUE(session_
                  ->Execute("CREATE TABLE audit (id INT, note TEXT, "
                            "PRIMARY KEY (id))")
                  .ok());
  Connection* conn = session_->connection();
  Txn good = conn->Begin();
  ASSERT_TRUE(conn->Insert(good, "audit", {1, std::string("keep")}).ok());
  ASSERT_TRUE(good.Commit().ok());

  Txn bad = conn->Begin();
  TxnId victim = bad.id();
  ASSERT_TRUE(conn->Insert(bad, "audit", {2, std::string("oops")}).ok());
  ASSERT_TRUE(conn->Insert(bad, "audit", {3, std::string("oops")}).ok());
  ASSERT_TRUE(bad.Commit().ok());

  auto msg = session_->Execute("FLASHBACK TRANSACTION " +
                               std::to_string(victim));
  ASSERT_TRUE(msg.ok()) << msg.status().ToString();

  auto live = conn->Live();
  auto table = live->OpenTable("audit");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*(*table)->Count(), 1u);
  EXPECT_TRUE((*table)->Get({1}).ok());
  EXPECT_TRUE((*table)->Get({2}).status().IsNotFound());
}

TEST_F(SqlSessionTest, DropTableViaSql) {
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE temp (id INT, PRIMARY KEY (id))").ok());
  ASSERT_TRUE(db_->OpenTable("temp").ok());
  ASSERT_TRUE(session_->Execute("DROP TABLE temp").ok());
  EXPECT_TRUE(db_->OpenTable("temp").status().IsNotFound());
}

TEST_F(SqlSessionTest, ShowStatsReturnsMetricRowset) {
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE t (id INT, PRIMARY KEY (id))").ok());
  auto res = session_->ExecuteStatement("SHOW STATS");
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  ASSERT_TRUE(res->has_rowset);
  ASSERT_EQ(res->column_names.size(), 2u);
  EXPECT_EQ(res->column_names[0], "metric");
  EXPECT_EQ(res->column_names[1], "value");
  // Every subsystem must report: version store, buffer pool, WAL.
  std::set<std::string> metrics;
  for (const Row& row : res->rows) {
    ASSERT_EQ(row.size(), 2u);
    metrics.insert(row[0].AsString());
  }
  for (const char* expected :
       {"version_store.exact_hits", "buffer.hits", "wal.appends",
        "snapshots.open_anchors"}) {
    EXPECT_TRUE(metrics.count(expected)) << "missing metric " << expected;
  }
}

TEST_F(SqlSessionTest, ShowStatsReportsVersionStoreOccupancy) {
  ASSERT_TRUE(
      session_->Execute("CREATE TABLE t (id INT, v INT, PRIMARY KEY (id))")
          .ok());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  clock_->Advance(10 * kSecond);
  Transaction* txn = db_->Begin();
  for (int i = 0; i < 10; i++) ASSERT_TRUE(table->Insert(txn, {i, 0}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  clock_->Advance(kSecond);
  WallClock before = clock_->NowMicros();
  clock_->Advance(kSecond);
  txn = db_->Begin();
  ASSERT_TRUE(table->Update(txn, {0, 1}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  auto occupancy = [&] {
    std::map<std::string, int64_t> out;
    auto res = session_->ExecuteStatement("SHOW STATS");
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (!res.ok()) return out;
    for (const Row& row : res->rows) {
      const std::string name = row[0].AsString();
      if (name == "version_store.versions" ||
          name == "version_store.bytes_used") {
        out[name] = row[1].AsInt64();
      }
    }
    return out;
  };
  auto empty = occupancy();
  ASSERT_EQ(empty.size(), 2u) << "both occupancy rows must be reported";
  EXPECT_EQ(empty["version_store.versions"], 0);
  EXPECT_EQ(empty["version_store.bytes_used"], 0);

  auto rows = session_->ExecuteStatement("SELECT COUNT(*) FROM t AS OF " +
                                         std::to_string(before));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto used = occupancy();
  const VersionStore* versions = db_->version_store();
  EXPECT_GT(used["version_store.versions"], 0);
  EXPECT_EQ(used["version_store.versions"],
            static_cast<int64_t>(versions->version_count()));
  EXPECT_EQ(used["version_store.bytes_used"],
            static_cast<int64_t>(versions->bytes_used()));
  EXPECT_GE(used["version_store.bytes_used"],
            used["version_store.versions"] * static_cast<int64_t>(kPageSize));
}

TEST_F(SqlSessionTest, ShowStatsIncludesExtraRows) {
  session_->set_extra_stats([](std::vector<SqlSession::StatsRow>* rows) {
    rows->push_back({"server.sessions_open", 7});
  });
  auto res = session_->ExecuteStatement("SHOW STATS");
  ASSERT_TRUE(res.ok());
  bool found = false;
  for (const Row& row : res->rows) {
    if (row[0].AsString() == "server.sessions_open") {
      found = true;
      EXPECT_EQ(row[1].AsInt64(), 7);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SqlSessionTest, ErrorsCarryStatementFragment) {
  // Parse error: the failing statement text must be quoted back.
  auto bad = session_->Execute("CREATE TABEL nope (id INT)");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("CREATE TABEL"), std::string::npos)
      << bad.status().ToString();
  EXPECT_NE(bad.status().message().find("[statement:"), std::string::npos);

  // Execution error (valid parse, missing table): same contract.
  auto exec = session_->Execute("DROP TABLE does_not_exist");
  ASSERT_FALSE(exec.ok());
  EXPECT_NE(exec.status().message().find("does_not_exist"),
            std::string::npos);

  // Hostile junk never crashes and still reports the fragment.
  for (const char* junk :
       {"", "   ", ";;;", "SELECT", "CREATE TABLE", "\x01\x02\x03garbage",
        "FLASHBACK TRANSACTION banana", "SHOW", "ALTER DATABASE"}) {
    auto r = session_->Execute(junk);
    EXPECT_FALSE(r.ok()) << "accepted junk: " << junk;
  }
}

}  // namespace
}  // namespace rewinddb
