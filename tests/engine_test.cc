// Database engine integration tests: DDL, DML, catalog, secondary
// indexes, checkpointing, retention, and ARIES crash recovery
// (including randomized crash-point property tests).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>

#include "common/random.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"

namespace rewinddb {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_engine" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    Recreate();
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Recreate(DatabaseOptions opts = {}) {
    db_.reset();
    std::filesystem::remove_all(dir_);
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void Reopen(DatabaseOptions opts = {}) {
    db_.reset();
    auto db = Database::Open(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void CrashAndReopen(DatabaseOptions opts = {}) {
    db_->SimulateCrash();
    Reopen(opts);
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(EngineTest, CreateTableAndRoundTripRows) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "users", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());

  auto table = db_->OpenTable("users");
  ASSERT_TRUE(table.ok());
  Transaction* t2 = db_->Begin();
  ASSERT_TRUE(table->Insert(t2, {1, std::string("alice")}).ok());
  ASSERT_TRUE(table->Insert(t2, {2, std::string("bob")}).ok());
  ASSERT_TRUE(db_->Commit(t2).ok());

  auto row = table->Get(nullptr, {1});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "alice");
  EXPECT_EQ(*table->Count(), 2u);
}

TEST_F(EngineTest, DuplicateTableRejected) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  EXPECT_TRUE(db_->CreateTable(txn, "t", KvSchema()).IsAlreadyExists());
  ASSERT_TRUE(db_->Commit(txn).ok());
}

TEST_F(EngineTest, SchemaValidationOnInsert) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  Transaction* t2 = db_->Begin();
  EXPECT_TRUE(table->Insert(t2, {std::string("wrong"), std::string("type")})
                  .IsInvalidArgument());
  EXPECT_TRUE(table->Insert(t2, {1}).IsInvalidArgument());
  ASSERT_TRUE(db_->Abort(t2).ok());
}

TEST_F(EngineTest, DropTableRemovesDataAndFreesPages) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  Transaction* fill = db_->Begin();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(table->Insert(fill, {i, std::string(64, 'x')}).ok());
  }
  ASSERT_TRUE(db_->Commit(fill).ok());
  auto pages_full = db_->allocator()->CountAllocatedPages();
  ASSERT_TRUE(pages_full.ok());

  Transaction* drop = db_->Begin();
  ASSERT_TRUE(db_->DropTable(drop, "t").ok());
  ASSERT_TRUE(db_->Commit(drop).ok());
  EXPECT_TRUE(db_->OpenTable("t").status().IsNotFound());
  auto pages_after = db_->allocator()->CountAllocatedPages();
  ASSERT_TRUE(pages_after.ok());
  EXPECT_LT(*pages_after, *pages_full);
}

TEST_F(EngineTest, DropTableAbortRestoresCatalogRow) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  Transaction* fill = db_->Begin();
  ASSERT_TRUE(table->Insert(fill, {1, std::string("keep")}).ok());
  ASSERT_TRUE(db_->Commit(fill).ok());

  Transaction* drop = db_->Begin();
  ASSERT_TRUE(db_->DropTable(drop, "t").ok());
  EXPECT_TRUE(db_->OpenTable("t").status().IsNotFound());
  ASSERT_TRUE(db_->Abort(drop).ok());

  // The table is back, data intact (deallocation was deferred).
  auto reopened = db_->OpenTable("t");
  ASSERT_TRUE(reopened.ok());
  auto row = reopened->Get(nullptr, {1});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "keep");
}

TEST_F(EngineTest, ScanRangeAndEarlyStop) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  Transaction* fill = db_->Begin();
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(table->Insert(fill, {i, std::string("v")}).ok());
  }
  ASSERT_TRUE(db_->Commit(fill).ok());

  std::vector<int> seen;
  ASSERT_TRUE(table
                  ->Scan(nullptr, std::optional<Row>(Row{10}),
                         std::optional<Row>(Row{20}),
                         [&](const Row& row) {
                           seen.push_back(row[0].AsInt32());
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 10);
  EXPECT_EQ(seen.back(), 19);

  int count = 0;
  ASSERT_TRUE(table
                  ->Scan(nullptr, std::nullopt, std::nullopt,
                         [&](const Row&) { return ++count < 5; })
                  .ok());
  EXPECT_EQ(count, 5);
}

TEST_F(EngineTest, SecondaryIndexLookupAndMaintenance) {
  Schema schema({{"id", ColumnType::kInt32},
                 {"city", ColumnType::kString},
                 {"name", ColumnType::kString}},
                1);
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "people", schema).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  {
    auto table = db_->OpenTable("people");
    Transaction* fill = db_->Begin();
    ASSERT_TRUE(
        table->Insert(fill, {1, std::string("oslo"), std::string("ann")})
            .ok());
    ASSERT_TRUE(
        table->Insert(fill, {2, std::string("rome"), std::string("bob")})
            .ok());
    ASSERT_TRUE(db_->Commit(fill).ok());

    // Index created after data exists must backfill.
    Transaction* ddl = db_->Begin();
    ASSERT_TRUE(db_->CreateIndex(ddl, "people_by_city", "people", {"city"})
                    .ok());
    ASSERT_TRUE(db_->Commit(ddl).ok());
  }
  auto table = db_->OpenTable("people");  // re-open: picks up the index
  ASSERT_TRUE(table.ok());

  std::vector<std::string> names;
  ASSERT_TRUE(table
                  ->IndexScan(nullptr, "people_by_city",
                              {std::string("oslo")},
                              [&](const Row& row) {
                                names.push_back(row[2].AsString());
                                return true;
                              })
                  .ok());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "ann");

  // Updates that change the indexed column move the index entry.
  Transaction* upd = db_->Begin();
  ASSERT_TRUE(
      table->Update(upd, {1, std::string("rome"), std::string("ann")}).ok());
  ASSERT_TRUE(db_->Commit(upd).ok());
  names.clear();
  ASSERT_TRUE(table
                  ->IndexScan(nullptr, "people_by_city",
                              {std::string("rome")},
                              [&](const Row& row) {
                                names.push_back(row[2].AsString());
                                return true;
                              })
                  .ok());
  EXPECT_EQ(names.size(), 2u);
  names.clear();
  ASSERT_TRUE(table
                  ->IndexScan(nullptr, "people_by_city",
                              {std::string("oslo")},
                              [&](const Row&) {
                                names.push_back("x");
                                return true;
                              })
                  .ok());
  EXPECT_TRUE(names.empty());
}

TEST_F(EngineTest, CleanReopenNeedsNoRecovery) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  Reopen();
  EXPECT_FALSE(db_->recovered_from_crash());
  EXPECT_TRUE(db_->OpenTable("t").ok());
}

TEST_F(EngineTest, CrashRecoveryPreservesCommitted) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  {
    auto table = db_->OpenTable("t");
    Transaction* t2 = db_->Begin();
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(table->Insert(t2, {i, std::string("durable")}).ok());
    }
    ASSERT_TRUE(db_->Commit(t2).ok());
  }
  CrashAndReopen();
  EXPECT_TRUE(db_->recovered_from_crash());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 500u);
  auto row = table->Get(nullptr, {250});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "durable");
}

TEST_F(EngineTest, CrashRecoveryRollsBackLosers) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  {
    auto table = db_->OpenTable("t");
    Transaction* committed = db_->Begin();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(table->Insert(committed, {i, std::string("keep")}).ok());
    }
    ASSERT_TRUE(db_->Commit(committed).ok());

    Transaction* loser = db_->Begin();
    for (int i = 100; i < 200; i++) {
      ASSERT_TRUE(table->Insert(loser, {i, std::string("lose")}).ok());
    }
    ASSERT_TRUE(table->Update(loser, {50, std::string("dirty")}).ok());
    // Force the loser's records to disk so redo must repeat them and
    // undo must reverse them.
    ASSERT_TRUE(db_->log()->FlushAll().ok());
    ASSERT_TRUE(db_->buffers()->FlushAll().ok());
  }
  CrashAndReopen();
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 100u);
  auto row = table->Get(nullptr, {50});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "keep") << "loser update must be undone";
  EXPECT_TRUE(table->Get(nullptr, {150}).status().IsNotFound());
}

TEST_F(EngineTest, CrashRecoveryKeepsRolledBackUpdateUndone) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* t1 = db_->Begin();
  ASSERT_TRUE(table->Insert(t1, {7, std::string("original")}).ok());
  ASSERT_TRUE(db_->Commit(t1).ok());
  // The page reaches disk with the original row; the update and its
  // compensation live only in the log, so redo must replay both.
  ASSERT_TRUE(db_->Checkpoint().ok());
  Transaction* t2 = db_->Begin();
  ASSERT_TRUE(table->Update(t2, {7, std::string("rolled-back")}).ok());
  ASSERT_TRUE(db_->Abort(t2).ok());
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  CrashAndReopen();
  table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  auto row = table->Get(nullptr, {7});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "original")
      << "redo of the update's CLR must restore the original row";
}

TEST_F(EngineTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  {
    auto table = db_->OpenTable("t");
    Transaction* loser = db_->Begin();
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(table->Insert(loser, {i, std::string("x")}).ok());
    }
    ASSERT_TRUE(db_->log()->FlushAll().ok());
  }
  // Crash, recover, crash again immediately, recover again.
  CrashAndReopen();
  CrashAndReopen();
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 0u);
}

/// A SimClock that ticks one microsecond per reading, so every record
/// restart stamps gets its own instant.
class TickingClock : public SimClock {
 public:
  using SimClock::SimClock;
  WallClock NowMicros() override {
    Advance(1);
    return SimClock::NowMicros();
  }
};

TEST_F(EngineTest, RestartSystemTransactionsNeverReuseALoserId) {
  // Undo can begin system transactions (here a leaf split to re-insert
  // a deleted row). Restart must move the id allocator past every loser
  // first: a system transaction logging under a loser's id would end
  // that loser in analysis with its COMMIT.
  TickingClock clock(1'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.checkpoint_interval_bytes = 0;  // keep the superblock's id floor
  Recreate(opts);
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  const std::string big(1500, 'b');
  txn = db_->Begin();
  for (int i = 0; i < 5; i++) {  // one leaf, nearly full
    ASSERT_TRUE(table->Insert(txn, {i, big}).ok());
  }
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());

  // Two losers, begun after the checkpoint, so above the id floor it
  // stores. The lower one deletes a big row, a committed row takes its
  // space, and re-inserting it on undo must split the leaf.
  Transaction* low = db_->Begin();
  Transaction* high = db_->Begin();
  const std::vector<TxnId> losers = {low->id, high->id};
  ASSERT_TRUE(table->Insert(high, {100, std::string("high")}).ok());
  ASSERT_TRUE(table->Delete(low, {2}).ok());
  Transaction* filler = db_->Begin();
  ASSERT_TRUE(table->Insert(filler, {10, big}).ok());
  ASSERT_TRUE(db_->Commit(filler).ok());
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  CrashAndReopen(opts);
  EXPECT_EQ(db_->recovery_stats().loser_transactions, 2u);

  // Restart's only commits are its system transactions'.
  WallClock restart_commit = 0;
  wal::Cursor cur = db_->log()->OpenCursor();
  ASSERT_TRUE(cur.SeekTo(db_->recovery_stats().durable_end_lsn).ok());
  while (cur.Valid()) {
    const LogRecord& rec = cur.record();
    for (TxnId id : losers) {
      if (rec.is_system || rec.type == LogType::kCommit) {
        EXPECT_NE(rec.txn_id, id) << "restart logged under a loser's id: "
                                  << rec.DebugString();
      }
    }
    if (rec.type == LogType::kCommit && restart_commit == 0) {
      restart_commit = rec.wall_clock;
    }
    ASSERT_TRUE(cur.Next().ok());
  }
  ASSERT_NE(restart_commit, 0u) << "undo was meant to split the leaf";

  // AS OF restart's commit the lower loser was still being undone (and
  // the higher one too, unless parallel undo finished it first):
  // neither one's change may show.
  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    auto snap =
        AsOfSnapshot::Create(db_.get(), "restart", restart_commit, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Get({100}).status().IsNotFound())
        << "the higher loser's insert is visible";
    auto row = st->Get({2});
    ASSERT_TRUE(row.ok()) << "the lower loser's delete is visible";
    EXPECT_EQ((*row)[1].AsString(), big);
    EXPECT_EQ(*st->Count(), 6u);
  }
  table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 6u);
  // The clock above dies with this scope.
  db_.reset();
}

TEST_F(EngineTest, CheckpointBoundsRecoveryWork) {
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  for (int batch = 0; batch < 5; batch++) {
    Transaction* t2 = db_->Begin();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          table->Insert(t2, {batch * 100 + i, std::string("v")}).ok());
    }
    ASSERT_TRUE(db_->Commit(t2).ok());
    ASSERT_TRUE(db_->Checkpoint().ok());
  }
  Lsn master = db_->master_checkpoint_lsn();
  EXPECT_NE(master, kInvalidLsn);
  CrashAndReopen();
  table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 500u);
}

TEST_F(EngineTest, UndoIntervalPersistsAcrossReopen) {
  ASSERT_TRUE(db_->SetUndoInterval(3'600'000'000ULL).ok());
  Reopen();
  EXPECT_EQ(db_->undo_interval_micros(), 3'600'000'000ULL);
}

TEST_F(EngineTest, RetentionTruncatesOldLog) {
  SimClock clock(1'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.undo_interval_micros = 60ULL * 1'000'000;  // 1 minute
  Recreate(opts);

  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");
  Transaction* t2 = db_->Begin();
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(table->Insert(t2, {i, std::string(100, 'x')}).ok());
  }
  ASSERT_TRUE(db_->Commit(t2).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  Lsn old_start = db_->log()->start_lsn();

  // Two minutes pass; a later checkpoint becomes the retention anchor.
  clock.Advance(120ULL * 1'000'000);
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->EnforceRetention().ok());
  EXPECT_GT(db_->log()->start_lsn(), old_start);
  // The SimClock above dies with this scope; release the engine (whose
  // close-checkpoint stamps wall clock) before it dangles.
  db_.reset();
}

TEST_F(EngineTest, RetentionKeepsRecentLog) {
  SimClock clock(1'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.undo_interval_micros = 3600ULL * 1'000'000;  // 1 hour
  // This asserts the truncation-is-the-horizon behaviour, so the
  // archive tier must be off: with it on, EnforceRetention trims the
  // active log eagerly (the horizon lives in the archive instead).
  opts.archive_dir = "";
  Recreate(opts);
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_TRUE(db_->Checkpoint().ok());
  Lsn start = db_->log()->start_lsn();
  clock.Advance(60ULL * 1'000'000);  // only a minute
  ASSERT_TRUE(db_->EnforceRetention().ok());
  EXPECT_EQ(db_->log()->start_lsn(), start);
  // The SimClock above dies with this scope; release the engine (whose
  // close-checkpoint stamps wall clock) before it dangles.
  db_.reset();
}

// Property: crash at a random point; committed transactions survive,
// uncommitted vanish.
class CrashPointTest : public EngineTest,
                       public ::testing::WithParamInterface<int> {};

TEST_P(CrashPointTest, CommittedSurviveUncommittedVanish) {
  Random rnd(GetParam());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  auto table = db_->OpenTable("t");

  std::map<int, std::string> committed;
  int next_key = 0;
  int ops = 50 + static_cast<int>(rnd.Uniform(400));
  for (int i = 0; i < ops; i++) {
    Transaction* t2 = db_->Begin();
    int batch = 1 + static_cast<int>(rnd.Uniform(8));
    std::map<int, std::string> staged;
    for (int j = 0; j < batch; j++) {
      int key = next_key++;
      std::string val = rnd.AlphaString(1, 80);
      ASSERT_TRUE(table->Insert(t2, {key, val}).ok());
      staged[key] = val;
    }
    if (rnd.Percent(80)) {
      ASSERT_TRUE(db_->Commit(t2).ok());
      committed.insert(staged.begin(), staged.end());
    } else {
      ASSERT_TRUE(db_->Abort(t2).ok());
    }
    if (rnd.Percent(5)) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    }
  }
  // Leave one transaction in flight at the crash.
  Transaction* in_flight = db_->Begin();
  ASSERT_TRUE(table->Insert(in_flight, {next_key + 1, std::string("boom")})
                  .ok());
  ASSERT_TRUE(db_->log()->FlushAll().ok());

  CrashAndReopen();
  table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  std::map<int, std::string> found;
  ASSERT_TRUE(table
                  ->Scan(nullptr, std::nullopt, std::nullopt,
                         [&](const Row& row) {
                           found[row[0].AsInt32()] = row[1].AsString();
                           return true;
                         })
                  .ok());
  EXPECT_EQ(found, committed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashPointTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace rewinddb
