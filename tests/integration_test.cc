// End-to-end integration scenarios crossing every module boundary:
// workload + crash + recovery + snapshots + backups + retention.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>

#include "backup/backup_manager.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"
#include "sql/session.h"
#include "tpcc/tpcc.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_integ" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(IntegrationTest, TpccSurvivesCrashAndStaysConsistent) {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 4096;
  TpccConfig config;
  config.warehouses = 1;
  config.items = 80;
  config.customers_per_district = 15;
  config.new_order_rollback_percent = 5;  // extra rollback traffic
  {
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok());
    auto tpcc = TpccDatabase::CreateAndLoad(db->get(), config);
    ASSERT_TRUE(tpcc.ok());
    Random rnd(3);
    for (int i = 0; i < 150; i++) {
      Status s = (*tpcc)->NewOrder(&rnd);
      ASSERT_TRUE(s.ok() || s.IsAborted()) << s.ToString();
      if (i % 40 == 0) {
        ASSERT_TRUE((*db)->Checkpoint().ok());
      }
      if (i % 3 == 0) {
        s = (*tpcc)->Payment(&rnd);
        ASSERT_TRUE(s.ok() || s.IsAborted());
      }
    }
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }
  auto db = Database::Open(dir_, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto tpcc = TpccDatabase::Attach(db->get(), config);
  ASSERT_TRUE(tpcc.ok());
  // The cross-table invariants must hold after recovery: committed
  // transactions replayed, losers rolled back as units.
  EXPECT_TRUE((*tpcc)->CheckConsistency().ok());
}

TEST_F(IntegrationTest, SnapshotOfRecoveredDatabaseSeesPreCrashHistory) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  Schema schema({{"id", ColumnType::kInt32}, {"v", ColumnType::kString}}, 1);
  WallClock t_before;
  {
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok());
    Transaction* ddl = (*db)->Begin();
    ASSERT_TRUE((*db)->CreateTable(ddl, "t", schema).ok());
    ASSERT_TRUE((*db)->Commit(ddl).ok());
    auto table = (*db)->OpenTable("t");
    Transaction* a = (*db)->Begin();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(table->Insert(a, {i, std::string("first")}).ok());
    }
    ASSERT_TRUE((*db)->Commit(a).ok());
    clock.Advance(kSecond);
    t_before = clock.NowMicros();
    clock.Advance(10 * kSecond);
    Transaction* b = (*db)->Begin();
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(table->Update(b, {i, std::string("second")}).ok());
    }
    ASSERT_TRUE((*db)->Commit(b).ok());
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }
  // Recover, then time-travel across the crash boundary.
  auto db = Database::Open(dir_, opts);
  ASSERT_TRUE(db.ok());
  auto snap = AsOfSnapshot::Create(db->get(), "precrash", t_before);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  auto row = st->Get({42});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "first")
      << "snapshot must see the pre-crash, pre-update value";
}

TEST_F(IntegrationTest, RetentionRespectsOpenSnapshotAnchors) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.undo_interval_micros = 30 * kSecond;
  auto db = Database::Create(dir_, opts);
  ASSERT_TRUE(db.ok());
  Schema schema({{"id", ColumnType::kInt32}, {"v", ColumnType::kString}}, 1);
  Transaction* ddl = (*db)->Begin();
  ASSERT_TRUE((*db)->CreateTable(ddl, "t", schema).ok());
  ASSERT_TRUE((*db)->Commit(ddl).ok());
  auto table = (*db)->OpenTable("t");
  Transaction* a = (*db)->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Insert(a, {i, std::string("x")}).ok());
  }
  ASSERT_TRUE((*db)->Commit(a).ok());
  clock.Advance(kSecond);
  WallClock t = clock.NowMicros();

  // Open a snapshot, then age the log far past the retention window.
  auto snap = AsOfSnapshot::Create(db->get(), "pinned", t);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  clock.Advance(300 * kSecond);
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->EnforceRetention().ok());
  // The open snapshot pins its anchor: truncation may proceed up to the
  // snapshot's recovery checkpoint but never past it.
  Lsn anchor = (*snap)->creation_stats().checkpoint_lsn;
  EXPECT_LE((*db)->log()->start_lsn(), anchor);
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st->Count(), 50u);

  // Dropping the snapshot releases the anchor; truncation proceeds
  // beyond it.
  Lsn pinned_start = (*db)->log()->start_lsn();
  snap->reset();
  clock.Advance(300 * kSecond);  // age the post-snapshot checkpoints too
  ASSERT_TRUE((*db)->Checkpoint().ok());
  ASSERT_TRUE((*db)->EnforceRetention().ok());
  EXPECT_GT((*db)->log()->start_lsn(), pinned_start);
  EXPECT_GT((*db)->log()->start_lsn(), anchor);
}

TEST_F(IntegrationTest, SqlSurfaceDrivesFullRecoveryFlow) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  auto db = Database::Create(dir_, opts);
  ASSERT_TRUE(db.ok());
  std::unique_ptr<Connection> conn = Connection::Attach(db->get());
  SqlSession sql(conn.get());
  ASSERT_TRUE(sql.Execute("ALTER DATABASE d SET UNDO_INTERVAL = 1 HOURS")
                  .ok());
  ASSERT_TRUE(sql.Execute("CREATE TABLE logs (seq INT, line TEXT, "
                          "PRIMARY KEY (seq))")
                  .ok());
  auto table = (*db)->OpenTable("logs");
  Transaction* w = (*db)->Begin();
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(table->Insert(w, {i, std::string("entry")}).ok());
  }
  ASSERT_TRUE((*db)->Commit(w).ok());
  clock.Advance(kSecond);
  WallClock t = clock.NowMicros();
  clock.Advance(kSecond);
  ASSERT_TRUE(sql.Execute("DROP TABLE logs").ok());

  ASSERT_TRUE(
      sql.Execute("CREATE DATABASE back AS SNAPSHOT OF d AS OF " +
                  std::to_string(t))
          .ok());
  auto snap = sql.GetSnapshot("back");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitReady().ok());
  auto old_table = (*snap)->OpenTable("logs");
  ASSERT_TRUE(old_table.ok());
  EXPECT_EQ(*(*old_table)->Count(), 40u);
  ASSERT_TRUE(sql.Execute("DROP DATABASE back").ok());
  // The handle survives the drop but refuses page access.
  EXPECT_TRUE((*snap)->OpenTable("logs").status().IsAborted());
}

TEST_F(IntegrationTest, BackupRestoreAndSnapshotAgreeOnTpccState) {
  SimClock clock(10 * kSecond);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.buffer_pool_pages = 4096;
  auto db = Database::Create(dir_ + "/primary", opts);
  ASSERT_TRUE(db.ok());
  TpccConfig config;
  config.warehouses = 1;
  config.items = 60;
  config.customers_per_district = 10;
  auto tpcc = TpccDatabase::CreateAndLoad(db->get(), config);
  ASSERT_TRUE(tpcc.ok());
  auto backup = BackupManager::BackupFull(db->get(), dir_ + "/full.bak");
  ASSERT_TRUE(backup.ok());

  Random rnd(5);
  for (int i = 0; i < 40; i++) {
    Status s = (*tpcc)->NewOrder(&rnd);
    ASSERT_TRUE(s.ok() || s.IsAborted());
    clock.Advance(kSecond);
  }
  WallClock t = clock.NowMicros();
  clock.Advance(kSecond);
  for (int i = 0; i < 40; i++) {
    Status s = (*tpcc)->NewOrder(&rnd);
    ASSERT_TRUE(s.ok() || s.IsAborted());
  }

  // Path 1: rewind.
  auto snap = AsOfSnapshot::Create(db->get(), "agree", t);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto snap_view = WrapSnapshot(snap->get());
  auto via_snap = TpccDatabase::StockLevelOn(snap_view.get(), 1, 1, 70);
  ASSERT_TRUE(via_snap.ok());

  // Path 2: restore.
  DatabaseOptions ropts;
  ropts.clock = &clock;
  auto restored = BackupManager::RestoreToTime(db->get(), *backup,
                                               dir_ + "/restored", t, ropts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rtpcc = TpccDatabase::Attach(restored->database.get(), config);
  ASSERT_TRUE(rtpcc.ok());
  auto via_restore = (*rtpcc)->StockLevel(1, 1, 70);
  ASSERT_TRUE(via_restore.ok());

  EXPECT_EQ(*via_snap, *via_restore)
      << "both roads to time t must see the same stock level";
}

}  // namespace
}  // namespace rewinddb
