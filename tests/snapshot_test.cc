// Tests for the paper's core: PreparePageAsOf, SplitLSN search, and
// as-of snapshots (creation, recovery with background undo, query
// equivalence against recorded history, dropped-table recovery,
// retention errors, FPI skip optimization).
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>

#include "common/random.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"
#include "snapshot/split_lsn.h"

namespace rewinddb {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

constexpr uint64_t kSecond = 1'000'000;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_snap" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    Recreate(opts);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  void Recreate(DatabaseOptions opts) {
    db_.reset();
    std::filesystem::remove_all(dir_);
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void MakeKvTable(const std::string& name = "t") {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, name, KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  void PutRows(Table* table, int lo, int hi, const std::string& val) {
    Transaction* txn = db_->Begin();
    for (int i = lo; i < hi; i++) {
      ASSERT_TRUE(table->Insert(txn, {i, val}).ok()) << i;
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }

  std::map<int, std::string> SnapshotContents(SnapshotTable* table) {
    std::map<int, std::string> out;
    Status s = table->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
      out[row[0].AsInt32()] = row[1].AsString();
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
};

// ------------------------- SplitLSN search ----------------------------

TEST_F(SnapshotTest, SplitPointPicksLastCommitBeforeTarget) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 1, "a");  // commit at t=20s
  WallClock t_mid = clock_->NowMicros() + 5 * kSecond;
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 1, 2, "b");  // commit at t=30s

  auto split = FindSplitPoint(db_->log(), t_mid, clock_->NowMicros());
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  // The boundary commit is the t=20s one.
  EXPECT_LE(split->boundary_time, t_mid);
  EXPECT_GE(split->boundary_time, 20 * kSecond);
}

TEST_F(SnapshotTest, SplitPointRejectsFuture) {
  auto split = FindSplitPoint(db_->log(), clock_->NowMicros() + kSecond,
                              clock_->NowMicros());
  EXPECT_TRUE(split.status().IsInvalidArgument());
}

TEST_F(SnapshotTest, SplitPointUsesCheckpointNarrowing) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  // Several checkpoint epochs.
  for (int epoch = 0; epoch < 5; epoch++) {
    clock_->Advance(10 * kSecond);
    PutRows(&*table, epoch * 10, epoch * 10 + 10,
            "epoch" + std::to_string(epoch));
    ASSERT_TRUE(db_->Checkpoint().ok());
  }
  // Target inside epoch 2.
  WallClock target = 10 * kSecond + 10 * kSecond * 3 + kSecond;
  auto split = FindSplitPoint(db_->log(), target, clock_->NowMicros());
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_LE(split->boundary_time, target);
  EXPECT_NE(split->checkpoint_lsn, kInvalidLsn);
  EXPECT_LE(split->checkpoint_lsn, split->split_lsn);
}

// ----------------------- basic as-of behaviour ------------------------

TEST_F(SnapshotTest, SeesPastStateAfterUpdatesAndDeletes) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 100, "original");
  clock_->Advance(kSecond);
  WallClock before_mistake = clock_->NowMicros();
  clock_->Advance(10 * kSecond);

  // The "mistake": delete some rows, clobber others.
  Transaction* oops = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Delete(oops, Row{i}).ok());
  }
  for (int i = 50; i < 100; i++) {
    ASSERT_TRUE(table->Update(oops, {i, std::string("clobbered")}).ok());
  }
  ASSERT_TRUE(db_->Commit(oops).ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "before_mistake",
                                   before_mistake);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());

  auto stable = (*snap)->OpenTable("t");
  ASSERT_TRUE(stable.ok());
  auto contents = SnapshotContents(&*stable);
  ASSERT_EQ(contents.size(), 100u);
  for (const auto& [k, v] : contents) EXPECT_EQ(v, "original") << k;

  // The primary still shows the post-mistake state.
  EXPECT_EQ(*table->Count(), 50u);
  auto cur = table->Get(nullptr, {70});
  ASSERT_TRUE(cur.ok());
  EXPECT_EQ((*cur)[1].AsString(), "clobbered");
}

TEST_F(SnapshotTest, SnapshotIsStableWhilePrimaryAdvances) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 50, "v1");
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);

  auto snap = AsOfSnapshot::Create(db_.get(), "stable", t1);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto stable = (*snap)->OpenTable("t");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable->Count(), 50u);

  // Keep mutating the primary; the snapshot must not move.
  for (int round = 0; round < 5; round++) {
    clock_->Advance(kSecond);
    PutRows(&*table, 100 + round * 10, 110 + round * 10, "later");
    EXPECT_EQ(*stable->Count(), 50u) << "round " << round;
  }
  auto row = stable->Get({10});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "v1");
}

TEST_F(SnapshotTest, PointLookupsAndRangeScansOnSnapshot) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 200, "x");
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);
  PutRows(&*table, 200, 400, "y");

  auto snap = AsOfSnapshot::Create(db_.get(), "lookups", t1);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Get({5}).ok());
  EXPECT_TRUE(st->Get({300}).status().IsNotFound());  // inserted after t1
  int n = 0;
  ASSERT_TRUE(st->Scan(std::optional<Row>(Row{50}),
                       std::optional<Row>(Row{60}),
                       [&](const Row&) {
                         n++;
                         return true;
                       })
                  .ok());
  EXPECT_EQ(n, 10);
}

TEST_F(SnapshotTest, MetadataRewindsTooTableCreatedLaterInvisible) {
  MakeKvTable("early");
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);
  MakeKvTable("late");

  auto snap = AsOfSnapshot::Create(db_.get(), "meta", t1);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto tables = (*snap)->ListTables();
  ASSERT_TRUE(tables.ok());
  std::vector<std::string> names;
  for (const TableInfo& t : *tables) names.push_back(t.name);
  EXPECT_EQ(names, std::vector<std::string>{"early"});
  EXPECT_TRUE((*snap)->OpenTable("late").status().IsNotFound());
}

// The paper's introductory scenario: recover a dropped table.
TEST_F(SnapshotTest, DroppedTableRecoveryEndToEnd) {
  MakeKvTable("invoices");
  auto table = db_->OpenTable("invoices");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 500, "invoice-data");
  clock_->Advance(kSecond);
  WallClock before_drop = clock_->NowMicros();
  clock_->Advance(10 * kSecond);

  Transaction* drop = db_->Begin();
  ASSERT_TRUE(db_->DropTable(drop, "invoices").ok());
  ASSERT_TRUE(db_->Commit(drop).ok());
  EXPECT_TRUE(db_->OpenTable("invoices").status().IsNotFound());
  clock_->Advance(10 * kSecond);
  // More work reuses the freed pages (the preformat path must keep the
  // old content reachable).
  MakeKvTable("noise");
  auto noise = db_->OpenTable("noise");
  PutRows(&*noise, 0, 500, std::string(64, 'n'));

  // Mount a snapshot as of a time when the table existed, read its
  // schema from the snapshot catalog, and reconcile.
  auto snap = AsOfSnapshot::Create(db_.get(), "undrop", before_drop);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto old_table = (*snap)->OpenTable("invoices");
  ASSERT_TRUE(old_table.ok()) << old_table.status().ToString();
  EXPECT_EQ(old_table->schema().num_columns(), 2u);

  // "CREATE TABLE ... ; INSERT ... SELECT" reconcile into the primary.
  Transaction* restore = db_->Begin();
  ASSERT_TRUE(
      db_->CreateTable(restore, "invoices", old_table->schema()).ok());
  ASSERT_TRUE(db_->Commit(restore).ok());
  auto new_table = db_->OpenTable("invoices");
  ASSERT_TRUE(new_table.ok());
  Transaction* copy = db_->Begin();
  int copied = 0;
  ASSERT_TRUE(old_table
                  ->Scan(std::nullopt, std::nullopt,
                         [&](const Row& row) {
                           EXPECT_TRUE(new_table->Insert(copy, row).ok());
                           copied++;
                           return true;
                         })
                  .ok());
  ASSERT_TRUE(db_->Commit(copy).ok());
  EXPECT_EQ(copied, 500);
  EXPECT_EQ(*new_table->Count(), 500u);
  auto row = new_table->Get(nullptr, {123});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsString(), "invoice-data");
}

TEST_F(SnapshotTest, InFlightTransactionInvisibleAfterUndo) {
  MakeKvTable();
  Transaction* ddl = db_->Begin();
  ASSERT_TRUE(db_->CreateIndex(ddl, "t_by_val", "t", {"val"}).ok());
  ASSERT_TRUE(db_->Commit(ddl).ok());
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 20, "committed");
  clock_->Advance(kSecond);

  // An in-flight transaction dirties rows but never commits before the
  // split point.
  Transaction* in_flight = db_->Begin();
  ASSERT_TRUE(table->Update(in_flight, {5, std::string("uncommitted")}).ok());
  ASSERT_TRUE(table->Insert(in_flight, {999, std::string("phantom")}).ok());
  // A later commit pushes the split past the in-flight records.
  clock_->Advance(kSecond);
  PutRows(&*table, 20, 21, "bump");
  WallClock t = clock_->NowMicros();

  auto snap = AsOfSnapshot::Create(db_.get(), "inflight", t);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  // Queries must not see the uncommitted effects, even before the
  // background undo finishes: each waits for its tree's undo or runs it.
  auto r5 = st->Get({5});
  ASSERT_TRUE(r5.ok()) << r5.status().ToString();
  EXPECT_EQ((*r5)[1].AsString(), "committed");
  EXPECT_TRUE(st->Get({999}).status().IsNotFound());
  auto count = st->Count();
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(*count, 21u);  // 20 committed rows + the bump, no phantom
  for (const char* val : {"phantom", "uncommitted", "committed"}) {
    std::vector<int> ids;
    ASSERT_TRUE(st->IndexScan("t_by_val", {std::string(val)},
                              [&](const Row& row) {
                                ids.push_back(row[0].AsInt32());
                                return true;
                              })
                    .ok());
    EXPECT_EQ(ids.size(), std::string(val) == "committed" ? 20u : 0u)
        << val;
  }
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  // Stable only now: under a lazy mount the analysis that counts the
  // losers runs in the background sweeper.
  EXPECT_GE((*snap)->creation_stats().loser_transactions, 1u);

  // Clean up the primary transaction.
  ASSERT_TRUE(db_->Commit(in_flight).ok());
}

// ----------------------- analysis window (5.2) ------------------------

TEST_F(SnapshotTest, AnalysisStartsAtNewestCheckpointBeforeSplit) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  clock_->Advance(kSecond);
  PutRows(&*table, 0, 10, "a");
  ASSERT_TRUE(db_->Checkpoint().ok());
  clock_->Advance(kSecond);
  PutRows(&*table, 10, 20, "b");
  ASSERT_TRUE(db_->Checkpoint().ok());
  const Lsn newest = db_->log()->checkpoints().back().begin_lsn;
  clock_->Advance(kSecond);
  PutRows(&*table, 20, 30, "c");
  const WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  PutRows(&*table, 30, 40, "d");

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    auto snap = AsOfSnapshot::Create(db_.get(), "window", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    AsOfSnapshot::CreationStats cs = (*snap)->creation_stats();
    EXPECT_EQ(cs.analysis_start_lsn, newest);
    EXPECT_EQ(cs.analysis_start_lsn, cs.checkpoint_lsn);
    EXPECT_GT(cs.analysis_records, 0u);
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st->Count(), 30u);
  }
}

TEST_F(SnapshotTest, AnalysisRestartsWhenSplitFallsInsideCheckpointWindow) {
  // No byte-triggered checkpoint may interleave with the hand-written
  // begin/end pair below.
  DatabaseOptions opts;
  opts.clock = clock_.get();
  opts.checkpoint_interval_bytes = 0;
  Recreate(opts);
  MakeKvTable();
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  clock_->Advance(kSecond);
  PutRows(&*table, 0, 10, "committed");
  ASSERT_TRUE(db_->Checkpoint().ok());
  const Lsn earlier = db_->log()->checkpoints().back().begin_lsn;

  // The loser writes before the fuzzy checkpoint's begin record and
  // never again.
  clock_->Advance(kSecond);
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(table->Insert(loser, {100, std::string("loser")}).ok());
  clock_->Advance(kSecond);
  LogRecord begin;
  begin.type = LogType::kCheckpointBegin;
  begin.wall_clock = clock_->NowMicros();
  db_->log()->Append(begin);
  // A commit lands inside the checkpoint's window: the split.
  clock_->Advance(kSecond);
  PutRows(&*table, 200, 201, "inside");
  const WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  LogRecord end;
  end.type = LogType::kCheckpointEnd;
  end.wall_clock = begin.wall_clock;
  end.att = {{loser->id, loser->last_lsn.load()}};
  db_->log()->Append(end);
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  clock_->Advance(kSecond);

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    auto snap = AsOfSnapshot::Create(db_.get(), "inside", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    // Only the earlier checkpoint's window sees the loser: the scan
    // from the newer begin record reaches the split before its end
    // record.
    EXPECT_TRUE(st->Get({100}).status().IsNotFound())
        << "the loser's row must be undone";
    auto inside = st->Get({200});
    ASSERT_TRUE(inside.ok()) << inside.status().ToString();
    EXPECT_EQ((*inside)[1].AsString(), "inside");
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    AsOfSnapshot::CreationStats cs = (*snap)->creation_stats();
    EXPECT_EQ(cs.analysis_start_lsn, earlier);
    EXPECT_EQ(cs.loser_transactions, 1u);
  }
  ASSERT_TRUE(db_->Abort(loser).ok());
}

/// Commit 10 rows, checkpoint, then hand-write what an older build could
/// log: a checkpoint whose ATT captured the committed transaction during
/// its durability wait, at its COMMIT record. One more row commits
/// after it; returns that instant. The pair never reaches the
/// superblock, so crash restart still starts at the real checkpoint and
/// meets the pair's ATT in its scan.
WallClock WriteDecidedChainHeadCheckpoint(Database* db, SimClock* clock) {
  auto table = db->OpenTable("t");
  EXPECT_TRUE(table.ok());
  clock->Advance(kSecond);
  Transaction* txn = db->Begin();
  const TxnId decided = txn->id;
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(table->Insert(txn, {i, std::string("committed")}).ok());
  }
  EXPECT_TRUE(db->Commit(txn).ok());
  EXPECT_TRUE(db->Checkpoint().ok());
  Lsn commit_lsn = kInvalidLsn;
  wal::Cursor cur = db->log()->OpenCursor();
  EXPECT_TRUE(cur.SeekTo(db->log()->oldest_lsn()).ok());
  while (cur.Valid()) {
    if (cur.record().type == LogType::kCommit &&
        cur.record().txn_id == decided) {
      commit_lsn = cur.lsn();
    }
    EXPECT_TRUE(cur.Next().ok());
  }
  EXPECT_NE(commit_lsn, kInvalidLsn);

  clock->Advance(kSecond);
  LogRecord begin;
  begin.type = LogType::kCheckpointBegin;
  begin.wall_clock = clock->NowMicros();
  db->log()->Append(begin);
  LogRecord end;
  end.type = LogType::kCheckpointEnd;
  end.wall_clock = begin.wall_clock;
  end.att = {{decided, commit_lsn}};
  db->log()->Append(end);
  clock->Advance(kSecond);
  Transaction* later = db->Begin();
  EXPECT_TRUE(table->Insert(later, {10, std::string("later")}).ok());
  EXPECT_TRUE(db->Commit(later).ok());
  const WallClock t = clock->NowMicros();
  clock->Advance(kSecond);
  EXPECT_TRUE(db->log()->FlushAll().ok());
  return t;
}

TEST_F(SnapshotTest, DecidedChainHeadInCheckpointAttIsNotAMountLoser) {
  // No byte-triggered checkpoint may interleave with the hand-written
  // begin/end pair.
  DatabaseOptions opts;
  opts.clock = clock_.get();
  opts.checkpoint_interval_bytes = 0;
  Recreate(opts);
  MakeKvTable();
  const WallClock t = WriteDecidedChainHeadCheckpoint(db_.get(), clock_.get());
  for (MountMode mode : {MountMode::kLazy, MountMode::kEager}) {
    auto snap = AsOfSnapshot::Create(db_.get(), "decided", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    EXPECT_EQ((*snap)->creation_stats().loser_transactions, 0u);
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st->Count(), 11u) << "the committed rows were undone";
  }
}

TEST_F(SnapshotTest, DecidedChainHeadInCheckpointAttIsNotARestartLoser) {
  DatabaseOptions opts;
  opts.clock = clock_.get();
  opts.checkpoint_interval_bytes = 0;
  Recreate(opts);
  MakeKvTable();
  WriteDecidedChainHeadCheckpoint(db_.get(), clock_.get());
  db_->SimulateCrash();
  db_.reset();
  auto reopened = Database::Open(dir_, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db_ = std::move(*reopened);
  EXPECT_EQ(db_->recovery_stats().loser_transactions, 0u);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(*table->Count(), 11u);
}

TEST_F(SnapshotTest, FailedMountKeepsAnotherSnapshotsAnchor) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  clock_->Advance(kSecond);
  PutRows(&*table, 0, 10, "a");
  ASSERT_TRUE(db_->Checkpoint().ok());
  clock_->Advance(kSecond);
  PutRows(&*table, 10, 20, "b");
  const WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    auto a = AsOfSnapshot::Create(db_.get(), "a", t, mode);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_EQ(db_->SnapshotAnchorCount(), 1u);
    // Mount b at the same instant (so on the same checkpoint anchor),
    // with its side file unusable.
    const std::string side = dir_ + "/b.side";
    std::filesystem::create_directories(side);
    auto b = AsOfSnapshot::Create(db_.get(), "b", t, mode);
    EXPECT_TRUE(b.status().IsIoError()) << b.status().ToString();
    std::filesystem::remove_all(side);
    EXPECT_EQ(db_->SnapshotAnchorCount(), 1u)
        << "a failed mount released the anchor of a live one";
    auto st = (*a)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st->Count(), 20u);
    a->reset();
    EXPECT_EQ(db_->SnapshotAnchorCount(), 0u);
  }
}

TEST_F(SnapshotTest, AsOfBeyondRetentionFails) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  WallClock ancient = clock_->NowMicros() - 9 * kSecond;
  clock_->Advance(100 * kSecond);
  PutRows(&*table, 0, 10, "x");
  ASSERT_TRUE(db_->Checkpoint().ok());
  // Shrink retention to 10 seconds and truncate.
  ASSERT_TRUE(db_->SetUndoInterval(10 * kSecond).ok());
  clock_->Advance(100 * kSecond);
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->EnforceRetention().ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "too_old", ancient);
  EXPECT_TRUE(snap.status().IsOutOfRange()) << snap.status().ToString();
}

TEST_F(SnapshotTest, RewoundPagesStayInSnapshotPool) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 300, "v1");
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);
  Transaction* touch = db_->Begin();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(table->Update(touch, {i, std::string("v2")}).ok());
  }
  ASSERT_TRUE(db_->Commit(touch).ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "cache", t1);
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(*st->Count(), 300u);
  uint64_t undone_after_first = (*snap)->rewinder()->records_undone();
  EXPECT_GT(undone_after_first, 0u);
  // The pool holds every recovered page, so the read path wrote none of
  // them to the side file.
  EXPECT_EQ((*snap)->buffers()->stats().evictions, 0u);
  EXPECT_EQ((*snap)->side_file()->PageCount(), 0u);
  // A second full scan is served from the side file / buffer pool: no
  // further undo work.
  EXPECT_EQ(*st->Count(), 300u);
  EXPECT_EQ((*snap)->rewinder()->records_undone(), undone_after_first);
}

TEST_F(SnapshotTest, EvictedRewoundPagesReturnFromSideFile) {
  // The snapshot pool takes the primary's size: 8 frames cannot hold
  // the table, so the scan evicts recovered pages. With the version
  // store off, only the side file can spare the second scan a rewind.
  DatabaseOptions opts;
  opts.clock = clock_.get();
  opts.buffer_pool_pages = 8;
  opts.version_store_bytes = 0;
  Recreate(opts);
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  const std::string v1(100, '1');
  PutRows(&*table, 0, 2000, v1);
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);
  Transaction* touch = db_->Begin();
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(table->Update(touch, {i, std::string(100, '2')}).ok());
  }
  ASSERT_TRUE(db_->Commit(touch).ok());

  auto snap = AsOfSnapshot::Create(db_.get(), "evict", t1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  auto st = (*snap)->OpenTable("t");
  ASSERT_TRUE(st.ok());
  auto contents = SnapshotContents(&*st);
  ASSERT_EQ(contents.size(), 2000u);
  for (const auto& [k, v] : contents) ASSERT_EQ(v, v1) << k;
  const uint64_t rewound = (*snap)->rewinder()->pages_rewound();
  const uint64_t undone = (*snap)->rewinder()->records_undone();
  EXPECT_GT(undone, 0u);
  EXPECT_GT((*snap)->buffers()->stats().evictions, 0u);
  EXPECT_GT((*snap)->side_file()->PageCount(), 0u);
  // Evicted pages come back from the side file, not a second rewind.
  EXPECT_EQ(*st->Count(), 2000u);
  EXPECT_EQ((*snap)->rewinder()->pages_rewound(), rewound);
  EXPECT_EQ((*snap)->rewinder()->records_undone(), undone);
}

TEST_F(SnapshotTest, PageUnchangedSinceBeforeTheSplitIsPublished) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 50, "v1");  // the table's one leaf
  clock_->Advance(kSecond);
  WallClock t1 = clock_->NowMicros();
  clock_->Advance(kSecond);
  VersionStore* versions = db_->version_store();

  // No page changed after t1: the first mount undoes nothing, and it
  // publishes every page it read.
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "first", t1);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st->Count(), 50u);
    EXPECT_EQ((*snap)->rewinder()->pages_rewound(), 0u);
  }
  EXPECT_GT(versions->stats().published, 0u);

  // A second mount at the same time takes every page from the store as
  // an exact hit and reads no primary data page.
  {
    const VersionStore::Stats vs0 = versions->stats();
    const uint64_t reads0 = db_->stats()->data_reads.load();
    auto snap = AsOfSnapshot::Create(db_.get(), "second", t1);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    auto contents = SnapshotContents(&*st);
    ASSERT_EQ(contents.size(), 50u);
    for (const auto& [k, v] : contents) EXPECT_EQ(v, "v1") << k;
    const VersionStore::Stats vs1 = versions->stats();
    EXPECT_GT(vs1.exact_hits, vs0.exact_hits);
    EXPECT_EQ(vs1.partial_hits, vs0.partial_hits);
    EXPECT_EQ(vs1.misses, vs0.misses);
    EXPECT_EQ(db_->stats()->data_reads.load(), reads0)
        << "every page should have come from the version store";
  }

  // The leaf changes after t1, then again after t2. A mount at t2 must
  // not take the version published for t1: it rewinds the leaf back
  // over the second change only.
  Transaction* next = db_->Begin();
  ASSERT_TRUE(table->Update(next, {0, std::string("v2")}).ok());
  ASSERT_TRUE(db_->Commit(next).ok());
  clock_->Advance(kSecond);
  WallClock t2 = clock_->NowMicros();
  clock_->Advance(kSecond);
  Transaction* later = db_->Begin();
  ASSERT_TRUE(table->Update(later, {1, std::string("v3")}).ok());
  ASSERT_TRUE(db_->Commit(later).ok());
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "third", t2);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    auto contents = SnapshotContents(&*st);
    ASSERT_EQ(contents.size(), 50u);
    for (const auto& [k, v] : contents) {
      EXPECT_EQ(v, k == 0 ? "v2" : "v1") << k;
    }
    EXPECT_GT((*snap)->rewinder()->records_undone(), 0u);
  }
}

TEST_F(SnapshotTest, FpiPeriodSkipsLogRegions) {
  // Two databases, identical workload; one logs a full page image every
  // 8 modifications. Rewinding far back must undo far fewer individual
  // records when images are available (section 6.1).
  uint64_t undone[2];
  for (int variant = 0; variant < 2; variant++) {
    db_.reset();  // release the old clock before replacing it
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    opts.fpi_period = variant == 0 ? 0 : 8;
    Recreate(opts);
    MakeKvTable();
    auto table = db_->OpenTable("t");
    clock_->Advance(10 * kSecond);
    PutRows(&*table, 0, 20, "v0");
    clock_->Advance(kSecond);
    WallClock t1 = clock_->NowMicros();
    clock_->Advance(kSecond);
    // 200 updates to the same handful of pages.
    for (int round = 0; round < 10; round++) {
      Transaction* txn = db_->Begin();
      for (int i = 0; i < 20; i++) {
        ASSERT_TRUE(
            table->Update(txn, {i, "r" + std::to_string(round)}).ok());
      }
      ASSERT_TRUE(db_->Commit(txn).ok());
      clock_->Advance(kSecond);
    }
    {
      auto snap = AsOfSnapshot::Create(db_.get(), "fpi", t1);
      ASSERT_TRUE(snap.ok());
      ASSERT_TRUE((*snap)->WaitForUndo().ok());
      auto st = (*snap)->OpenTable("t");
      ASSERT_TRUE(st.ok());
      auto contents = SnapshotContents(&*st);
      ASSERT_EQ(contents.size(), 20u);
      for (const auto& [k, v] : contents) EXPECT_EQ(v, "v0");
      undone[variant] = (*snap)->rewinder()->records_undone();
      // Both mount modes take the FPI shortcuts inside the chain walk.
      if (variant == 1) {
        EXPECT_GT((*snap)->rewinder()->fpi_jumps(), 0u);
      }
    }
    db_.reset();
  }
  EXPECT_LT(undone[1], undone[0] / 2)
      << "full page images should replace most individual undos";
}

TEST_F(SnapshotTest, MultipleSnapshotsAtDifferentTimes) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  std::vector<WallClock> times;
  for (int phase = 0; phase < 4; phase++) {
    clock_->Advance(10 * kSecond);
    PutRows(&*table, phase * 10, phase * 10 + 10, "p" + std::to_string(phase));
    clock_->Advance(kSecond);
    times.push_back(clock_->NowMicros());
  }
  for (int phase = 0; phase < 4; phase++) {
    auto snap = AsOfSnapshot::Create(
        db_.get(), "multi" + std::to_string(phase), times[phase]);
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(*st->Count(), static_cast<uint64_t>((phase + 1) * 10));
  }
}

// Randomized equivalence: snapshot contents at time T == recorded shadow
// state at time T, for random histories and random T.
class SnapshotEquivalenceTest : public SnapshotTest,
                                public ::testing::WithParamInterface<int> {};

TEST_P(SnapshotEquivalenceTest, MatchesRecordedHistory) {
  Random rnd(GetParam());
  MakeKvTable();
  auto table = db_->OpenTable("t");

  std::map<int, std::string> state;
  std::vector<std::pair<WallClock, std::map<int, std::string>>> history;
  for (int phase = 0; phase < 15; phase++) {
    clock_->Advance(kSecond + rnd.Uniform(5 * kSecond));
    Transaction* txn = db_->Begin();
    int ops = 5 + static_cast<int>(rnd.Uniform(30));
    for (int i = 0; i < ops; i++) {
      int key = static_cast<int>(rnd.Uniform(150));
      int action = static_cast<int>(rnd.Uniform(3));
      if (action == 0 || !state.count(key)) {
        if (state.count(key)) continue;
        std::string val = rnd.AlphaString(1, 100);
        ASSERT_TRUE(table->Insert(txn, {key, val}).ok());
        state[key] = val;
      } else if (action == 1) {
        std::string val = rnd.AlphaString(1, 100);
        ASSERT_TRUE(table->Update(txn, {key, val}).ok());
        state[key] = val;
      } else {
        ASSERT_TRUE(table->Delete(txn, Row{key}).ok());
        state.erase(key);
      }
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
    clock_->Advance(1);  // place the observation just after the commit
    history.push_back({clock_->NowMicros(), state});
    if (rnd.Percent(25)) {
      ASSERT_TRUE(db_->Checkpoint().ok());
    }
  }

  // Probe a few random historical points plus the oldest and newest.
  std::vector<size_t> probes = {0, history.size() - 1};
  for (int i = 0; i < 4; i++) probes.push_back(rnd.Uniform(history.size()));
  int n = 0;
  for (size_t p : probes) {
    auto snap = AsOfSnapshot::Create(db_.get(), "eq" + std::to_string(n++),
                                     history[p].first);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok());
    auto contents = SnapshotContents(&*st);
    EXPECT_EQ(contents, history[p].second) << "probe at phase " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotEquivalenceTest,
                         ::testing::Values(7, 21, 99));

}  // namespace
}  // namespace rewinddb
