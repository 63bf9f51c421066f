// Lazy-vs-eager mount equivalence (the PR-8 oracle): a lazily mounted
// AS OF snapshot must be indistinguishable from an eagerly mounted one
// -- byte-identical page images under a quiesced primary, identical SQL
// results across every executor plan shape, identical handling of
// losers straddling the SplitLSN, under concurrent first-touch races
// and after the background sweeper completes. Plus fault injection at
// each page-recovery boundary: a failed recovery surfaces a Status
// without poisoning other pages or leaking partial side-file state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "engine/database.h"
#include "engine/table.h"
#include "page/page.h"
#include "snapshot/asof_snapshot.h"
#include "sql/session.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class LazyMountBase : public ::testing::Test {
 protected:
  /// Replay workers for the fixture's database (and so for both mounts).
  virtual int ReplayThreads() const { return 1; }

  void SetUp() override {
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_lazy" / name)
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    opts.replay_threads = ReplayThreads();
    // Byte-identity precondition: no shared version store (one mount
    // must not serve the other mount's rewound images -- each must do
    // its own work for the comparison to mean anything).
    opts.version_store_bytes = 0;
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

  std::map<int, std::string> Contents(SnapshotTable* table) {
    std::map<int, std::string> out;
    Status s = table->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
      out[row[0].AsInt32()] = row[1].AsString();
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  Status ScanStatus(SnapshotTable* table) {
    return table->Scan(std::nullopt, std::nullopt,
                       [](const Row&) { return true; });
  }

  /// Mount both modes at `t` (eager FIRST: its creation checkpoint
  /// quiesces file image == buffer image, so both mounts rewind from
  /// the same start bytes).
  void MountBoth(WallClock t, std::unique_ptr<AsOfSnapshot>* eager,
                 std::unique_ptr<AsOfSnapshot>* lazy) {
    auto e = AsOfSnapshot::Create(db_.get(), "eager", t, MountMode::kEager);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    *eager = std::move(*e);
    auto l = AsOfSnapshot::Create(db_.get(), "lazy", t, MountMode::kLazy);
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    *lazy = std::move(*l);
    EXPECT_FALSE((*eager)->creation_stats().lazy);
    EXPECT_TRUE((*lazy)->creation_stats().lazy);
    EXPECT_EQ((*eager)->split_lsn(), (*lazy)->split_lsn());
  }

  /// Every primary page id, fetched through BOTH snapshots' pools,
  /// compared byte for byte.
  void ExpectByteIdenticalPages(AsOfSnapshot* eager, AsOfSnapshot* lazy) {
    const PageId n = db_->data_file()->NumPages();
    ASSERT_GT(n, 0u);
    for (PageId id = 0; id < n; id++) {
      auto pe = eager->buffers()->FetchPage(id, AccessMode::kRead);
      ASSERT_TRUE(pe.ok()) << "eager page " << id << ": "
                           << pe.status().ToString();
      auto pl = lazy->buffers()->FetchPage(id, AccessMode::kRead);
      ASSERT_TRUE(pl.ok()) << "lazy page " << id << ": "
                           << pl.status().ToString();
      EXPECT_EQ(0, memcmp(pe->data(), pl->data(), kPageSize))
          << "page " << id << " differs between eager and lazy mount";
    }
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
};

/// The mount-equivalence cases, at one replay worker and at eight. Both
/// modes undo each tree's loser records in one descending-LSN order,
/// whichever worker or query claims the tree, so the pages match at any
/// worker count.
class LazyMountTest : public LazyMountBase,
                      public ::testing::WithParamInterface<int> {
 protected:
  int ReplayThreads() const override { return GetParam(); }
};

INSTANTIATE_TEST_SUITE_P(ReplayThreads, LazyMountTest,
                         ::testing::Values(1, 8));

// --------------------- byte-identical page images ---------------------

TEST_P(LazyMountTest, ByteIdenticalPagesQuiescedWithPostSplitChurn) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 300, "v1");
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  // Post-split churn: the per-page rewind has real work on both sides.
  Transaction* churn = db_->Begin();
  for (int i = 0; i < 300; i++) {
    if (i % 3 == 0) {
      ASSERT_TRUE(table->Delete(churn, Row{i}).ok());
    } else {
      ASSERT_TRUE(table->Update(churn, {i, std::string("v2")}).ok());
    }
  }
  ASSERT_TRUE(db_->Commit(churn).ok());

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  ASSERT_TRUE(lazy->WaitForUndo().ok());

  ExpectByteIdenticalPages(eager.get(), lazy.get());

  auto se = eager->OpenTable("t");
  auto sl = lazy->OpenTable("t");
  ASSERT_TRUE(se.ok() && sl.ok());
  auto ce = Contents(&*se);
  EXPECT_EQ(ce, Contents(&*sl));
  EXPECT_EQ(ce.size(), 300u);
  for (const auto& [k, v] : ce) EXPECT_EQ(v, "v1") << k;
}

TEST_P(LazyMountTest, ByteIdenticalPagesWithLoserStraddlingSplit) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 200, "committed");
  clock_->Advance(kSecond);

  // Loser: in flight at the split, with updates and phantom inserts.
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("LOSER-VALUE")}).ok());
  }
  for (int i = 5000; i < 5040; i++) {
    ASSERT_TRUE(table->Insert(loser, {i, std::string("PHANTOM")}).ok());
  }
  // A later commit pushes the split past the loser's records.
  clock_->Advance(kSecond);
  PutRows(&*table, 300, 301, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  EXPECT_GE(eager->creation_stats().loser_transactions, 1u);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  ASSERT_TRUE(lazy->WaitForUndo().ok());
  EXPECT_GE(lazy->creation_stats().loser_transactions, 1u);

  ExpectByteIdenticalPages(eager.get(), lazy.get());

  auto sl = lazy->OpenTable("t");
  ASSERT_TRUE(sl.ok());
  auto contents = Contents(&*sl);
  EXPECT_EQ(contents.size(), 201u);  // 200 + bump row, no phantoms
  EXPECT_EQ(contents.count(5010), 0u);
  EXPECT_EQ(contents[10], "committed");

  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_P(LazyMountTest, ByteIdenticalPagesWithSixLosersOnInterleavedKeys) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 240, "committed-value");
  clock_->Advance(kSecond);

  // Six losers in flight at the split, updating the keys round-robin:
  // every leaf holds rows of all six, and their records interleave in
  // the log.
  std::vector<Transaction*> losers;
  for (int l = 0; l < 6; l++) losers.push_back(db_->Begin());
  for (int i = 0; i < 240; i++) {
    ASSERT_TRUE(
        table->Update(losers[i % 6], {i, "L" + std::to_string(i % 6)}).ok())
        << i;
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 300, 301, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  ASSERT_TRUE(lazy->WaitForUndo().ok());
  for (AsOfSnapshot* snap : {eager.get(), lazy.get()}) {
    EXPECT_EQ(snap->creation_stats().loser_transactions, 6u);
    EXPECT_EQ(snap->creation_stats().replay_threads, GetParam());
  }

  ExpectByteIdenticalPages(eager.get(), lazy.get());

  auto se = eager->OpenTable("t");
  ASSERT_TRUE(se.ok());
  auto contents = Contents(&*se);
  EXPECT_EQ(contents.size(), 241u);
  for (int i = 0; i < 240; i++) EXPECT_EQ(contents[i], "committed-value") << i;

  for (Transaction* l : losers) ASSERT_TRUE(db_->Abort(l).ok());
}

// --------------------- loser undo, scan equivalence -------------------

TEST_P(LazyMountTest, LoserDeletesInvisibleInBothModes) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 150, "keep");
  clock_->Advance(kSecond);

  // Delete-heavy loser: its undo re-inserts rows, and may split
  // snapshot leaves into private pages.
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 150; i += 2) {
    ASSERT_TRUE(table->Delete(loser, Row{i}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 300, 301, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  ASSERT_TRUE(lazy->WaitForUndo().ok());

  auto se = eager->OpenTable("t");
  auto sl = lazy->OpenTable("t");
  ASSERT_TRUE(se.ok() && sl.ok());
  auto ce = Contents(&*se);
  EXPECT_EQ(ce, Contents(&*sl));
  EXPECT_EQ(ce.size(), 151u);
  EXPECT_EQ(ce[0], "keep");  // the loser's delete was undone
  ExpectByteIdenticalPages(eager.get(), lazy.get());

  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_P(LazyMountTest, ByteIdenticalPagesWhenUndoSplitsTwoTrees) {
  MakeKvTable("a");
  MakeKvTable("b");
  auto ta = db_->OpenTable("a");
  auto tb = db_->OpenTable("b");
  const std::string long_value(300, 'L');
  clock_->Advance(10 * kSecond);
  for (Table* table : {&*ta, &*tb}) {
    Transaction* txn = db_->Begin();
    for (int i = 0; i < 400; i += 2) {
      ASSERT_TRUE(table->Insert(txn, {i, long_value}).ok()) << i;
    }
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  clock_->Advance(kSecond);

  // The loser shrinks every row of both trees; a committed transaction
  // then refills the freed leaf space with interleaved keys. Restoring
  // the long values no longer fits, so undo splits about every leaf of
  // both trees into snapshot-private pages.
  Transaction* loser = db_->Begin();
  for (Table* table : {&*ta, &*tb}) {
    for (int i = 0; i < 400; i += 2) {
      ASSERT_TRUE(table->Update(loser, {i, std::string("s")}).ok()) << i;
    }
  }
  Transaction* refill = db_->Begin();
  for (Table* table : {&*ta, &*tb}) {
    for (int i = 1; i < 400; i += 2) {
      ASSERT_TRUE(table->Insert(refill, {i, std::string(500, 'c')}).ok())
          << i;
    }
  }
  ASSERT_TRUE(db_->Commit(refill).ok());
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  // The lazy mount's query reads b first while its sweeper starts with
  // a, and the eager pass undoes both at once at 8 workers: the mounts
  // recover the two trees in different orders.
  auto lb = lazy->OpenTable("b");
  ASSERT_TRUE(lb.ok()) << lb.status().ToString();
  EXPECT_EQ(Contents(&*lb).size(), 400u);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  ASSERT_TRUE(lazy->WaitForUndo().ok());

  ExpectByteIdenticalPages(eager.get(), lazy.get());
  for (AsOfSnapshot* snap : {eager.get(), lazy.get()}) {
    for (const char* name : {"a", "b"}) {
      auto st = snap->OpenTable(name);
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      auto contents = Contents(&*st);
      EXPECT_EQ(contents.size(), 400u) << name;
      EXPECT_EQ(std::count_if(contents.begin(), contents.end(),
                              [&](const auto& kv) {
                                return kv.second == long_value;
                              }),
                200)
          << name;
    }
  }
  // The undo really split both trees: in each, some leaf links to a
  // snapshot-private page.
  std::set<TreeId> split_trees;
  for (PageId id = 0; id < db_->data_file()->NumPages(); id++) {
    auto page = lazy->buffers()->FetchPage(id, AccessMode::kRead);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    const PageId sibling = Header(page->data())->right_sibling;
    if (sibling != kInvalidPageId && sibling >= 3'000'000'000u) {
      split_trees.insert(Header(page->data())->tree_id);
    }
  }
  EXPECT_EQ(split_trees.size(), 2u);

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// ------------------- first-touch and sweeper races --------------------

TEST_P(LazyMountTest, ConcurrentFirstTouchOfOneTree) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 400, "v1");
  clock_->Advance(kSecond);

  Transaction* loser = db_->Begin();
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("uncommitted")}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    const bool eager = mode == MountMode::kEager;
    auto snap = AsOfSnapshot::Create(db_.get(), eager ? "race-e" : "race-l",
                                     t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();

    // Two threads race the FIRST touch of the same tree (and the same
    // pages) while the background pass may be working it too. Both
    // must see the complete pre-split state.
    std::map<int, std::string> got[2];
    Status st[2];
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; w++) {
      threads.emplace_back([&, w] {
        auto tab = (*snap)->OpenTable("t");
        if (!tab.ok()) {
          st[w] = tab.status();
          return;
        }
        st[w] = tab->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
          got[w][row[0].AsInt32()] = row[1].AsString();
          return true;
        });
      });
    }
    for (auto& th : threads) th.join();
    for (int w = 0; w < 2; w++) {
      ASSERT_TRUE(st[w].ok()) << st[w].ToString();
      EXPECT_EQ(got[w].size(), 401u) << "thread " << w;
      EXPECT_EQ(got[w][25], "v1") << "thread " << w;
    }
    EXPECT_EQ(got[0], got[1]);

    ASSERT_TRUE((*snap)->WaitForUndo().ok());
  }
  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_P(LazyMountTest, SweeperCompletesThenQueriesMatchEager) {
  MakeKvTable("a");
  MakeKvTable("b");
  auto ta = db_->OpenTable("a");
  auto tb = db_->OpenTable("b");
  clock_->Advance(10 * kSecond);
  PutRows(&*ta, 0, 120, "alpha");
  PutRows(&*tb, 0, 80, "beta");
  clock_->Advance(kSecond);

  Transaction* loser = db_->Begin();
  ASSERT_TRUE(ta->Update(loser, {7, std::string("dirty")}).ok());
  ASSERT_TRUE(tb->Insert(loser, {7777, std::string("dirty")}).ok());
  clock_->Advance(kSecond);
  PutRows(&*ta, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  std::unique_ptr<AsOfSnapshot> eager, lazy;
  MountBoth(t, &eager, &lazy);
  ASSERT_TRUE(eager->WaitForUndo().ok());
  // Let the sweeper finish BEFORE the first query: long-lived mounts
  // must converge without any query traffic, and queries afterwards
  // (trees already kDone) still match eager.
  ASSERT_TRUE(lazy->WaitForUndo().ok());
  EXPECT_GE(db_->lazy_mount_counters().sweeps_completed, 1u);

  for (const char* name : {"a", "b"}) {
    auto se = eager->OpenTable(name);
    auto sl = lazy->OpenTable(name);
    ASSERT_TRUE(se.ok() && sl.ok());
    EXPECT_EQ(Contents(&*se), Contents(&*sl)) << name;
  }
  ExpectByteIdenticalPages(eager.get(), lazy.get());

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// -------------------------- fault injection ---------------------------

// The page-granular fault point (kRewindRead) fires on the query path
// only -- with no losers the background pass never touches table
// pages, so failing a specific page id is deterministic.
class LazyFaultTest : public LazyMountBase {
 protected:
  /// History: two tables, churned after the split so every first read
  /// must really recover its page.
  WallClock BuildTwoTableHistory() {
    MakeKvTable("a");
    MakeKvTable("b");
    auto ta = db_->OpenTable("a");
    auto tb = db_->OpenTable("b");
    clock_->Advance(10 * kSecond);
    PutRows(&*ta, 0, 60, "a1");
    PutRows(&*tb, 0, 60, "b1");
    clock_->Advance(kSecond);
    WallClock t = clock_->NowMicros();
    clock_->Advance(kSecond);
    Transaction* churn = db_->Begin();
    for (int i = 0; i < 60; i++) {
      EXPECT_TRUE(ta->Update(churn, {i, std::string("a2")}).ok());
      EXPECT_TRUE(tb->Update(churn, {i, std::string("b2")}).ok());
    }
    EXPECT_TRUE(db_->Commit(churn).ok());
    return t;
  }

  /// History: eight tables of 100 "good" rows, each row updated to
  /// "bad" by `*loser`, still in flight at `*t`. Eight trees of undo
  /// outlast the moment a test needs to install a fault hook after
  /// Create.
  void BuildEightTreeLoser(Transaction** loser, WallClock* t) {
    MakeKvTable("marker");
    auto marker = db_->OpenTable("marker");
    ASSERT_TRUE(marker.ok());
    std::vector<Table> tables;
    for (int k = 0; k < 8; k++) {
      MakeKvTable("t" + std::to_string(k));
      auto table = db_->OpenTable("t" + std::to_string(k));
      ASSERT_TRUE(table.ok());
      tables.push_back(std::move(*table));
    }
    clock_->Advance(10 * kSecond);
    for (Table& table : tables) PutRows(&table, 0, 100, "good");
    clock_->Advance(kSecond);
    *loser = db_->Begin();
    for (Table& table : tables) {
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE(table.Update(*loser, {i, std::string("bad")}).ok());
      }
    }
    clock_->Advance(kSecond);
    PutRows(&*marker, 0, 1, "bump");
    *t = clock_->NowMicros();
    clock_->Advance(kSecond);
  }

  /// Every row of the eight tables of BuildEightTreeLoser reads "good".
  void ExpectEightTreesGood(AsOfSnapshot* snap) {
    for (int k = 0; k < 8; k++) {
      auto st = snap->OpenTable("t" + std::to_string(k));
      ASSERT_TRUE(st.ok()) << st.status().ToString();
      auto contents = Contents(&*st);
      EXPECT_EQ(contents.size(), 100u) << k;
      for (const auto& [key, val] : contents) {
        EXPECT_EQ(val, "good") << "table t" << k << " key " << key;
      }
    }
  }
};

Status FailUndoApply(RecoveryFaultPoint p, uint64_t) {
  if (p == RecoveryFaultPoint::kUndoApply) {
    return Status::IoError("injected undo fault");
  }
  return Status::OK();
}

TEST_F(LazyFaultTest, RewindReadFaultIsolatedAndRetryable) {
  WallClock t = BuildTwoTableHistory();
  // Both modes recover a page through one path, so the fault point
  // fires in both.
  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    const bool eager = mode == MountMode::kEager;
    auto snap = AsOfSnapshot::Create(db_.get(),
                                     eager ? "fault-e" : "fault-l", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();

    // Resolve roots first (recovers only catalog pages, hook not yet
    // set).
    auto sa = (*snap)->OpenTable("a");
    auto sb = (*snap)->OpenTable("b");
    ASSERT_TRUE(sa.ok() && sb.ok());
    const PageId a_root = sa->info().root;

    (*snap)->SetRecoveryFaultHook([a_root](RecoveryFaultPoint p,
                                           uint64_t id) {
      if (p == RecoveryFaultPoint::kRewindRead && id == a_root) {
        return Status::IoError("injected rewind fault");
      }
      return Status::OK();
    });

    // The faulted table fails -- twice: the first failure must not have
    // cached a partial page in the side file, or the second read would
    // "succeed" with garbage instead of re-attempting recovery.
    Status s1 = ScanStatus(&*sa);
    ASSERT_FALSE(s1.ok());
    EXPECT_NE(s1.ToString().find("injected rewind fault"), std::string::npos)
        << s1.ToString();
    Status s2 = ScanStatus(&*sa);
    ASSERT_FALSE(s2.ok());

    // Other pages are not poisoned: table b reads fine under the hook.
    EXPECT_EQ(Contents(&*sb).size(), 60u);

    // Clearing the hook makes the same handle recover and serve the
    // correct pre-churn state.
    (*snap)->SetRecoveryFaultHook(nullptr);
    auto contents = Contents(&*sa);
    EXPECT_EQ(contents.size(), 60u);
    for (const auto& [k, v] : contents) EXPECT_EQ(v, "a1") << k;
  }
}

TEST_F(LazyFaultTest, UndoApplyFaultLeavesTreeResumable) {
  MakeKvTable();
  auto table = db_->OpenTable("t");
  clock_->Advance(10 * kSecond);
  PutRows(&*table, 0, 200, "good");
  clock_->Advance(kSecond);
  Transaction* loser = db_->Begin();
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(table->Update(loser, {i, std::string("bad")}).ok());
  }
  clock_->Advance(kSecond);
  PutRows(&*table, 500, 501, "bump");
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    const bool eager = mode == MountMode::kEager;
    auto snap = AsOfSnapshot::Create(db_.get(),
                                     eager ? "fault-e" : "fault-l", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    // Installed immediately after create. A lazy mount's sweeper must
    // first finish its analysis scan; an eager mount's pass starts
    // undoing at once. If the pass nevertheless wins the race the query
    // below simply succeeds -- the resume-after-clear assertions still
    // hold.
    (*snap)->SetRecoveryFaultHook(FailUndoApply);

    auto st = (*snap)->OpenTable("t");
    ASSERT_TRUE(st.ok()) << st.status().ToString();
    Status s = ScanStatus(&*st);
    if (!s.ok()) {
      EXPECT_NE(s.ToString().find("injected undo fault"), std::string::npos)
          << s.ToString();
      // Still failing on retry: the tree stays pending, never half-done.
      EXPECT_FALSE(ScanStatus(&*st).ok());
    }

    // Clear the fault: the SAME tree recovers (resuming its progress
    // cursor) and serves exactly the committed pre-split state.
    (*snap)->SetRecoveryFaultHook(nullptr);
    auto contents = Contents(&*st);
    EXPECT_EQ(contents.size(), 201u);
    for (int i = 0; i < 30; i++) EXPECT_EQ(contents[i], "good") << i;
  }

  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_F(LazyFaultTest, EagerUndoFaultLeavesTreeResumable) {
  Transaction* loser = nullptr;
  WallClock t = 0;
  ASSERT_NO_FATAL_FAILURE(BuildEightTreeLoser(&loser, &t));

  // The eager mount's background pass is already undoing when the hook
  // goes in, but eight trees outlast it: the pass fails.
  auto snap = AsOfSnapshot::Create(db_.get(), "fault", t, MountMode::kEager);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  (*snap)->SetRecoveryFaultHook(FailUndoApply);
  Status s = (*snap)->WaitForUndo();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected undo fault"), std::string::npos)
      << s.ToString();

  // The failed pass leaves its trees pending, not open: once the fault
  // clears, each query finishes its tree's undo before it reads.
  (*snap)->SetRecoveryFaultHook(nullptr);
  ExpectEightTreesGood(snap->get());

  ASSERT_TRUE(db_->Abort(loser).ok());
}

TEST_F(LazyFaultTest, FailedPassSettlesOnceTheFaultClears) {
  Transaction* loser = nullptr;
  WallClock t = 0;
  ASSERT_NO_FATAL_FAILURE(BuildEightTreeLoser(&loser, &t));

  for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
    const bool eager = mode == MountMode::kEager;
    auto snap = AsOfSnapshot::Create(db_.get(),
                                     eager ? "settle-e" : "settle-l", t, mode);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    (*snap)->SetRecoveryFaultHook(FailUndoApply);
    std::unique_ptr<ReadView> view = WrapSnapshot(snap->get());
    Status s = view->WaitReady();
    ASSERT_FALSE(s.ok()) << (eager ? "eager" : "lazy");
    EXPECT_NE(s.ToString().find("injected undo fault"), std::string::npos)
        << s.ToString();

    // With the fault gone and no query run, waiting again finishes the
    // trees the failed pass left pending: the mount is ready for SQL.
    (*snap)->SetRecoveryFaultHook(nullptr);
    s = view->WaitReady();
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = (*snap)->WaitForUndo();
    EXPECT_TRUE(s.ok()) << s.ToString();
    ExpectEightTreesGood(snap->get());
  }

  ASSERT_TRUE(db_->Abort(loser).ok());
}

// ------------------- SQL parity across plan shapes --------------------

/// Render a rowset as comparable strings, one per row.
std::vector<std::string> Rendered(const SqlResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

/// The executor plan shapes of tests/exec_test.cc, run AS OF through an
/// eagerly and a lazily mounted view: every shape must return identical
/// rows.
const char* kParityShapes[] = {
    "SELECT id, dept, score FROM emp WHERE id >= 10 AND id < 40 AND "
    "score > 5",
    "SELECT id, score FROM emp WHERE dept = 'd1'",
    "SELECT id FROM emp WHERE dept = 'd2' AND score < 25",
    "SELECT e.id, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
    "WHERE e.score >= 10 ORDER BY e.id",
    "SELECT e.id, d.dept FROM emp e JOIN dept d ON e.score < d.pop "
    "WHERE e.id <= 12 ORDER BY e.id, d.dept",
    "SELECT dept, COUNT(*), SUM(score), MIN(score), MAX(score), "
    "AVG(score) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT COUNT(*), SUM(bonus) FROM emp WHERE score > 20",
    "SELECT d.city, COUNT(*) AS cnt FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.score > 5 GROUP BY d.city "
    "HAVING COUNT(*) >= 2 ORDER BY cnt DESC, d.city LIMIT 3",
    "SELECT DISTINCT dept FROM emp ORDER BY dept",
    "SELECT id FROM emp ORDER BY score DESC, id LIMIT 7",
    "SELECT id, score * 2 + bonus FROM emp WHERE (score + bonus) % 5 = "
    "1 ORDER BY id",
    "SELECT d.city, COUNT(*), SUM(e.score) FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.dept = 'd2' GROUP BY d.city",
};

class LazySqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_lazy_sql" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    auto conn = Connection::Create(dir_, opts);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    session_ = std::make_unique<SqlSession>(conn_.get());
  }
  void TearDown() override {
    session_.reset();
    conn_.reset();
    std::filesystem::remove_all(dir_);
  }

  SqlResult MustExecute(const std::string& sql) {
    auto r = session_->ExecuteStatement(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : SqlResult{};
  }

  void LoadDataset() {
    ASSERT_TRUE(conn_->CreateTable(
                        "emp", Schema({{"id", ColumnType::kInt64},
                                       {"dept", ColumnType::kString},
                                       {"score", ColumnType::kInt64},
                                       {"bonus", ColumnType::kInt32}},
                                      1))
                    .ok());
    ASSERT_TRUE(conn_->CreateTable(
                        "dept", Schema({{"dept", ColumnType::kString},
                                        {"city", ColumnType::kString},
                                        {"pop", ColumnType::kInt64}},
                                       1))
                    .ok());
    auto idx = session_->Execute("CREATE INDEX emp_by_dept ON emp (dept)");
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    Txn txn = conn_->Begin();
    for (int i = 1; i <= 60; i++) {
      ASSERT_TRUE(conn_->Insert(txn, "emp",
                                {int64_t{i}, "d" + std::to_string(i % 4),
                                 int64_t{(i * 7) % 50}, int32_t{i % 3}})
                      .ok());
    }
    for (int d = 0; d < 4; d++) {
      ASSERT_TRUE(conn_->Insert(txn, "dept",
                                {"d" + std::to_string(d),
                                 std::string(d % 2 ? "east" : "west"),
                                 int64_t{100 * d}})
                      .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  void Churn() {
    Txn txn = conn_->Begin();
    for (int i = 1; i <= 60; i++) {
      if (i % 3 == 0) {
        ASSERT_TRUE(conn_->Delete(txn, "emp", {int64_t{i}}).ok());
      } else {
        ASSERT_TRUE(conn_->Update(txn, "emp",
                                  {int64_t{i}, std::string("zz"),
                                   int64_t{999}, int32_t{0}})
                        .ok());
      }
    }
    ASSERT_TRUE(conn_->Delete(txn, "dept", {std::string("d3")}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<SqlSession> session_;
};

TEST_F(LazySqlTest, EagerAndLazyAsOfAgreeAcrossPlanShapes) {
  LoadDataset();
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  Churn();
  clock_->Advance(kSecond);

  auto r = MustExecute("SET MOUNT_MODE = EAGER");
  EXPECT_NE(r.message.find("EAGER"), std::string::npos);
  EXPECT_FALSE(conn_->lazy_mounts());
  std::vector<std::vector<std::string>> eager_rows;
  for (const char* shape : kParityShapes) {
    eager_rows.push_back(
        Rendered(MustExecute(std::string(shape) + " AS OF " +
                             std::to_string(t))));
  }

  // The eager mounts published every page they read, the ones that
  // predate the split too: clear the store so the lazy mounts recover
  // their pages themselves instead of taking the eager results.
  conn_->engine()->version_store()->Clear();
  r = MustExecute("SET MOUNT_MODE = LAZY");
  EXPECT_NE(r.message.find("LAZY"), std::string::npos);
  EXPECT_TRUE(conn_->lazy_mounts());
  for (size_t i = 0; i < std::size(kParityShapes); i++) {
    auto lazy_rows = Rendered(
        MustExecute(std::string(kParityShapes[i]) + " AS OF " +
                    std::to_string(t)));
    EXPECT_EQ(eager_rows[i], lazy_rows) << kParityShapes[i];
  }

  // The session really mounted lazily: counters moved.
  LazyMountCounters lm = conn_->LazyMountStats();
  EXPECT_GE(lm.lazy_mounts, std::size(kParityShapes));
  EXPECT_GE(lm.eager_mounts, std::size(kParityShapes));
  EXPECT_GT(lm.pages_recovered_on_demand, 0u);
}

TEST_F(LazySqlTest, ShowStatsExposesLazyCounters) {
  LoadDataset();
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  Churn();

  MustExecute("SET MOUNT_MODE = LAZY");
  MustExecute("SELECT COUNT(*) FROM emp AS OF " + std::to_string(t));

  SqlResult stats = MustExecute("SHOW STATS");
  std::map<std::string, int64_t> metrics;
  for (const Row& row : stats.rows) {
    metrics[row[0].AsString()] = row[1].AsInt64();
  }
  ASSERT_TRUE(metrics.count("lazy_mount.lazy_mounts"));
  ASSERT_TRUE(metrics.count("lazy_mount.pages_recovered_on_demand"));
  ASSERT_TRUE(metrics.count("lazy_mount.trees_recovered_on_demand"));
  ASSERT_TRUE(metrics.count("lazy_mount.sweeps_completed"));
  EXPECT_GE(metrics["lazy_mount.lazy_mounts"], 1);
  EXPECT_GT(metrics["lazy_mount.pages_recovered_on_demand"], 0);

  // Named snapshots honour the session mode too.
  MustExecute("CREATE DATABASE past AS SNAPSHOT OF db AS OF " +
              std::to_string(t));
  SqlResult again = MustExecute("SHOW STATS");
  for (const Row& row : again.rows) {
    if (row[0].AsString() == "lazy_mount.lazy_mounts") {
      EXPECT_GE(row[1].AsInt64(), metrics["lazy_mount.lazy_mounts"] + 1);
    }
  }
  SqlResult sel = MustExecute("SELECT COUNT(*) FROM emp SNAPSHOT OF past");
  ASSERT_EQ(sel.rows.size(), 1u);
  EXPECT_EQ(sel.rows[0][0].AsInt64(), 60);

  MustExecute("SET MOUNT_MODE = EAGER");  // and back without error
}

}  // namespace
}  // namespace rewinddb
