// Tests for the shared version store: the cross-snapshot cache of
// rewound page images. Covers the unit behaviour (exact / partial
// lookup semantics, LRU eviction under a byte budget and at the
// per-page cap, range extension on re-publish, truncation
// invalidation) and the end-to-end contract: a second snapshot at the
// same target time materializes its pages from the store with far
// fewer records undone, snapshots at different times share partial
// rewinds, and concurrent snapshots race safely on one store.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "api/connection.h"
#include "common/random.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"
#include "snapshot/version_store.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

// ------------------------- unit behaviour -----------------------------

char* InitImage(char* buf, PageId id, Lsn page_lsn) {
  memset(buf, 0, kPageSize);
  Header(buf)->page_id = id;
  SetPageLsn(buf, page_lsn);
  // A recognizable payload derived from the version key.
  memset(buf + kPageHeaderSize, static_cast<int>(page_lsn % 251), 64);
  return buf;
}

TEST(VersionStoreUnitTest, ExactAndPartialLookupSemantics) {
  VersionStore store(1ull << 20);
  char img[kPageSize];
  char out[kPageSize];
  // Versions of page 7: [lsn 100, valid until 200) and [300, 400).
  store.Publish(7, InitImage(img, 7, 100), 200);
  store.Publish(7, InitImage(img, 7, 300), 400);
  ASSERT_EQ(store.version_count(), 2u);

  // Exact: target inside a validity range returns that image.
  auto hit = store.Find(7, 150, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kExact);
  EXPECT_EQ(hit.version_lsn, 100u);
  EXPECT_EQ(PageLsn(out), 100u);
  hit = store.Find(7, 100, out);  // inclusive lower bound
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kExact);
  hit = store.Find(7, 399, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kExact);
  EXPECT_EQ(hit.version_lsn, 300u);

  // Partial: target in the gap [200, 300) cannot use the older image
  // (modifications happened after it) but can rewind from the newer.
  hit = store.Find(7, 250, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kPartial);
  EXPECT_EQ(hit.version_lsn, 300u);
  EXPECT_EQ(PageLsn(out), 300u);

  // Partial below every version: rewind from the oldest.
  hit = store.Find(7, 50, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kPartial);
  EXPECT_EQ(hit.version_lsn, 100u);

  // Miss: target past the newest validity, and unknown pages.
  hit = store.Find(7, 400, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kMiss);
  hit = store.Find(8, 150, out);
  EXPECT_EQ(hit.kind, VersionStore::LookupKind::kMiss);

  VersionStore::Stats s = store.stats();
  EXPECT_EQ(s.exact_hits, 3u);
  EXPECT_EQ(s.partial_hits, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.published, 2u);
}

TEST(VersionStoreUnitTest, RejectsEmptyOrUnknownValidity) {
  VersionStore store(1ull << 20);
  char img[kPageSize];
  store.Publish(1, InitImage(img, 1, 100), kInvalidLsn);  // unknown
  store.Publish(1, InitImage(img, 1, 100), 100);          // empty range
  store.Publish(1, InitImage(img, 1, 100), 90);           // inverted
  EXPECT_EQ(store.version_count(), 0u);
}

TEST(VersionStoreUnitTest, DisabledStoreStoresAndServesNothing) {
  VersionStore store(0);
  char img[kPageSize];
  char out[kPageSize];
  store.Publish(1, InitImage(img, 1, 100), 200);
  EXPECT_EQ(store.version_count(), 0u);
  EXPECT_EQ(store.Find(1, 150, out).kind, VersionStore::LookupKind::kMiss);
  // A disabled store does not even count misses.
  EXPECT_EQ(store.stats().misses, 0u);
}

TEST(VersionStoreUnitTest, LruEvictionUnderTinyBudget) {
  // Budget for ~4 versions.
  const size_t kCost = kPageSize + 96;
  VersionStore store(4 * kCost);
  char img[kPageSize];
  char out[kPageSize];
  for (PageId id = 1; id <= 4; id++) {
    store.Publish(id, InitImage(img, id, 100), 200);
  }
  ASSERT_EQ(store.version_count(), 4u);
  // Touch pages 2..4 so page 1 is the LRU tail.
  for (PageId id = 2; id <= 4; id++) {
    EXPECT_EQ(store.Find(id, 150, out).kind,
              VersionStore::LookupKind::kExact);
  }
  store.Publish(5, InitImage(img, 5, 100), 200);
  EXPECT_EQ(store.version_count(), 4u);
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.Find(1, 150, out).kind, VersionStore::LookupKind::kMiss)
      << "the least-recently-used version should have been evicted";
  EXPECT_EQ(store.Find(5, 150, out).kind, VersionStore::LookupKind::kExact);
  EXPECT_LE(store.bytes_used(), store.budget_bytes());

  // Shrinking the budget evicts immediately; zero clears everything.
  store.SetBudget(2 * kCost);
  EXPECT_EQ(store.version_count(), 2u);
  store.SetBudget(0);
  EXPECT_EQ(store.version_count(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
}

TEST(VersionStoreUnitTest, PerPageCapEvictsLeastRecentlyUsedVersion) {
  using Kind = VersionStore::LookupKind;
  VersionStore store(1ull << 22);
  char img[kPageSize];
  char out[kPageSize];
  // Eight versions fill page 3: [100,110), [120,130), ..., [240,250).
  for (Lsn l = 100; l < 260; l += 20) {
    store.Publish(3, InitImage(img, 3, l), l + 10);
  }
  EXPECT_EQ(store.version_count(), 8u) << "per-page cap";
  // Every version but the one at 160 is found again, the oldest too.
  for (Lsn l = 100; l < 260; l += 20) {
    if (l != 160) {
      ASSERT_EQ(store.Find(3, l + 5, out).kind, Kind::kExact);
    }
  }

  // A version older than every cached one is accepted; the least
  // recently used version yields, not the oldest.
  store.Publish(3, InitImage(img, 3, 60), 80);
  EXPECT_EQ(store.version_count(), 8u);
  // Cap displacements are not budget evictions: they report separately.
  EXPECT_EQ(store.stats().cap_drops, 1u);
  EXPECT_EQ(store.stats().evictions, 0u);
  EXPECT_EQ(store.Find(3, 65, out).kind, Kind::kExact);
  EXPECT_EQ(PageLsn(out), 60u);
  EXPECT_EQ(store.Find(3, 165, out).kind, Kind::kPartial)
      << "the least recently used version must have yielded";
  EXPECT_EQ(PageLsn(out), 180u);
  EXPECT_EQ(store.Find(3, 105, out).kind, Kind::kExact)
      << "the oldest version was in use and must survive";

  // A re-publish raises valid_until and never lowers it.
  EXPECT_EQ(store.Find(3, 132, out).kind, Kind::kPartial);
  store.Publish(3, InitImage(img, 3, 120), 135);
  EXPECT_EQ(store.Find(3, 132, out).kind, Kind::kExact)
      << "the larger bound of a re-publish must hold";
  EXPECT_EQ(PageLsn(out), 120u);
  store.Publish(3, InitImage(img, 3, 120), 125);
  EXPECT_EQ(store.Find(3, 132, out).kind, Kind::kExact)
      << "a smaller bound must not lower valid_until";
  EXPECT_EQ(store.version_count(), 8u);
  EXPECT_EQ(store.stats().published, 9u) << "a re-publish adds no version";

  // A re-publish is a use too: 200, 220 and 240 are now the page's
  // least recently used, in that order, and re-publishing 200 leaves
  // 220 to yield.
  store.Publish(3, InitImage(img, 3, 200), 210);
  store.Publish(3, InitImage(img, 3, 260), 270);
  EXPECT_EQ(store.stats().cap_drops, 2u);
  EXPECT_EQ(store.Find(3, 205, out).kind, Kind::kExact);
  EXPECT_EQ(store.Find(3, 225, out).kind, Kind::kPartial);
  EXPECT_EQ(PageLsn(out), 240u);
}

TEST(VersionStoreUnitTest, TruncateBeforeDropsWhollyStaleVersions) {
  VersionStore store(1ull << 20);
  char img[kPageSize];
  char out[kPageSize];
  store.Publish(1, InitImage(img, 1, 100), 200);  // wholly before 250
  store.Publish(1, InitImage(img, 1, 300), 400);  // after
  store.Publish(2, InitImage(img, 2, 240), 260);  // spans 250: stays
  store.TruncateBefore(250);
  EXPECT_EQ(store.version_count(), 2u);
  EXPECT_EQ(store.stats().truncation_drops, 1u);
  EXPECT_EQ(store.Find(1, 150, out).kind, VersionStore::LookupKind::kPartial)
      << "only the newer version of page 1 remains";
  EXPECT_EQ(store.Find(2, 255, out).kind, VersionStore::LookupKind::kExact)
      << "a version spanning the truncation point is still valid";
  // A rewind that raced the truncation may publish late: versions
  // wholly before the truncation point are rejected.
  store.Publish(4, InitImage(img, 4, 100), 200);
  EXPECT_EQ(store.version_count(), 2u);
  store.Publish(4, InitImage(img, 4, 240), 260);  // spans: accepted
  EXPECT_EQ(store.version_count(), 3u);
}

// ----------------------- end-to-end behaviour -------------------------

class VersionStoreDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_vstore" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    Customize(&opts);
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }
  void TearDown() override {
    db_.reset();
    clock_.reset();
    std::filesystem::remove_all(dir_);
  }
  virtual void Customize(DatabaseOptions*) {}

  /// A few hundred rows, then several rounds of updates with time marks
  /// between them.
  void BuildHistory(int rows, int rounds) {
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    auto table = db_->OpenTable("t");
    ASSERT_TRUE(table.ok());
    clock_->Advance(10 * kSecond);
    {
      Transaction* w = db_->Begin();
      for (int i = 0; i < rows; i++) {
        ASSERT_TRUE(table->Insert(w, {i, std::string("v0")}).ok());
      }
      ASSERT_TRUE(db_->Commit(w).ok());
    }
    clock_->Advance(kSecond);
    marks_.push_back(clock_->NowMicros());
    for (int round = 1; round <= rounds; round++) {
      clock_->Advance(kSecond);
      Transaction* w = db_->Begin();
      for (int i = 0; i < rows; i++) {
        ASSERT_TRUE(
            table->Update(w, {i, "r" + std::to_string(round)}).ok());
      }
      ASSERT_TRUE(db_->Commit(w).ok());
      clock_->Advance(kSecond);
      marks_.push_back(clock_->NowMicros());
    }
  }

  uint64_t ScanCountingUndo(AsOfSnapshot* snap, int expect_rows,
                            const std::string& expect_val) {
    uint64_t undone0 = snap->rewinder()->records_undone();
    auto st = snap->OpenTable("t");
    EXPECT_TRUE(st.ok()) << st.status().ToString();
    std::map<int, std::string> got;
    Status s =
        st->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
          got[row[0].AsInt32()] = row[1].AsString();
          return true;
        });
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(got.size(), static_cast<size_t>(expect_rows));
    for (const auto& [k, v] : got) EXPECT_EQ(v, expect_val) << "key " << k;
    return snap->rewinder()->records_undone() - undone0;
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
  std::vector<WallClock> marks_;
};

TEST_F(VersionStoreDbTest, SecondSnapshotAtSameTimeSkipsTheChainWalk) {
  BuildHistory(/*rows=*/200, /*rounds=*/6);
  WallClock target = marks_[1];  // rewind across 5 update rounds

  uint64_t first_undone, second_undone;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "first", target);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    first_undone = ScanCountingUndo(snap->get(), 200, "r1");
  }
  ASSERT_GT(first_undone, 0u);
  VersionStore::Stats after_first = db_->version_store()->stats();
  EXPECT_GT(after_first.published, 0u);

  {
    auto snap = AsOfSnapshot::Create(db_.get(), "second", target);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    second_undone = ScanCountingUndo(snap->get(), 200, "r1");
  }
  VersionStore::Stats after_second = db_->version_store()->stats();
  EXPECT_GT(after_second.exact_hits, after_first.exact_hits);
  // The acceptance bar is >= 50% fewer records undone; exact hits make
  // it essentially zero (only pages evicted or written since repeat).
  EXPECT_LE(second_undone, first_undone / 2)
      << "second snapshot at the same time should materialize from the "
         "version store";
}

TEST_F(VersionStoreDbTest, EarlierSnapshotRewindsOnlyTheGap) {
  BuildHistory(/*rows=*/200, /*rounds=*/6);

  // Snapshot close to the present first: its cached versions are the
  // starting points for the deeper rewind.
  uint64_t near_undone, far_undone;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "near", marks_[5]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    near_undone = ScanCountingUndo(snap->get(), 200, "r5");
  }
  VersionStore::Stats mid = db_->version_store()->stats();
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "far", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    far_undone = ScanCountingUndo(snap->get(), 200, "r1");
  }
  VersionStore::Stats end = db_->version_store()->stats();
  EXPECT_GT(end.partial_hits, mid.partial_hits)
      << "the far snapshot should seed its rewinds from the near one";

  // An isolated rewind to marks_[1] walks rounds 2..6; the shared walk
  // only covers rounds 2..5 (the gap), so it undoes strictly less than
  // a fresh full walk would. Compare against a fresh store.
  db_->version_store()->Clear();
  uint64_t isolated_undone;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "isolated", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    isolated_undone = ScanCountingUndo(snap->get(), 200, "r1");
  }
  EXPECT_LT(far_undone, isolated_undone)
      << "partial hits should shorten the chain walk";
  (void)near_undone;
}

TEST_F(VersionStoreDbTest, RetentionTruncationInvalidatesStaleVersions) {
  BuildHistory(/*rows=*/50, /*rounds=*/3);
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "warm", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    ScanCountingUndo(snap->get(), 50, "r1");
  }
  ASSERT_GT(db_->version_store()->version_count(), 0u);

  // Shrink retention so everything cached falls out of the window.
  ASSERT_TRUE(db_->SetUndoInterval(10 * kSecond).ok());
  clock_->Advance(1000 * kSecond);
  ASSERT_TRUE(db_->Checkpoint().ok());
  clock_->Advance(20 * kSecond);
  ASSERT_TRUE(db_->Checkpoint().ok());
  ASSERT_TRUE(db_->EnforceRetention().ok());
  EXPECT_EQ(db_->version_store()->version_count(), 0u)
      << "every cached version lies wholly before the truncation point";
  EXPECT_GT(db_->version_store()->stats().truncation_drops, 0u);
}

TEST_F(VersionStoreDbTest, ConcurrentSnapshotsShareOneStore) {
  BuildHistory(/*rows=*/150, /*rounds=*/4);
  // Two snapshots at different times, created and queried in parallel,
  // racing on Find/Publish. Run under ASan/TSan in CI.
  std::thread t1([&] {
    auto snap = AsOfSnapshot::Create(db_.get(), "conc1", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    ScanCountingUndo(snap->get(), 150, "r1");
  });
  std::thread t2([&] {
    auto snap = AsOfSnapshot::Create(db_.get(), "conc2", marks_[3]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    ScanCountingUndo(snap->get(), 150, "r3");
  });
  t1.join();
  t2.join();
  VersionStore::Stats s = db_->version_store()->stats();
  EXPECT_GT(s.published, 0u);
}

class VersionStoreDisabledTest : public VersionStoreDbTest {
 protected:
  void Customize(DatabaseOptions* opts) override {
    opts->version_store_bytes = 0;
  }
};

TEST_F(VersionStoreDisabledTest, ZeroBudgetPreservesTheColdPath) {
  BuildHistory(/*rows=*/100, /*rounds=*/3);
  uint64_t first, second;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "a", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    first = ScanCountingUndo(snap->get(), 100, "r1");
  }
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "b", marks_[1]);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    second = ScanCountingUndo(snap->get(), 100, "r1");
  }
  EXPECT_GT(first, 0u);
  EXPECT_EQ(second, first) << "with the store disabled, every snapshot "
                              "repeats the full chain walk";
  EXPECT_EQ(db_->version_store()->version_count(), 0u);
}

// The api surface reaches the same shared store.
TEST(VersionStoreApiTest, ConnectionViewsShareTheStore) {
  auto dir = (std::filesystem::temp_directory_path() / "rewinddb_vstore" /
              "api_shared")
                 .string();
  std::filesystem::remove_all(dir);
  {
    SimClock clock(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = &clock;
    auto conn = Connection::Create(dir, opts);
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE((*conn)->CreateTable("t", KvSchema()).ok());
    clock.Advance(10 * kSecond);
    {
      Txn txn = (*conn)->Begin();
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE((*conn)->Insert(txn, "t", {i, std::string("old")}).ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
    }
    clock.Advance(kSecond);
    WallClock past = clock.NowMicros();
    clock.Advance(kSecond);
    {
      Txn txn = (*conn)->Begin();
      for (int i = 0; i < 100; i++) {
        ASSERT_TRUE((*conn)->Update(txn, "t", {i, std::string("new")}).ok());
      }
      ASSERT_TRUE(txn.Commit().ok());
    }

    for (int round = 0; round < 2; round++) {
      auto view = (*conn)->AsOf(past);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      ASSERT_TRUE((*view)->WaitReady().ok());
      auto table = (*view)->OpenTable("t");
      ASSERT_TRUE(table.ok());
      uint64_t n = 0;
      ASSERT_TRUE((*table)
                      ->Scan(std::nullopt, std::nullopt,
                             [&](const Row& row) {
                               EXPECT_EQ(row[1].AsString(), "old");
                               n++;
                               return true;
                             })
                      .ok());
      EXPECT_EQ(n, 100u);
    }
    VersionStore::Stats s = (*conn)->VersionStoreStats();
    EXPECT_GT(s.published, 0u);
    EXPECT_GT(s.exact_hits, 0u)
        << "the second AsOf view should hit versions the first published";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rewinddb
