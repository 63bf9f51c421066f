// Parallel replay tests: the PagePool/ParallelFor machinery (ordering,
// error surfacing, no-hang guarantees), parallel-vs-serial equivalence
// of crash recovery and snapshot mount at replay_threads in {1, 2, 8},
// and the sharded buffer manager's counters.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <vector>

#include "common/clock.h"
#include "engine/database.h"
#include "engine/parallel_replay.h"
#include "engine/table.h"
#include "io/paged_file.h"
#include "snapshot/asof_snapshot.h"

namespace rewinddb {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

// ------------------------- pool unit tests ----------------------------

LogRecord PageRec(PageId page) {
  LogRecord rec;
  rec.type = LogType::kFormat;
  rec.page_id = page;
  return rec;
}

TEST(PagePoolTest, AppliesEverythingAndPreservesPerPageOrder) {
  std::mutex mu;
  std::map<PageId, std::vector<Lsn>> per_page;
  replay::PagePool pool(4, [&](size_t, Lsn lsn, const LogRecord& rec) {
    std::lock_guard<std::mutex> g(mu);
    per_page[rec.page_id].push_back(lsn);
    return Status::OK();
  });
  const int kRecords = 4000;
  for (int i = 0; i < kRecords; i++) {
    ASSERT_TRUE(pool.Dispatch(static_cast<Lsn>(i),
                              PageRec(static_cast<PageId>(i % 33))));
  }
  ASSERT_TRUE(pool.Finish().ok());
  EXPECT_EQ(pool.dispatched(), static_cast<uint64_t>(kRecords));
  size_t total = 0;
  for (const auto& [page, lsns] : per_page) {
    total += lsns.size();
    for (size_t i = 1; i < lsns.size(); i++) {
      ASSERT_LT(lsns[i - 1], lsns[i])
          << "page " << page << " applied out of dispatch order";
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kRecords));
}

TEST(PagePoolTest, PoisonedRecordSurfacesStatusWithoutHang) {
  // One poisoned record: the pool must stop accepting work, drain, and
  // Finish() must return that exact status -- with queues far smaller
  // than the dispatch volume, so a hang would trip the test timeout.
  std::atomic<uint64_t> applied{0};
  replay::PagePool pool(
      4,
      [&](size_t, Lsn lsn, const LogRecord&) {
        if (lsn == 1000) return Status::IoError("poisoned record");
        applied.fetch_add(1);
        return Status::OK();
      },
      /*queue_capacity=*/16);
  bool stopped = false;
  for (int i = 0; i < 100000; i++) {
    if (!pool.Dispatch(static_cast<Lsn>(i),
                       PageRec(static_cast<PageId>(i % 7)))) {
      stopped = true;
      break;
    }
  }
  Status s = pool.Finish();
  EXPECT_TRUE(stopped) << "dispatcher was never told to stop";
  ASSERT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_NE(s.ToString().find("poisoned record"), std::string::npos);
}

TEST(PagePoolTest, InlineModeFailsFast) {
  int calls = 0;
  replay::PagePool pool(1, [&](size_t, Lsn lsn, const LogRecord&) {
    calls++;
    return lsn == 5 ? Status::IoError("bad") : Status::OK();
  });
  int dispatched = 0;
  for (int i = 0; i < 100; i++) {
    if (!pool.Dispatch(static_cast<Lsn>(i), PageRec(1))) break;
    dispatched++;
  }
  EXPECT_EQ(dispatched, 5) << "inline dispatch must stop at the failure";
  EXPECT_EQ(calls, 6);
  EXPECT_TRUE(pool.Finish().IsIoError());
}

TEST(ParallelForTest, RunsAllIndicesOnce) {
  std::vector<std::atomic<int>> counts(257);
  ASSERT_TRUE(replay::ParallelFor(8, counts.size(), [&](size_t i) {
                counts[i].fetch_add(1);
                return Status::OK();
              }).ok());
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ParallelForTest, FirstErrorWinsAndStopsNewWork) {
  // Items after 17 wait until ParallelFor has recorded item 17's error,
  // so a worker preempted between the failure and the stop cannot let
  // the others run every item first.
  std::atomic<int> started{0};
  std::mutex mu;
  std::condition_variable cv;
  bool recorded = false;
  Status s = replay::ParallelFor(
      4, 10000,
      [&](size_t i) {
        started.fetch_add(1);
        if (i == 17) return Status::Corruption("loser 17");
        if (i > 17) {
          std::unique_lock<std::mutex> g(mu);
          cv.wait(g, [&] { return recorded; });
        }
        return Status::OK();
      },
      [&] {
        std::lock_guard<std::mutex> g(mu);
        recorded = true;
        cv.notify_all();
      });
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_LT(started.load(), 10000) << "error did not stop the fan-out";
  // Items 0..17, plus at most one waiting item per other worker.
  EXPECT_LE(started.load(), 18 + 3);
}

// --------------------- equivalence test fixture -----------------------

class ReplayEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() / "rewinddb_replay" /
             ::testing::UnitTest::GetInstance()->current_test_info()->name())
                .string();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  static void CopyDir(const std::string& from, const std::string& to) {
    std::filesystem::remove_all(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
  }

  /// All rows of `table`, rendered to strings (order = key order).
  static std::vector<std::string> Rows(Database* db,
                                       const std::string& table) {
    auto t = db->OpenTable(table);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    std::vector<std::string> out;
    Status s = t->Scan(nullptr, std::nullopt, std::nullopt,
                       [&](const Row& row) {
                         std::string line;
                         for (const Value& v : row) line += v.ToString() + "|";
                         out.push_back(std::move(line));
                         return true;
                       });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  /// Page LSN of every page in the (closed) database's data file.
  static std::vector<Lsn> PageLsns(const std::string& dir) {
    std::ifstream f(dir + "/data.rwdb", std::ios::binary);
    EXPECT_TRUE(f.good());
    std::vector<Lsn> lsns;
    char page[kPageSize];
    while (f.read(page, kPageSize)) lsns.push_back(PageLsn(page));
    return lsns;
  }

  std::string base_;
};

TEST_F(ReplayEquivalenceTest, CrashRecoveryRedoOnlyIdenticalPagesAndScans) {
  const std::string crashed = base_ + "/crashed";
  {
    auto db = Database::Create(crashed);
    ASSERT_TRUE(db.ok());
    Transaction* txn = (*db)->Begin();
    ASSERT_TRUE((*db)->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE((*db)->Commit(txn).ok());
    auto table = (*db)->OpenTable("t");
    ASSERT_TRUE(table.ok());
    // Committed work across many pages so redo has real fan-out; no
    // in-flight transactions, so recovery is redo-only and every page
    // image must come out byte-identical at any worker count.
    for (int batch = 0; batch < 20; batch++) {
      Transaction* w = (*db)->Begin();
      for (int i = 0; i < 50; i++) {
        int id = batch * 50 + i;
        ASSERT_TRUE(
            table->Insert(w, {id, std::string(80, 'a' + (id % 26))}).ok());
      }
      ASSERT_TRUE((*db)->Commit(w).ok());
    }
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }

  std::vector<std::string> ref_rows;
  std::vector<Lsn> ref_lsns;
  for (int threads : {1, 2, 8}) {
    const std::string dir = base_ + "/t" + std::to_string(threads);
    CopyDir(crashed, dir);
    DatabaseOptions opts;
    opts.replay_threads = threads;
    {
      auto db = Database::Open(dir, opts);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      EXPECT_TRUE((*db)->recovered_from_crash());
      EXPECT_EQ((*db)->recovery_stats().replay_threads, threads);
      EXPECT_GT((*db)->recovery_stats().redo_records, 0u);
      auto rows = Rows(db->get(), "t");
      EXPECT_EQ(rows.size(), 1000u);
      if (threads == 1) {
        ref_rows = rows;
      } else {
        EXPECT_EQ(rows, ref_rows) << "scan differs at threads=" << threads;
      }
      ASSERT_TRUE((*db)->Close().ok());
    }
    auto lsns = PageLsns(dir);
    if (threads == 1) {
      ref_lsns = lsns;
      EXPECT_FALSE(ref_lsns.empty());
    } else {
      EXPECT_EQ(lsns, ref_lsns)
          << "page LSNs differ at threads=" << threads;
    }
  }
}

TEST_F(ReplayEquivalenceTest, CrashRecoveryWithLosersEquivalentScans) {
  const std::string crashed = base_ + "/crashed";
  {
    auto db = Database::Create(crashed);
    ASSERT_TRUE(db.ok());
    Transaction* txn = (*db)->Begin();
    ASSERT_TRUE((*db)->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE((*db)->Commit(txn).ok());
    auto table = (*db)->OpenTable("t");
    ASSERT_TRUE(table.ok());
    Transaction* w = (*db)->Begin();
    for (int i = 0; i < 600; i++) {
      ASSERT_TRUE(table->Insert(w, {i, std::string(60, 'x')}).ok());
    }
    ASSERT_TRUE((*db)->Commit(w).ok());
    // Several in-flight transactions with published (flushed) updates:
    // all of them become losers the undo phase must roll back.
    std::vector<Transaction*> losers;
    for (int l = 0; l < 4; l++) {
      Transaction* lt = (*db)->Begin();
      for (int i = 0; i < 40; i++) {
        int id = l * 150 + i;
        ASSERT_TRUE(table->Update(lt, {id, std::string(60, 'L')}).ok());
      }
      for (int i = 0; i < 10; i++) {
        ASSERT_TRUE(table->Insert(lt, {1000 + l * 10 + i, "loser"}).ok());
      }
      losers.push_back(lt);
    }
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }

  std::vector<std::string> ref_rows;
  for (int threads : {1, 2, 8}) {
    const std::string dir = base_ + "/t" + std::to_string(threads);
    CopyDir(crashed, dir);
    DatabaseOptions opts;
    opts.replay_threads = threads;
    auto db = Database::Open(dir, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_crash());
    EXPECT_EQ((*db)->recovery_stats().loser_transactions, 4u);
    auto rows = Rows(db->get(), "t");
    // Loser updates rolled back, loser inserts gone.
    EXPECT_EQ(rows.size(), 600u);
    for (const std::string& r : rows) {
      EXPECT_EQ(r.find("loser"), std::string::npos);
      EXPECT_EQ(r.find('L'), std::string::npos);
    }
    if (threads == 1) {
      ref_rows = rows;
    } else {
      EXPECT_EQ(rows, ref_rows) << "scan differs at threads=" << threads;
    }
  }
}

TEST_F(ReplayEquivalenceTest, SnapshotMountEquivalentAcrossThreadCounts) {
  // One history, closed cleanly; reopened with each worker count and
  // mounted at the same instant, where several transactions were in
  // flight (their effects must be invisible after background undo).
  SimClock clock(1'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  const std::string dir = base_ + "/db";
  WallClock mark = 0;
  {
    auto db = Database::Create(dir, opts);
    ASSERT_TRUE(db.ok());
    Transaction* txn = (*db)->Begin();
    ASSERT_TRUE((*db)->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE((*db)->Commit(txn).ok());
    auto table = (*db)->OpenTable("t");
    ASSERT_TRUE(table.ok());
    Transaction* w = (*db)->Begin();
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(table->Insert(w, {i, std::string(50, 'v')}).ok());
    }
    ASSERT_TRUE((*db)->Commit(w).ok());
    clock.Advance(60'000'000);

    // In flight at the mark: updates, deletes and inserts from four
    // transactions (committed only after the mark). Their records must
    // precede the split boundary, so a marker transaction commits
    // AFTER they publish and BEFORE the mark -- that commit becomes
    // the SplitLSN and the four straddle it.
    std::vector<Transaction*> inflight;
    for (int l = 0; l < 4; l++) {
      Transaction* lt = (*db)->Begin();
      for (int i = 0; i < 30; i++) {
        int id = l * 120 + i;
        ASSERT_TRUE(table->Update(lt, {id, std::string(50, 'Z')}).ok());
      }
      ASSERT_TRUE(table->Delete(lt, {l * 120 + 40}).ok());
      ASSERT_TRUE(table->Insert(lt, {2000 + l, "inflight"}).ok());
      inflight.push_back(lt);
    }
    Transaction* marker = (*db)->Begin();
    ASSERT_TRUE(table->Insert(marker, {5000, "boundary"}).ok());
    ASSERT_TRUE((*db)->Commit(marker).ok());
    clock.Advance(1'000'000);
    mark = clock.NowMicros();
    clock.Advance(1'000'000);
    for (Transaction* lt : inflight) ASSERT_TRUE((*db)->Commit(lt).ok());
    clock.Advance(60'000'000);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }

  std::vector<std::string> ref_rows;
  std::vector<std::string> ref_pages;  // eager snapshot pages, threads=1
  for (int threads : {1, 2, 8}) {
    DatabaseOptions o = opts;
    o.replay_threads = threads;
    auto db = Database::Open(dir, o);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (MountMode mode : {MountMode::kEager, MountMode::kLazy}) {
      const bool eager = mode == MountMode::kEager;
      auto snap = AsOfSnapshot::Create(
          db->get(), (eager ? "eq" : "lz") + std::to_string(threads), mark,
          mode);
      ASSERT_TRUE(snap.ok()) << snap.status().ToString();
      ASSERT_TRUE((*snap)->WaitForUndo().ok());
      // Stable only after WaitForUndo (lazy mounts run analysis in the
      // background pass). Both modes fan the pass out over the workers.
      EXPECT_EQ((*snap)->creation_stats().loser_transactions, 4u);
      EXPECT_EQ((*snap)->creation_stats().replay_threads, threads);

      auto t = (*snap)->OpenTable("t");
      ASSERT_TRUE(t.ok());
      std::vector<std::string> rows;
      ASSERT_TRUE(t->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
                     std::string line;
                     for (const Value& v : row) line += v.ToString() + "|";
                     rows.push_back(std::move(line));
                     return true;
                   }).ok());
      // As of the mark the in-flight changes must be fully unwound (the
      // 500 base rows plus the committed boundary marker remain).
      EXPECT_EQ(rows.size(), 501u);
      for (const std::string& r : rows) {
        EXPECT_EQ(r.find("inflight"), std::string::npos);
        EXPECT_EQ(r.find('Z'), std::string::npos);
      }
      if (ref_rows.empty()) {
        ref_rows = rows;
      } else {
        EXPECT_EQ(rows, ref_rows) << "snapshot scan differs at threads="
                                  << threads << (eager ? " eager" : " lazy");
      }

      if (eager) {
        // Every tree's loser records are undone in one order whichever
        // worker claims the tree, and a tree's unlogged splits take ids
        // from its own range: the eager pages are byte-identical at
        // every worker count. Page 0, the superblock, is written outside
        // the log at every checkpoint, so it differs between reopens.
        std::vector<std::string> pages;
        for (PageId id = 1; id < (*db)->data_file()->NumPages(); id++) {
          auto page = (*snap)->buffers()->FetchPage(id, AccessMode::kRead);
          ASSERT_TRUE(page.ok()) << page.status().ToString();
          pages.emplace_back(page->data(), kPageSize);
        }
        if (ref_pages.empty()) {
          ref_pages = std::move(pages);
        } else {
          ASSERT_EQ(pages.size(), ref_pages.size());
          for (size_t i = 0; i < pages.size(); i++) {
            EXPECT_TRUE(pages[i] == ref_pages[i])
                << "eager snapshot page " << i + 1
                << " differs at threads=" << threads;
          }
        }
      }
      snap->reset();
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
}

TEST_F(ReplayEquivalenceTest, RecoveryPhaseTimingsPopulated) {
  // Under a SimClock with real media models, the analysis/redo phase
  // timings come out in simulated micros (what fig9/fig10 report).
  SimClock clock(1'000'000);
  DatabaseOptions opts;
  opts.clock = &clock;
  opts.data_media = MediaProfile::Ssd();
  opts.log_media = MediaProfile::Ssd();
  opts.log_cache_blocks = 0;  // every analysis log read charges the clock
  const std::string dir = base_ + "/db";
  {
    auto db = Database::Create(dir, opts);
    ASSERT_TRUE(db.ok());
    Transaction* txn = (*db)->Begin();
    ASSERT_TRUE((*db)->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE((*db)->Commit(txn).ok());
    auto table = (*db)->OpenTable("t");
    Transaction* w = (*db)->Begin();
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(table->Insert(w, {i, std::string(40, 'p')}).ok());
    }
    ASSERT_TRUE((*db)->Commit(w).ok());
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }
  auto db = Database::Open(dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const RecoveryStats& rs = (*db)->recovery_stats();
  EXPECT_GT(rs.analysis_micros, 0u);
  EXPECT_GT(rs.redo_micros, 0u);
  EXPECT_GT(rs.redo_records, 0u);
}

// ------------------------ sharded pool stats --------------------------

TEST(BufferShardingTest, AutoShardCountScalesWithPool) {
  IoStats stats;
  // Pool sizes below one shard target collapse to a single shard (the
  // pre-sharding behaviour the small-pool tests rely on).
  {
    BufferManager bm(nullptr, nullptr, &stats, 8);
    EXPECT_EQ(bm.shard_count(), 1u);
    EXPECT_EQ(bm.pool_pages(), 8u);
  }
  {
    BufferManager bm(nullptr, nullptr, &stats, 2048);
    EXPECT_EQ(bm.shard_count(), 16u);
  }
  {
    BufferManager bm(nullptr, nullptr, &stats, 512);
    EXPECT_EQ(bm.shard_count(), 4u);
  }
  {
    BufferManager bm(nullptr, nullptr, &stats, 2048,
                     /*verify_checksums=*/true, /*shards=*/5);
    EXPECT_EQ(bm.shard_count(), 5u);
  }
}

TEST(BufferShardingTest, StatsCountHitsMissesEvictions) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_replay_bm";
  std::filesystem::create_directories(dir);
  auto path = (dir / "stats.db").string();
  std::filesystem::remove(path);
  IoStats stats;
  auto file = PagedFile::Create(path, nullptr, &stats);
  ASSERT_TRUE(file.ok());
  FilePageStore store(file->get());
  {
    char page[kPageSize];
    for (PageId id = 0; id < 32; id++) {
      memset(page, 0, sizeof(page));
      Header(page)->page_id = id;
      StampPageChecksum(page);
      ASSERT_TRUE((*file)->WritePage(id, page).ok());
    }
  }
  BufferManager bm(&store, nullptr, &stats, 8, /*verify_checksums=*/true,
                   /*shards=*/4);
  EXPECT_EQ(bm.shard_count(), 4u);
  for (PageId id = 0; id < 32; id++) {
    ASSERT_TRUE(bm.FetchPage(id, AccessMode::kRead).ok());
  }
  for (PageId id = 24; id < 32; id++) {
    (void)bm.FetchPage(id, AccessMode::kRead);
  }
  BufferManager::Stats s = bm.stats();
  EXPECT_EQ(s.shards, 4u);
  EXPECT_EQ(s.pool_pages, 8u);
  EXPECT_EQ(s.misses + s.hits, 40u);
  EXPECT_GE(s.misses, 32u);
  EXPECT_GT(s.evictions, 0u) << "32 pages through 8 frames must evict";
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rewinddb
