// The WAL redesign's contract tests: per-CommitMode crash durability
// (kill the engine between Append and flush, reopen, check what
// survived), the group-commit pipeline under a multi-threaded commit
// storm (monotone flushed_lsn, no lost commits), the Writer's
// staged-BEGIN publish, and the reopen scan's chunk boundary (a raw
// record, a compression frame, a torn tail and a future-version frame
// header at the end of its first read chunk).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "engine/database.h"
#include "engine/table.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "wal/wal.h"

namespace rewinddb {
namespace {

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class WalDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_wal" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// Create the engine with an on-demand-only flusher so nothing
  /// becomes durable behind the test's back: what kNone loses and
  /// kSync/kGroup keep is then deterministic.
  void Create(CommitMode mode) {
    DatabaseOptions opts;
    opts.default_commit_mode = mode;
    opts.wal_flush_interval_micros = 0;  // flush only on demand
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->CreateTable(txn, "t", KvSchema()).ok());
    ASSERT_TRUE(db_->Commit(txn, CommitMode::kSync).ok());
  }

  /// Insert one row and commit with the engine's default mode, then
  /// crash without any flush and reopen.
  void CommitOneRowThenCrash(int key) {
    auto table = db_->OpenTable("t");
    ASSERT_TRUE(table.ok());
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(table->Insert(txn, {key, std::string("payload")}).ok());
    ASSERT_TRUE(db_->Commit(txn).ok());
    db_->SimulateCrash();
    db_.reset();
    auto db = Database::Open(dir_);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  bool RowPresent(int key) {
    auto table = db_->OpenTable("t");
    EXPECT_TRUE(table.ok());
    auto row = table->Get(nullptr, {key});
    if (row.ok()) return true;
    EXPECT_TRUE(row.status().IsNotFound()) << row.status().ToString();
    return false;
  }

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(WalDurabilityTest, SyncCommitSurvivesCrash) {
  Create(CommitMode::kSync);
  CommitOneRowThenCrash(1);
  EXPECT_TRUE(RowPresent(1)) << "kSync promised durability at commit";
}

TEST_F(WalDurabilityTest, GroupCommitSurvivesCrash) {
  Create(CommitMode::kGroup);
  CommitOneRowThenCrash(1);
  EXPECT_TRUE(RowPresent(1)) << "kGroup promised durability at commit";
}

TEST_F(WalDurabilityTest, NoneCommitIsLostAtomically) {
  Create(CommitMode::kNone);
  CommitOneRowThenCrash(1);
  // With an on-demand flusher and no flush between Append and the
  // crash, the commit record never reached the disk: the transaction
  // must be gone entirely (atomic loss, no partial effects).
  EXPECT_FALSE(RowPresent(1)) << "kNone commit was never made durable";
}

TEST_F(WalDurabilityTest, NoneCommitSurvivesWhenFlushedBeforeCrash) {
  Create(CommitMode::kNone);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(table->Insert(txn, {1, std::string("payload")}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());
  ASSERT_TRUE(db_->log()->FlushAll().ok());  // durability caught up
  db_->SimulateCrash();
  db_.reset();
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  EXPECT_TRUE(RowPresent(1));
}

TEST_F(WalDurabilityTest, AsyncCommitBecomesDurableWithinFlushInterval) {
  DatabaseOptions opts;
  opts.default_commit_mode = CommitMode::kAsync;
  opts.wal_flush_interval_micros = 1'000;
  auto db = Database::Create(dir_, opts);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  Transaction* ddl = db_->Begin();
  ASSERT_TRUE(db_->CreateTable(ddl, "t", KvSchema()).ok());
  ASSERT_TRUE(db_->Commit(ddl, CommitMode::kSync).ok());

  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(table->Insert(txn, {1, std::string("payload")}).ok());
  ASSERT_TRUE(db_->Commit(txn).ok());  // returns before durable
  // The nudged background flusher catches up on its own.
  Lsn target = db_->log()->next_lsn();
  for (int i = 0; i < 2000 && db_->log()->flushed_lsn() < target; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(db_->log()->flushed_lsn(), target);
}

TEST_F(WalDurabilityTest, UncommittedWorkRollsBackAfterCrash) {
  Create(CommitMode::kGroup);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* committed = db_->Begin();
  ASSERT_TRUE(table->Insert(committed, {1, std::string("keep")}).ok());
  ASSERT_TRUE(db_->Commit(committed).ok());
  Transaction* loser = db_->Begin();
  ASSERT_TRUE(table->Insert(loser, {2, std::string("lose")}).ok());
  // Force the loser's page records to disk WITHOUT its commit: ARIES
  // undo must roll them back on reopen.
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  db_->SimulateCrash();
  db_.reset();
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  EXPECT_TRUE(RowPresent(1));
  EXPECT_FALSE(RowPresent(2));
}

TEST_F(WalDurabilityTest, CommitStormNoLostCommitsAndMonotoneFlushedLsn) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 60;
  Create(CommitMode::kGroup);
  wal::WalStats before = db_->log()->stats();

  // A watcher samples flushed_lsn concurrently: it must never move
  // backwards while the group-commit pipeline is under fire.
  std::atomic<bool> stop_watcher{false};
  std::atomic<bool> monotone{true};
  std::thread watcher([&] {
    Lsn last = 0;
    while (!stop_watcher.load()) {
      Lsn now = db_->log()->flushed_lsn();
      if (now < last) monotone.store(false);
      last = now;
      std::this_thread::yield();
    }
  });

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; t++) {
    workers.emplace_back([&, t] {
      auto table = db_->OpenTable("t");
      if (!table.ok()) {
        failures++;
        return;
      }
      for (int i = 0; i < kCommitsPerThread; i++) {
        int key = t * 1000 + i;
        Transaction* txn = db_->Begin();
        if (!table->Insert(txn, {key, std::string("storm")}).ok()) {
          failures++;
          Status s = db_->Abort(txn);
          (void)s;
          continue;
        }
        // kGroup: when Commit returns, the record is durable.
        if (!db_->Commit(txn).ok()) failures++;
      }
    });
  }
  for (auto& th : workers) th.join();
  stop_watcher.store(true);
  watcher.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(monotone.load()) << "flushed_lsn moved backwards";

  wal::WalStats stats = db_->log()->stats();
  EXPECT_EQ(stats.group_commits - before.group_commits,
            1u * kThreads * kCommitsPerThread);
  // Group commit must not degenerate into MORE than one fsync per
  // commit; with 8 threads hammering, commits queue while the previous
  // batch is in flight, so each fsync covers at least one commit.
  EXPECT_LE(stats.fsyncs - before.fsyncs,
            stats.group_commits - before.group_commits);
  EXPECT_GT(stats.max_batch_bytes, 0u);

  // Every commit that returned success must survive a crash: they were
  // durable at return time.
  db_->SimulateCrash();
  db_.reset();
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  uint64_t expected = 1u * kThreads * kCommitsPerThread;
  EXPECT_EQ(*table->Count(), expected) << "lost commits in kGroup mode";
}

TEST_F(WalDurabilityTest, StagedBeginPublishesNothingForReadOnlyWork) {
  Create(CommitMode::kGroup);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Lsn before = db_->log()->next_lsn();
  uint64_t group_before = db_->log()->stats().group_commits;
  {
    // Begin and abort without writing: the staged BEGIN must never
    // reach the log.
    Transaction* txn = db_->Begin();
    ASSERT_TRUE(db_->Abort(txn).ok());
  }
  {
    // Same on the commit side: a pure read commits without logging or
    // waiting on a flush.
    Transaction* txn = db_->Begin();
    auto row = table->Get(txn, {424242});
    EXPECT_TRUE(row.status().IsNotFound());
    ASSERT_TRUE(db_->Commit(txn).ok());
  }
  EXPECT_EQ(db_->log()->next_lsn(), before)
      << "a read-only transaction should publish no log records";
  EXPECT_EQ(db_->log()->stats().group_commits, group_before)
      << "a read-only commit should not park on the group-commit pipeline";
}

TEST_F(WalDurabilityTest, PerTxnCommitModeOverridesEngineDefault) {
  Create(CommitMode::kNone);
  auto table = db_->OpenTable("t");
  ASSERT_TRUE(table.ok());
  Transaction* txn = db_->Begin();
  ASSERT_TRUE(table->Insert(txn, {7, std::string("forced")}).ok());
  // Explicit kSync on a kNone engine: durable at return.
  ASSERT_TRUE(db_->Commit(txn, CommitMode::kSync).ok());
  db_->SimulateCrash();
  db_.reset();
  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok());
  db_ = std::move(*db);
  EXPECT_TRUE(RowPresent(7));
}

// ------------------- reopen scan: the chunk boundary -------------------

LogRecord ScanInsert(uint16_t slot, const std::string& entry) {
  LogRecord r;
  r.type = LogType::kInsert;
  r.txn_id = 1;
  r.page_id = 2;
  r.tree_id = 3;
  r.slot = slot;
  r.image = entry;
  return r;
}

class WalOpenScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "rewinddb_wal_scan" /
            ::testing::UnitTest::GetInstance()->current_test_info()->name())
               .string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/log.rwdb";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static wal::WalOptions Opts(bool compression) {
    wal::WalOptions o;
    o.flush_interval_micros = 0;  // one FlushAll, one batch
    o.compression = compression;
    return o;
  }

  /// First byte past the reopen scan's first chunk of a fresh log.
  static Lsn Boundary(wal::Wal* w) {
    return w->start_lsn() + LogManager::kOpenScanChunkBytes;
  }

  /// Append inserts until the next LSN is exactly `target`, recording
  /// each (lsn, entry).
  void FillTo(wal::Wal* w, Lsn target) {
    const size_t overhead = ScanInsert(0, "").EncodedSize();
    while (w->next_lsn() < target) {
      const size_t gap = target - w->next_lsn();
      ASSERT_GE(gap, overhead);
      const size_t n = gap >= 1000 + 2 * overhead ? 1000 : gap - overhead;
      Add(w, std::string(n, static_cast<char>('a' + written_.size() % 26)));
    }
    ASSERT_EQ(w->next_lsn(), target);
  }

  Lsn Add(wal::Wal* w, const std::string& entry) {
    Lsn lsn = w->Append(
        ScanInsert(static_cast<uint16_t>(written_.size()), entry));
    written_.push_back({lsn, entry});
    return lsn;
  }

  /// A forward scan of the reopened log returns exactly `written_`.
  void ExpectScanMatches(wal::Wal* w) {
    wal::Cursor cur = w->OpenCursor();
    ASSERT_TRUE(cur.SeekTo(w->start_lsn()).ok());
    size_t i = 0;
    while (cur.Valid()) {
      ASSERT_LT(i, written_.size());
      EXPECT_EQ(cur.lsn(), written_[i].first);
      EXPECT_EQ(cur.record().image, written_[i].second);
      i++;
      ASSERT_TRUE(cur.Next().ok());
    }
    EXPECT_EQ(i, written_.size());
  }

  void WriteAt(Lsn at, const char* bytes, size_t n) {
    int fd = ::open(path_.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, bytes, n, static_cast<off_t>(at)),
              static_cast<ssize_t>(n));
    ::close(fd);
  }

  std::string dir_;
  std::string path_;
  std::vector<std::pair<Lsn, std::string>> written_;
};

TEST_F(WalOpenScanTest, RawRecordStraddlingFirstChunk) {
  Lsn ckpt, end;
  {
    auto w = wal::Wal::Create(path_, nullptr, nullptr, Opts(false));
    ASSERT_TRUE(w.ok());
    FillTo(w->get(), Boundary(w->get()) - 10);
    LogRecord begin;
    begin.type = LogType::kCheckpointBegin;
    begin.wall_clock = 31337;
    ckpt = (*w)->Append(begin);  // 61 bytes across the boundary
    written_.push_back({ckpt, ""});
    for (int i = 0; i < 20; i++) Add(w->get(), "after " + std::to_string(i));
    ASSERT_TRUE((*w)->FlushAll().ok());
    end = (*w)->flushed_lsn();
  }
  auto w = wal::Wal::Open(path_, nullptr, nullptr, Opts(false));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ((*w)->flushed_lsn(), end);
  auto dir = (*w)->checkpoints();
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].begin_lsn, ckpt);
  EXPECT_EQ(dir[0].wall_clock, 31337u);
  ExpectScanMatches(w->get());
}

TEST_F(WalOpenScanTest, FrameStraddlingFirstChunk) {
  Lsn boundary;
  {
    auto w = wal::Wal::Create(path_, nullptr, nullptr, Opts(false));
    ASSERT_TRUE(w.ok());
    boundary = Boundary(w->get());
    FillTo(w->get(), boundary - 100);
    ASSERT_TRUE((*w)->FlushAll().ok());
  }
  uint64_t frames_written;
  Lsn end;
  {
    // Reopened with compression on: the next batch is framed from
    // 100 bytes below the boundary, and its physical bytes cross it.
    auto w = wal::Wal::Open(path_, nullptr, nullptr, Opts(true));
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    for (int i = 0; i < 60; i++) {
      Add(w->get(), std::string(800, 'z') + std::to_string(i));
    }
    ASSERT_TRUE((*w)->FlushAll().ok());
    end = (*w)->flushed_lsn();
    frames_written = (*w)->stats().frames_written;
  }
  {
    // The reopen scan rebuilds the frame directory: every frame, one
    // after another from the boundary-crossing first to the log end.
    auto lm = LogManager::Open(path_, nullptr, nullptr);
    ASSERT_TRUE(lm.ok()) << lm.status().ToString();
    EXPECT_EQ((*lm)->flushed_lsn(), end);
    const std::vector<LogFrame> frames = (*lm)->frames();
    ASSERT_EQ(frames.size(), frames_written);
    ASSERT_FALSE(frames.empty());
    EXPECT_EQ(frames.front().lsn, boundary - 100);
    EXPECT_GT(frames.front().lsn + LogManager::kFrameHeaderSize +
                  frames.front().clen,
              boundary);
    Lsn at = boundary - 100;
    for (const LogFrame& f : frames) {
      EXPECT_EQ(f.lsn, at);
      at += f.ulen;
    }
    EXPECT_EQ(at, end);
  }
  auto w = wal::Wal::Open(path_, nullptr, nullptr, Opts(false));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ((*w)->flushed_lsn(), end);
  ExpectScanMatches(w->get());
}

TEST_F(WalOpenScanTest, TornTailStraddlingFirstChunk) {
  Lsn boundary, torn;
  {
    auto w = wal::Wal::Create(path_, nullptr, nullptr, Opts(false));
    ASSERT_TRUE(w.ok());
    boundary = Boundary(w->get());
    FillTo(w->get(), boundary - 100);
    torn = (*w)->Append(ScanInsert(0, std::string(1000, 't')));
    ASSERT_TRUE((*w)->FlushAll().ok());
  }
  // The crash tore the last record 100 bytes past the boundary.
  std::filesystem::resize_file(path_, boundary + 100);
  auto w = wal::Wal::Open(path_, nullptr, nullptr, Opts(false));
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_EQ((*w)->flushed_lsn(), torn);
  EXPECT_EQ((*w)->next_lsn(), torn);
  ExpectScanMatches(w->get());
}

TEST_F(WalOpenScanTest, FutureFrameHeaderPastFirstChunkIsCorruption) {
  // Wholly past the boundary, and straddling it.
  for (long offset : {40L, -12L}) {
    SCOPED_TRACE(offset);
    std::filesystem::remove(path_);
    written_.clear();
    Lsn end;
    {
      auto w = wal::Wal::Create(path_, nullptr, nullptr, Opts(false));
      ASSERT_TRUE(w.ok());
      FillTo(w->get(), Boundary(w->get()) + offset);
      ASSERT_TRUE((*w)->FlushAll().ok());
      end = (*w)->flushed_lsn();
    }
    // A WELL-FORMED header of a future version: magic, version + 1, and
    // a valid header checksum.
    char hdr[LogManager::kFrameHeaderSize];
    memset(hdr, 0, sizeof(hdr));
    const uint32_t magic = LogManager::kFrameMagic;
    memcpy(hdr, &magic, 4);
    hdr[4] = static_cast<char>(LogManager::kFrameVersion + 1);
    const uint32_t ulen = 4096, clen = 100, psum = 0xBEEF;
    memcpy(hdr + 8, &ulen, 4);
    memcpy(hdr + 12, &clen, 4);
    memcpy(hdr + 16, &psum, 4);
    const uint32_t hsum = Checksum32(hdr, 20);
    memcpy(hdr + 20, &hsum, 4);
    WriteAt(end, hdr, sizeof(hdr));
    auto w = wal::Wal::Open(path_, nullptr, nullptr, Opts(false));
    ASSERT_FALSE(w.ok()) << "a future frame version must not read as the end";
    EXPECT_TRUE(w.status().IsCorruption()) << w.status().ToString();
  }
}

}  // namespace
}  // namespace rewinddb
