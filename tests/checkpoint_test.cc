// Fuzzy checkpoints + the WAL archive tier: bounded-log steady state,
// analysis-start contracts, recovery equivalence with and without a
// mid-workload checkpoint, AS OF mounts whose rewind walk crosses the
// active/archive boundary, retention pinning, archive corruption
// surfacing, and the backup log cut over the archive index.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include "api/connection.h"
#include "backup/backup_manager.h"
#include "engine/allocator.h"
#include "engine/database.h"
#include "engine/table.h"
#include "snapshot/asof_snapshot.h"
#include "sql/session.h"
#include "wal/archive.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

Schema KvSchema() {
  return Schema({{"id", ColumnType::kInt32}, {"val", ColumnType::kString}},
                1);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() / "rewinddb_ckpt" /
             ::testing::UnitTest::GetInstance()->current_test_info()->name())
                .string();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    dir_ = base_ + "/db";
  }
  void TearDown() override {
    db_.reset();
    clock_.reset();
    std::filesystem::remove_all(base_);
  }

  /// Options with the archive tier pinned ON in a test-local directory
  /// (independent of the REWINDDB_ARCHIVE env override) and small
  /// segments so multi-segment layouts appear quickly.
  DatabaseOptions ArchiveOpts() {
    DatabaseOptions opts;
    opts.archive_dir = base_ + "/db/archive";
    opts.archive_segment_bytes = 32 << 10;
    // The rewind-path tests below must exercise real chain walks across
    // the tier boundary, not version-store hits.
    opts.version_store_bytes = 0;
    return opts;
  }

  void Create(DatabaseOptions opts) {
    db_.reset();
    auto db = Database::Create(dir_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
  }

  void CreateWithSimClock(DatabaseOptions opts) {
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    opts.clock = clock_.get();
    Create(opts);
  }

  void MakeKvTable(Database* db, const std::string& name = "t") {
    Transaction* txn = db->Begin();
    ASSERT_TRUE(db->CreateTable(txn, name, KvSchema()).ok());
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  void PutRows(Database* db, int lo, int hi, const std::string& val) {
    auto table = db->OpenTable("t");
    ASSERT_TRUE(table.ok());
    Transaction* txn = db->Begin();
    for (int i = lo; i < hi; i++) {
      ASSERT_TRUE(table->Insert(txn, {i, val}).ok()) << i;
    }
    ASSERT_TRUE(db->Commit(txn).ok());
  }

  static std::map<int, std::string> TableContents(Database* db,
                                                  const std::string& name) {
    auto t = db->OpenTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    std::map<int, std::string> out;
    Status s = t->Scan(nullptr, std::nullopt, std::nullopt,
                       [&](const Row& row) {
                         out[row[0].AsInt32()] = row[1].AsString();
                         return true;
                       });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  static std::map<int, std::string> SnapshotContents(AsOfSnapshot* snap) {
    auto t = snap->OpenTable("t");
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    std::map<int, std::string> out;
    Status s = t->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
      out[row[0].AsInt32()] = row[1].AsString();
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  static void CopyDir(const std::string& from, const std::string& to) {
    std::filesystem::remove_all(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
  }

  /// Byte image of every data page (page 0, the superblock, excluded:
  /// recovering from a different analysis start legitimately leaves a
  /// different master checkpoint LSN behind).
  static std::vector<std::string> PageImages(const std::string& dir) {
    std::ifstream f(dir + "/data.rwdb", std::ios::binary);
    EXPECT_TRUE(f.good());
    std::vector<std::string> pages;
    char page[kPageSize];
    while (f.read(page, kPageSize)) pages.emplace_back(page, kPageSize);
    if (!pages.empty()) pages.erase(pages.begin());
    return pages;
  }

  std::string base_;
  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Database> db_;
};

// ------------------- fuzzy checkpoint fundamentals --------------------

TEST_F(CheckpointTest, FuzzyCheckpointDoesNotDrainThePool) {
  DatabaseOptions opts;
  opts.archive_dir = "";
  Create(opts);
  MakeKvTable(db_.get());
  PutRows(db_.get(), 0, 300, std::string(80, 'x'));
  ASSERT_GT(db_->buffers()->DirtyPageTable().size(), 0u);
  Lsn before = db_->master_checkpoint_lsn();
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  EXPECT_GT(db_->master_checkpoint_lsn(), before);
  // First fuzzy checkpoint after the bootstrap checkpoint: only pages
  // dirty since before the PREVIOUS checkpoint get written back, so
  // the fresh workload's pages stay dirty -- writers were not drained.
  EXPECT_GT(db_->buffers()->DirtyPageTable().size(), 0u);
}

TEST_F(CheckpointTest, AnalysisStartsAtLastFuzzyCheckpoint) {
  DatabaseOptions opts;
  opts.archive_dir = "";
  Create(opts);
  MakeKvTable(db_.get());
  PutRows(db_.get(), 0, 200, "early");
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  PutRows(db_.get(), 200, 400, "mid");
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  const Lsn master = db_->master_checkpoint_lsn();
  ASSERT_GT(master, db_->log()->oldest_lsn());
  PutRows(db_.get(), 400, 450, "late");
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  db_->SimulateCrash();
  db_.reset();

  auto db = Database::Open(dir_);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_stats().analysis_start_lsn, master)
      << "analysis must start at the last completed checkpoint, not the "
         "log start";
  EXPECT_GT((*db)->recovery_stats().analysis_records, 0u);
  EXPECT_EQ(TableContents(db->get(), "t").size(), 450u);
}

TEST_F(CheckpointTest, RecoveryEquivalentWithAndWithoutCheckpointStart) {
  // One crashed image containing a mid-workload fuzzy checkpoint (taken
  // while a to-be-loser transaction was in flight). Recover it twice:
  // once with analysis starting at the checkpoint, once forced to scan
  // the whole log (master cleared in the superblock). Both must
  // produce identical page images and scans -- the checkpoint is a
  // pure analysis shortcut, never a semantic input.
  const std::string crashed = base_ + "/crashed";
  {
    DatabaseOptions opts;
    opts.archive_dir = "";
    auto db = Database::Create(crashed, opts);
    ASSERT_TRUE(db.ok());
    MakeKvTable(db->get());
    auto table = (*db)->OpenTable("t");
    ASSERT_TRUE(table.ok());
    Transaction* w = (*db)->Begin();
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(table->Insert(w, {i, std::string(60, 'a')}).ok());
    }
    ASSERT_TRUE((*db)->Commit(w).ok());
    // Loser in flight across the checkpoint: its pre-checkpoint updates
    // must still be undone by both recoveries.
    Transaction* loser = (*db)->Begin();
    for (int i = 0; i < 40; i++) {
      ASSERT_TRUE(table->Update(loser, {i, std::string(60, 'L')}).ok());
    }
    ASSERT_TRUE((*db)->FuzzyCheckpoint().ok());
    for (int i = 40; i < 80; i++) {
      ASSERT_TRUE(table->Update(loser, {i, std::string(60, 'L')}).ok());
    }
    Transaction* w2 = (*db)->Begin();
    for (int i = 300; i < 400; i++) {
      ASSERT_TRUE(table->Insert(w2, {i, std::string(60, 'b')}).ok());
    }
    ASSERT_TRUE((*db)->Commit(w2).ok());
    ASSERT_TRUE((*db)->log()->FlushAll().ok());
    (*db)->SimulateCrash();
  }

  const std::string with_ckpt = base_ + "/with";
  const std::string full_scan = base_ + "/full";
  CopyDir(crashed, with_ckpt);
  CopyDir(crashed, full_scan);

  // Clear the master checkpoint LSN in full_scan's superblock so its
  // analysis must scan from the log start.
  {
    std::fstream f(full_scan + "/data.rwdb",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    char page[kPageSize];
    ASSERT_TRUE(f.read(page, kPageSize).good());
    SuperBlock sb = SuperBlock::ReadFrom(page);
    sb.master_checkpoint_lsn = kInvalidLsn;
    sb.WriteTo(page);
    StampPageChecksum(page);
    f.seekp(0);
    ASSERT_TRUE(f.write(page, kPageSize).good());
  }

  std::map<int, std::string> rows_with;
  Lsn ckpt_start = kInvalidLsn;
  {
    auto db = Database::Open(with_ckpt);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_crash());
    ckpt_start = (*db)->recovery_stats().analysis_start_lsn;
    rows_with = TableContents(db->get(), "t");
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::map<int, std::string> rows_full;
  uint64_t full_records = 0;
  {
    auto db = Database::Open(full_scan);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_crash());
    EXPECT_LT((*db)->recovery_stats().analysis_start_lsn, ckpt_start)
        << "the full scan must have started earlier than the checkpoint";
    full_records = (*db)->recovery_stats().analysis_records;
    rows_full = TableContents(db->get(), "t");
    ASSERT_TRUE((*db)->Close().ok());
  }
  EXPECT_GT(full_records, 0u);
  EXPECT_EQ(rows_with, rows_full);
  EXPECT_EQ(rows_with.size(), 400u);
  for (int i = 0; i < 80; i++) {
    EXPECT_EQ(rows_with[i], std::string(60, 'a')) << "loser row " << i
                                                  << " not rolled back";
  }
  EXPECT_EQ(PageImages(with_ckpt), PageImages(full_scan));
}

// ----------------- bounded-log steady state (tentpole) ----------------

TEST_F(CheckpointTest, SteadyStateBoundsActiveWalAndKeepsAsOfHorizon) {
  DatabaseOptions opts = ArchiveOpts();
  opts.checkpoint_interval_bytes = 64 << 10;
  CreateWithSimClock(opts);
  MakeKvTable(db_.get());
  PutRows(db_.get(), 0, 50, "v1");
  clock_->Advance(kSecond);
  const WallClock t_early = clock_->NowMicros();
  clock_->Advance(kSecond);

  // Record what AS OF t_early returns BEFORE any archival.
  std::map<int, std::string> expected;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "pre", t_early);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    expected = SnapshotContents(snap->get());
  }
  ASSERT_EQ(expected.size(), 50u);

  // Generate >= 4x checkpoint_interval_bytes of WAL; the byte trigger
  // must fire several times and trimming must keep the active log
  // bounded while segments accumulate in the archive.
  const Lsn wal_before = db_->log()->next_lsn();
  int id = 50;
  while (db_->log()->next_lsn() - wal_before <
         4 * opts.checkpoint_interval_bytes) {
    PutRows(db_.get(), id, id + 50, std::string(100, 'w'));
    id += 50;
    clock_->Advance(kSecond / 10);
  }
  const uint64_t generated = db_->log()->next_lsn() - wal_before;
  ASSERT_GE(generated, 4 * opts.checkpoint_interval_bytes);

  wal::ArchiveManager* archive = db_->log()->archive();
  ASSERT_NE(archive, nullptr);
  EXPECT_GT(archive->segment_count(), 1u);
  EXPECT_GT(db_->log()->ArchivedBytes(), 0u);
  EXPECT_GT(db_->log()->start_lsn(), kInvalidLsn + 1)
      << "the active log was never trimmed";
  // Steady state: the active log holds at most ~2 checkpoint intervals
  // (the redo floor trails by one interval under the two-checkpoint
  // rule) plus slack for the in-flight tail; 3x is a safe bound that
  // still proves bounding happened.
  EXPECT_LT(db_->log()->LiveBytes(), 3 * opts.checkpoint_interval_bytes)
      << "active WAL did not reach a bounded steady state";
  // Nothing was lost: both tiers together still cover the full history.
  EXPECT_EQ(db_->log()->oldest_lsn(), archive->oldest_lsn());

  // AS OF t_early now rewinds across the tier boundary (its split lies
  // below the active log's start) and must return the same rows.
  db_->log()->DropCache();
  const uint64_t archive_reads_before = archive->stats().bytes_read;
  {
    auto snap = AsOfSnapshot::Create(db_.get(), "post", t_early);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE((*snap)->WaitForUndo().ok());
    EXPECT_LT((*snap)->split_lsn(), db_->log()->start_lsn())
        << "test must exercise a split below the active log";
    EXPECT_EQ(SnapshotContents(snap->get()), expected);
  }
  EXPECT_GT(archive->stats().bytes_read, archive_reads_before)
      << "the rewind walk never touched the archive tier";

  // Crash + reopen: analysis starts at the last auto checkpoint, and
  // the archive reattaches (history still reachable).
  const Lsn master = db_->master_checkpoint_lsn();
  const std::map<int, std::string> live = TableContents(db_.get(), "t");
  ASSERT_TRUE(db_->log()->FlushAll().ok());
  db_->SimulateCrash();
  db_.reset();
  DatabaseOptions reopen = opts;
  reopen.clock = clock_.get();
  auto db = Database::Open(dir_, reopen);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->recovery_stats().analysis_start_lsn, master);
  EXPECT_EQ(TableContents(db->get(), "t"), live);
  db_ = std::move(*db);
}

TEST_F(CheckpointTest, RetentionRefusesToDropSegmentsPinnedByLiveSnapshot) {
  DatabaseOptions opts = ArchiveOpts();
  CreateWithSimClock(opts);
  MakeKvTable(db_.get());
  PutRows(db_.get(), 0, 60, "old");
  clock_->Advance(kSecond);
  const WallClock t_old = clock_->NowMicros();
  clock_->Advance(kSecond);
  PutRows(db_.get(), 60, 200, std::string(100, 'n'));

  // Move t_old's history into the archive.
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  PutRows(db_.get(), 200, 300, std::string(100, 'n'));
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  wal::ArchiveManager* archive = db_->log()->archive();
  ASSERT_NE(archive, nullptr);
  ASSERT_GT(archive->segment_count(), 0u);

  auto snap = AsOfSnapshot::Create(db_.get(), "pin", t_old);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  ASSERT_TRUE((*snap)->WaitForUndo().ok());
  const Lsn pin = (*snap)->creation_stats().checkpoint_lsn;

  // Age everything far past retention; the pin must hold the segments.
  ASSERT_TRUE(db_->SetUndoInterval(10 * kSecond).ok());
  clock_->Advance(1000 * kSecond);
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  clock_->Advance(20 * kSecond);
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  ASSERT_TRUE(db_->EnforceRetention().ok());
  EXPECT_LE(archive->oldest_lsn(), pin)
      << "retention dropped segments a live snapshot still needs";
  EXPECT_EQ(SnapshotContents(snap->get()).size(), 60u);

  // Released, the same enforcement may drop them.
  snap->reset();
  ASSERT_TRUE(db_->EnforceRetention().ok());
  const Lsn oldest_after = archive->oldest_lsn();
  EXPECT_TRUE(oldest_after == kInvalidLsn || oldest_after > pin)
      << "unpinned segments survived retention";
  auto gone = AsOfSnapshot::Create(db_.get(), "gone", t_old);
  EXPECT_TRUE(gone.status().IsOutOfRange()) << gone.status().ToString();
}

TEST_F(CheckpointTest, CorruptedArchiveSegmentSurfacesCorruption) {
  WallClock t_old = 0;
  {
    DatabaseOptions opts = ArchiveOpts();
    CreateWithSimClock(opts);
    MakeKvTable(db_.get());
    PutRows(db_.get(), 0, 200, std::string(100, 'x'));
    clock_->Advance(kSecond);
    t_old = clock_->NowMicros();
    clock_->Advance(kSecond);
    ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
    PutRows(db_.get(), 200, 400, std::string(100, 'y'));
    ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
    ASSERT_GT(db_->log()->archive()->segment_count(), 0u);
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
  }
  // Flip one payload byte in the oldest sealed segment.
  std::string victim;
  for (const auto& entry :
       std::filesystem::directory_iterator(base_ + "/db/archive")) {
    const std::string p = entry.path().string();
    if (victim.empty() || p < victim) victim = p;
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    char c;
    f.seekg(200);  // past the 64-byte header: payload
    ASSERT_TRUE(f.get(c).good());
    f.seekp(200);
    c = static_cast<char>(c ^ 0x5a);
    ASSERT_TRUE(f.put(c).good());
  }
  // Open succeeds -- cold corrupt history must not block startup (the
  // checkpoint directory comes from the checksummed footers, not the
  // payloads) -- but the FIRST read touching the damaged segment, here
  // an AS OF mount whose history lives in it, surfaces Corruption:
  // never a silent short or wrong walk.
  DatabaseOptions opts = ArchiveOpts();
  auto clock = std::make_unique<SimClock>(10'000 * kSecond);
  opts.clock = clock.get();
  auto db = Database::Open(dir_, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto snap = AsOfSnapshot::Create(db->get(), "stale", t_old);
  ASSERT_FALSE(snap.ok());
  EXPECT_TRUE(snap.status().IsCorruption()) << snap.status().ToString();
  (void)(*db)->Close();
}

TEST_F(CheckpointTest, RestoreToTimeReadsLogFromArchiveIndex) {
  DatabaseOptions opts = ArchiveOpts();
  CreateWithSimClock(opts);
  MakeKvTable(db_.get());

  // Backup, then history whose log will be archived out of the active
  // file before the restore.
  auto backup = BackupManager::BackupFull(db_.get(), base_ + "/backup.full");
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  PutRows(db_.get(), 0, 120, "keep");
  clock_->Advance(kSecond);
  const WallClock t_target = clock_->NowMicros();
  clock_->Advance(kSecond);
  PutRows(db_.get(), 120, 300, std::string(100, 'z'));
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  PutRows(db_.get(), 300, 400, std::string(100, 'z'));
  ASSERT_TRUE(db_->FuzzyCheckpoint().ok());
  // The restore's replay range [backup_lsn, t_target] now lives only in
  // the archive tier.
  ASSERT_GT(db_->log()->start_lsn(), backup->backup_lsn);
  ASSERT_GT(db_->log()->archive()->segment_count(), 0u);

  DatabaseOptions ropts;
  ropts.archive_dir = "";
  auto restored = BackupManager::RestoreToTime(db_.get(), *backup,
                                               base_ + "/restored", t_target,
                                               ropts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  auto rows = TableContents(restored->database.get(), "t");
  EXPECT_EQ(rows.size(), 120u);
  for (int i = 0; i < 120; i++) EXPECT_EQ(rows[i], "keep");
}

TEST_F(CheckpointTest, SqlCheckpointStatement) {
  DatabaseOptions opts;
  opts.archive_dir = "";
  auto conn = Connection::Create(dir_, opts);
  ASSERT_TRUE(conn.ok());
  SqlSession sql(conn->get());
  ASSERT_TRUE(
      sql.Execute("CREATE TABLE t (id INT, v TEXT, PRIMARY KEY (id))").ok());
  const Lsn before = (*conn)->engine()->master_checkpoint_lsn();
  auto out = sql.Execute("CHECKPOINT");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, "Checkpoint complete");
  EXPECT_GT((*conn)->engine()->master_checkpoint_lsn(), before);
}

// -------------------- bounded creation checkpoint ---------------------

/// Options for the tests below: a log whose file offsets are its LSNs
/// (no compression, no archive), so a crash can be cut at a record
/// boundary by truncating the file, and no checkpoint but the test's.
DatabaseOptions PlainLogOpts() {
  DatabaseOptions opts;
  opts.archive_dir = "";
  opts.wal_compression = false;
  opts.checkpoint_interval_bytes = 0;
  opts.lazy_mount = false;
  return opts;
}

/// Rows 0..9 of table `name`, all set to `val` (inserted or updated in
/// place, so each table stays one page).
void WriteRows(Database* db, const std::string& name, const std::string& val,
               bool insert) {
  auto table = db->OpenTable(name);
  ASSERT_TRUE(table.ok());
  Transaction* txn = db->Begin();
  for (int i = 0; i < 10; i++) {
    Status s = insert ? table->Insert(txn, {i, val})
                      : table->Update(txn, {i, val});
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(db->Commit(txn).ok());
}

/// Page ids whose image differs between two PageImages() results.
std::set<PageId> ChangedPages(const std::vector<std::string>& before,
                              const std::vector<std::string>& after) {
  std::set<PageId> out;
  for (size_t i = 0; i < after.size(); i++) {
    if (i >= before.size() || before[i] != after[i]) {
      out.insert(static_cast<PageId>(i + 1));  // page 0 is not listed
    }
  }
  return out;
}

/// Three one-page tables around a split: "pre" changes only before it,
/// "post" only after it, "both" before and after. Everything starts
/// clean on file.
struct SplitScenario {
  WallClock split_time = 0;
  std::map<std::string, PageId> page;
  std::map<std::string, std::map<int, std::string>> at_split;
  std::map<std::string, std::map<int, std::string>> at_end;
};

class CreationCheckpointTest : public CheckpointTest {
 protected:
  static constexpr const char* kTables[] = {"pre", "post", "both"};

  void Build(SplitScenario* sc) {
    CreateWithSimClock(PlainLogOpts());
    for (const char* name : kTables) {
      MakeKvTable(db_.get(), name);
      WriteRows(db_.get(), name, "v0", /*insert=*/true);
      sc->page[name] = db_->OpenTable(name)->info().root;
    }
    ASSERT_TRUE(db_->Checkpoint().ok());
    ASSERT_TRUE(db_->buffers()->DirtyPageTable().empty());

    clock_->Advance(kSecond);
    WriteRows(db_.get(), "pre", "v1", false);
    WriteRows(db_.get(), "both", "v1", false);
    clock_->Advance(kSecond);
    sc->split_time = clock_->NowMicros();
    for (const char* name : kTables) {
      sc->at_split[name] = TableContents(db_.get(), name);
    }
    clock_->Advance(kSecond);
    WriteRows(db_.get(), "post", "v2", false);
    WriteRows(db_.get(), "both", "v2", false);
    for (const char* name : kTables) {
      sc->at_end[name] = TableContents(db_.get(), name);
    }
    ASSERT_TRUE(db_->log()->FlushAll().ok());
  }

  static std::map<int, std::string> SnapRows(AsOfSnapshot* snap,
                                              const std::string& name) {
    auto t = snap->OpenTable(name);
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    std::map<int, std::string> out;
    Status s = t->Scan(std::nullopt, std::nullopt, [&](const Row& row) {
      out[row[0].AsInt32()] = row[1].AsString();
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  std::string ReadSuperBlockPage(const std::string& dir) {
    std::ifstream f(dir + "/data.rwdb", std::ios::binary);
    std::string page(kPageSize, '\0');
    EXPECT_TRUE(f.read(page.data(), kPageSize).good());
    return page;
  }

  void WriteSuperBlockPage(const std::string& dir, const std::string& page) {
    std::fstream f(dir + "/data.rwdb",
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    ASSERT_TRUE(f.write(page.data(), kPageSize).good());
  }
};

TEST_F(CreationCheckpointTest, PageChangedOnlyAfterTheSplitStaysDirty) {
  SplitScenario sc;
  Build(&sc);
  const std::vector<std::string> before = PageImages(dir_);
  Lsn post_rec_lsn = kInvalidLsn;
  for (const DptEntry& e : db_->buffers()->DirtyPageTable()) {
    if (e.page_id == sc.page["post"]) post_rec_lsn = e.rec_lsn;
  }
  ASSERT_NE(post_rec_lsn, kInvalidLsn);

  auto eager = AsOfSnapshot::Create(db_.get(), "eager", sc.split_time,
                                    MountMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  const Lsn split = (*eager)->creation_stats().split_lsn;
  EXPECT_LT(split, post_rec_lsn);
  // The split was found first: the creation checkpoint follows it.
  EXPECT_GT(db_->master_checkpoint_lsn(), split);

  // The mount wrote no image of "post": its file image is the one from
  // before the split, and the page is still dirty with its rec_lsn.
  EXPECT_EQ(ChangedPages(before, PageImages(dir_)).count(sc.page["post"]),
            0u);
  bool still_dirty = false;
  for (const DptEntry& e : db_->buffers()->DirtyPageTable()) {
    if (e.page_id == sc.page["post"]) {
      still_dirty = true;
      EXPECT_EQ(e.rec_lsn, post_rec_lsn);
    }
  }
  EXPECT_TRUE(still_dirty);

  // Rewound from that older image, the eager mount still reads the rows
  // of the split, as the lazy mount (which reads the pool) does.
  auto lazy = AsOfSnapshot::Create(db_.get(), "lazy", sc.split_time,
                                   MountMode::kLazy);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  for (const char* name : kTables) {
    EXPECT_EQ(SnapRows(eager->get(), name), sc.at_split[name]) << name;
    EXPECT_EQ(SnapRows(lazy->get(), name), sc.at_split[name]) << name;
    EXPECT_EQ(TableContents(db_.get(), name), sc.at_end[name]) << name;
  }
  EXPECT_NE(sc.at_split["post"], sc.at_end["post"]);
}

TEST_F(CreationCheckpointTest, WritesExactlyThePagesDirtiedAtOrBeforeTheSplit) {
  SplitScenario sc;
  Build(&sc);
  const std::vector<std::string> before = PageImages(dir_);
  const std::vector<DptEntry> dirty = db_->buffers()->DirtyPageTable();

  auto eager = AsOfSnapshot::Create(db_.get(), "eager", sc.split_time,
                                    MountMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  const Lsn split = (*eager)->creation_stats().split_lsn;

  std::set<PageId> at_or_before, after;
  for (const DptEntry& e : dirty) {
    (e.rec_lsn <= split ? at_or_before : after).insert(e.page_id);
  }
  // "both" was dirtied before the split and again after it: written,
  // with its post-split change, like "pre".
  EXPECT_EQ(at_or_before.count(sc.page["pre"]), 1u);
  EXPECT_EQ(at_or_before.count(sc.page["both"]), 1u);
  EXPECT_EQ(after.count(sc.page["post"]), 1u);
  EXPECT_EQ(ChangedPages(before, PageImages(dir_)), at_or_before);
  std::set<PageId> left;
  for (const DptEntry& e : db_->buffers()->DirtyPageTable()) {
    left.insert(e.page_id);
  }
  EXPECT_EQ(left, after);
  for (const char* name : kTables) {
    EXPECT_EQ(SnapRows(eager->get(), name), sc.at_split[name]) << name;
  }
}

TEST_F(CreationCheckpointTest, EndOfHistoryMountSplitsBeforeItsCheckpoint) {
  SplitScenario sc;
  Build(&sc);
  // An uncommitted change after the last commit, on a page that commit
  // left dirty: the checkpoint writes the page with it.
  auto post = db_->OpenTable("post");
  ASSERT_TRUE(post.ok());
  Transaction* open_txn = db_->Begin();
  ASSERT_TRUE(post->Update(open_txn, {3, std::string("v9")}).ok());
  clock_->Advance(kSecond);

  const WallClock now = clock_->NowMicros();
  auto eager = AsOfSnapshot::Create(db_.get(), "eager", now,
                                    MountMode::kEager);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  // Searched before the checkpoint was taken, the split is the last
  // commit, not the creation checkpoint's own begin record.
  const Lsn split = (*eager)->creation_stats().split_lsn;
  EXPECT_LT(split, db_->master_checkpoint_lsn());
  EXPECT_LT((*eager)->creation_stats().analysis_start_lsn, split);
  EXPECT_TRUE(db_->buffers()->DirtyPageTable().empty());
  for (const char* name : kTables) {
    EXPECT_EQ(SnapRows(eager->get(), name), sc.at_end[name]) << name;
  }
  ASSERT_TRUE(db_->Abort(open_txn).ok());
}

TEST_F(CreationCheckpointTest, CrashAfterEagerMountRecoversThroughItsDpt) {
  SplitScenario sc;
  Build(&sc);
  {
    auto eager = AsOfSnapshot::Create(db_.get(), "eager", sc.split_time,
                                      MountMode::kEager);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  }
  const Lsn creation = db_->master_checkpoint_lsn();
  db_->SimulateCrash();
  db_.reset();

  DatabaseOptions opts = PlainLogOpts();
  opts.clock = clock_.get();
  auto db = Database::Open(dir_, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->recovered_from_crash());
  // Analysis starts at the creation checkpoint, whose end record lists
  // "post" as dirty: redo reaches back to its change from there.
  EXPECT_EQ((*db)->recovery_stats().analysis_start_lsn, creation);
  EXPECT_GE((*db)->recovery_stats().redo_records, 10u);
  for (const char* name : kTables) {
    EXPECT_EQ(TableContents(db->get(), name), sc.at_end[name]) << name;
  }
}

TEST_F(CreationCheckpointTest, CrashCutsAroundTheCheckpointRecover) {
  SplitScenario sc;
  Build(&sc);
  const std::string old_super = ReadSuperBlockPage(dir_);
  const Lsn old_master = db_->master_checkpoint_lsn();
  {
    auto eager = AsOfSnapshot::Create(db_.get(), "eager", sc.split_time,
                                      MountMode::kEager);
    ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  }
  const Lsn begin = db_->master_checkpoint_lsn();
  wal::Cursor cur = db_->log()->OpenCursor();
  ASSERT_TRUE(cur.SeekTo(begin).ok());
  ASSERT_TRUE(cur.Next().ok());
  ASSERT_TRUE(cur.Valid());
  ASSERT_EQ(cur.record().type, LogType::kCheckpointEnd);
  const Lsn end = cur.lsn();
  db_->SimulateCrash();
  db_.reset();

  // The checkpoint writes its pages, appends its end record, flushes
  // the log and then the superblock; the begin record may reach the
  // log before or after the pages. Each cut keeps the pages written.
  struct Cut {
    const char* name;
    Lsn log_bytes;  // 0: keep the whole log
    bool new_superblock;
  };
  const Cut cuts[] = {{"before_begin", begin, false},
                      {"before_end", end, false},
                      {"before_superblock", 0, false},
                      {"after_superblock", 0, true}};
  for (const Cut& cut : cuts) {
    SCOPED_TRACE(cut.name);
    const std::string copy = base_ + "/" + cut.name;
    CopyDir(dir_, copy);
    if (cut.log_bytes != 0) {
      std::filesystem::resize_file(copy + "/log.rwdb", cut.log_bytes);
    }
    if (!cut.new_superblock) WriteSuperBlockPage(copy, old_super);

    DatabaseOptions opts = PlainLogOpts();
    opts.clock = clock_.get();
    auto db = Database::Open(copy, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_from_crash());
    EXPECT_EQ((*db)->recovery_stats().analysis_start_lsn,
              cut.new_superblock ? begin : old_master);
    for (const char* name : kTables) {
      EXPECT_EQ(TableContents(db->get(), name), sc.at_end[name]) << name;
    }
  }
}

TEST_F(CreationCheckpointTest, SharpAndFuzzyCheckpointsKeepTheirFlushSets) {
  SplitScenario sc;
  Build(&sc);
  // A fuzzy checkpoint writes exactly the pages dirty since before the
  // previous checkpoint's begin record.
  auto fuzzy_writes_older_pages = [&]() {
    std::set<PageId> older;
    for (const DptEntry& e : db_->buffers()->DirtyPageTable()) {
      if (e.rec_lsn < db_->master_checkpoint_lsn()) older.insert(e.page_id);
    }
    const std::vector<std::string> before = PageImages(dir_);
    EXPECT_TRUE(db_->FuzzyCheckpoint().ok());
    EXPECT_EQ(ChangedPages(before, PageImages(dir_)), older);
    return older;
  };
  // All three were dirtied after the sharp checkpoint: none is written.
  EXPECT_TRUE(fuzzy_writes_older_pages().empty());
  EXPECT_EQ(db_->buffers()->DirtyPageTable().size(), 3u);
  // Now all three are older than the previous checkpoint.
  EXPECT_EQ(fuzzy_writes_older_pages(),
            (std::set<PageId>{sc.page["pre"], sc.page["post"],
                              sc.page["both"]}));
  WriteRows(db_.get(), "pre", "v3", false);
  EXPECT_TRUE(fuzzy_writes_older_pages().empty());
  ASSERT_EQ(db_->buffers()->DirtyPageTable().size(), 1u);
  EXPECT_EQ(db_->buffers()->DirtyPageTable()[0].page_id, sc.page["pre"]);

  // A sharp checkpoint writes everything.
  ASSERT_TRUE(db_->Checkpoint().ok());
  EXPECT_TRUE(db_->buffers()->DirtyPageTable().empty());
}

// ------------------------ ArchiveManager unit -------------------------

TEST(ArchiveManagerTest, SealReadDropRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rewinddb_arch_unit")
          .string();
  std::filesystem::remove_all(dir);
  auto am = wal::ArchiveManager::Open(dir, nullptr, nullptr);
  ASSERT_TRUE(am.ok()) << am.status().ToString();
  EXPECT_EQ((*am)->oldest_lsn(), kInvalidLsn);

  const std::string a(1000, 'a');
  const std::string b(500, 'b');
  ASSERT_TRUE((*am)->Seal(64, a).ok());
  // Non-contiguous seals are rejected: the index must stay one run.
  EXPECT_TRUE((*am)->Seal(2000, b).IsInvalidArgument());
  ASSERT_TRUE((*am)->Seal(1064, b).ok());
  EXPECT_EQ((*am)->oldest_lsn(), 64u);
  EXPECT_EQ((*am)->high_water(), 1564u);
  EXPECT_EQ((*am)->archived_bytes(), 1500u);

  // Cross-segment read at the original offsets.
  std::string out;
  out.resize(200);
  ASSERT_TRUE((*am)->ReadBytes(964, 200, out.data()).ok());
  EXPECT_EQ(out, std::string(100, 'a') + std::string(100, 'b'));
  EXPECT_TRUE((*am)->Covers(64));
  EXPECT_FALSE((*am)->Covers(1564));

  // Reopen rebuilds the index from the directory (and re-verifies
  // checksums on first read). A crash-leftover ".tmp" with a plausible
  // name must never be indexed as a sealed segment, even though sscanf
  // alone would match it.
  am->reset();
  {
    std::ofstream tmp(dir + "/seg-000000000000061c-0000000000000a1c.rwarc.tmp",
                      std::ios::binary);
    tmp << std::string(128, 'j');
  }
  auto reopened = wal::ArchiveManager::Open(dir, nullptr, nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->segment_count(), 2u);
  ASSERT_TRUE((*reopened)->ReadBytes(964, 200, out.data()).ok());
  EXPECT_EQ((*reopened)->stats().verifications, 2u);

  // DropBefore removes whole segments only.
  ASSERT_TRUE((*reopened)->DropBefore(1100).ok());
  EXPECT_EQ((*reopened)->segment_count(), 1u);
  EXPECT_EQ((*reopened)->oldest_lsn(), 1064u);
  EXPECT_TRUE((*reopened)->ReadBytes(64, 10, out.data()).IsOutOfRange());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rewinddb
