// Crash-point recovery-equivalence matrix: the WAL diet's proof
// obligation. A deterministic workload (inserts, updates, deletes,
// periodic FPIs, a mid-run fuzzy checkpoint) is built with an
// on-demand-only flusher, flushed once, and crashed. The log file of a
// directory copy is then truncated at EVERY record boundary in the
// tail window -- plus torn mid-record points -- and recovered. For each
// cut the test checks, against an oracle that replays the committed
// prefix in plain C++:
//
//   * prefix consistency: exactly the transactions whose commit record
//     fits below the recovered durable end survive, with exactly the
//     row contents their ops produced (no partial transactions, no
//     resurrection, no silent frame loss corrupting older history);
//   * with compression off the durable end must equal the cut point
//     itself (nothing recoverable may be dropped);
//   * with compression on the durable end may differ from the cut by
//     at most one frame span in EITHER direction: a cut below a
//     frame's physical payload tears the frame (bounded rollback),
//     one inside its trailing filesystem hole leaves the frame intact
//     (the end rounds up to the frame's logical end);
//   * serial-oracle equivalence: recovering the SAME truncated copy
//     with replay_threads=1 yields the same durable end and the same
//     row set -- the parallel/diet recovery path against the
//     uncompressed-idiom baseline.
//
// Parameterized over {compression on/off} x {delta-FPI on/off} x
// {replay_threads 1/8} x {archive on/off}: all sixteen combinations.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "engine/database.h"
#include "engine/table.h"

namespace rewinddb {
namespace {

constexpr int kTxns = 28;
/// Record boundaries in the last this-many log bytes become cut points.
constexpr Lsn kTailWindow = 12 * 1024;
/// Cap on boundary cuts per combination (evenly sampled; the last two
/// boundaries and the full file are always included).
constexpr size_t kMaxBoundaryCuts = 12;

struct Op {
  enum Kind { kInsert, kUpdate, kDelete } kind;
  int key;
  std::string val;
};

/// The deterministic workload: transaction `i` inserts row i, then
/// either deletes an old row or rewrites a row near the middle --
/// enough churn that periodic FPIs, delta chains and undo records all
/// appear in the tail window.
std::vector<std::vector<Op>> WorkloadOps() {
  auto val = [](int txn, const char* tag) {
    std::string v = std::string(tag) + "-" + std::to_string(txn) + "-";
    while (v.size() < 120) v += "abcdefgh";
    return v;
  };
  std::vector<std::vector<Op>> txns(kTxns);
  for (int i = 0; i < kTxns; i++) {
    txns[i].push_back({Op::kInsert, i, val(i, "ins")});
    if (i >= 5 && i % 6 == 5) {
      txns[i].push_back({Op::kDelete, i - 3, ""});
    } else if (i > 0) {
      // Steer around keys the delete arm will have removed (k%6==2).
      int k = i / 2;
      if (k % 6 == 2) k++;
      txns[i].push_back({Op::kUpdate, k, val(i, "upd")});
    }
  }
  return txns;
}

/// What the table must contain when exactly the transactions with
/// markers[i] <= durable_end committed.
std::map<int, std::string> OracleRows(const std::vector<std::vector<Op>>& ops,
                                      const std::vector<Lsn>& markers,
                                      Lsn durable_end) {
  std::map<int, std::string> rows;
  for (int i = 0; i < kTxns; i++) {
    if (markers[i] > durable_end) continue;
    for (const Op& op : ops[i]) {
      switch (op.kind) {
        case Op::kInsert:
        case Op::kUpdate:
          rows[op.key] = op.val;
          break;
        case Op::kDelete:
          rows.erase(op.key);
          break;
      }
    }
  }
  return rows;
}

class CrashMatrixTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, bool>> {
 protected:
  bool compression() const { return std::get<0>(GetParam()); }
  bool delta_fpi() const { return std::get<1>(GetParam()); }
  int replay_threads() const { return std::get<2>(GetParam()); }
  bool archive() const { return std::get<3>(GetParam()); }

  void SetUp() override {
    base_ = (std::filesystem::temp_directory_path() / "rewinddb_crash_matrix" /
             ::testing::UnitTest::GetInstance()->current_test_info()->name())
                .string();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  /// Pin every knob the environment could otherwise flip: the matrix
  /// point IS the configuration.
  DatabaseOptions Opts(const std::string& dir, int threads) const {
    DatabaseOptions o;
    o.buffer_pool_pages = 256;
    o.version_store_bytes = 1 << 20;
    o.fpi_period = 4;
    o.fpi_delta_window_bytes = delta_fpi() ? (1ull << 20) : 0;
    o.wal_compression = compression();
    o.wal_flush_interval_micros = 0;  // flush only on demand
    o.checkpoint_interval_bytes = 0;
    o.default_commit_mode = CommitMode::kNone;
    o.archive_dir = archive() ? dir + "/archive" : "";
    o.archive_segment_bytes = 64 * 1024;
    o.replay_threads = threads;
    o.lazy_mount = false;
    return o;
  }

  /// Run the workload, remember each transaction's commit-end LSN, and
  /// crash with everything flushed. Returns the cut points.
  std::vector<Lsn> BuildCrashedImage(const std::vector<std::vector<Op>>& ops,
                                     std::vector<Lsn>* markers) {
    const std::string dir = base_ + "/primary";
    auto created = Database::Create(dir, Opts(dir, 1));
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<Database> db = std::move(*created);
    {
      Transaction* ddl = db->Begin();
      EXPECT_TRUE(db->CreateTable(
                        ddl, "t",
                        Schema({{"id", ColumnType::kInt32},
                                {"val", ColumnType::kString}},
                               1))
                      .ok());
      EXPECT_TRUE(db->Commit(ddl, CommitMode::kSync).ok());
    }
    auto table = db->OpenTable("t");
    EXPECT_TRUE(table.ok());
    for (int i = 0; i < kTxns; i++) {
      Transaction* txn = db->Begin();
      for (const Op& op : ops[i]) {
        switch (op.kind) {
          case Op::kInsert:
            EXPECT_TRUE(table->Insert(txn, {op.key, op.val}).ok())
                << "txn " << i;
            break;
          case Op::kUpdate:
            EXPECT_TRUE(table->Update(txn, {op.key, op.val}).ok())
                << "txn " << i;
            break;
          case Op::kDelete:
            EXPECT_TRUE(table->Delete(txn, {op.key}).ok()) << "txn " << i;
            break;
        }
      }
      EXPECT_TRUE(db->Commit(txn).ok());
      markers->push_back(db->log()->next_lsn());
      // A mid-run fuzzy checkpoint: with the archive tier on it also
      // seals + trims, so recovery crosses the tier boundary.
      if (i == kTxns / 2) {
        EXPECT_TRUE(db->FuzzyCheckpoint().ok());
      }
    }
    EXPECT_TRUE(db->log()->FlushAll().ok());
    full_end_ = db->log()->flushed_lsn();

    // Every record boundary inside the tail window is a candidate cut.
    std::vector<Lsn> bounds;
    wal::Cursor cur = db->log()->OpenCursor();
    EXPECT_TRUE(cur.SeekTo(db->log()->oldest_lsn()).ok());
    while (cur.Valid()) {
      if (cur.end_lsn() + kTailWindow > full_end_) {
        bounds.push_back(cur.end_lsn());
      }
      EXPECT_TRUE(cur.Next().ok());
    }
    EXPECT_FALSE(bounds.empty());
    EXPECT_EQ(bounds.back(), full_end_);

    db->SimulateCrash();
    db.reset();

    // Sample down to the cap, always keeping the last two boundaries
    // (the most recently written frames/records: the interesting tail),
    // then add torn mid-record points after every third boundary.
    std::vector<Lsn> cuts;
    if (bounds.size() <= kMaxBoundaryCuts) {
      cuts = bounds;
    } else {
      const size_t stride = bounds.size() / (kMaxBoundaryCuts - 2);
      for (size_t i = 0; i < bounds.size() - 2; i += stride) {
        cuts.push_back(bounds[i]);
      }
      cuts.push_back(bounds[bounds.size() - 2]);
      cuts.push_back(bounds.back());
    }
    const size_t n = cuts.size();
    for (size_t i = 0; i + 1 < n; i += 3) {
      cuts.push_back(cuts[i] + 7);  // mid-record / mid-frame tear
    }
    boundary_cuts_ = std::vector<Lsn>(cuts.begin(), cuts.begin() + n);
    return cuts;
  }

  /// Copy the crashed image and physically truncate its log at `cut`.
  std::string TruncatedCopy(const std::string& tag, Lsn cut) {
    const std::string dir = base_ + "/" + tag;
    std::filesystem::remove_all(dir);
    std::filesystem::copy(base_ + "/primary", dir,
                          std::filesystem::copy_options::recursive);
    int fd = ::open((dir + "/log.rwdb").c_str(), O_WRONLY);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::ftruncate(fd, static_cast<off_t>(cut)), 0);
    ::close(fd);
    return dir;
  }

  /// Recover `dir` and report (durable end, row set).
  void Recover(const std::string& dir, int threads, Lsn* durable_end,
               std::map<int, std::string>* rows) {
    auto opened = Database::Open(dir, Opts(dir, threads));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(*opened);
    // Recovery itself appends (loser-undo CLRs, the post-recovery
    // checkpoint), so flushed_lsn() after Open is past the cut; the
    // stats snapshot the durable end as recovery found it.
    *durable_end = db->recovery_stats().durable_end_lsn;
    auto table = db->OpenTable("t");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    rows->clear();
    for (int k = 0; k < kTxns; k++) {
      Result<Row> row = table->Get(nullptr, {k});
      if (row.ok()) {
        ASSERT_EQ(row->size(), 2u);
        (*rows)[k] = (*row)[1].AsString();
      } else {
        ASSERT_TRUE(row.status().IsNotFound()) << row.status().ToString();
      }
    }
  }

  bool IsBoundaryCut(Lsn cut) const {
    for (Lsn b : boundary_cuts_) {
      if (b == cut) return true;
    }
    return false;
  }

  std::string base_;
  Lsn full_end_ = kInvalidLsn;
  std::vector<Lsn> boundary_cuts_;
};

TEST_P(CrashMatrixTest, EveryTailCutRecoversToAConsistentPrefix) {
  const std::vector<std::vector<Op>> ops = WorkloadOps();
  std::vector<Lsn> markers;
  const std::vector<Lsn> cuts = BuildCrashedImage(ops, &markers);
  ASSERT_EQ(markers.size(), static_cast<size_t>(kTxns));

  for (Lsn cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut) +
                 (IsBoundaryCut(cut) ? " (boundary)" : " (torn)"));
    const std::string dir = TruncatedCopy("cut", cut);

    Lsn end = kInvalidLsn;
    std::map<int, std::string> rows;
    Recover(dir, replay_threads(), &end, &rows);
    if (::testing::Test::HasFatalFailure()) return;

    // The loss (or gain) at the cut is bounded. Uncompressed recovery
    // keeps every whole record below the cut and nothing above it.
    // Compressed recovery works in frames, whose logical span ends in
    // a filesystem hole past the physical payload: a cut below the
    // physical end tears the frame (bounded rollback of the durable
    // end), while a cut inside the trailing hole leaves the frame
    // physically intact -- the durable end then rounds UP to the
    // frame's logical end, but never by more than one frame span, and
    // never inventing history (the oracle below pins row content to
    // whatever end was recovered).
    if (!compression()) {
      EXPECT_LE(end, cut);
      Lsn expect_end = 0;
      for (Lsn b : boundary_cuts_) {
        if (b <= cut && b > expect_end) expect_end = b;
      }
      if (cut + kTailWindow > full_end_ + 7) {
        // Only asserted when the largest boundary <= cut is inside the
        // collected window (it always is for our cuts).
        EXPECT_EQ(end, expect_end);
      }
    } else {
      EXPECT_GE(end + 2 * 64 * 1024, cut)
          << "a cut may tear one frame, not wipe history";
      EXPECT_LE(end, cut + 2 * 64 * 1024)
          << "hole-cut rounding is bounded by one frame span";
    }

    // Prefix consistency against the replayed oracle.
    EXPECT_EQ(rows, OracleRows(ops, markers, end));

    // Serial-baseline equivalence: the same truncated image recovered
    // with one replay thread must land on the identical state.
    const std::string oracle_dir = TruncatedCopy("oracle", cut);
    Lsn oracle_end = kInvalidLsn;
    std::map<int, std::string> oracle_rows;
    Recover(oracle_dir, /*threads=*/1, &oracle_end, &oracle_rows);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(end, oracle_end);
    EXPECT_EQ(rows, oracle_rows);

    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(oracle_dir);
  }
}

INSTANTIATE_TEST_SUITE_P(
    WalDiet, CrashMatrixTest,
    ::testing::Combine(::testing::Bool(),        // compression
                       ::testing::Bool(),        // delta FPIs
                       ::testing::Values(1, 8),  // replay threads
                       ::testing::Bool()),       // archive tier
    [](const ::testing::TestParamInfo<CrashMatrixTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "zip" : "raw") + "_" +
             (std::get<1>(info.param) ? "delta" : "full") + "_t" +
             std::to_string(std::get<2>(info.param)) + "_" +
             (std::get<3>(info.param) ? "arch" : "noarch");
    });

}  // namespace
}  // namespace rewinddb
