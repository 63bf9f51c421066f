// Direct unit tests for the core primitive: PreparePageAsOf over a
// single page's history, swept across EVERY intermediate point, with
// and without periodic full page images. This is figure 3's algorithm
// tested in isolation (snapshot_test covers it end-to-end).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "common/random.h"
#include "engine/database.h"
#include "page/slotted_page.h"
#include "snapshot/page_rewinder.h"

namespace rewinddb {
namespace {

/// Logical view of a page: the ordered record bytes. Physical undo
/// restores contents, not byte-identical heap layout (fragmentation
/// bookkeeping may differ), so equivalence is defined logically.
std::vector<std::string> LogicalContents(const char* page) {
  std::vector<std::string> out;
  uint16_t n = SlottedPage::SlotCount(page);
  out.reserve(n);
  for (uint16_t i = 0; i < n; i++) {
    out.push_back(SlottedPage::Record(page, i).ToString());
  }
  return out;
}

struct RewindCase {
  const char* name;
  uint32_t fpi_period;
  int operations;
};

class RewinderSweepTest : public ::testing::TestWithParam<RewindCase> {};

TEST_P(RewinderSweepTest, EveryIntermediatePointRestoredExactly) {
  const RewindCase& param = GetParam();
  auto dir = (std::filesystem::temp_directory_path() / "rewinddb_rewinder" /
              param.name)
                 .string();
  std::filesystem::remove_all(dir);
  DatabaseOptions opts;
  opts.fpi_period = param.fpi_period;
  auto db = Database::Create(dir, opts);
  ASSERT_TRUE(db.ok());

  Transaction* txn = (*db)->Begin();
  auto root = BTree::Create((*db)->write_ctx(), txn);
  ASSERT_TRUE(root.ok());
  BTree tree(*root);
  ASSERT_TRUE((*db)->Commit(txn).ok());

  // Build a single-page history (values small enough not to split) and
  // record {as-of LSN, logical contents} after every operation.
  Random rnd(71);
  struct Mark {
    Lsn lsn;
    std::vector<std::string> contents;
  };
  std::vector<Mark> marks;
  std::vector<int> live;
  Transaction* w = (*db)->Begin();
  auto snapshot_mark = [&]() {
    auto path = tree.FindLeafPath((*db)->buffers(), "k00");
    ASSERT_TRUE(path.ok());
    ASSERT_EQ(path->size(), 1u) << "history must stay on the root page";
    auto g = (*db)->buffers()->FetchPage(path->back(), AccessMode::kRead);
    ASSERT_TRUE(g.ok());
    marks.push_back({PageLsn(g->data()), LogicalContents(g->data())});
  };
  for (int op = 0; op < param.operations; op++) {
    int key = static_cast<int>(rnd.Uniform(12));
    char kbuf[8];
    snprintf(kbuf, sizeof(kbuf), "k%02d", key);
    bool exists = false;
    for (int k : live) exists |= (k == key);
    if (!exists) {
      ASSERT_TRUE(
          tree.Insert((*db)->write_ctx(), w, kbuf, rnd.AlphaString(1, 30))
              .ok());
      live.push_back(key);
    } else if (rnd.Percent(50)) {
      ASSERT_TRUE(
          tree.Update((*db)->write_ctx(), w, kbuf, rnd.AlphaString(1, 30))
              .ok());
    } else {
      ASSERT_TRUE(tree.Delete((*db)->write_ctx(), w, kbuf).ok());
      live.erase(std::remove(live.begin(), live.end(), key), live.end());
    }
    snapshot_mark();
  }
  ASSERT_TRUE((*db)->Commit(w).ok());

  // Grab the final page image, then rewind a fresh copy to every mark.
  char current[kPageSize];
  {
    auto path = tree.FindLeafPath((*db)->buffers(), "k00");
    ASSERT_TRUE(path.ok());
    auto g = (*db)->buffers()->FetchPage(path->back(), AccessMode::kRead);
    ASSERT_TRUE(g.ok());
    memcpy(current, g->data(), kPageSize);
  }
  PageRewinder rewinder((*db)->log());
  for (size_t m = 0; m < marks.size(); m++) {
    char work[kPageSize];
    memcpy(work, current, kPageSize);
    Status s = rewinder.PreparePageAsOf(work, marks[m].lsn);
    ASSERT_TRUE(s.ok()) << "mark " << m << ": " << s.ToString();
    EXPECT_LE(PageLsn(work), marks[m].lsn);
    EXPECT_EQ(LogicalContents(work), marks[m].contents) << "mark " << m;
  }
  if (param.fpi_period != 0 &&
      param.operations > static_cast<int>(param.fpi_period)) {
    EXPECT_GT(rewinder.fpi_jumps(), 0u)
        << "long histories should exercise the image-skip path";
  }
  (*db).reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RewinderSweepTest,
    ::testing::Values(RewindCase{"plain_short", 0, 30},
                      RewindCase{"plain_long", 0, 120},
                      RewindCase{"fpi4", 4, 120},
                      RewindCase{"fpi16", 16, 120},
                      RewindCase{"fpi64", 64, 120}),
    [](const ::testing::TestParamInfo<RewindCase>& info) {
      return std::string(info.param.name);
    });

TEST(RewinderTest, NoopWhenAlreadyAtTarget) {
  auto dir = (std::filesystem::temp_directory_path() / "rewinddb_rewinder" /
              "noop")
                 .string();
  std::filesystem::remove_all(dir);
  auto db = Database::Create(dir);
  ASSERT_TRUE(db.ok());
  Transaction* txn = (*db)->Begin();
  auto root = BTree::Create((*db)->write_ctx(), txn);
  ASSERT_TRUE(root.ok());
  BTree tree(*root);
  ASSERT_TRUE(tree.Insert((*db)->write_ctx(), txn, "a", "1").ok());
  ASSERT_TRUE((*db)->Commit(txn).ok());

  char page[kPageSize];
  {
    auto g = (*db)->buffers()->FetchPage(*root, AccessMode::kRead);
    ASSERT_TRUE(g.ok());
    memcpy(page, g->data(), kPageSize);
  }
  char before[kPageSize];
  memcpy(before, page, kPageSize);
  PageRewinder rewinder((*db)->log());
  // as-of at (or after) the page's own LSN: nothing to do.
  ASSERT_TRUE(rewinder.PreparePageAsOf(page, PageLsn(page)).ok());
  EXPECT_EQ(memcmp(page, before, kPageSize), 0);
  EXPECT_EQ(rewinder.records_undone(), 0u);
  EXPECT_EQ(rewinder.pages_rewound(), 0u);
  (*db).reset();
  std::filesystem::remove_all(dir);
}

TEST(RewinderTest, TruncatedChainReportsOutOfRange) {
  auto dir = (std::filesystem::temp_directory_path() / "rewinddb_rewinder" /
              "trunc")
                 .string();
  std::filesystem::remove_all(dir);
  auto db = Database::Create(dir);
  ASSERT_TRUE(db.ok());
  Transaction* txn = (*db)->Begin();
  auto root = BTree::Create((*db)->write_ctx(), txn);
  ASSERT_TRUE(root.ok());
  BTree tree(*root);
  ASSERT_TRUE(tree.Insert((*db)->write_ctx(), txn, "a", "1").ok());
  ASSERT_TRUE((*db)->Commit(txn).ok());
  Lsn early = (*db)->log()->next_lsn();
  Transaction* t2 = (*db)->Begin();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(
        tree.Update((*db)->write_ctx(), t2, "a", "v" + std::to_string(i))
            .ok());
  }
  ASSERT_TRUE((*db)->Commit(t2).ok());
  ASSERT_TRUE((*db)->log()->FlushAll().ok());
  // Truncate the log region the chain needs.
  Lsn mid = (*db)->log()->next_lsn() - 100;
  // Find a record boundary by scanning.
  Lsn boundary = kInvalidLsn;
  {
    wal::Cursor cur = (*db)->log()->OpenCursor();
    ASSERT_TRUE(cur.SeekTo((*db)->log()->start_lsn()).ok());
    while (cur.Valid() && cur.lsn() < mid) {
      boundary = cur.lsn();
      ASSERT_TRUE(cur.Next().ok());
    }
  }
  ASSERT_NE(boundary, kInvalidLsn);
  ASSERT_TRUE((*db)->log()->TruncateBefore(boundary).ok());
  // With frame compression on (REWINDDB_WAL_DIET=1) the cut clamps
  // down to a frame floor -- possibly retaining the whole chain. The
  // effective cut is what oldest_lsn() reports after the truncate.
  const Lsn effective = (*db)->log()->oldest_lsn();

  char page[kPageSize];
  {
    auto g = (*db)->buffers()->FetchPage(*root, AccessMode::kRead);
    ASSERT_TRUE(g.ok());
    memcpy(page, g->data(), kPageSize);
  }
  PageRewinder rewinder((*db)->log());
  Status s = rewinder.PreparePageAsOf(page, early);
  if (effective > early) {
    EXPECT_TRUE(s.IsOutOfRange()) << s.ToString();
  } else {
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  (*db).reset();
  std::filesystem::remove_all(dir);
}

// ------------------------- backward extents ----------------------------

/// The log's block size: the unit a cache miss reads.
constexpr Lsn kLogBlock = 32 * 1024;

/// One leaf page whose chain descends the log densely: kBefore updates
/// of ~1 KiB values, the rewind target, then kAfter more updates.
struct DenseChain {
  static constexpr int kBefore = 300;
  static constexpr int kAfter = 600;
  std::string dir;
  std::unique_ptr<Database> db;
  char page[kPageSize];
  Lsn target = kInvalidLsn;

  ~DenseChain() {
    db.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

void BuildDenseChain(const std::string& name, bool compressed, bool archived,
                     DenseChain* c) {
  c->dir = (std::filesystem::temp_directory_path() / "rewinddb_rewinder" /
            name)
               .string();
  std::filesystem::remove_all(c->dir);
  DatabaseOptions opts;
  opts.fpi_period = 0;
  opts.checkpoint_interval_bytes = 0;
  opts.wal_compression = compressed;
  opts.archive_dir = archived ? c->dir + "/archive" : "";
  auto db = Database::Create(c->dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  c->db = std::move(*db);
  Database* d = c->db.get();

  Transaction* txn = d->Begin();
  auto root = BTree::Create(d->write_ctx(), txn);
  ASSERT_TRUE(root.ok());
  BTree tree(*root);
  ASSERT_TRUE(tree.Insert(d->write_ctx(), txn, "k", "v").ok());
  ASSERT_TRUE(d->Commit(txn).ok());
  auto update = [&](int from, int to) {
    Transaction* w = d->Begin();
    for (int i = from; i < to; i++) {
      const std::string value(1000, static_cast<char>('a' + i % 26));
      ASSERT_TRUE(tree.Update(d->write_ctx(), w, "k", value).ok());
    }
    ASSERT_TRUE(d->Commit(w).ok());
  };
  ASSERT_NO_FATAL_FAILURE(update(0, DenseChain::kBefore));
  c->target = d->log()->next_lsn();
  ASSERT_NO_FATAL_FAILURE(
      update(DenseChain::kBefore, DenseChain::kBefore + DenseChain::kAfter));
  ASSERT_TRUE(d->log()->FlushAll().ok());
  auto g = d->buffers()->FetchPage(*root, AccessMode::kRead);
  ASSERT_TRUE(g.ok());
  memcpy(c->page, g->data(), kPageSize);
  if (archived) {
    ASSERT_TRUE(d->log()->ArchiveUpTo(d->log()->next_lsn()).ok());
    ASSERT_GT(d->log()->archive()->high_water(), PageLsn(c->page));
  }
}

/// Rewind a copy of the chain's page to `target` from a cold log cache
/// into `out`; returns the device reads (cache misses) it made.
uint64_t ColdRewind(DenseChain* c, Lsn target, char* out) {
  memcpy(out, c->page, kPageSize);
  c->db->log()->DropCache();
  const uint64_t misses0 = c->db->stats()->log_read_misses.load();
  PageRewinder rewinder(c->db->log());
  Status s = rewinder.PreparePageAsOf(out, target);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return c->db->stats()->log_read_misses.load() - misses0;
}

/// The blocks holding any byte of the chain records a rewind to
/// `target` reads.
std::set<uint64_t> ChainBlocks(DenseChain* c, Lsn target) {
  std::set<uint64_t> blocks;
  wal::Cursor cur = c->db->log()->OpenCursor();
  for (Lsn lsn = PageLsn(c->page); lsn > target;
       lsn = cur.record().prev_page_lsn) {
    if (!cur.SeekToChain(lsn).ok() || !cur.Valid()) {
      ADD_FAILURE() << "broken chain at " << lsn;
      break;
    }
    for (uint64_t b = lsn / kLogBlock; b <= (cur.end_lsn() - 1) / kLogBlock;
         b++) {
      blocks.insert(b);
    }
  }
  return blocks;
}

TEST(RewinderTest, BackwardExtentsReadADenseChainInFewerReadsThanBlocks) {
  DenseChain c;
  ASSERT_NO_FATAL_FAILURE(BuildDenseChain("extents", false, false, &c));
  char rewound[kPageSize];
  const uint64_t reads = ColdRewind(&c, c.target, rewound);
  const std::set<uint64_t> blocks = ChainBlocks(&c, c.target);
  ASSERT_GT(blocks.size(), 16u) << "the chain should span many blocks";
  EXPECT_LT(reads, blocks.size() / 2)
      << "a dense chain walk should read extents, not single blocks";
}

TEST(RewinderTest, BackwardExtentsNeverReadBelowTheTargetBlock) {
  DenseChain c;
  ASSERT_NO_FATAL_FAILURE(BuildDenseChain("extents_floor", false, false, &c));
  // The doubling extents end flush with at most one of two floors a
  // block apart, so at least one of these walks would overshoot.
  const uint64_t first_floor = c.target / kLogBlock;
  ASSERT_GE(first_floor, 8u);
  for (Lsn target : {c.target, (first_floor + 1) * kLogBlock}) {
    const uint64_t floor_block = target / kLogBlock;
    // One record lying wholly inside each of the 8 blocks below the
    // target's block: reading it touches that block alone.
    std::vector<Lsn> probes;
    wal::Cursor cur = c.db->log()->OpenCursor();
    ASSERT_TRUE(cur.SeekTo(c.db->log()->oldest_lsn()).ok());
    for (uint64_t want = floor_block - 8; cur.Valid() && want < floor_block;) {
      if (cur.lsn() / kLogBlock == want &&
          (cur.end_lsn() - 1) / kLogBlock == want) {
        probes.push_back(cur.lsn());
        want++;
      }
      ASSERT_TRUE(cur.Next().ok());
    }
    ASSERT_EQ(probes.size(), 8u);

    char rewound[kPageSize];
    ColdRewind(&c, target, rewound);
    EXPECT_GE(*ChainBlocks(&c, target).begin(), floor_block);
    // Nothing below the target's block was read: each probe misses.
    const uint64_t misses0 = c.db->stats()->log_read_misses.load();
    for (Lsn lsn : probes) ASSERT_TRUE(cur.SeekTo(lsn).ok());
    EXPECT_EQ(c.db->stats()->log_read_misses.load() - misses0, probes.size())
        << "target " << target;
  }
}

TEST(RewinderTest, BackwardExtentsRewindTheSameBytesAsAnUncachedWalk) {
  DenseChain c;
  ASSERT_NO_FATAL_FAILURE(BuildDenseChain("extents_bytes", false, false, &c));
  char with_extents[kPageSize];
  ColdRewind(&c, c.target, with_extents);

  // Reopen the same history without a log block cache: every record
  // is read straight from the file, one block at a time.
  c.db.reset();
  DatabaseOptions opts;
  opts.log_cache_blocks = 0;
  auto db = Database::Open(c.dir, opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  c.db = std::move(*db);
  char uncached[kPageSize];
  memcpy(uncached, c.page, kPageSize);
  PageRewinder rewinder(c.db->log());
  ASSERT_TRUE(rewinder.PreparePageAsOf(uncached, c.target).ok());
  EXPECT_EQ(rewinder.records_undone(),
            static_cast<uint64_t>(DenseChain::kAfter));
  EXPECT_EQ(memcmp(with_extents, uncached, kPageSize), 0);
}

TEST(RewinderTest, BackwardExtentsKeepCompressedAndArchivedRangesPerBlock) {
  for (bool archived : {false, true}) {
    SCOPED_TRACE(archived ? "archived" : "compressed");
    DenseChain c;
    ASSERT_NO_FATAL_FAILURE(BuildDenseChain(
        archived ? "extents_archived" : "extents_compressed", !archived,
        archived, &c));
    if (!archived) {
      ASSERT_GT(c.db->log()->stats().frames_written, 0u);
    }
    char rewound[kPageSize];
    const uint64_t reads = ColdRewind(&c, c.target, rewound);
    const std::set<uint64_t> blocks = ChainBlocks(&c, c.target);
    ASSERT_GT(blocks.size(), 16u);
    EXPECT_EQ(reads, blocks.size()) << "every block should be read alone";
  }
}

}  // namespace
}  // namespace rewinddb
