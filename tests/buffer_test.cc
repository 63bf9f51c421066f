// Buffer pool tests: hits/misses, eviction under pressure, the WAL
// rule, dirty page table, checksum verification, concurrency.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "buffer/buffer_manager.h"
#include "io/paged_file.h"
#include "wal/wal.h"
#include "page/slotted_page.h"

namespace rewinddb {
namespace {

class BufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = std::filesystem::temp_directory_path() / "rewinddb_buffer";
    std::filesystem::create_directories(dir);
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    data_path_ = (dir / (name + ".db")).string();
    log_path_ = (dir / (name + ".log")).string();
    std::filesystem::remove(data_path_);
    std::filesystem::remove(log_path_);
    auto f = PagedFile::Create(data_path_, nullptr, &stats_);
    ASSERT_TRUE(f.ok());
    file_ = std::move(*f);
    auto lm = wal::Wal::Create(log_path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    log_ = std::move(*lm);
    store_ = std::make_unique<FilePageStore>(file_.get());
  }

  /// Write a formatted page directly to the file.
  void SeedPage(PageId id, const std::string& record) {
    char page[kPageSize];
    SlottedPage::Init(page, id, PageType::kBtreeLeaf, 0, 1);
    ASSERT_TRUE(SlottedPage::InsertAt(page, 0, record).ok());
    StampPageChecksum(page);
    ASSERT_TRUE(file_->WritePage(id, page).ok());
  }

  IoStats stats_;
  std::string data_path_, log_path_;
  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<wal::Wal> log_;
  std::unique_ptr<FilePageStore> store_;
};

TEST_F(BufferTest, MissThenHit) {
  SeedPage(0, "hello");
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  uint64_t reads0 = stats_.data_reads.load();
  {
    auto g = bm.FetchPage(0, AccessMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(SlottedPage::Record(g->data(), 0).ToString(), "hello");
  }
  EXPECT_EQ(stats_.data_reads.load(), reads0 + 1);
  {
    auto g = bm.FetchPage(0, AccessMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(stats_.data_reads.load(), reads0 + 1) << "second fetch is a hit";
}

TEST_F(BufferTest, EvictionWritesDirtyPagesAndReloads) {
  const size_t kPool = 4;
  for (PageId id = 0; id < 12; id++) {
    SeedPage(id, "page" + std::to_string(id));
  }
  BufferManager bm(store_.get(), log_.get(), &stats_, kPool);
  // Dirty page 0 (with a fake LSN to exercise the WAL rule).
  LogRecord rec;
  rec.type = LogType::kBegin;
  Lsn lsn = log_->Append(rec);
  {
    auto g = bm.FetchPage(0, AccessMode::kWrite);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(SlottedPage::ReplaceAt(g->mutable_data(), 0, "dirty").ok());
    g->MarkDirty(lsn);
  }
  // Fetch enough other pages to force page 0 out.
  for (PageId id = 1; id < 12; id++) {
    auto g = bm.FetchPage(id, AccessMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  // The WAL rule: the log must have been flushed past the page LSN
  // before the dirty page could reach the store.
  EXPECT_GT(log_->flushed_lsn(), lsn);
  // Re-fetch page 0: must come back with the dirty content.
  auto g = bm.FetchPage(0, AccessMode::kRead);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(SlottedPage::Record(g->data(), 0).ToString(), "dirty");
}

TEST_F(BufferTest, PoolExhaustedWhenAllPinned) {
  for (PageId id = 0; id < 4; id++) SeedPage(id, "x");
  BufferManager bm(store_.get(), log_.get(), &stats_, 2);
  auto g1 = bm.FetchPage(0, AccessMode::kRead);
  ASSERT_TRUE(g1.ok());
  auto g2 = bm.FetchPage(1, AccessMode::kRead);
  ASSERT_TRUE(g2.ok());
  auto g3 = bm.FetchPage(2, AccessMode::kRead);
  EXPECT_TRUE(g3.status().IsBusy());
  g1->Release();
  auto g4 = bm.FetchPage(2, AccessMode::kRead);
  EXPECT_TRUE(g4.ok());
}

TEST_F(BufferTest, FlushAllClearsDirtyTable) {
  SeedPage(0, "a");
  SeedPage(1, "b");
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  LogRecord rec;
  rec.type = LogType::kBegin;
  {
    auto g = bm.FetchPage(0, AccessMode::kWrite);
    ASSERT_TRUE(g.ok());
    g->MarkDirty(log_->Append(rec));
  }
  {
    auto g = bm.FetchPage(1, AccessMode::kWrite);
    ASSERT_TRUE(g.ok());
    g->MarkDirty(log_->Append(rec));
  }
  EXPECT_EQ(bm.DirtyPageTable().size(), 2u);
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_TRUE(bm.DirtyPageTable().empty());
}

TEST_F(BufferTest, DirtyPageTableRecLsnIsFirstDirtier) {
  SeedPage(0, "a");
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  LogRecord rec;
  rec.type = LogType::kBegin;
  Lsn first = log_->Append(rec);
  Lsn second = log_->Append(rec);
  {
    auto g = bm.FetchPage(0, AccessMode::kWrite);
    ASSERT_TRUE(g.ok());
    g->MarkDirty(first);
    g->MarkDirty(second);
  }
  auto dpt = bm.DirtyPageTable();
  ASSERT_EQ(dpt.size(), 1u);
  EXPECT_EQ(dpt[0].rec_lsn, first);
  EXPECT_EQ(dpt[0].page_id, 0u);
}

TEST_F(BufferTest, FlushAndEvictDropsFrame) {
  SeedPage(0, "orig");
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  LogRecord rec;
  rec.type = LogType::kBegin;
  {
    auto g = bm.FetchPage(0, AccessMode::kWrite);
    ASSERT_TRUE(g.ok());
    ASSERT_TRUE(SlottedPage::ReplaceAt(g->mutable_data(), 0, "newd").ok());
    g->MarkDirty(log_->Append(rec));
  }
  ASSERT_TRUE(bm.FlushAndEvict(0).ok());
  // The store now holds the final image (the pre-condition the
  // preformat-on-reallocation path relies on).
  char page[kPageSize];
  ASSERT_TRUE(file_->ReadPage(0, page).ok());
  EXPECT_EQ(SlottedPage::Record(page, 0).ToString(), "newd");
  uint64_t reads0 = stats_.data_reads.load();
  auto g = bm.FetchPage(0, AccessMode::kRead);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(stats_.data_reads.load(), reads0 + 1) << "frame was evicted";
}

TEST_F(BufferTest, ChecksumVerificationCatchesCorruption) {
  SeedPage(0, "good");
  // Corrupt the page on disk after stamping.
  char page[kPageSize];
  ASSERT_TRUE(file_->ReadPage(0, page).ok());
  page[200] ^= 0x7F;
  ASSERT_TRUE(file_->WritePage(0, page).ok());

  BufferManager verify_on(store_.get(), log_.get(), &stats_, 8, true);
  EXPECT_TRUE(verify_on.FetchPage(0, AccessMode::kRead)
                  .status()
                  .IsCorruption());
  BufferManager verify_off(store_.get(), log_.get(), &stats_, 8, false);
  EXPECT_TRUE(verify_off.FetchPage(0, AccessMode::kRead).ok());
}

TEST_F(BufferTest, NewPageMaterializesWithoutRead) {
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  uint64_t reads0 = stats_.data_reads.load();
  auto g = bm.NewPage(42);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(stats_.data_reads.load(), reads0) << "NewPage must not read";
  EXPECT_EQ(Header(g->data())->page_id, 42u);
}

TEST_F(BufferTest, NewPageFormatsARecycledFrame) {
  // Frames are not zeroed when allocated or retired: the one-frame pool
  // hands page 0's old slot to the new page, which must still come up
  // all zeros apart from its id.
  SeedPage(0, std::string(2000, 'q'));
  BufferManager bm(store_.get(), log_.get(), &stats_, 1);
  ASSERT_TRUE(bm.FetchPage(0, AccessMode::kRead).ok());
  auto g = bm.NewPage(42);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(bm.stats().evictions, 1u);
  char expect[kPageSize] = {};
  Header(expect)->page_id = 42;
  EXPECT_EQ(memcmp(g->data(), expect, kPageSize), 0);
}

TEST_F(BufferTest, FramesAllocatedOnFirstUse) {
  for (PageId id = 0; id < 10; id++) SeedPage(id, std::to_string(id));
  BufferManager bm(store_.get(), log_.get(), &stats_, 2048);
  EXPECT_EQ(bm.stats().pool_pages, 2048u);
  EXPECT_EQ(bm.stats().frames, 0u) << "construction allocates no frame";
  for (PageId id = 0; id < 10; id++) {
    ASSERT_TRUE(bm.FetchPage(id, AccessMode::kRead).ok());
  }
  EXPECT_EQ(bm.stats().frames, 10u);
  for (PageId id = 0; id < 10; id++) {
    ASSERT_TRUE(bm.FetchPage(id, AccessMode::kRead).ok());
  }
  EXPECT_EQ(bm.stats().frames, 10u) << "hits allocate nothing";
}

TEST_F(BufferTest, ClockSweepStartsOnlyWhenThePoolIsFull) {
  const size_t kPool = 4;
  for (PageId id = 0; id <= kPool; id++) SeedPage(id, "x");
  BufferManager bm(store_.get(), log_.get(), &stats_, kPool);
  for (PageId id = 0; id < kPool; id++) {
    ASSERT_TRUE(bm.FetchPage(id, AccessMode::kRead).ok());
    EXPECT_EQ(bm.stats().evictions, 0u) << "after page " << id;
    EXPECT_EQ(bm.stats().frames, id + 1);
  }
  ASSERT_TRUE(bm.FetchPage(kPool, AccessMode::kRead).ok());
  EXPECT_EQ(bm.stats().evictions, 1u);
  EXPECT_EQ(bm.stats().frames, kPool);
}

TEST_F(BufferTest, ConcurrentReadersShareFrames) {
  for (PageId id = 0; id < 16; id++) SeedPage(id, "r" + std::to_string(id));
  BufferManager bm(store_.get(), log_.get(), &stats_, 8);
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        PageId id = static_cast<PageId>((i * 7 + t) % 16);
        auto g = bm.FetchPage(id, AccessMode::kRead);
        if (!g.ok()) {
          errors++;
          continue;
        }
        if (SlottedPage::Record(g->data(), 0).ToString() !=
            "r" + std::to_string(id)) {
          errors++;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace rewinddb
