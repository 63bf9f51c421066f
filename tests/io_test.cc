// Tests for the IO layer: paged file, sparse side file, disk model.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>

#include "common/clock.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "io/paged_file.h"
#include "io/sparse_file.h"

namespace rewinddb {
namespace {

std::string TempPath(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_io_test";
  std::filesystem::create_directories(dir);
  auto p = (dir / name).string();
  std::filesystem::remove(p);
  return p;
}

void FillPage(char* buf, char fill, PageId id) {
  memset(buf, fill, kPageSize);
  memcpy(buf, &id, sizeof(id));
}

TEST(PagedFileTest, WriteReadRoundTrip) {
  auto f = PagedFile::Create(TempPath("rt.db"), nullptr, nullptr);
  ASSERT_TRUE(f.ok());
  char out[kPageSize], in[kPageSize];
  FillPage(out, 'a', 0);
  ASSERT_TRUE((*f)->WritePage(0, out).ok());
  FillPage(out, 'b', 5);
  ASSERT_TRUE((*f)->WritePage(5, out).ok());  // extends with a hole
  EXPECT_EQ((*f)->NumPages(), 6u);
  ASSERT_TRUE((*f)->ReadPage(5, in).ok());
  EXPECT_EQ(memcmp(out, in, kPageSize), 0);
}

TEST(PagedFileTest, ReadPastEofFails) {
  auto f = PagedFile::Create(TempPath("eof.db"), nullptr, nullptr);
  ASSERT_TRUE(f.ok());
  char buf[kPageSize];
  EXPECT_TRUE((*f)->ReadPage(0, buf).IsInvalidArgument());
}

TEST(PagedFileTest, CreateRefusesExisting) {
  std::string path = TempPath("dup.db");
  auto a = PagedFile::Create(path, nullptr, nullptr);
  ASSERT_TRUE(a.ok());
  EXPECT_FALSE(PagedFile::Create(path, nullptr, nullptr).ok());
  EXPECT_TRUE(PagedFile::Create(path, nullptr, nullptr, true).ok());
}

TEST(PagedFileTest, OpenSeesExistingPages) {
  std::string path = TempPath("open.db");
  char out[kPageSize], in[kPageSize];
  {
    auto f = PagedFile::Create(path, nullptr, nullptr);
    ASSERT_TRUE(f.ok());
    FillPage(out, 'z', 2);
    ASSERT_TRUE((*f)->WritePage(2, out).ok());
    ASSERT_TRUE((*f)->Sync().ok());
  }
  auto f = PagedFile::Open(path, nullptr, nullptr);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->NumPages(), 3u);
  ASSERT_TRUE((*f)->ReadPage(2, in).ok());
  EXPECT_EQ(memcmp(out, in, kPageSize), 0);
}

TEST(PagedFileTest, StatsCountOperations) {
  IoStats stats;
  auto f = PagedFile::Create(TempPath("stats.db"), nullptr, &stats);
  ASSERT_TRUE(f.ok());
  char buf[kPageSize];
  FillPage(buf, 'x', 0);
  ASSERT_TRUE((*f)->WritePage(0, buf).ok());
  ASSERT_TRUE((*f)->ReadPage(0, buf).ok());
  ASSERT_TRUE((*f)->ReadPage(0, buf).ok());
  EXPECT_EQ(stats.data_writes.load(), 1u);
  EXPECT_EQ(stats.data_reads.load(), 2u);
}

TEST(PagedFileTest, ConcurrentWritersNoTornPages) {
  auto f = PagedFile::Create(TempPath("torn.db"), nullptr, nullptr);
  ASSERT_TRUE(f.ok());
  // Seed with a uniform page: a reader that wins the race against the
  // first write must see a page the torn-read check accepts.
  char init[kPageSize];
  memset(init, 0, kPageSize);
  ASSERT_TRUE((*f)->WritePage(7, init).ok());
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread writer([&] {
    char buf[kPageSize];
    char fill = 1;
    while (!stop) {
      memset(buf, fill++, kPageSize);
      ASSERT_TRUE((*f)->WritePage(7, buf).ok());
    }
  });
  std::thread reader([&] {
    char buf[kPageSize];
    while (!stop) {
      ASSERT_TRUE((*f)->ReadPage(7, buf).ok());
      // All bytes must be identical: a mix would be a torn read.
      for (size_t i = 1; i < kPageSize; i++) {
        if (buf[i] != buf[0]) {
          torn = true;
          stop = true;
          break;
        }
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop = true;
  writer.join();
  reader.join();
  EXPECT_FALSE(torn.load());
}

TEST(SparseFileTest, AbsentThenPresent) {
  auto sf = SparseFile::Create(TempPath("sp.side"), nullptr, nullptr);
  ASSERT_TRUE(sf.ok());
  char buf[kPageSize];
  EXPECT_FALSE((*sf)->Contains(9));
  EXPECT_TRUE((*sf)->ReadPage(9, buf).IsNotFound());
  FillPage(buf, 'q', 9);
  ASSERT_TRUE((*sf)->WritePage(9, buf).ok());
  EXPECT_TRUE((*sf)->Contains(9));
  char in[kPageSize];
  ASSERT_TRUE((*sf)->ReadPage(9, in).ok());
  EXPECT_EQ(memcmp(buf, in, kPageSize), 0);
  EXPECT_EQ((*sf)->PageCount(), 1u);
}

TEST(SparseFileTest, OverwriteReusesSlot) {
  auto sf = SparseFile::Create(TempPath("ow.side"), nullptr, nullptr);
  ASSERT_TRUE(sf.ok());
  char buf[kPageSize];
  FillPage(buf, '1', 3);
  ASSERT_TRUE((*sf)->WritePage(3, buf).ok());
  FillPage(buf, '2', 3);
  ASSERT_TRUE((*sf)->WritePage(3, buf).ok());
  EXPECT_EQ((*sf)->PageCount(), 1u);
  char in[kPageSize];
  ASSERT_TRUE((*sf)->ReadPage(3, in).ok());
  EXPECT_EQ(in[100], '2');
}

TEST(SparseFileTest, OnlyWrittenPagesOccupySpace) {
  // The sparse-file contract that matters for the paper: storing page
  // 1'000'000 does not materialize a million slots.
  auto sf = SparseFile::Create(TempPath("sparse.side"), nullptr, nullptr);
  ASSERT_TRUE(sf.ok());
  char buf[kPageSize];
  FillPage(buf, 'h', 1'000'000);
  ASSERT_TRUE((*sf)->WritePage(1'000'000, buf).ok());
  FillPage(buf, 'l', 2);
  ASSERT_TRUE((*sf)->WritePage(2, buf).ok());
  EXPECT_EQ((*sf)->PageCount(), 2u);
}

TEST(SparseFileTest, DestroyRemovesBackingFile) {
  std::string path = TempPath("destroy.side");
  auto sf = SparseFile::Create(path, nullptr, nullptr);
  ASSERT_TRUE(sf.ok());
  char buf[kPageSize];
  FillPage(buf, 'd', 1);
  ASSERT_TRUE((*sf)->WritePage(1, buf).ok());
  ASSERT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE((*sf)->Destroy().ok());
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(DiskModelTest, SequentialCheaperThanRandom) {
  SimClock clock;
  DiskModel disk(MediaProfile::Sas(), &clock, nullptr);
  // Sequential run: one seek then pure transfer.
  WallClock t0 = clock.NowMicros();
  for (int i = 0; i < 10; i++) {
    disk.Access(static_cast<uint64_t>(i) * kPageSize, kPageSize);
  }
  WallClock seq = clock.NowMicros() - t0;
  // Random: every access seeks.
  t0 = clock.NowMicros();
  for (int i = 0; i < 10; i++) {
    disk.Access(static_cast<uint64_t>((i * 977 + 13) % 4096) * kPageSize,
                kPageSize);
  }
  WallClock rnd = clock.NowMicros() - t0;
  EXPECT_LT(seq * 5, rnd) << "random IO should dwarf sequential on SAS";
}

TEST(DiskModelTest, SsdRandomPenaltySmallerThanSas) {
  SimClock c1, c2;
  DiskModel ssd(MediaProfile::Ssd(), &c1, nullptr);
  DiskModel sas(MediaProfile::Sas(), &c2, nullptr);
  WallClock ssd0 = c1.NowMicros(), sas0 = c2.NowMicros();
  for (int i = 0; i < 20; i++) {
    uint64_t off = static_cast<uint64_t>((i * 977 + 13) % 4096) * kPageSize;
    ssd.Access(off, kPageSize);
    sas.Access(off, kPageSize);
  }
  EXPECT_LT((c1.NowMicros() - ssd0) * 10, c2.NowMicros() - sas0);
}

TEST(DiskModelTest, NoneProfileChargesNothing) {
  SimClock clock(500);
  IoStats stats;
  DiskModel disk(MediaProfile::None(), &clock, &stats);
  disk.Access(12345, kPageSize);
  disk.Access(999999, kPageSize);
  EXPECT_EQ(clock.NowMicros(), 500u);
  EXPECT_EQ(stats.sim_io_micros.load(), 0u);
}

TEST(DiskModelTest, ChargesRecordedInStats) {
  SimClock clock;
  IoStats stats;
  DiskModel disk(MediaProfile::Ssd(), &clock, &stats);
  disk.Access(0, kPageSize);
  EXPECT_GT(stats.sim_io_micros.load(), 0u);
  EXPECT_EQ(stats.sim_io_micros.load() + 1'000'000, clock.NowMicros());
}

TEST(IoStatsTest, ResetAndToString) {
  IoStats stats;
  stats.data_reads = 5;
  stats.log_read_misses = 2;
  EXPECT_NE(stats.ToString().find("data_reads=5"), std::string::npos);
  stats.Reset();
  EXPECT_EQ(stats.data_reads.load(), 0u);
  EXPECT_EQ(stats.Capture().log_read_misses, 0u);
}

}  // namespace
}  // namespace rewinddb
