// Tests for the log record codec and the log manager: round-trips for
// every record type, append/flush/read, reopen after crash, truncation
// (retention), checkpoint directory, block cache accounting, and the
// in-place read path's edges (block ends, straddles, the flush
// frontier under concurrent appends, LRU order, reuse after failure).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/coding.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "log/log_manager.h"
#include "log/log_record.h"
#include "page/page.h"
#include "wal/wal.h"

namespace rewinddb {
namespace {

std::string TempPath(const std::string& name) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_log_test";
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

LogRecord MakeInsert(TxnId txn, PageId page, uint16_t slot,
                     const std::string& entry) {
  LogRecord r;
  r.type = LogType::kInsert;
  r.txn_id = txn;
  r.page_id = page;
  r.tree_id = 42;
  r.slot = slot;
  r.image = entry;
  return r;
}

// ------------------------- record codec -------------------------------

TEST(LogRecordTest, PeekLengthMatchesEncodedSize) {
  LogRecord r = MakeInsert(1, 2, 3, "entry");
  std::string buf;
  r.EncodeTo(&buf);
  EXPECT_EQ(LogRecord::PeekLength(buf), buf.size());
  EXPECT_EQ(r.EncodedSize(), buf.size());
}

struct CodecCase {
  const char* name;
  LogRecord rec;
};

class LogRecordCodecTest : public ::testing::TestWithParam<CodecCase> {};

void ExpectSameRecord(const LogRecord& out, const LogRecord& in) {
  EXPECT_EQ(out.type, in.type);
  EXPECT_EQ(out.clr_op, in.clr_op);
  EXPECT_EQ(out.is_system, in.is_system);
  EXPECT_EQ(out.txn_id, in.txn_id);
  EXPECT_EQ(out.prev_lsn, in.prev_lsn);
  EXPECT_EQ(out.prev_page_lsn, in.prev_page_lsn);
  EXPECT_EQ(out.prev_fpi_lsn, in.prev_fpi_lsn);
  EXPECT_EQ(out.page_id, in.page_id);
  EXPECT_EQ(out.tree_id, in.tree_id);
  EXPECT_EQ(out.slot, in.slot);
  EXPECT_EQ(out.image, in.image);
  EXPECT_EQ(out.image2, in.image2);
  EXPECT_EQ(out.wall_clock, in.wall_clock);
  EXPECT_EQ(out.undo_next_lsn, in.undo_next_lsn);
  EXPECT_EQ(out.fmt_type, in.fmt_type);
  EXPECT_EQ(out.fmt_level, in.fmt_level);
  EXPECT_EQ(out.alloc_bit, in.alloc_bit);
  EXPECT_EQ(out.alloc_new, in.alloc_new);
  EXPECT_EQ(out.ever_new, in.ever_new);
  EXPECT_EQ(out.alloc_old, in.alloc_old);
  EXPECT_EQ(out.ever_old, in.ever_old);
  EXPECT_EQ(out.sibling_new, in.sibling_new);
  EXPECT_EQ(out.sibling_old, in.sibling_old);
  ASSERT_EQ(out.att.size(), in.att.size());
  for (size_t i = 0; i < in.att.size(); i++) {
    EXPECT_EQ(out.att[i].txn_id, in.att[i].txn_id);
    EXPECT_EQ(out.att[i].last_lsn, in.att[i].last_lsn);
  }
  ASSERT_EQ(out.dpt.size(), in.dpt.size());
  for (size_t i = 0; i < in.dpt.size(); i++) {
    EXPECT_EQ(out.dpt[i].page_id, in.dpt[i].page_id);
    EXPECT_EQ(out.dpt[i].rec_lsn, in.dpt[i].rec_lsn);
  }
}

TEST_P(LogRecordCodecTest, RoundTrip) {
  const LogRecord& in = GetParam().rec;
  std::string buf;
  in.EncodeTo(&buf);
  size_t consumed = 0;
  auto out = LogRecord::Decode(buf, &consumed);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(consumed, buf.size());
  ExpectSameRecord(*out, in);
}

std::vector<CodecCase> CodecCases() {
  std::vector<CodecCase> cases;
  {
    LogRecord r;
    r.type = LogType::kBegin;
    r.txn_id = 9;
    cases.push_back({"begin", r});
  }
  {
    LogRecord r;
    r.type = LogType::kCommit;
    r.txn_id = 9;
    r.prev_lsn = 100;
    r.wall_clock = 123456789;
    cases.push_back({"commit", r});
  }
  {
    LogRecord r;
    r.type = LogType::kAbort;
    r.txn_id = 9;
    r.prev_lsn = 200;
    cases.push_back({"abort", r});
  }
  cases.push_back({"insert", MakeInsert(5, 77, 3, "row bytes")});
  {
    LogRecord r = MakeInsert(5, 77, 3, "deleted row image");
    r.type = LogType::kDelete;
    r.prev_page_lsn = 500;
    r.prev_fpi_lsn = 450;
    cases.push_back({"delete_with_undo_info", r});
  }
  {
    LogRecord r;
    r.type = LogType::kUpdate;
    r.txn_id = 5;
    r.page_id = 77;
    r.slot = 1;
    r.tree_id = 42;
    r.image = "old entry";
    r.image2 = "new entry";
    cases.push_back({"update", r});
  }
  {
    LogRecord r;
    r.type = LogType::kClr;
    r.clr_op = LogType::kDelete;
    r.txn_id = 5;
    r.page_id = 77;
    r.slot = 2;
    r.tree_id = 42;
    r.image = "undo info carried by the CLR";
    r.undo_next_lsn = 321;
    cases.push_back({"clr_delete", r});
  }
  {
    LogRecord r;
    r.type = LogType::kClr;
    r.clr_op = LogType::kUpdate;
    r.txn_id = 5;
    r.page_id = 77;
    r.slot = 2;
    r.image = "overwritten";
    r.image2 = "restored";
    r.undo_next_lsn = 321;
    cases.push_back({"clr_update", r});
  }
  {
    LogRecord r;
    r.type = LogType::kFormat;
    r.txn_id = 2;
    r.page_id = 88;
    r.fmt_type = static_cast<uint8_t>(PageType::kBtreeLeaf);
    r.fmt_level = 0;
    cases.push_back({"format", r});
  }
  {
    LogRecord r;
    r.type = LogType::kPreformat;
    r.txn_id = 2;
    r.page_id = 88;
    r.prev_page_lsn = 444;
    r.image = std::string(kPageSize, '\x5A');
    cases.push_back({"preformat_full_page", r});
  }
  {
    LogRecord r;
    r.type = LogType::kAllocBits;
    r.txn_id = 2;
    r.page_id = 1;
    r.alloc_bit = 17;
    r.alloc_new = true;
    r.ever_new = true;
    r.alloc_old = false;
    r.ever_old = true;
    cases.push_back({"alloc_bits", r});
  }
  {
    LogRecord r;
    r.type = LogType::kSetSibling;
    r.txn_id = 2;
    r.page_id = 6;
    r.is_system = true;
    r.sibling_new = 9;
    r.sibling_old = kInvalidPageId;
    cases.push_back({"set_sibling", r});
  }
  {
    LogRecord r;
    r.type = LogType::kClr;
    r.clr_op = LogType::kSetSibling;
    r.txn_id = 2;
    r.page_id = 6;
    r.is_system = true;
    r.sibling_new = kInvalidPageId;
    r.sibling_old = 9;
    r.undo_next_lsn = 77;
    cases.push_back({"clr_set_sibling", r});
  }
  {
    LogRecord r;
    r.type = LogType::kClr;
    r.clr_op = LogType::kFormat;
    r.txn_id = 2;
    r.page_id = 6;
    r.is_system = true;
    r.undo_next_lsn = 55;
    cases.push_back({"clr_noop_format", r});
  }
  {
    LogRecord r;
    r.type = LogType::kCheckpointBegin;
    r.wall_clock = 111222333;
    cases.push_back({"ckpt_begin", r});
  }
  {
    LogRecord r;
    r.type = LogType::kCheckpointEnd;
    r.wall_clock = 111222444;
    r.att = {{3, 900}, {4, 950}};
    r.dpt = {{10, 800}, {11, 810}, {12, 820}};
    cases.push_back({"ckpt_end", r});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, LogRecordCodecTest,
                         ::testing::ValuesIn(CodecCases()),
                         [](const ::testing::TestParamInfo<CodecCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(LogRecordTest, DecodeIntoReplacesEveryField) {
  // One record decoded into over and over, as a cursor does, must read
  // exactly like a fresh decode each time: nothing of the previous
  // record survives, in either direction between any two types.
  const std::vector<CodecCase> cases = CodecCases();
  LogRecord reused;
  for (int pass = 0; pass < 2; pass++) {
    for (size_t i = 0; i < cases.size(); i++) {
      const CodecCase& c = cases[pass == 0 ? i : cases.size() - 1 - i];
      SCOPED_TRACE(c.name);
      std::string buf;
      c.rec.EncodeTo(&buf);
      size_t consumed = 0;
      ASSERT_TRUE(LogRecord::DecodeInto(buf, &consumed, &reused).ok());
      EXPECT_EQ(consumed, buf.size());
      ExpectSameRecord(reused, c.rec);
    }
  }
}

TEST(LogRecordTest, DecodeIntoLeavesRecordOnChecksumFailure) {
  LogRecord r = MakeInsert(1, 2, 3, "entry");
  std::string buf;
  r.EncodeTo(&buf);
  LogRecord out;
  size_t consumed = 0;
  ASSERT_TRUE(LogRecord::DecodeInto(buf, &consumed, &out).ok());
  buf[20] ^= 0x01;
  EXPECT_TRUE(LogRecord::DecodeInto(buf, &consumed, &out).IsCorruption());
  ExpectSameRecord(out, r);
}

TEST(LogRecordTest, DecodeRejectsCorruptedBytes) {
  LogRecord r = MakeInsert(1, 2, 3, "entry");
  std::string buf;
  r.EncodeTo(&buf);
  buf[20] ^= 0x01;
  size_t consumed;
  EXPECT_TRUE(LogRecord::Decode(buf, &consumed).status().IsCorruption());
}

TEST(LogRecordTest, DecodeRejectsShortBuffer) {
  LogRecord r = MakeInsert(1, 2, 3, "entry");
  std::string buf;
  r.EncodeTo(&buf);
  size_t consumed;
  EXPECT_TRUE(LogRecord::Decode(Slice(buf.data(), 10), &consumed)
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(LogRecord::Decode(Slice(buf.data(), buf.size() - 1), &consumed)
                  .status()
                  .IsCorruption());
}

TEST(LogRecordTest, IsPageRecordClassification) {
  EXPECT_TRUE(MakeInsert(1, 2, 3, "x").IsPageRecord());
  LogRecord commit;
  commit.type = LogType::kCommit;
  EXPECT_FALSE(commit.IsPageRecord());
  LogRecord begin;
  begin.type = LogType::kBegin;
  EXPECT_FALSE(begin.IsPageRecord());
}

// ------------------------- log manager --------------------------------

/// Read the record at `lsn` through the public cursor API.
Result<LogRecord> ReadAt(wal::Wal* w, Lsn lsn) {
  wal::Cursor cur = w->OpenCursor();
  Status s = cur.SeekTo(lsn);
  if (!s.ok()) return s;
  if (!cur.Valid()) return Status::InvalidArgument("no record at lsn");
  return cur.record();
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
  IoStats stats_;
};

TEST_F(WalTest, AppendAssignsMonotonicLsns) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "a"));
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 1, "b"));
  EXPECT_GT(b, a);
  EXPECT_GT((*lm)->next_lsn(), b);
}

TEST_F(WalTest, ReadFromUnflushedTail) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "payload"));
  auto rec = ReadAt(lm->get(), a);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->image, "payload");
  // No device IO was needed.
  EXPECT_EQ(stats_.log_read_misses.load(), 0u);
}

TEST_F(WalTest, ReadAfterFlushGoesThroughCache) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "payload"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  EXPECT_EQ(stats_.log_read_misses.load(), 1u);
  // Second read hits the block cache.
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  EXPECT_EQ(stats_.log_read_misses.load(), 1u);
  EXPECT_GE(stats_.log_read_hits.load(), 1u);
}

TEST_F(WalTest, CacheDisabledReadsStraightFromFile) {
  wal::WalOptions opts;
  opts.cache_blocks = 0;
  auto lm = wal::Wal::Create(path_, nullptr, &stats_, opts);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "payload"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  // Regression (cache_blocks = 0): every read goes straight to the
  // file; nothing is retained, so nothing ever hits.
  EXPECT_EQ(stats_.log_read_misses.load(), 2u);
  EXPECT_EQ(stats_.log_read_hits.load(), 0u);
}

TEST_F(WalTest, CacheDisabledDropCacheIsSafeNoOp) {
  wal::WalOptions opts;
  opts.cache_blocks = 0;
  auto lm = wal::Wal::Create(path_, nullptr, &stats_, opts);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "payload"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();  // must not crash or change behaviour
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  (*lm)->DropCache();
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  EXPECT_EQ(stats_.log_read_hits.load(), 0u);
  // Sequential forward scans must also stay correct (their prefetch is
  // skipped entirely without a cache to warm).
  wal::Cursor cur = (*lm)->OpenCursor();
  ASSERT_TRUE(cur.SeekTo((*lm)->start_lsn()).ok());
  int seen = 0;
  while (cur.Valid()) {
    seen++;
    ASSERT_TRUE(cur.Next().ok());
  }
  EXPECT_EQ(seen, 1);
}

TEST_F(WalTest, FlushToMakesRecordDurable) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "abc"));
  EXPECT_LE((*lm)->flushed_lsn(), a);
  ASSERT_TRUE((*lm)->FlushTo(a).ok());
  EXPECT_GT((*lm)->flushed_lsn(), a);
}

TEST_F(WalTest, FlushCountersRecordBatches) {
  wal::WalOptions opts;
  opts.flush_interval_micros = 0;  // flush only on demand
  auto lm = wal::Wal::Create(path_, nullptr, &stats_, opts);
  ASSERT_TRUE(lm.ok());
  for (int i = 0; i < 10; i++) {
    (*lm)->Append(MakeInsert(1, 2, static_cast<uint16_t>(i), "x"));
  }
  ASSERT_TRUE((*lm)->FlushAll().ok());
  wal::WalStats st = (*lm)->stats();
  EXPECT_EQ(st.appends, 10u);
  EXPECT_GE(st.fsyncs, 1u);
  EXPECT_GT(st.flushed_bytes, 0u);
  EXPECT_GE(st.max_batch_bytes, st.flushed_bytes / st.fsyncs);
}

TEST_F(WalTest, GroupCommitWaitMakesLsnDurable) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "grouped"));
  ASSERT_TRUE((*lm)->WaitCommit(a, CommitMode::kGroup).ok());
  EXPECT_GT((*lm)->flushed_lsn(), a);
  wal::WalStats st = (*lm)->stats();
  EXPECT_EQ(st.group_commits, 1u);
}

TEST_F(WalTest, ReopenFindsEndAndServesRecords) {
  Lsn a, b;
  {
    auto lm = wal::Wal::Create(path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    a = (*lm)->Append(MakeInsert(1, 2, 0, "first"));
    b = (*lm)->Append(MakeInsert(1, 2, 1, "second"));
    ASSERT_TRUE((*lm)->FlushAll().ok());
  }
  auto lm = wal::Wal::Open(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok()) << lm.status().ToString();
  auto ra = ReadAt(lm->get(), a);
  auto rb = ReadAt(lm->get(), b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->image, "first");
  EXPECT_EQ(rb->image, "second");
  // New appends continue after the old end.
  Lsn c = (*lm)->Append(MakeInsert(2, 3, 0, "third"));
  EXPECT_GT(c, b);
}

TEST_F(WalTest, ReopenIgnoresTornTail) {
  Lsn a;
  {
    auto lm = wal::Wal::Create(path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    a = (*lm)->Append(MakeInsert(1, 2, 0, "good"));
    ASSERT_TRUE((*lm)->FlushAll().ok());
  }
  {
    // Simulate a torn write: append garbage bytes to the file.
    FILE* f = fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x40\x00\x00\x00 torn half-record ...";
    fwrite(garbage, 1, sizeof(garbage), f);
    fclose(f);
  }
  auto lm = wal::Wal::Open(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  auto ra = ReadAt(lm->get(), a);
  ASSERT_TRUE(ra.ok());
  EXPECT_EQ(ra->image, "good");
}

TEST_F(WalTest, CursorVisitsRecordsInOrder) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  std::vector<Lsn> lsns;
  for (int i = 0; i < 20; i++) {
    lsns.push_back((*lm)->Append(MakeInsert(1, 2, static_cast<uint16_t>(i),
                                            "rec" + std::to_string(i))));
  }
  ASSERT_TRUE((*lm)->FlushAll().ok());
  std::vector<Lsn> seen;
  wal::Cursor cur = (*lm)->OpenCursor();
  ASSERT_TRUE(cur.SeekTo((*lm)->start_lsn()).ok());
  while (cur.Valid()) {
    EXPECT_EQ(cur.record().type, LogType::kInsert);
    seen.push_back(cur.lsn());
    ASSERT_TRUE(cur.Next().ok());
  }
  EXPECT_EQ(seen, lsns);
}

TEST_F(WalTest, CursorSeekToMidStreamAndEndLsn) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "aaa"));
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 1, "bbb"));
  Lsn c = (*lm)->Append(MakeInsert(1, 2, 2, "ccc"));
  wal::Cursor cur = (*lm)->OpenCursor();
  ASSERT_TRUE(cur.SeekTo(b).ok());
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.lsn(), b);
  EXPECT_EQ(cur.record().image, "bbb");
  EXPECT_EQ(cur.end_lsn(), c);
  // Seeking to the append frontier is a benign end, not an error.
  ASSERT_TRUE(cur.SeekTo((*lm)->next_lsn()).ok());
  EXPECT_FALSE(cur.Valid());
  (void)a;
}

TEST_F(WalTest, CursorFollowsTransactionChain) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  LogRecord r1 = MakeInsert(7, 2, 0, "one");
  Lsn a = (*lm)->Append(r1);
  LogRecord r2 = MakeInsert(7, 2, 1, "two");
  r2.prev_lsn = a;
  Lsn b = (*lm)->Append(r2);
  LogRecord r3 = MakeInsert(7, 2, 2, "three");
  r3.prev_lsn = b;
  Lsn c = (*lm)->Append(r3);

  wal::Cursor cur = (*lm)->OpenCursor();
  ASSERT_TRUE(cur.SeekTo(c).ok());
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.record().image, "three");
  ASSERT_TRUE(cur.FollowPrev().ok());
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.lsn(), b);
  EXPECT_EQ(cur.record().image, "two");
  ASSERT_TRUE(cur.FollowPrev().ok());
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.lsn(), a);
  // The chain ends benignly at a kInvalidLsn link.
  ASSERT_TRUE(cur.FollowPrev().ok());
  EXPECT_FALSE(cur.Valid());
}

TEST_F(WalTest, CheckpointDirectoryTracksAppends) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  LogRecord ckpt;
  ckpt.type = LogType::kCheckpointBegin;
  ckpt.wall_clock = 1000;
  Lsn c1 = (*lm)->Append(ckpt);
  (*lm)->Append(MakeInsert(1, 2, 0, "x"));
  ckpt.wall_clock = 2000;
  Lsn c2 = (*lm)->Append(ckpt);
  auto dir = (*lm)->checkpoints();
  ASSERT_EQ(dir.size(), 2u);
  EXPECT_EQ(dir[0].begin_lsn, c1);
  EXPECT_EQ(dir[0].wall_clock, 1000u);
  EXPECT_EQ(dir[1].begin_lsn, c2);
  EXPECT_EQ(dir[1].wall_clock, 2000u);
}

TEST_F(WalTest, CheckpointDirectorySurvivesReopen) {
  Lsn c1;
  {
    auto lm = wal::Wal::Create(path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    LogRecord ckpt;
    ckpt.type = LogType::kCheckpointBegin;
    ckpt.wall_clock = 777;
    c1 = (*lm)->Append(ckpt);
    ASSERT_TRUE((*lm)->FlushAll().ok());
  }
  auto lm = wal::Wal::Open(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  auto dir = (*lm)->checkpoints();
  ASSERT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir[0].begin_lsn, c1);
  EXPECT_EQ(dir[0].wall_clock, 777u);
}

TEST_F(WalTest, TruncateEnforcesRetention) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "old"));
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 1, "new"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  ASSERT_TRUE((*lm)->TruncateBefore(b).ok());
  // The old record is gone -- cursor seeks report OutOfRange so the
  // as-of machinery can surface "outside retention period" to the user.
  EXPECT_TRUE(ReadAt(lm->get(), a).status().IsOutOfRange());
  EXPECT_TRUE(ReadAt(lm->get(), b).ok());
  EXPECT_EQ((*lm)->start_lsn(), b);
}

TEST_F(WalTest, TruncatePersistsAcrossReopen) {
  Lsn a, b;
  {
    auto lm = wal::Wal::Create(path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    a = (*lm)->Append(MakeInsert(1, 2, 0, "old"));
    b = (*lm)->Append(MakeInsert(1, 2, 1, "new"));
    ASSERT_TRUE((*lm)->FlushAll().ok());
    ASSERT_TRUE((*lm)->TruncateBefore(b).ok());
  }
  auto lm = wal::Wal::Open(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  EXPECT_EQ((*lm)->start_lsn(), b);
  EXPECT_TRUE(ReadAt(lm->get(), a).status().IsOutOfRange());
  EXPECT_TRUE(ReadAt(lm->get(), b).ok());
}

TEST_F(WalTest, LiveBytesShrinksOnTruncate) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  (*lm)->Append(MakeInsert(1, 2, 0, std::string(1000, 'x')));
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 1, "y"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  uint64_t before = (*lm)->LiveBytes();
  ASSERT_TRUE((*lm)->TruncateBefore(b).ok());
  EXPECT_LT((*lm)->LiveBytes(), before);
}

TEST_F(WalTest, LargeRecordSpanningBlocksRoundTrips) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  // Fill close to a block boundary, then write a full-page preformat
  // record that must straddle it.
  for (int i = 0; i < 100; i++) {
    (*lm)->Append(MakeInsert(1, 2, 0, std::string(300, 'a')));
  }
  LogRecord fpi;
  fpi.type = LogType::kPreformat;
  fpi.page_id = 9;
  fpi.image = std::string(kPageSize, '\x77');
  Lsn f = (*lm)->Append(fpi);
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();
  auto rec = ReadAt(lm->get(), f);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->image.size(), kPageSize);
  EXPECT_EQ(rec->image[0], '\x77');
}

TEST_F(WalTest, SimulatedLatencyChargedOnMisses) {
  SimClock clock;
  DiskModel disk(MediaProfile::Sas(), &clock, &stats_);
  auto lm = wal::Wal::Create(path_, &disk, &stats_);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "x"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();
  WallClock before = clock.NowMicros();
  ASSERT_TRUE(ReadAt(lm->get(), a).ok());
  // A SAS random read costs ~6.5ms of simulated time.
  EXPECT_GE(clock.NowMicros() - before, 6000u);
}

// ------------------------ in-place read edges --------------------------

constexpr Lsn kBlock = LogManager::kBlockSize;

/// Append filler inserts until the log's next LSN is exactly `target`.
void FillTo(wal::Wal* w, Lsn target) {
  const size_t overhead = MakeInsert(1, 2, 0, "").EncodedSize();
  while (w->next_lsn() < target) {
    const size_t gap = target - w->next_lsn();
    ASSERT_GE(gap, overhead) << "cannot land exactly on " << target;
    const size_t entry = gap >= 1000 + 2 * overhead ? 1000 : gap - overhead;
    w->Append(MakeInsert(1, 2, 0, std::string(entry, 'f')));
  }
  ASSERT_EQ(w->next_lsn(), target);
}

TEST_F(WalTest, RecordEndingExactlyAtBlockEnd) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  FillTo(lm->get(), kBlock - 200);
  const std::string entry(200 - MakeInsert(1, 2, 0, "").EncodedSize(), 'e');
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 7, entry));
  ASSERT_EQ((*lm)->next_lsn(), kBlock);
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 8, "next block"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();
  stats_.Reset();
  auto ra = ReadAt(lm->get(), a);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->image, entry);
  EXPECT_EQ(ra->slot, 7);
  // Decoded from its own block alone: the next one was never fetched.
  EXPECT_EQ(stats_.log_read_misses.load(), 1u);
  EXPECT_EQ(stats_.log_read_hits.load(), 0u);
  auto rb = ReadAt(lm->get(), b);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(rb->image, "next block");
  EXPECT_EQ(stats_.log_read_misses.load(), 2u);
}

TEST_F(WalTest, LengthPrefixSplitAcrossBlocks) {
  // 1, 2 or 3 of the 4 prefix bytes lie before the block boundary. The
  // record is longer than 255 bytes, so with a 1-byte split the prefix
  // bytes past the boundary are not all zero.
  const std::string entry(300, 'p');
  for (Lsn split : {1, 2, 3}) {
    SCOPED_TRACE(split);
    auto lm = wal::Wal::Create(path_, nullptr, &stats_);
    ASSERT_TRUE(lm.ok());
    FillTo(lm->get(), kBlock - split);
    Lsn a = (*lm)->Append(MakeInsert(3, 4, 5, entry));
    Lsn b = (*lm)->Append(MakeInsert(3, 4, 6, "after"));
    ASSERT_TRUE((*lm)->FlushAll().ok());
    (*lm)->DropCache();
    stats_.Reset();
    auto ra = ReadAt(lm->get(), a);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    EXPECT_EQ(ra->image, entry);
    EXPECT_EQ(ra->txn_id, 3u);
    EXPECT_EQ(stats_.log_read_misses.load(), 2u);
    // A forward scan steps over the split record onto the next one.
    wal::Cursor cur = (*lm)->OpenCursor();
    ASSERT_TRUE(cur.SeekTo(a).ok());
    ASSERT_TRUE(cur.Next().ok());
    ASSERT_TRUE(cur.Valid());
    EXPECT_EQ(cur.lsn(), b);
    EXPECT_EQ(cur.record().image, "after");
  }
}

TEST_F(WalTest, CheckpointEndSpanningThreeBlocks) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  FillTo(lm->get(), kBlock - 100);
  LogRecord end;
  end.type = LogType::kCheckpointEnd;
  end.wall_clock = 4242;
  end.att = {{11, 1111}, {12, 2222}};
  for (uint32_t i = 0; i < 5000; i++) end.dpt.push_back({i, 64 + i * 8});
  Lsn e = (*lm)->Append(end);
  // Starts 100 bytes before block 1 and ends inside block 2.
  ASSERT_EQ(e / kBlock, 0u);
  ASSERT_EQ(((*lm)->next_lsn() - 1) / kBlock, 2u);
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();
  stats_.Reset();
  auto re = ReadAt(lm->get(), e);
  ASSERT_TRUE(re.ok()) << re.status().ToString();
  ExpectSameRecord(*re, end);
  EXPECT_EQ(stats_.log_read_misses.load(), 3u);
  EXPECT_EQ(stats_.log_read_hits.load(), 0u);
}

TEST_F(WalTest, ReadsAroundFlushFrontierWhileAppending) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  wal::Wal* w = lm->get();
  auto payload = [](size_t i) { return "rec" + std::to_string(i); };
  std::mutex mu;
  std::vector<Lsn> lsns;  // lsns[i] holds payload(i)
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < 3000; i++) {
      Lsn lsn = w->Append(MakeInsert(1, 2, 0, payload(i)));
      {
        std::lock_guard<std::mutex> g(mu);
        lsns.push_back(lsn);
      }
      if (i % 8 == 7) {
        EXPECT_TRUE(w->FlushAll().ok());
      }
    }
    done = true;
  });
  auto expect_at = [&](size_t i, Lsn lsn) {
    auto r = ReadAt(w, lsn);
    ASSERT_TRUE(r.ok()) << "lsn " << lsn << ": " << r.status().ToString();
    EXPECT_EQ(r->image, payload(i));
  };
  size_t rounds = 0;
  while (!done.load() || rounds == 0) {
    rounds++;
    const Lsn flushed = w->flushed_lsn();
    std::vector<Lsn> seen;
    {
      std::lock_guard<std::mutex> g(mu);
      seen = lsns;
    }
    if (seen.empty()) continue;
    // The first record at or past the frontier, the one just below it,
    // and the newest (usually still in the unflushed tail).
    const size_t k = static_cast<size_t>(
        std::lower_bound(seen.begin(), seen.end(), flushed) - seen.begin());
    if (k > 0) expect_at(k - 1, seen[k - 1]);
    if (k < seen.size()) expect_at(k, seen[k]);
    expect_at(seen.size() - 1, seen.back());
  }
  writer.join();
  ASSERT_TRUE(w->FlushAll().ok());
  for (size_t i = 0; i < lsns.size(); i += 97) expect_at(i, lsns[i]);
}

TEST_F(WalTest, CacheHitKeepsLruOrder) {
  wal::WalOptions opts;
  opts.cache_blocks = 2;
  auto lm = wal::Wal::Create(path_, nullptr, &stats_, opts);
  ASSERT_TRUE(lm.ok());
  Lsn a = (*lm)->Append(MakeInsert(1, 2, 0, "A"));
  FillTo(lm->get(), kBlock);
  Lsn b = (*lm)->Append(MakeInsert(1, 2, 0, "B"));
  FillTo(lm->get(), 2 * kBlock);
  Lsn c = (*lm)->Append(MakeInsert(1, 2, 0, "C"));
  ASSERT_TRUE((*lm)->FlushAll().ok());
  (*lm)->DropCache();
  stats_.Reset();
  auto read = [&](Lsn lsn, const char* image) {
    auto r = ReadAt(lm->get(), lsn);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->image, image);
  };
  read(a, "A");  // miss
  read(b, "B");  // miss
  read(a, "A");  // hit: A becomes the most recently used
  read(c, "C");  // miss: evicts B, the least recently used
  EXPECT_EQ(stats_.log_read_misses.load(), 3u);
  EXPECT_EQ(stats_.log_read_hits.load(), 1u);
  read(a, "A");  // still cached
  EXPECT_EQ(stats_.log_read_hits.load(), 2u);
  EXPECT_EQ(stats_.log_read_misses.load(), 3u);
  read(b, "B");  // was evicted
  EXPECT_EQ(stats_.log_read_misses.load(), 4u);
}

TEST_F(WalTest, FailedReadLeavesCursorInvalidAndNextReadClean) {
  auto lm = wal::Wal::Create(path_, nullptr, &stats_);
  ASSERT_TRUE(lm.ok());
  LogRecord upd;
  upd.type = LogType::kUpdate;
  upd.txn_id = 5;
  upd.prev_lsn = 100;
  upd.prev_page_lsn = 90;
  upd.prev_fpi_lsn = 80;
  upd.page_id = 6;
  upd.tree_id = 7;
  upd.slot = 8;
  upd.image = "old row";
  upd.image2 = "new row";
  Lsn u = (*lm)->Append(upd);
  // Overwritten below with a record that checksums clean but does not
  // parse: a decode that fails after it started filling the record.
  Lsn x = (*lm)->Append(MakeInsert(1, 2, 0, "abcdef"));
  LogRecord del;
  del.type = LogType::kDelete;
  del.txn_id = 9;
  del.page_id = 10;
  del.tree_id = 11;
  del.slot = 12;
  del.image = "gone";
  Lsn d = (*lm)->Append(del);
  ASSERT_TRUE((*lm)->FlushAll().ok());
  {
    std::string bad;
    MakeInsert(1, 2, 0, "abcdef").EncodeTo(&bad);
    bad[8] = static_cast<char>(LogType::kUpdate);  // no image2 follows
    const uint32_t sum = Checksum32(bad.data() + 8, bad.size() - 8);
    memcpy(bad.data() + 4, &sum, 4);
    int fd = ::open(path_.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::pwrite(fd, bad.data(), bad.size(), static_cast<off_t>(x)),
              static_cast<ssize_t>(bad.size()));
    ::close(fd);
  }
  (*lm)->DropCache();

  wal::Cursor cur = (*lm)->OpenCursor();
  ASSERT_TRUE(cur.SeekTo(u).ok());
  ASSERT_TRUE(cur.Valid());
  ExpectSameRecord(cur.record(), upd);
  EXPECT_TRUE(cur.SeekTo(x).IsCorruption());
  EXPECT_FALSE(cur.Valid());
  EXPECT_TRUE(cur.SeekTo(u + 1).IsCorruption());  // mid-record
  EXPECT_FALSE(cur.Valid());
  ASSERT_TRUE(cur.SeekTo(d).ok());
  ASSERT_TRUE(cur.Valid());
  EXPECT_EQ(cur.lsn(), d);
  ExpectSameRecord(cur.record(), del);
  EXPECT_TRUE(cur.record().image2.empty());
}

}  // namespace
}  // namespace rewinddb
