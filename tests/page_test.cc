// Unit and property tests for slotted pages and allocation map pages.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "page/alloc_page.h"
#include "page/page.h"
#include "page/slotted_page.h"

namespace rewinddb {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SlottedPage::Init(page_, 17, PageType::kBtreeLeaf, 0, 99);
  }
  char page_[kPageSize];
};

TEST_F(SlottedPageTest, InitSetsHeader) {
  const PageHeader* h = Header(page_);
  EXPECT_EQ(h->page_id, 17u);
  EXPECT_EQ(h->type, PageType::kBtreeLeaf);
  EXPECT_EQ(h->tree_id, 99u);
  EXPECT_EQ(h->slot_count, 0);
  EXPECT_EQ(h->page_lsn, kInvalidLsn);
  EXPECT_EQ(h->right_sibling, kInvalidPageId);
}

TEST_F(SlottedPageTest, InsertAndRead) {
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, "hello").ok());
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 1, "world").ok());
  EXPECT_EQ(SlottedPage::SlotCount(page_), 2);
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "hello");
  EXPECT_EQ(SlottedPage::Record(page_, 1).ToString(), "world");
}

TEST_F(SlottedPageTest, InsertInMiddleShiftsSlots) {
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, "a").ok());
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 1, "c").ok());
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 1, "b").ok());
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "a");
  EXPECT_EQ(SlottedPage::Record(page_, 1).ToString(), "b");
  EXPECT_EQ(SlottedPage::Record(page_, 2).ToString(), "c");
}

TEST_F(SlottedPageTest, RemoveShiftsSlots) {
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        SlottedPage::InsertAt(page_, i, std::string(1, char('a' + i))).ok());
  }
  ASSERT_TRUE(SlottedPage::RemoveAt(page_, 1).ok());
  EXPECT_EQ(SlottedPage::SlotCount(page_), 3);
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "a");
  EXPECT_EQ(SlottedPage::Record(page_, 1).ToString(), "c");
  EXPECT_EQ(SlottedPage::Record(page_, 2).ToString(), "d");
}

TEST_F(SlottedPageTest, RemoveOutOfRangeFails) {
  EXPECT_TRUE(SlottedPage::RemoveAt(page_, 0).IsCorruption());
}

TEST_F(SlottedPageTest, ReplaceSameSizeInPlace) {
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, "aaaa").ok());
  ASSERT_TRUE(SlottedPage::ReplaceAt(page_, 0, "bbbb").ok());
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "bbbb");
}

TEST_F(SlottedPageTest, ReplaceGrowRelocates) {
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, "aa").ok());
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 1, "zz").ok());
  ASSERT_TRUE(SlottedPage::ReplaceAt(page_, 0, "a longer record").ok());
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "a longer record");
  EXPECT_EQ(SlottedPage::Record(page_, 1).ToString(), "zz");
}

TEST_F(SlottedPageTest, ReplaceShrinkAccountsFragmentation) {
  ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, "0123456789").ok());
  size_t before = SlottedPage::FreeSpace(page_);
  ASSERT_TRUE(SlottedPage::ReplaceAt(page_, 0, "01").ok());
  EXPECT_EQ(SlottedPage::Record(page_, 0).ToString(), "01");
  // Shrinking does not move the heap top but records frag bytes, which
  // compaction later reclaims.
  EXPECT_EQ(SlottedPage::FreeSpace(page_), before);
  EXPECT_EQ(Header(page_)->frag_bytes, 8);
}

TEST_F(SlottedPageTest, FillUntilFullThenCompactionReclaims) {
  std::string rec(100, 'x');
  int inserted = 0;
  while (SlottedPage::HasRoomFor(page_, rec.size())) {
    ASSERT_TRUE(SlottedPage::InsertAt(page_, inserted, rec).ok());
    inserted++;
  }
  EXPECT_GT(inserted, 70);  // ~8K / 104
  // Delete every other record, then keep inserting: compaction must
  // make the freed space usable again.
  int removed = 0;
  for (int i = inserted - 1; i >= 0; i -= 2) {
    ASSERT_TRUE(SlottedPage::RemoveAt(page_, i).ok());
    removed++;
  }
  int reinserted = 0;
  while (SlottedPage::HasRoomFor(page_, rec.size())) {
    ASSERT_TRUE(SlottedPage::InsertAt(page_, 0, rec).ok());
    reinserted++;
  }
  EXPECT_GE(reinserted, removed - 1);
}

TEST_F(SlottedPageTest, EntryCodec) {
  std::string e = SlottedPage::MakeEntry("key1", "value1");
  EXPECT_EQ(SlottedPage::EntryKey(e).ToString(), "key1");
  EXPECT_EQ(SlottedPage::EntryValue(e).ToString(), "value1");
}

TEST_F(SlottedPageTest, LowerBoundFindsInsertPosition) {
  auto put = [&](const std::string& k, int at) {
    ASSERT_TRUE(
        SlottedPage::InsertAt(page_, at, SlottedPage::MakeEntry(k, "v")).ok());
  };
  put("bb", 0);
  put("dd", 1);
  put("ff", 2);
  bool found;
  EXPECT_EQ(SlottedPage::LowerBound(page_, "aa", &found), 0);
  EXPECT_FALSE(found);
  EXPECT_EQ(SlottedPage::LowerBound(page_, "bb", &found), 0);
  EXPECT_TRUE(found);
  EXPECT_EQ(SlottedPage::LowerBound(page_, "cc", &found), 1);
  EXPECT_FALSE(found);
  EXPECT_EQ(SlottedPage::LowerBound(page_, "ff", &found), 2);
  EXPECT_TRUE(found);
  EXPECT_EQ(SlottedPage::LowerBound(page_, "zz", &found), 3);
  EXPECT_FALSE(found);
}

// Property test: random op sequence against a std::vector shadow model.
TEST(SlottedPagePropertyTest, MatchesShadowModelUnderRandomOps) {
  Random rnd(1234);
  for (int round = 0; round < 20; round++) {
    char page[kPageSize];
    SlottedPage::Init(page, 1, PageType::kBtreeLeaf, 0, 1);
    std::vector<std::string> shadow;
    for (int op = 0; op < 500; op++) {
      int action = static_cast<int>(rnd.Uniform(3));
      if (action == 0 || shadow.empty()) {
        std::string rec = rnd.AlphaString(1, 60);
        if (!SlottedPage::HasRoomFor(page, rec.size())) continue;
        uint16_t at = static_cast<uint16_t>(rnd.Uniform(shadow.size() + 1));
        ASSERT_TRUE(SlottedPage::InsertAt(page, at, rec).ok());
        shadow.insert(shadow.begin() + at, rec);
      } else if (action == 1) {
        uint16_t at = static_cast<uint16_t>(rnd.Uniform(shadow.size()));
        ASSERT_TRUE(SlottedPage::RemoveAt(page, at).ok());
        shadow.erase(shadow.begin() + at);
      } else {
        uint16_t at = static_cast<uint16_t>(rnd.Uniform(shadow.size()));
        std::string rec = rnd.AlphaString(1, 60);
        size_t old_len = shadow[at].size();
        if (rec.size() > old_len &&
            !SlottedPage::HasRoomFor(page, rec.size())) {
          continue;
        }
        ASSERT_TRUE(SlottedPage::ReplaceAt(page, at, rec).ok());
        shadow[at] = rec;
      }
      ASSERT_EQ(SlottedPage::SlotCount(page), shadow.size());
    }
    for (size_t i = 0; i < shadow.size(); i++) {
      EXPECT_EQ(SlottedPage::Record(page, static_cast<uint16_t>(i)).ToString(),
                shadow[i]);
    }
  }
}

TEST(PageChecksumTest, StampAndVerify) {
  char page[kPageSize];
  SlottedPage::Init(page, 3, PageType::kBtreeLeaf, 0, 1);
  ASSERT_TRUE(SlottedPage::InsertAt(page, 0, "data").ok());
  StampPageChecksum(page);
  EXPECT_TRUE(VerifyPageChecksum(page));
  page[100] ^= 0x40;  // simulate a torn write / bit rot
  EXPECT_FALSE(VerifyPageChecksum(page));
}

TEST(PageChecksumTest, UnstampedPageAccepted) {
  char page[kPageSize];
  SlottedPage::Init(page, 3, PageType::kBtreeLeaf, 0, 1);
  EXPECT_TRUE(VerifyPageChecksum(page));
}

/// A leaf filled with `n` records whose bytes depend on `version`, so two
/// versions of the page differ in both halves.
void FillLeaf(char* page, int n, int version) {
  SlottedPage::Init(page, 7, PageType::kBtreeLeaf, 0, 1);
  for (int i = 0; i < n; i++) {
    std::string rec = std::to_string(version * 1000 + i);
    rec.append(40, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(SlottedPage::InsertAt(page, static_cast<uint16_t>(i), rec)
                    .ok());
  }
  SetPageLsn(page, 1000 + version);
}

TEST(PageChecksumTest, EverySingleBitFlipOutsideTheFieldFails) {
  char page[kPageSize];
  ASSERT_NO_FATAL_FAILURE(FillLeaf(page, 60, 1));
  StampPageChecksum(page);
  ASSERT_TRUE(VerifyPageChecksum(page));
  const size_t field = offsetof(PageHeader, checksum);
  size_t undetected = 0;
  size_t first_byte = 0;
  for (size_t i = 0; i < kPageSize; i++) {
    if (i >= field && i < field + sizeof(uint32_t)) continue;
    for (int bit = 0; bit < 8; bit++) {
      page[i] ^= static_cast<char>(1 << bit);
      if (VerifyPageChecksum(page)) {
        if (undetected++ == 0) first_byte = i;
      }
      page[i] ^= static_cast<char>(1 << bit);
    }
  }
  EXPECT_EQ(undetected, 0u) << "first undetected flip in byte " << first_byte;
  EXPECT_TRUE(VerifyPageChecksum(page));
}

TEST(PageChecksumTest, TornWriteFails) {
  // The lower 4 KiB reached the disk from the new image, the upper 4 KiB
  // is still the older image of the same page.
  char older[kPageSize];
  char newer[kPageSize];
  ASSERT_NO_FATAL_FAILURE(FillLeaf(older, 120, 1));
  ASSERT_NO_FATAL_FAILURE(FillLeaf(newer, 120, 2));
  StampPageChecksum(older);
  StampPageChecksum(newer);
  constexpr size_t kHalf = kPageSize / 2;
  ASSERT_NE(memcmp(older + kHalf, newer + kHalf, kHalf), 0);
  char torn[kPageSize];
  memcpy(torn, newer, kHalf);
  memcpy(torn + kHalf, older + kHalf, kHalf);
  EXPECT_FALSE(VerifyPageChecksum(torn));
}

/// The checksum builds before the word-parallel kernel stamped: FNV-1a
/// over the bytes before and after the checksum field.
uint32_t FnvPageChecksum(const char* page) {
  const size_t off = offsetof(PageHeader, checksum);
  uint32_t h = Checksum32(page, off);
  uint32_t h2 = Checksum32(page + off + 4, kPageSize - off - 4);
  return h ^ (h2 * 16777619u) ^ 0x5bd1e995u;
}

TEST(PageChecksumTest, FnvStampedPageStillVerifies) {
  char page[kPageSize];
  ASSERT_NO_FATAL_FAILURE(FillLeaf(page, 20, 1));
  Header(page)->checksum = FnvPageChecksum(page);
  ASSERT_NE(Header(page)->checksum, ComputePageChecksum(page));
  EXPECT_TRUE(VerifyPageChecksum(page));
  page[3000] ^= 0x08;
  EXPECT_FALSE(VerifyPageChecksum(page));
}

TEST(PageChecksumTest, KnownAnswerPinsTheOnDiskFunction) {
  // Changing these values changes what every data file holds: pages
  // stamped before the change would fail verification.
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; i++) {
    page[i] = static_cast<char>(i * 131 + 7);
  }
  EXPECT_EQ(ComputePageChecksum(page), 0x2db81234u);
  // The checksum field is read as zero.
  Header(page)->checksum = 0;
  EXPECT_EQ(ComputePageChecksum(page), 0x2db81234u);
  memset(page, 0, kPageSize);
  EXPECT_EQ(ComputePageChecksum(page), 0x02a367d5u);
}

// --------------------------- alloc map -------------------------------

TEST(AllocPageTest, GeometryMapsPagesToBits) {
  // Page 1 is the first map page and covers itself as bit 0.
  EXPECT_EQ(AllocMapPageFor(1), 1u);
  EXPECT_EQ(AllocBitFor(1), 0u);
  EXPECT_EQ(AllocMapPageFor(2), 1u);
  EXPECT_EQ(AllocBitFor(2), 1u);
  // Last page of the first interval.
  EXPECT_EQ(AllocMapPageFor(kPagesPerAllocMap), 1u);
  // First page of the second interval is the second map page.
  EXPECT_EQ(AllocMapPageFor(kPagesPerAllocMap + 1), kPagesPerAllocMap + 1);
  EXPECT_EQ(AllocBitFor(kPagesPerAllocMap + 1), 0u);
  // Inverse mapping.
  EXPECT_EQ(PageForAllocBit(1, 5), 6u);
  EXPECT_EQ(PageForAllocBit(kPagesPerAllocMap + 1, 3), kPagesPerAllocMap + 4);
}

TEST(AllocPageTest, InitMarksSelfAllocated) {
  char page[kPageSize];
  AllocPage::Init(page, 1);
  EXPECT_TRUE(AllocPage::IsAllocated(page, 0));
  EXPECT_TRUE(AllocPage::EverAllocated(page, 0));
  EXPECT_FALSE(AllocPage::IsAllocated(page, 1));
  EXPECT_EQ(AllocPage::CountAllocated(page), 1u);
}

TEST(AllocPageTest, SetBitsReturnsPrevious) {
  char page[kPageSize];
  AllocPage::Init(page, 1);
  bool pa, pe;
  AllocPage::SetBits(page, 5, true, true, &pa, &pe);
  EXPECT_FALSE(pa);
  EXPECT_FALSE(pe);
  EXPECT_TRUE(AllocPage::IsAllocated(page, 5));
  EXPECT_TRUE(AllocPage::EverAllocated(page, 5));
  // Deallocate: allocated clears, ever-allocated survives -- that is
  // precisely the paper's first-alloc vs re-alloc distinction.
  AllocPage::SetBits(page, 5, false, true, &pa, &pe);
  EXPECT_TRUE(pa);
  EXPECT_TRUE(pe);
  EXPECT_FALSE(AllocPage::IsAllocated(page, 5));
  EXPECT_TRUE(AllocPage::EverAllocated(page, 5));
}

TEST(AllocPageTest, FindFreeSkipsAllocated) {
  char page[kPageSize];
  AllocPage::Init(page, 1);
  bool pa, pe;
  AllocPage::SetBits(page, 1, true, true, &pa, &pe);
  AllocPage::SetBits(page, 2, true, true, &pa, &pe);
  EXPECT_EQ(AllocPage::FindFree(page, 0), 3u);
  EXPECT_EQ(AllocPage::FindFree(page, 3), 3u);
  EXPECT_EQ(AllocPage::FindFree(page, 4), 4u);
}

TEST(AllocPageTest, FindFreeExhausted) {
  char page[kPageSize];
  AllocPage::Init(page, 1);
  bool pa, pe;
  for (uint32_t i = 1; i < kPagesPerAllocMap; i++) {
    AllocPage::SetBits(page, i, true, true, &pa, &pe);
  }
  EXPECT_EQ(AllocPage::FindFree(page, 0), AllocPage::kNoFreeBit);
  EXPECT_EQ(AllocPage::CountAllocated(page), kPagesPerAllocMap);
}

}  // namespace
}  // namespace rewinddb
