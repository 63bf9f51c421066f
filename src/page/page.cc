#include "page/page.h"

#include <array>
#include <cstddef>

#include "common/coding.h"

namespace rewinddb {

namespace {

// The page checksum runs kLanes independent 32-bit sums. Lane j reads
// words j, j + kLanes, j + 2*kLanes, ... of the page, so each row of
// kLanes words updates every lane once and no lane waits on another:
// the compiler keeps the lanes in vector registers, where one byte-serial
// FNV-1a chain issues a dependent multiply per byte. This is the layout
// of PostgreSQL's data-page checksum.
constexpr size_t kLanes = 32;
constexpr size_t kRowBytes = kLanes * sizeof(uint32_t);
constexpr size_t kRows = kPageSize / kRowBytes;
constexpr size_t kChecksumOffset = offsetof(PageHeader, checksum);
constexpr size_t kChecksumWord = kChecksumOffset / sizeof(uint32_t);
static_assert(kPageSize % kRowBytes == 0);
static_assert(kChecksumOffset % sizeof(uint32_t) == 0 &&
                  kChecksumWord < kLanes,
              "the checksum field is one word of the first row");

// Distinct per-lane seeds: with equal seeds, lanes fed equal words (an
// all-zero page) would cancel in the final XOR fold.
constexpr std::array<uint32_t, kLanes> kLaneSeeds = [] {
  std::array<uint32_t, kLanes> seeds{};
  uint32_t x = 2166136261u;  // FNV-1a offset basis
  for (uint32_t& seed : seeds) {
    x = (x ^ (x >> 15)) * 0x2c1b3c6du;
    x = (x ^ (x >> 12)) * 0x297a2d39u;
    x ^= x >> 15;
    seed = x;
  }
  return seeds;
}();

// One lane step: FNV-style xor-multiply, then an xorshift that carries
// high bits down. Both halves are bijective, so changing any one word
// of the page always changes the checksum.
inline uint32_t MixLane(uint32_t sum, uint32_t word) {
  uint32_t t = (sum ^ word) * 16777619u;
  return t ^ (t >> 17);
}

// The checksum every build before the word-parallel kernel stamped:
// FNV-1a over the bytes before and after the checksum field. Pages it
// stamped still verify.
uint32_t LegacyPageChecksum(const char* page) {
  uint32_t h = Checksum32(page, kChecksumOffset);
  uint32_t h2 = Checksum32(page + kChecksumOffset + 4,
                           kPageSize - kChecksumOffset - 4);
  return h ^ (h2 * 16777619u) ^ 0x5bd1e995u;
}

}  // namespace

uint32_t ComputePageChecksum(const char* page) {
  // Row 0 carries the checksum field, which is read as zero.
  uint32_t row[kLanes];
  memcpy(row, page, kRowBytes);
  row[kChecksumWord] = 0;
  uint32_t sums[kLanes];
  for (size_t j = 0; j < kLanes; j++) sums[j] = MixLane(kLaneSeeds[j], row[j]);
  for (size_t i = 1; i < kRows; i++) {
    const char* p = page + i * kRowBytes;
    for (size_t j = 0; j < kLanes; j++) {
      uint32_t word;
      memcpy(&word, p + j * sizeof(word), sizeof(word));
      sums[j] = MixLane(sums[j], word);
    }
  }
  // Two zero rounds spread each lane's last words over all its bits
  // before the lanes are folded together.
  uint32_t out = 0;
  for (size_t j = 0; j < kLanes; j++) out ^= MixLane(MixLane(sums[j], 0), 0);
  return out;
}

void StampPageChecksum(char* page) {
  Header(page)->checksum = ComputePageChecksum(page);
}

bool VerifyPageChecksum(const char* page) {
  uint32_t stored = Header(page)->checksum;
  if (stored == 0) return true;  // never stamped
  return stored == ComputePageChecksum(page) ||
         stored == LegacyPageChecksum(page);
}

}  // namespace rewinddb
