// On-page layout shared by every RewindDB page.
//
// The header carries exactly what the paper's page-oriented undo needs:
// `page_lsn` (the last log record that modified the page, section 2.1)
// which anchors the backward walk of PreparePageAsOf, and
// `last_fpi_lsn`, RewindDB's hint to the most recent full-page-image
// (preformat) record so the rewinder can skip log regions (section 6.1).
#ifndef REWINDDB_PAGE_PAGE_H_
#define REWINDDB_PAGE_PAGE_H_

#include <cstdint>
#include <cstring>

#include "common/types.h"

namespace rewinddb {

enum class PageType : uint8_t {
  kFree = 0,
  kSuper = 1,       // page 0: boot page / master record
  kAllocMap = 2,    // allocation bitmap (allocated + ever-allocated bits)
  kBtreeLeaf = 3,
  kBtreeInternal = 4,
};

/// Fixed header at offset 0 of every page. Plain bytes, little-endian,
/// accessed through the helpers below so the layout stays explicit.
struct PageHeader {
  Lsn page_lsn;        // 0  : LSN of the last record that modified the page
  Lsn last_fpi_lsn;    // 8  : most recent full-page-image record (or 0)
  PageId page_id;      // 16
  PageType type;       // 20
  uint8_t level;       // 21 : B-tree level, 0 = leaf
  uint16_t slot_count; // 22
  uint16_t heap_top;   // 24 : offset of first free byte after record heap
  uint16_t frag_bytes; // 26 : reclaimable bytes inside the heap
  PageId right_sibling;// 28 : next leaf in key order (B-tree leaves)
  TreeId tree_id;      // 32 : owning tree (root page id)
  uint32_t checksum;   // 36 : torn-write detection, set at flush
  uint16_t mod_count;  // 40 : modifications since the last full page
                       //      image; drives the every-Nth FPI emission
                       //      of section 6.1
  uint16_t reserved16; // 42
  uint32_t reserved32; // 44 : pads the header to an 8-byte multiple
};
static_assert(sizeof(PageHeader) == 48, "page header layout is part of the format");

inline constexpr size_t kPageHeaderSize = sizeof(PageHeader);

inline PageHeader* Header(char* page) {
  return reinterpret_cast<PageHeader*>(page);
}
inline const PageHeader* Header(const char* page) {
  return reinterpret_cast<const PageHeader*>(page);
}

inline Lsn PageLsn(const char* page) { return Header(page)->page_lsn; }
inline void SetPageLsn(char* page, Lsn lsn) { Header(page)->page_lsn = lsn; }

/// Compute the page checksum: a word-parallel FNV-style hash of the
/// whole page with the checksum field read as zero (page.cc).
uint32_t ComputePageChecksum(const char* page);

/// Stamp the checksum field (done by the buffer manager before a flush).
void StampPageChecksum(char* page);

/// Verify a page read from disk. Pages written before any checksum was
/// stamped (all-zero field) are accepted, and so are pages stamped with
/// the byte-serial FNV-1a checksum of earlier builds, which is tried
/// only after the current checksum mismatches.
bool VerifyPageChecksum(const char* page);

}  // namespace rewinddb

#endif  // REWINDDB_PAGE_PAGE_H_
