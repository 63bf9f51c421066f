#include "snapshot/page_rewinder.h"

#include <cstring>

#include "engine/redo_undo.h"

namespace rewinddb {

Status PageRewinder::PreparePageAsOf(char* page, Lsn as_of_lsn,
                                     Lsn* valid_until) {
  Lsn curr = PageLsn(page);
  if (curr > as_of_lsn) pages_rewound_++;
  // The LSN of the earliest chain element processed so far: once the
  // walk stops, it is the next modification after the final image.
  Lsn boundary = kInvalidLsn;
  wal::Cursor cur = wal_->OpenCursor();
  // A hot page's chain descends the log densely: let misses read
  // growing backward extents, never below the target's block.
  cur.EnableBackwardExtents(as_of_lsn);
  // A generous bound: a page cannot have more live chain entries than
  // bytes of log; this guards against chain corruption loops.
  for (uint64_t steps = 0; curr > as_of_lsn; steps++) {
    if (steps > (1ULL << 32)) {
      return Status::Corruption("page chain walk did not terminate");
    }
    REWIND_RETURN_IF_ERROR(cur.SeekToChain(curr));
    const LogRecord& rec = cur.record();
    if (rec.page_id != Header(page)->page_id &&
        Header(page)->page_id != kInvalidPageId) {
      return Status::Corruption("page chain crossed pages: expected " +
                                std::to_string(Header(page)->page_id) +
                                " found " + std::to_string(rec.page_id));
    }
    // Skip optimization (section 6.1): if this record knows of a full
    // page image at or after the target, apply the image directly and
    // continue from before it -- every modification between the image
    // and `curr` is skipped in one step.
    if (rec.prev_fpi_lsn != kInvalidLsn && rec.prev_fpi_lsn >= as_of_lsn &&
        rec.prev_fpi_lsn < curr) {
      REWIND_RETURN_IF_ERROR(cur.FollowPrevFpi());
      const LogRecord& fpi = cur.record();
      if (fpi.type != LogType::kPreformat &&
          fpi.type != LogType::kFpiDelta) {
        return Status::Corruption("fpi chain does not point at an image");
      }
      // A kFpiDelta stands for the same full image, delta-encoded
      // against older FPIs; MaterializeFpiImage composes the chain.
      std::string img;
      REWIND_RETURN_IF_ERROR(wal::MaterializeFpiImage(cur, &img));
      memcpy(page, img.data(), kPageSize);
      SetPageLsn(page, fpi.prev_page_lsn);
      Header(page)->last_fpi_lsn = fpi.prev_fpi_lsn;
      // The preformat record is the page's next modification after the
      // image it carries.
      boundary = cur.lsn();
      curr = fpi.prev_page_lsn;
      fpi_jumps_++;
      continue;
    }
    REWIND_RETURN_IF_ERROR(ApplyUndo(page, rec));
    boundary = curr;
    curr = rec.prev_page_lsn;
    records_undone_++;
  }
  if (valid_until != nullptr) *valid_until = boundary;
  return Status::OK();
}

}  // namespace rewinddb
