// wal::Cursor -- the one record-level read API over the transaction
// log.
//
// Two access patterns, one handle:
//
//  * forward scans (recovery analysis/redo, SplitLSN search, flashback
//    victim location): SeekTo(from) then Next() until !Valid() or the
//    caller's bound; block prefetch keeps sequential reads one cache
//    miss per 32 KiB block, and record sizes come from the decode so
//    iteration never re-encodes (the seed's Scan re-encoded every
//    record just to find the next one);
//
//  * chain walks (rollback, page rewind, snapshot undo): SeekTo(head)
//    then FollowPrev()/FollowPrevPage()/FollowPrevFpi()/
//    FollowUndoNext(), which jump straight to the LSN the current
//    record names. A kInvalidLsn link ends the walk benignly
//    (Valid() false, OK status). A walk descending a dense chain can
//    ask for backward extents (EnableBackwardExtents), so its misses
//    read several blocks per device access.
//
// End-of-log and a torn tail end a forward scan benignly: Next()
// leaves the cursor invalid with OK status, mirroring how recovery
// treats a half-written final record. Random-access entry points
// (SeekTo, Follow*) surface corruption instead -- a broken chain is
// never benign.
//
// Tier transparency: LSNs below the active log's start_lsn resolve
// through the WAL archive tier (sealed segments holding the same bytes
// at the same offsets) when one is attached, so scans and chain walks
// cross the active/archive boundary without the cursor -- or any of its
// consumers -- knowing it exists. "Below the retention window" in the
// contracts below means below wal::Wal::oldest_lsn(), the oldest byte
// EITHER tier retains. A checksum-corrupt archived segment surfaces
// Status::Corruption from the read that touches it, never a silent
// short walk.
#ifndef REWINDDB_WAL_WAL_CURSOR_H_
#define REWINDDB_WAL_WAL_CURSOR_H_

#include <optional>

#include "common/result.h"
#include "common/types.h"
#include "log/log_record.h"

namespace rewinddb {

class LogManager;

namespace wal {

/// A chain walk's backward-extent window (Cursor::EnableBackwardExtents).
/// Every cursor owns its own, so concurrent walks never share one.
struct BackwardWindow {
  /// Lowest block an extent may reach: the block of the walk's target.
  uint64_t floor_block = 0;
  /// The walk's previous device read: its lowest block and its length
  /// in blocks (0 before the first miss).
  uint64_t low_block = 0;
  size_t blocks = 0;
};

class Cursor {
 public:
  /// True if the cursor is positioned on a decoded record.
  bool Valid() const { return valid_; }

  /// LSN of the current record. Undefined unless Valid().
  Lsn lsn() const { return lsn_; }

  /// The current record. Undefined unless Valid(): a failed or
  /// invalidating read may leave it partly overwritten, since every
  /// read decodes into this one record to reuse its buffers. The next
  /// successful read replaces every field.
  const LogRecord& record() const { return rec_; }

  /// LSN one past the current record (the next record's position in a
  /// forward scan; also the log-cut point after a boundary record).
  Lsn end_lsn() const { return lsn_ + size_; }

  /// Position on the record at `lsn` (forward-scan entry point).
  /// kInvalidLsn or at/past the log end: invalid, OK (benign end).
  /// Below the retention window: invalid, OutOfRange.
  /// Undecodable bytes: invalid, Corruption.
  Status SeekTo(Lsn lsn);

  /// Position on the head of a chain walk: kInvalidLsn is a benign
  /// (empty) chain, but any other `lsn` MUST resolve to a record --
  /// at/past the log end is Corruption, same as Follow* (a broken
  /// chain must never read as a completed walk).
  Status SeekToChain(Lsn lsn) { return Follow(lsn); }

  /// Advance to the next record in LSN order. At the log end or on a
  /// torn tail record the cursor becomes invalid with OK status.
  Status Next();

  // Chain navigation: jump to the LSN the current record names.
  // kInvalidLsn links invalidate benignly with OK status; any other
  // link that does not resolve to a record is Corruption (a broken
  // chain must never read as a completed walk).
  Status FollowPrev() { return Follow(rec_.prev_lsn); }
  Status FollowPrevPage() { return Follow(rec_.prev_page_lsn); }
  Status FollowPrevFpi() { return Follow(rec_.prev_fpi_lsn); }
  Status FollowUndoNext() { return Follow(rec_.undo_next_lsn); }

  /// Read backward extents on this cursor's chain-follow misses: a
  /// SeekToChain/Follow* that misses the log block cache in the block
  /// just below the cursor's previous miss reads a doubling extent of
  /// up to LogManager::kMaxBackwardExtentBlocks ending at the missed
  /// block, in one device access, never below the block holding
  /// `floor`. For a walk descending a dense chain toward a known target
  /// (the page rewinder). Archived and compressed-frame ranges, and
  /// forward scans, keep reading one block per miss.
  void EnableBackwardExtents(Lsn floor);

 private:
  friend class Wal;

  explicit Cursor(LogManager* core) : core_(core) {}

  Status Follow(Lsn lsn);
  /// Load the record at `lsn`; `benign_corruption` maps a decode
  /// failure to a quiet end-of-scan instead of an error. `window` (may
  /// be null) lets a miss read a backward extent.
  Status LoadAt(Lsn lsn, bool benign_corruption, BackwardWindow* window);

  LogManager* core_;
  bool valid_ = false;
  Lsn lsn_ = kInvalidLsn;
  size_t size_ = 0;
  LogRecord rec_;
  /// Present once EnableBackwardExtents was called.
  std::optional<BackwardWindow> window_;
};

/// Materialize the full page image the FPI record under `at` stands
/// for: a kPreformat's image directly, or a kFpiDelta's chain composed
/// by walking prev_fpi_lsn back to the terminating kPreformat base and
/// applying the deltas oldest-first. `at` must be Valid() and on a
/// kPreformat or kFpiDelta; the cursor itself is not moved (the walk
/// runs on a copy). Every failure mode -- missing base, over-long
/// chain, non-FPI link, malformed delta, wrong image size -- surfaces
/// Corruption: an FPI jump must never compose a wrong page silently.
Status MaterializeFpiImage(const Cursor& at, std::string* image);

}  // namespace wal
}  // namespace rewinddb

#endif  // REWINDDB_WAL_WAL_CURSOR_H_
