// Transaction log record format.
//
// RewindDB logs in the ARIES style (one log record per page
// modification) with the paper's extensions baked in:
//
//  * every record carries `prev_page_lsn`, the backward per-page chain
//    that PreparePageAsOf walks (section 4.1B);
//  * every record carries `prev_fpi_lsn`, pointing at the most recent
//    full-page-image record for the page, so the rewinder can skip log
//    regions (section 6.1);
//  * DELETE records always carry the deleted row image -- including
//    deletes that are one half of a B-tree structure-modification move
//    (section 4.2(3));
//  * CLRs carry full undo information, not just redo (section 4.2(2));
//  * PREFORMAT records store a complete page image. They are emitted at
//    page re-allocation to splice the page's old and new chains
//    together (section 4.2(1)) and, optionally, after every Nth
//    modification (section 6.1). In both uses the record means "the
//    page content at this LSN is exactly `image`".
#ifndef REWINDDB_LOG_LOG_RECORD_H_
#define REWINDDB_LOG_LOG_RECORD_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/types.h"

namespace rewinddb {

enum class LogType : uint8_t {
  kInvalid = 0,
  // Transaction control.
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  // Row operations (page + slot physical info, tree id for logical undo;
  // the row image payload is both redo and undo information).
  kInsert = 4,
  kDelete = 5,
  kUpdate = 6,
  // Compensation log record written during rollback; carries the same
  // payload as the row operation it performs plus undo_next_lsn.
  kClr = 7,
  // Page lifecycle.
  kFormat = 8,
  kPreformat = 9,
  // Allocation map bit change.
  kAllocBits = 10,
  // B-tree leaf chain maintenance.
  kSetSibling = 11,
  // Checkpoints (carry wall-clock time for SplitLSN search).
  kCheckpointBegin = 12,
  kCheckpointEnd = 13,
  // Delta form of kPreformat: `image` holds an EncodePageDelta patch
  // against the page image at prev_fpi_lsn (itself possibly another
  // delta; chains terminate at a kPreformat). Like the periodic
  // kPreformat it is emitted outside any transaction and changes no
  // page content -- redo and undo treat it as a content no-op -- but
  // FPI-jump readers materialize "the page content at this LSN" by
  // composing the chain oldest-first.
  kFpiDelta = 14,
};

const char* LogTypeName(LogType t);

/// Active-transaction-table entry serialized into kCheckpointEnd.
struct AttEntry {
  TxnId txn_id;
  Lsn last_lsn;
};

/// Dirty-page-table entry serialized into kCheckpointEnd.
struct DptEntry {
  PageId page_id;
  Lsn rec_lsn;
};

/// In-memory form of a log record. One struct covers all types; unused
/// fields stay at their defaults and are not serialized.
struct LogRecord {
  LogType type = LogType::kInvalid;
  /// For kClr: the row operation the CLR performs.
  LogType clr_op = LogType::kInvalid;

  /// True if the record belongs to a system transaction (B-tree SMO or
  /// allocation). System-transaction records are undone physically;
  /// user records logically (rows move under committed SMOs).
  bool is_system = false;

  TxnId txn_id = kInvalidTxnId;
  Lsn prev_lsn = kInvalidLsn;        // per-transaction backward chain
  Lsn prev_page_lsn = kInvalidLsn;   // per-page backward chain
  Lsn prev_fpi_lsn = kInvalidLsn;    // most recent FPI for this page
  PageId page_id = kInvalidPageId;
  TreeId tree_id = kInvalidPageId;
  uint16_t slot = 0;

  /// kInsert/kDelete: the row entry bytes. kUpdate: the OLD entry.
  /// kPreformat: the full page image. kClr: per clr_op, with the same
  /// before/after convention as the op it performs -- a CLR update
  /// carries the entry it overwrites here and the restored entry in
  /// image2, so redo writes image2 and a rewind through it writes image.
  std::string image;
  /// kUpdate (and kClr of kUpdate): the NEW entry bytes.
  std::string image2;

  /// kCommit / kCheckpoint*: wall-clock microseconds.
  WallClock wall_clock = 0;
  /// kClr: next record of this transaction to undo.
  Lsn undo_next_lsn = kInvalidLsn;

  // kFormat payload.
  uint8_t fmt_type = 0;   // PageType
  uint8_t fmt_level = 0;

  // kAllocBits payload: bit index plus new/old values of both bits.
  uint32_t alloc_bit = 0;
  bool alloc_new = false;
  bool ever_new = false;
  bool alloc_old = false;
  bool ever_old = false;

  // kSetSibling payload.
  PageId sibling_new = kInvalidPageId;
  PageId sibling_old = kInvalidPageId;

  // kCheckpointEnd payload.
  std::vector<AttEntry> att;
  std::vector<DptEntry> dpt;

  /// Serialize (with length header and checksum) and append to `dst`.
  void EncodeTo(std::string* dst) const;

  /// Size EncodeTo would append.
  size_t EncodedSize() const;

  /// Decode one record from the start of `data`. On success sets
  /// `*consumed` to the record's total encoded length.
  static Result<LogRecord> Decode(Slice data, size_t* consumed);

  /// Decode one record from the start of `data` into `*out`, reusing
  /// its string and vector capacity: a chain walk that decodes every
  /// step into the same record allocates nothing once the buffers have
  /// grown. On success every field of `*out` is the decoded record's
  /// (nothing survives from the previous decode) and `*consumed` is its
  /// encoded length. A length or checksum failure leaves `*out`
  /// untouched; a record that checksums clean but does not parse
  /// leaves it unspecified.
  static Status DecodeInto(Slice data, size_t* consumed, LogRecord* out);

  /// Total length of the record starting at `data` (from the length
  /// header alone); 0 if data is too short to tell.
  static uint32_t PeekLength(Slice data);

  /// True for record types that modify a page (and therefore
  /// participate in per-page chains and physical undo).
  bool IsPageRecord() const;

  std::string DebugString() const;
};

/// Minimum prefix needed to learn a record's length.
inline constexpr size_t kLogLengthPrefix = 4;

}  // namespace rewinddb

#endif  // REWINDDB_LOG_LOG_RECORD_H_
