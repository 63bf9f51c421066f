// WAL archive tier: sealed, checksummed segments of old log.
//
// The paper's premise is that the transaction log IS the version store,
// which only stays viable in production if the log can be retained for
// the whole AS OF window without growing the ACTIVE log unboundedly.
// The archive tier is how the two are decoupled (the same split Sauer &
// Haerder's REDO-only recovery design makes, see PAPERS.md): retention
// enforcement first copies old log bytes into immutable archive
// segments, then truncates the active log, so crash recovery scans stay
// short while point-in-time reads keep the full horizon.
//
// Addressing: LSNs are byte offsets into one conceptual, append-only
// log. A segment holds the verbatim log bytes of the half-open range
// [first_lsn, last_lsn) at their original offsets, so serving a read is
// pure address arithmetic and the record encoding never changes across
// the tier boundary. wal::Cursor consumers (PageRewinder, flashback,
// recovery analysis, AsOfSnapshot mounts) therefore work unmodified on
// archived history -- LogManager transparently falls back to the
// archive for LSNs below the active log's start.
//
// Invariants:
//  * segments are record-aligned: first_lsn and last_lsn are record
//    boundaries (the sealer chunks with a cursor), so a forward scan
//    may start at any segment's first_lsn;
//  * retained segments are contiguous: Seal() only appends at the high
//    water mark and DropBefore() only removes a prefix, so the index is
//    a single run [oldest_lsn, high_water);
//  * sealed bytes are immutable: every segment carries a checksum of
//    its payload, verified on the first read after (re)open; a mismatch
//    surfaces Status::Corruption -- never a silent short walk.
//
// Thread safety: all public methods are safe for concurrent use. One
// internal mutex guards the index; payload IO runs outside it. The
// mutex is a leaf in the engine's lock hierarchy (no other lock is ever
// taken while holding it).
#ifndef REWINDDB_WAL_ARCHIVE_H_
#define REWINDDB_WAL_ARCHIVE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/types.h"
#include "io/disk_model.h"
#include "io/io_stats.h"
#include "log/log_manager.h"

namespace rewinddb {
namespace wal {

/// Filesystem layout policy: how segment ranges map to file names.
/// Pluggable so deployments can adopt their own naming (e.g. sharding
/// archive files across directories by LSN prefix) without touching the
/// manager; the default flat layout keeps one directory of
/// `seg-<first>-<last>.rwarc` files with zero-padded hex bounds, which
/// sort lexicographically in LSN order for operators and for Open().
struct ArchiveLayout {
  virtual ~ArchiveLayout() = default;
  /// Relative file name for the segment [first_lsn, last_lsn).
  virtual std::string SegmentFileName(Lsn first_lsn, Lsn last_lsn) const;
  /// Parse a file name produced by SegmentFileName; false if `name` is
  /// not a segment of this layout (such files are ignored on Open).
  virtual bool ParseSegmentFileName(const std::string& name, Lsn* first_lsn,
                                    Lsn* last_lsn) const;
};

struct ArchiveOptions {
  /// Target payload bytes per sealed segment. The sealer cuts at the
  /// last record boundary at or below this size (a single record larger
  /// than the target becomes its own oversized segment).
  uint64_t segment_bytes = 4ull << 20;
  /// Layout policy; nullptr selects the default flat layout.
  const ArchiveLayout* layout = nullptr;
};

/// Effectiveness/consistency counters (steady-state evidence for the
/// operations runbook and the fig5 space split).
struct ArchiveStats {
  uint64_t segments_sealed = 0;
  uint64_t segments_dropped = 0;
  uint64_t bytes_sealed = 0;
  uint64_t bytes_dropped = 0;
  /// Bytes served to readers out of archived segments.
  uint64_t bytes_read = 0;
  /// Segment checksum verifications performed (first read per segment
  /// per process lifetime).
  uint64_t verifications = 0;
};

/// Owns one archive directory of sealed log segments.
class ArchiveManager {
 public:
  /// Open (creating the directory if needed) an archive at `dir`.
  /// Scans for segment files, validates their headers against their
  /// names, and indexes the newest contiguous run; stray or
  /// non-contiguous leftovers are ignored (never deleted). `disk` and
  /// `stats` may be null; when set, payload IO is charged to them like
  /// log IO.
  static Result<std::unique_ptr<ArchiveManager>> Open(
      const std::string& dir, DiskModel* disk, IoStats* stats,
      ArchiveOptions opts = ArchiveOptions());

  ~ArchiveManager() = default;
  ArchiveManager(const ArchiveManager&) = delete;
  ArchiveManager& operator=(const ArchiveManager&) = delete;

  /// Seal `payload` (the verbatim PHYSICAL log bytes of [first_lsn,
  /// first_lsn + payload.size()), compression frames included and
  /// frame gaps zeroed) as one segment, with `checkpoints` (the
  /// checkpoint-directory entries whose begin LSN falls inside the
  /// range) and `frames` (the compression frames the range contains,
  /// wholly inside it -- the sealer never cuts mid-frame) persisted in
  /// a checksummed footer so Open() recovers both directories without
  /// decoding archived history. Frame gaps are not written (sparse
  /// file), so sealed segments inherit the active log's disk savings;
  /// the payload checksum still covers the full zero-filled image.
  /// Must append at the high water mark: `first_lsn` == high_water()
  /// (any value when the archive is empty). Written to a temp file,
  /// fsynced, renamed, then the DIRECTORY is fsynced: once Seal
  /// returns, the segment survives power loss -- the guarantee
  /// Wal::TruncateBefore's hole-punch relies on.
  Status Seal(Lsn first_lsn, Slice payload,
              const std::vector<CheckpointRef>& checkpoints = {},
              const std::vector<LogFrame>& frames = {});

  /// Copy archived bytes of [lsn, lsn + n) into `dst`, crossing segment
  /// boundaries as needed. The whole range must be covered (callers
  /// clamp with oldest_lsn()/high_water() first). The first read
  /// touching a segment verifies its payload checksum; Corruption if it
  /// does not match (a damaged archive must never read as a shorter
  /// history).
  Status ReadBytes(Lsn lsn, size_t n, char* dst);

  /// Delete segments wholly below `lsn` (archive retention). Segments
  /// straddling `lsn` are kept whole.
  Status DropBefore(Lsn lsn);

  /// True if [lsn, lsn+1) lies inside the retained contiguous run.
  bool Covers(Lsn lsn) const;

  /// Oldest archived byte; kInvalidLsn when empty.
  Lsn oldest_lsn() const;
  /// One past the newest archived byte; kInvalidLsn when empty.
  Lsn high_water() const;

  /// Total payload bytes retained (the "archived" half of the fig5
  /// space split).
  uint64_t archived_bytes() const;
  size_t segment_count() const;
  ArchiveStats stats() const;
  const std::string& dir() const { return dir_; }

  /// Checkpoint refs recovered from segment footers at Open
  /// (ascending; wal::Wal splices them into the log's checkpoint
  /// directory). A static snapshot of open time -- later pruning goes
  /// through the log's directory, not this copy.
  const std::vector<CheckpointRef>& recovered_checkpoints() const {
    return recovered_checkpoints_;
  }

  /// Compression frames recovered from segment footers at Open
  /// (ascending; wal::Wal splices them into the log's frame directory
  /// so archived compressed history stays readable after a restart).
  const std::vector<LogFrame>& recovered_frames() const {
    return recovered_frames_;
  }

  uint64_t segment_bytes() const { return opts_.segment_bytes; }

 private:
  struct Segment {
    Lsn first_lsn;
    Lsn last_lsn;
    std::string path;
    /// Payload checksum verified this process lifetime (lazily, on the
    /// first read that touches the segment).
    bool verified = false;
  };

  ArchiveManager(std::string dir, DiskModel* disk, IoStats* stats,
                 ArchiveOptions opts);

  /// Read + checksum the whole payload of `seg` (under no lock; the
  /// caller re-checks the index afterwards).
  Status VerifySegment(const Segment& seg);

  const std::string dir_;
  DiskModel* disk_;
  IoStats* stats_;
  const ArchiveOptions opts_;
  const ArchiveLayout* layout_;  // opts_.layout or the default
  ArchiveLayout default_layout_;

  mutable std::mutex mu_;  // leaf lock: guards segments_ + counters
  std::vector<Segment> segments_;  // ascending, contiguous
  std::vector<CheckpointRef> recovered_checkpoints_;  // set once, at Open
  std::vector<LogFrame> recovered_frames_;            // set once, at Open

  std::atomic<uint64_t> segments_sealed_{0};
  std::atomic<uint64_t> segments_dropped_{0};
  std::atomic<uint64_t> bytes_sealed_{0};
  std::atomic<uint64_t> bytes_dropped_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> verifications_{0};
};

}  // namespace wal
}  // namespace rewinddb

#endif  // REWINDDB_WAL_ARCHIVE_H_
