// Log block/file/cache core underneath the wal:: surface.
//
// LSNs are byte offsets into the log file, so fetching a record during
// page rewind is one positioned read; a log-block cache absorbs
// re-reads, and every cache miss is charged to the disk model -- the
// paper's "each log IO is a potential stall" (section 6.2) and the
// quantity figure 11 estimates.
//
// With an attached wal::ArchiveManager the same address space spans two
// tiers: bytes at or above start_lsn live in the active file, bytes
// below it in sealed archive segments holding the verbatim log bytes at
// their original offsets. Block fetches compose the two transparently,
// so every cursor consumer reads across the boundary unmodified.
//
// This class is NOT an application surface. Writers publish through
// wal::Writer / wal::Wal (which owns the group-commit pipeline) and
// readers iterate with wal::Cursor; record-level reads are private and
// friended to the wal layer so no consumer can grow a bespoke
// chain-walk or scan loop against the core again.
#ifndef REWINDDB_LOG_LOG_MANAGER_H_
#define REWINDDB_LOG_LOG_MANAGER_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/types.h"
#include "io/disk_model.h"
#include "log/log_record.h"

namespace rewinddb {

namespace wal {
class ArchiveManager;
struct BackwardWindow;
class Cursor;
class Wal;
}  // namespace wal

// CheckpointRef (the checkpoint-directory entry) lives in
// common/types.h so the archive tier can persist it per segment.

/// Tuning knobs for the log core.
struct LogManagerOptions {
  /// Log-block cache capacity in 32 KiB blocks (0 disables caching --
  /// useful to magnify stalls in experiments). With the cache disabled
  /// every read goes straight to the file and nothing is retained.
  size_t cache_blocks = 256;
  /// Tail size at which appends ask for a flush (backpressure).
  size_t max_tail_bytes = 4 << 20;
  /// Compress flush batches into frames (see LogFrame). Write-side
  /// only: readers handle framed logs unconditionally, so a log
  /// written with compression on reopens fine with it off and vice
  /// versa.
  bool compression = false;
};

/// One compressed frame in the active log. The LOGICAL byte range
/// [lsn, lsn + ulen) still addresses the uncompressed record bytes --
/// LSNs stay byte offsets into the conceptual uncompressed log -- but
/// the file stores only [lsn, lsn + kFrameHeaderSize + clen): a
/// self-describing header plus the compressed payload. The rest of
/// the logical range is never written (a filesystem hole), which is
/// where the disk saving comes from. Frames start and end on record
/// boundaries.
struct LogFrame {
  Lsn lsn = kInvalidLsn;
  uint32_t ulen = 0;  // logical (uncompressed) length
  uint32_t clen = 0;  // compressed payload length on disk
};

/// Counters for the flush pipeline (evidence for the fig6 bench JSON).
struct LogFlushStats {
  /// Flush batches written -- one pwrite + one fdatasync pair each, so
  /// this is also the fsync count.
  uint64_t fsyncs = 0;
  /// Total bytes across all batches.
  uint64_t batch_bytes = 0;
  /// Largest single batch.
  uint64_t max_batch_bytes = 0;
  /// Compression-frame evidence (zero with compression off): logical
  /// bytes framed vs physical bytes (header + payload) written for
  /// them. logical/physical is the live compression ratio.
  uint64_t frames_written = 0;
  uint64_t frame_logical_bytes = 0;
  uint64_t frame_physical_bytes = 0;
};

class LogManager {
 public:
  using Options = LogManagerOptions;

  ~LogManager();
  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Create a fresh log at `path`.
  static Result<std::unique_ptr<LogManager>> Create(const std::string& path,
                                                    DiskModel* disk,
                                                    IoStats* stats,
                                                    Options opts = Options());

  /// Open an existing log: scans to the end to find next_lsn and
  /// rebuilds the checkpoint and frame directories. The scan reads the
  /// active file in kOpenScanChunkBytes sequential chunks and refills
  /// only when a frame or record straddles a chunk's end; it decodes
  /// every record into one reused LogRecord.
  static Result<std::unique_ptr<LogManager>> Open(const std::string& path,
                                                  DiskModel* disk,
                                                  IoStats* stats,
                                                  Options opts = Options());

  /// Append `rec`; returns its LSN. Does not flush; `*need_flush` (if
  /// non-null) is set when the tail has crossed the backpressure
  /// threshold and the owner should schedule a flush.
  Lsn Append(const LogRecord& rec, bool* need_flush = nullptr);

  /// Splice `records` pre-encoded record bytes (no checkpoint records)
  /// onto the tail in one step; returns the LSN of the first byte.
  /// This is the wal::Writer publish path: encoding happened outside
  /// the append lock.
  Lsn AppendEncoded(Slice encoded, size_t records, bool* need_flush);

  /// Ensure all records up to and including `lsn` are durable.
  Status FlushTo(Lsn lsn);

  /// Flush everything appended so far.
  Status FlushAll();

  Lsn flushed_lsn() const;
  /// LSN the next appended record will receive.
  Lsn next_lsn() const;
  /// Oldest available LSN (records below were truncated away).
  Lsn start_lsn() const;
  /// Bytes currently staged in the unflushed tail.
  size_t tail_bytes() const;

  /// Checkpoint directory (ascending LSN).
  std::vector<CheckpointRef> checkpoints() const;

  /// Attach the archive tier: reads below start_lsn() transparently
  /// fall back to sealed segments, so cursor walks cross the
  /// active/archive boundary unmodified. The archive must outlive this
  /// LogManager. Set once, before concurrent readers exist (wal::Wal
  /// does this during Create/Open).
  void set_archive(wal::ArchiveManager* archive) { archive_ = archive; }
  wal::ArchiveManager* archive() const { return archive_; }

  /// Oldest LSN any read can still resolve: the oldest archived byte
  /// when the archive tier is attached and contiguous with the active
  /// log, start_lsn() otherwise. This is the true AS OF horizon floor.
  Lsn oldest_available_lsn() const;

  /// Copy the flushed byte range [lsn, lsn + n) out of the active log
  /// file (the archive sealer's source), PHYSICAL bytes: compressed
  /// frames come back verbatim and their unwritten logical remainder
  /// (and any hole-punched range) reads as zeros. The range must lie
  /// within [start_lsn, flushed_lsn); flushed bytes are stable, so no
  /// lock is held across the read.
  Status ReadRaw(Lsn lsn, size_t n, char* dst);

  /// Copy the LOGICAL byte range [lsn, lsn + n): record bytes with
  /// every compression frame expanded, composed across both tiers.
  /// The range must be flushed and at/above oldest_available_lsn().
  /// Wal::ExportPrefix uses this so exported logs are plain record
  /// streams regardless of how the source was stored.
  Status ReadLogical(Lsn lsn, size_t n, char* dst);

  // ------------------------ compression frames -----------------------

  /// Frame directory snapshot, ascending by lsn (introspection for
  /// tests, benches and the crash-matrix harness).
  std::vector<LogFrame> frames() const;

  /// True when `lsn` lies strictly inside some frame's logical range.
  /// Archive cuts and truncation floors must avoid such points: the
  /// physical bytes there belong to a frame that only materializes as
  /// a whole.
  bool IsFrameInterior(Lsn lsn) const;

  /// `lsn` rounded down to the enclosing frame's start when frame-
  /// interior, else `lsn` itself: the largest safe boundary <= lsn.
  Lsn FrameFloor(Lsn lsn) const;

  /// Splice frames recovered from archive segment footers in front of
  /// the directory (wal::Wal::InitArchive; all entries must precede
  /// the active log's own frames). Drops the block cache: cached
  /// blocks built without these frames would shadow their content.
  void PrependFrames(const std::vector<LogFrame>& frames);

  /// Drop records below `lsn` from the ACTIVE log (they become
  /// unavailable unless the archive tier covers them; bare reads then
  /// fail with OutOfRange). Used by the retention policy (section 4.3).
  /// With `reclaim` set the truncated file range is hole-punched so the
  /// active log's disk footprint actually shrinks -- only pass it when
  /// every truncated byte is sealed in the archive (wal::Wal does).
  /// `lsn` is rounded DOWN to FrameFloor(lsn): the log never starts
  /// inside a compression frame (keeping a few extra records is always
  /// safe; starting mid-frame would make the restart scan unreadable).
  Status TruncateBefore(Lsn lsn, bool reclaim = false);

  /// Re-prune the checkpoint directory down to oldest_available_lsn()
  /// (after archive segments are dropped). Truncation with an attached
  /// archive keeps refs into archived history so SplitLSN search still
  /// narrows long-horizon AS OF targets.
  void PruneCheckpointRefs();

  /// Splice checkpoint refs recovered from the archive tier in front of
  /// the directory (wal::Wal::Open's archive scan; all `refs` must
  /// precede the existing entries).
  void PrependCheckpoints(const std::vector<CheckpointRef>& refs);

  /// Bytes of live log (next_lsn - start_lsn): the space metric of
  /// figure 5.
  uint64_t LiveBytes() const;

  /// Drop all cached blocks (failure-injection in tests/benchmarks).
  /// Safe no-op when the cache is disabled (cache_blocks == 0).
  void DropCache();

  LogFlushStats flush_stats() const;

 private:
  friend class wal::Cursor;
  friend class wal::Wal;

  LogManager(std::string path, int fd, DiskModel* disk, IoStats* stats,
             Options opts);

  /// Random-access read of the record at `lsn`, decoded into `*out`
  /// (LogRecord::DecodeInto: its buffers are reused). Sets
  /// `*encoded_size` to the record's on-log length so iteration can
  /// advance without re-encoding. With a `window`, a cache miss on the
  /// record's first block may read a backward extent (see
  /// ReadBackwardExtent). wal::Cursor is the only consumer.
  ///
  /// An LSN below flushed_lsn() is served from the block cache without
  /// append_mu_: a flush publishes flushed_lsn_ only after its write,
  /// its frames and its cache invalidation, so those bytes are stable.
  /// A record inside one cached block decodes in place; one that
  /// straddles blocks copies only its own bytes. Only the unflushed
  /// tail and the batch a flusher is writing are read under append_mu_,
  /// from memory. On failure `*out` is unspecified.
  Status ReadRecord(Lsn lsn, LogRecord* out, size_t* encoded_size,
                    wal::BackwardWindow* window = nullptr);

  /// Warm the cache with the 32 KiB block holding `lsn` (sequential
  /// scan prefetch). No-op when the cache is disabled.
  void PrefetchBlock(Lsn lsn);

  Status WriteHeader();
  /// Write a log-file header (magic + start LSN) at offset 0 of `fd`:
  /// how Wal::ExportPrefix stamps a reconstructed standalone log.
  static Status WriteHeaderAt(int fd, Lsn start);
  Status FlushLocked(Lsn target);
  /// Frames intersecting the logical range [lo, hi), ascending.
  std::vector<LogFrame> FramesOverlapping(Lsn lo, Lsn hi) const;
  /// Publish frames written by a successful flush (ascending, all
  /// above existing entries).
  void AddFrames(const std::vector<LogFrame>& frames);
  /// Drop frames whose logical range ends at or below `floor`.
  void PruneFrames(Lsn floor);
  /// Read + verify + decompress the frame's logical bytes into `dst`
  /// (f.ulen bytes), choosing the owning tier by the frame's range.
  Status MaterializeFrame(const LogFrame& f, char* dst);
  /// Fetch the 32 KiB block with index `idx` through the cache; a miss
  /// with a `window` first tries ReadBackwardExtent.
  Result<std::shared_ptr<std::string>> FetchBlock(
      uint64_t idx, wal::BackwardWindow* window = nullptr);
  /// A chain walk missed block `idx`. If the miss lies just below the
  /// walk's previous one, read the doubled extent ending at `idx` --
  /// capped at kMaxBackwardExtentBlocks and at the window's floor
  /// block -- in one preadv straight into per-block buffers, charged as
  /// one device access and one miss, and cache every block of it.
  /// Returns null (and the caller reads `idx` alone) for a one-block
  /// window and for extents that would touch the archive tier, a
  /// compression frame or unflushed bytes.
  Result<std::shared_ptr<std::string>> ReadBackwardExtent(
      uint64_t idx, wal::BackwardWindow* window);
  /// Insert `block` as the most recently used entry unless `idx` is
  /// cached already, evicting down to capacity. cache_mu_ held.
  void CacheLocked(uint64_t idx, std::shared_ptr<std::string> block);
  Status ReadFromFile(Lsn lsn, LogRecord* out, size_t* encoded_size,
                      wal::BackwardWindow* window);
  static Status ParseAt(const char* data, size_t avail, LogRecord* out,
                        size_t* encoded_size);
  void NoteCheckpoint(const LogRecord& rec, Lsn lsn);

  static constexpr Lsn kFirstLsn = 64;  // log header occupies [0, 64)
  /// Cap on a backward extent, in blocks. Measured on the investigate
  /// workload (simulated SSD), 32 blocks did no better than 8.
  static constexpr size_t kMaxBackwardExtentBlocks = 8;

 public:
  /// Log block: the unit of the read cache and of a cache-miss read.
  static constexpr size_t kBlockSize = 32 * 1024;
  /// Read size of Open's sequential scan of the active file.
  static constexpr size_t kOpenScanChunkBytes = 1 << 20;
  /// Ceiling on a record's length prefix; anything longer is corrupt.
  static constexpr uint32_t kMaxRecordBytes = 64u << 20;

  // Frame format constants (public: the archive tier and tests share
  // them).
  /// First 4 bytes of a frame. Chosen far above the 64 MiB record
  /// length ceiling ReadFromFile enforces, so a physical scan can
  /// always tell a frame header from a record length prefix.
  static constexpr uint32_t kFrameMagic = 0xF7D1E7A5u;
  static constexpr uint8_t kFrameVersion = 1;
  /// magic(4) + version(1) + reserved(3) + ulen(4) + clen(4) +
  /// payload checksum(4) + header checksum(4).
  static constexpr size_t kFrameHeaderSize = 24;
  /// Target logical bytes per frame (flush batches are chunked into
  /// frames of about this size, always on record boundaries).
  static constexpr size_t kFrameTargetBytes = kBlockSize;
  /// A frame is only emitted when it saves at least this many bytes
  /// over the raw chunk; marginal wins are not worth the decompression
  /// on every read.
  static constexpr size_t kFrameMinSaving = 64;

 private:

  const std::string path_;
  int fd_;
  DiskModel* disk_;
  IoStats* stats_;
  const Options opts_;
  /// Archive tier for reads below start_lsn_; null when archiving is
  /// off (reads below start_lsn_ then fail with OutOfRange).
  wal::ArchiveManager* archive_ = nullptr;

  mutable std::mutex append_mu_;
  std::string tail_;          // unflushed bytes
  Lsn tail_start_ = kFirstLsn;
  Lsn next_lsn_ = kFirstLsn;
  /// Batch currently being written by a flusher: stolen from the tail
  /// but possibly not yet on disk, so reads of [flushing_start_,
  /// tail_start_) are served from here instead of the file.
  std::string flushing_;
  Lsn flushing_start_ = kFirstLsn;

  std::mutex flush_mu_;       // serializes file writes
  /// Bumped to odd when a flush starts writing the file and back to
  /// even once its cache invalidation completed; FetchBlock uses it to
  /// refuse caching a short block whose read overlapped a flush.
  std::atomic<uint64_t> flush_gen_{0};
  std::atomic<Lsn> flushed_lsn_{kFirstLsn};
  std::atomic<Lsn> start_lsn_{kFirstLsn};

  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> flush_batch_bytes_{0};
  std::atomic<uint64_t> max_batch_bytes_{0};
  std::atomic<uint64_t> frames_written_{0};
  std::atomic<uint64_t> frame_logical_bytes_{0};
  std::atomic<uint64_t> frame_physical_bytes_{0};

  /// Frame directory, ascending by lsn. Grows at the back on flush,
  /// shrinks at the front on truncation/retention; archive recovery
  /// prepends. Readers snapshot under the mutex.
  mutable std::mutex frames_mu_;
  std::vector<LogFrame> frames_;

  mutable std::mutex cache_mu_;
  std::list<uint64_t> lru_;   // most recent at front
  struct CacheEntry {
    std::shared_ptr<std::string> block;
    std::list<uint64_t>::iterator lru_it;
  };
  std::unordered_map<uint64_t, CacheEntry> cache_;

  mutable std::mutex ckpt_mu_;
  std::vector<CheckpointRef> checkpoints_;
};

}  // namespace rewinddb

#endif  // REWINDDB_LOG_LOG_MANAGER_H_
