#include "log/log_manager.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/falloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>

#include "common/coding.h"
#include "common/compress.h"
#include "wal/archive.h"
#include "wal/wal_cursor.h"

namespace rewinddb {

namespace {
constexpr uint64_t kLogMagic = 0x52574C4F47763101ULL;  // "RWLOGv1" + 0x01

/// Encode a frame header for `ulen` logical bytes compressed into
/// `payload[0, clen)`.
void EncodeFrameHeader(char* hdr, uint32_t ulen, uint32_t clen,
                       const char* payload) {
  uint32_t v = LogManager::kFrameMagic;
  memcpy(hdr, &v, 4);
  hdr[4] = static_cast<char>(LogManager::kFrameVersion);
  hdr[5] = hdr[6] = hdr[7] = 0;
  memcpy(hdr + 8, &ulen, 4);
  memcpy(hdr + 12, &clen, 4);
  uint32_t psum = Checksum32(payload, clen);
  memcpy(hdr + 16, &psum, 4);
  uint32_t hsum = Checksum32(hdr, 20);
  memcpy(hdr + 20, &hsum, 4);
}

/// Parse + validate a frame header. Returns false when the bytes are
/// not a well-formed current-or-past frame header (torn tail); a
/// well-formed header with a FUTURE version sets *future instead, so
/// the caller can fail loudly rather than treat new-format log as a
/// torn end.
bool ParseFrameHeader(const char* hdr, uint32_t* ulen, uint32_t* clen,
                      uint32_t* psum, bool* future) {
  *future = false;
  uint32_t magic;
  memcpy(&magic, hdr, 4);
  if (magic != LogManager::kFrameMagic) return false;
  uint32_t hsum;
  memcpy(&hsum, hdr + 20, 4);
  if (Checksum32(hdr, 20) != hsum) return false;
  if (static_cast<uint8_t>(hdr[4]) > LogManager::kFrameVersion) {
    *future = true;
    return false;
  }
  memcpy(ulen, hdr + 8, 4);
  memcpy(clen, hdr + 12, 4);
  memcpy(psum, hdr + 16, 4);
  if (*ulen == 0 || *ulen > (64u << 20) || *clen == 0 || *clen >= *ulen) {
    return false;
  }
  return true;
}

/// The open scan's sequential reader: serves byte ranges of the active
/// file from one buffered chunk of at least kOpenScanChunkBytes, and
/// reads a new chunk starting at a range only when the range runs past
/// the current one's end.
class ScanReader {
 public:
  explicit ScanReader(int fd) : fd_(fd) {}

  /// Up to `n` bytes at file offset `at`, fewer only where the file
  /// ends (or cannot be read). Valid until the next call.
  Slice Read(Lsn at, size_t n) {
    if (at < start_ || at - start_ + n > len_) Fill(at, n);
    const size_t off = at - start_;
    return Slice(buf_.get() + off, std::min(n, len_ - off));
  }

 private:
  void Fill(Lsn at, size_t n) {
    const size_t want = std::max(n, LogManager::kOpenScanChunkBytes);
    if (want > cap_) {
      buf_ = std::make_unique<char[]>(want);
      cap_ = want;
    }
    start_ = at;
    len_ = 0;
    while (len_ < want) {
      ssize_t got = ::pread(fd_, buf_.get() + len_, want - len_,
                            static_cast<off_t>(at + len_));
      if (got <= 0) break;
      len_ += static_cast<size_t>(got);
    }
  }

  const int fd_;
  std::unique_ptr<char[]> buf_;
  size_t cap_ = 0;
  Lsn start_ = 0;   // file offset of buf_[0]
  size_t len_ = 0;  // bytes of buf_ holding file data
};
}  // namespace

LogManager::LogManager(std::string path, int fd, DiskModel* disk,
                       IoStats* stats, Options opts)
    : path_(std::move(path)), fd_(fd), disk_(disk), stats_(stats),
      opts_(opts) {}

LogManager::~LogManager() {
  if (fd_ >= 0) ::close(fd_);
}

Status LogManager::WriteHeaderAt(int fd, Lsn start) {
  char hdr[kFirstLsn];
  memset(hdr, 0, sizeof(hdr));
  uint64_t magic = kLogMagic;
  memcpy(hdr, &magic, 8);
  memcpy(hdr + 8, &start, 8);
  if (::pwrite(fd, hdr, sizeof(hdr), 0) != static_cast<ssize_t>(sizeof(hdr))) {
    return Status::IoError("log header write: " + std::string(strerror(errno)));
  }
  return Status::OK();
}

Status LogManager::WriteHeader() {
  return WriteHeaderAt(fd_, start_lsn_.load());
}

Result<std::unique_ptr<LogManager>> LogManager::Create(const std::string& path,
                                                       DiskModel* disk,
                                                       IoStats* stats,
                                                       Options opts) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("create log " + path + ": " + strerror(errno));
  }
  auto lm = std::unique_ptr<LogManager>(
      new LogManager(path, fd, disk, stats, opts));
  REWIND_RETURN_IF_ERROR(lm->WriteHeader());
  return lm;
}

Result<std::unique_ptr<LogManager>> LogManager::Open(const std::string& path,
                                                     DiskModel* disk,
                                                     IoStats* stats,
                                                     Options opts) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Status::IoError("open log " + path + ": " + strerror(errno));
  }
  char hdr[kFirstLsn];
  if (::pread(fd, hdr, sizeof(hdr), 0) != static_cast<ssize_t>(sizeof(hdr))) {
    ::close(fd);
    return Status::Corruption("log header unreadable");
  }
  uint64_t magic;
  memcpy(&magic, hdr, 8);
  if (magic != kLogMagic) {
    ::close(fd);
    return Status::Corruption("log magic mismatch");
  }
  Lsn start;
  memcpy(&start, hdr + 8, 8);

  auto lm = std::unique_ptr<LogManager>(
      new LogManager(path, fd, disk, stats, opts));
  lm->start_lsn_.store(start < kFirstLsn ? kFirstLsn : start);

  // Scan forward from the start to find the durable end of the log and
  // rebuild the checkpoint and frame directories. The scan is
  // PHYSICAL: each boundary holds either a compression frame (magic +
  // self-checksummed header) or a raw record (length prefix + record
  // checksum), and the frame magic can never be mistaken for a record
  // length (it exceeds the 64 MiB length ceiling). A torn unit ends
  // the scan (crash tail); a unit that checksums clean but does not
  // parse -- an unknown future record type or a well-formed frame
  // header with a future version -- is a hard Corruption error, never
  // a silent end-of-log.
  ScanReader file(fd);
  Lsn cursor = lm->start_lsn_.load();
  std::string ubuf;
  LogRecord rec;  // every decode of the scan reuses its buffers
  while (true) {
    const Slice fh = file.Read(cursor, kFrameHeaderSize);
    if (fh.size() < kLogLengthPrefix) break;
    const uint32_t first = DecodeFixed32(fh.data());
    if (first == kFrameMagic) {
      uint32_t ulen = 0, clen = 0, psum = 0;
      bool future = false;
      if (fh.size() < kFrameHeaderSize ||
          !ParseFrameHeader(fh.data(), &ulen, &clen, &psum, &future)) {
        if (future) {
          return Status::Corruption(
              "log: compression frame from a future format version");
        }
        break;  // torn frame header
      }
      const Slice frame = file.Read(cursor, kFrameHeaderSize + clen);
      if (frame.size() != kFrameHeaderSize + clen) break;  // torn payload
      const char* payload = frame.data() + kFrameHeaderSize;
      if (Checksum32(payload, clen) != psum) break;
      ubuf.resize(ulen);
      if (!Decompress(payload, clen, ubuf.data(), ulen).ok()) break;
      // The frame checksummed clean, so its records must parse; a
      // failure here is real corruption, not a torn tail.
      size_t off = 0;
      while (off < ulen) {
        size_t consumed = 0;
        REWIND_RETURN_IF_ERROR(LogRecord::DecodeInto(
            Slice(ubuf.data() + off, ulen - off), &consumed, &rec));
        if (rec.type == LogType::kCheckpointBegin) {
          lm->checkpoints_.push_back({cursor + off, rec.wall_clock});
        }
        off += consumed;
      }
      lm->frames_.push_back({cursor, ulen, clen});
      cursor += ulen;
      continue;
    }
    // Raw record: length prefix, whole record, checksum.
    if (first < 8 || first > kMaxRecordBytes) break;
    const Slice raw = file.Read(cursor, first);
    if (raw.size() != first) break;  // torn record
    size_t consumed = 0;
    Status st = LogRecord::DecodeInto(raw, &consumed, &rec);
    if (!st.ok()) {
      // A record that fails its checksum is the torn tail; one that
      // checksums clean but does not parse is corruption.
      if (Checksum32(raw.data() + 8, first - 8) !=
          DecodeFixed32(raw.data() + 4)) {
        break;
      }
      return st;
    }
    if (rec.type == LogType::kCheckpointBegin) {
      lm->checkpoints_.push_back({cursor, rec.wall_clock});
    }
    cursor += consumed;
  }
  lm->next_lsn_ = cursor;
  lm->tail_start_ = cursor;
  lm->flushing_start_ = cursor;
  lm->flushed_lsn_.store(cursor);
  return lm;
}

void LogManager::NoteCheckpoint(const LogRecord& rec, Lsn lsn) {
  if (rec.type != LogType::kCheckpointBegin) return;
  std::lock_guard<std::mutex> g(ckpt_mu_);
  checkpoints_.push_back({lsn, rec.wall_clock});
}

Lsn LogManager::Append(const LogRecord& rec, bool* need_flush) {
  Lsn lsn;
  {
    std::lock_guard<std::mutex> g(append_mu_);
    lsn = next_lsn_;
    rec.EncodeTo(&tail_);
    next_lsn_ = tail_start_ + tail_.size();
    if (stats_ != nullptr) stats_->log_writes++;
    if (need_flush != nullptr) {
      *need_flush = tail_.size() >= opts_.max_tail_bytes;
    }
  }
  NoteCheckpoint(rec, lsn);
  return lsn;
}

Lsn LogManager::AppendEncoded(Slice encoded, size_t records,
                              bool* need_flush) {
  Lsn base;
  {
    std::lock_guard<std::mutex> g(append_mu_);
    base = next_lsn_;
    tail_.append(encoded.data(), encoded.size());
    next_lsn_ = tail_start_ + tail_.size();
    if (stats_ != nullptr) stats_->log_writes += records;
    if (need_flush != nullptr) {
      *need_flush = tail_.size() >= opts_.max_tail_bytes;
    }
  }
  return base;
}

Status LogManager::FlushTo(Lsn lsn) {
  if (flushed_lsn_.load(std::memory_order_acquire) > lsn) return Status::OK();
  std::lock_guard<std::mutex> fg(flush_mu_);
  return FlushLocked(lsn);
}

Status LogManager::FlushAll() {
  std::lock_guard<std::mutex> fg(flush_mu_);
  Lsn target;
  {
    std::lock_guard<std::mutex> g(append_mu_);
    target = next_lsn_;
  }
  return FlushLocked(target == kFirstLsn ? kFirstLsn : target - 1);
}

Status LogManager::FlushLocked(Lsn target) {
  // flush_mu_ held. Steal the current tail (group commit: one write and
  // one sync cover every record appended so far). The stolen batch
  // stays readable from memory (flushing_) until it is on disk, so
  // concurrent cursor reads never observe a half-written file region.
  if (flushed_lsn_.load(std::memory_order_acquire) > target) {
    return Status::OK();
  }
  Lsn batch_start;
  {
    std::lock_guard<std::mutex> g(append_mu_);
    flushing_.swap(tail_);  // flushing_ is empty outside a flush
    batch_start = tail_start_;
    flushing_start_ = batch_start;
    tail_start_ += flushing_.size();
  }
  if (!flushing_.empty()) {
    Status io;
    // Build the physical write plan. Uncompressed: the whole batch at
    // its logical offset (one extent). Compressed: the batch is cut at
    // record boundaries into ~kFrameTargetBytes chunks; each chunk
    // that compresses well becomes a frame written at the chunk's
    // logical offset (the logical remainder stays an unwritten hole),
    // the rest stay raw. Chunking is a pure function of the record
    // lengths, so a failed flush that hands the batch back retries
    // with byte-identical physical prefixes.
    struct WriteExt {
      Lsn off;
      const char* data;
      size_t n;
    };
    std::vector<WriteExt> writes;
    std::vector<LogFrame> new_frames;
    std::deque<std::string> frame_bufs;  // stable storage for frame bytes
    if (!opts_.compression) {
      writes.push_back({batch_start, flushing_.data(), flushing_.size()});
    } else {
      // Raw chunks are contiguous in flushing_, so coalescing adjacent
      // ones just widens the previous extent.
      auto add_raw = [&writes](Lsn off, const char* p, size_t n) {
        if (!writes.empty() && writes.back().off + writes.back().n == off &&
            writes.back().data + writes.back().n == p) {
          writes.back().n += n;
        } else {
          writes.push_back({off, p, n});
        }
      };
      std::string cbuf;
      size_t pos = 0;
      while (pos < flushing_.size()) {
        size_t cend = pos;
        bool well_formed = true;
        while (cend < flushing_.size() && cend - pos < kFrameTargetBytes) {
          uint32_t rl = LogRecord::PeekLength(
              Slice(flushing_.data() + cend, flushing_.size() - cend));
          if (rl < kLogLengthPrefix || rl > flushing_.size() - cend) {
            well_formed = false;  // cannot happen for our own encodes
            break;
          }
          cend += rl;
        }
        if (!well_formed) {
          add_raw(batch_start + pos, flushing_.data() + pos,
                  flushing_.size() - pos);
          break;
        }
        const size_t ulen = cend - pos;
        bool framed = false;
        if (ulen > kFrameHeaderSize + kFrameMinSaving) {
          const size_t cap = ulen - kFrameHeaderSize - kFrameMinSaving;
          cbuf.resize(cap);
          size_t clen =
              Compress(flushing_.data() + pos, ulen, cbuf.data(), cap);
          if (clen > 0) {
            std::string fb(kFrameHeaderSize, '\0');
            EncodeFrameHeader(fb.data(), static_cast<uint32_t>(ulen),
                              static_cast<uint32_t>(clen), cbuf.data());
            fb.append(cbuf.data(), clen);
            frame_bufs.push_back(std::move(fb));
            writes.push_back({batch_start + pos, frame_bufs.back().data(),
                              frame_bufs.back().size()});
            new_frames.push_back({batch_start + pos,
                                  static_cast<uint32_t>(ulen),
                                  static_cast<uint32_t>(clen)});
            framed = true;
          }
        }
        if (!framed) add_raw(batch_start + pos, flushing_.data() + pos, ulen);
        pos = cend;
      }
    }
    uint64_t phys_bytes = 0;
    for (const WriteExt& w : writes) {
      ssize_t n = ::pwrite(fd_, w.data, w.n, static_cast<off_t>(w.off));
      if (n != static_cast<ssize_t>(w.n)) {
        io = Status::IoError("log write failed: " +
                             std::string(strerror(errno)));
        break;
      }
      phys_bytes += w.n;
    }
    if (io.ok() && ::fdatasync(fd_) != 0) {
      io = Status::IoError("log sync failed: " +
                           std::string(strerror(errno)));
    }
    if (!io.ok()) {
      // Give the stolen batch back to the front of the tail so the
      // LSN-to-byte mapping stays exact (records appended meanwhile
      // follow it contiguously); a later flush retries from
      // batch_start, and flushed_lsn never moved.
      std::lock_guard<std::mutex> g(append_mu_);
      tail_.insert(0, flushing_);
      tail_start_ -= flushing_.size();
      flushing_.clear();
      flushing_start_ = tail_start_;
      return io;
    }
    const size_t batch_bytes = flushing_.size();
    // Publish the batch's frames BEFORE any block over this range can
    // be (re)built from the file: once the cache invalidation below
    // runs, fetches must compose these frames to see the records.
    if (!new_frames.empty()) {
      uint64_t frame_ulen = 0;
      uint64_t frame_phys = 0;
      for (const LogFrame& f : new_frames) {
        frame_ulen += f.ulen;
        frame_phys += kFrameHeaderSize + f.clen;
      }
      AddFrames(new_frames);
      frames_written_.fetch_add(new_frames.size(), std::memory_order_relaxed);
      frame_logical_bytes_.fetch_add(frame_ulen, std::memory_order_relaxed);
      frame_physical_bytes_.fetch_add(frame_phys, std::memory_order_relaxed);
    }
    // Close the short-block caching window: readers that overlap
    // [write, invalidate) must not insert a pre-flush copy of the
    // last block (odd flush_gen_ = flush in progress).
    flush_gen_.fetch_add(1, std::memory_order_acq_rel);
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    flush_batch_bytes_.fetch_add(batch_bytes, std::memory_order_relaxed);
    uint64_t prev_max = max_batch_bytes_.load(std::memory_order_relaxed);
    while (prev_max < batch_bytes &&
           !max_batch_bytes_.compare_exchange_weak(
               prev_max, batch_bytes, std::memory_order_relaxed)) {
    }
    if (disk_ != nullptr) disk_->Access(batch_start, phys_bytes);
    if (stats_ != nullptr) stats_->log_bytes_written += phys_bytes;
    // Invalidate cached blocks the write touched: the previously-last
    // block may have been cached short and would shadow new records.
    if (opts_.cache_blocks > 0) {
      std::lock_guard<std::mutex> cg(cache_mu_);
      uint64_t first = batch_start / kBlockSize;
      uint64_t last = (batch_start + batch_bytes - 1) / kBlockSize;
      for (uint64_t i = first; i <= last; i++) {
        auto it = cache_.find(i);
        if (it != cache_.end()) {
          lru_.erase(it->second.lru_it);
          cache_.erase(it);
        }
      }
    }
    flush_gen_.fetch_add(1, std::memory_order_acq_rel);
    flushed_lsn_.store(batch_start + batch_bytes, std::memory_order_release);
    {
      // The bytes are durable; retire the in-memory copy.
      std::lock_guard<std::mutex> g(append_mu_);
      flushing_.clear();
      flushing_start_ = tail_start_;
    }
  }
  return Status::OK();
}

Lsn LogManager::flushed_lsn() const { return flushed_lsn_.load(); }

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> g(append_mu_);
  return next_lsn_;
}

Lsn LogManager::start_lsn() const { return start_lsn_.load(); }

size_t LogManager::tail_bytes() const {
  std::lock_guard<std::mutex> g(append_mu_);
  return tail_.size();
}

uint64_t LogManager::LiveBytes() const {
  std::lock_guard<std::mutex> g(append_mu_);
  return next_lsn_ - start_lsn_.load();
}

LogFlushStats LogManager::flush_stats() const {
  LogFlushStats out;
  out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  out.batch_bytes = flush_batch_bytes_.load(std::memory_order_relaxed);
  out.max_batch_bytes = max_batch_bytes_.load(std::memory_order_relaxed);
  out.frames_written = frames_written_.load(std::memory_order_relaxed);
  out.frame_logical_bytes =
      frame_logical_bytes_.load(std::memory_order_relaxed);
  out.frame_physical_bytes =
      frame_physical_bytes_.load(std::memory_order_relaxed);
  return out;
}

std::vector<LogFrame> LogManager::frames() const {
  std::lock_guard<std::mutex> g(frames_mu_);
  return frames_;
}

std::vector<LogFrame> LogManager::FramesOverlapping(Lsn lo, Lsn hi) const {
  std::vector<LogFrame> out;
  std::lock_guard<std::mutex> g(frames_mu_);
  auto it = std::upper_bound(
      frames_.begin(), frames_.end(), lo,
      [](Lsn v, const LogFrame& f) { return v < f.lsn; });
  // The frame before the first one starting after `lo` may still
  // reach into the range.
  if (it != frames_.begin()) --it;
  for (; it != frames_.end() && it->lsn < hi; ++it) {
    if (it->lsn + it->ulen > lo) out.push_back(*it);
  }
  return out;
}

bool LogManager::IsFrameInterior(Lsn lsn) const {
  return FrameFloor(lsn) != lsn;
}

Lsn LogManager::FrameFloor(Lsn lsn) const {
  std::lock_guard<std::mutex> g(frames_mu_);
  auto it = std::upper_bound(
      frames_.begin(), frames_.end(), lsn,
      [](Lsn v, const LogFrame& f) { return v < f.lsn; });
  if (it == frames_.begin()) return lsn;
  --it;
  if (lsn > it->lsn && lsn < it->lsn + it->ulen) return it->lsn;
  return lsn;
}

void LogManager::AddFrames(const std::vector<LogFrame>& frames) {
  std::lock_guard<std::mutex> g(frames_mu_);
  frames_.insert(frames_.end(), frames.begin(), frames.end());
}

void LogManager::PrependFrames(const std::vector<LogFrame>& frames) {
  if (!frames.empty()) {
    std::lock_guard<std::mutex> g(frames_mu_);
    // Archive footers can overlap what the active-file scan already
    // registered (the range above start_lsn is in both tiers until it
    // is punched); keep the active log's own entries authoritative.
    const Lsn first_known =
        frames_.empty() ? std::numeric_limits<Lsn>::max() : frames_[0].lsn;
    std::vector<LogFrame> merged;
    for (const LogFrame& f : frames) {
      if (f.lsn < first_known) merged.push_back(f);
    }
    frames_.insert(frames_.begin(), merged.begin(), merged.end());
  }
  // Cached blocks built before these frames were known lack their
  // content.
  DropCache();
}

void LogManager::PruneFrames(Lsn floor) {
  std::lock_guard<std::mutex> g(frames_mu_);
  auto it = frames_.begin();
  while (it != frames_.end() && it->lsn + it->ulen <= floor) ++it;
  frames_.erase(frames_.begin(), it);
}

Status LogManager::MaterializeFrame(const LogFrame& f, char* dst) {
  const size_t phys = kFrameHeaderSize + f.clen;
  std::string fbuf(phys, '\0');
  // The frame's physical bytes live in whichever tier owns its logical
  // range: sealed segments hold them verbatim at their original
  // offsets (archive cuts never split a frame), the active file
  // otherwise.
  bool from_archive = false;
  if (archive_ != nullptr) {
    const Lsn arch_oldest = archive_->oldest_lsn();
    from_archive = arch_oldest != kInvalidLsn && f.lsn >= arch_oldest &&
                   f.lsn + f.ulen <= archive_->high_water();
  }
  if (from_archive) {
    REWIND_RETURN_IF_ERROR(archive_->ReadBytes(f.lsn, phys, fbuf.data()));
  } else {
    if (::pread(fd_, fbuf.data(), phys, static_cast<off_t>(f.lsn)) !=
        static_cast<ssize_t>(phys)) {
      return Status::IoError("log frame read: " +
                             std::string(strerror(errno)));
    }
    if (disk_ != nullptr) disk_->Access(f.lsn, phys);
  }
  uint32_t ulen = 0, clen = 0, psum = 0;
  bool future = false;
  if (!ParseFrameHeader(fbuf.data(), &ulen, &clen, &psum, &future) ||
      ulen != f.ulen || clen != f.clen) {
    return Status::Corruption(
        future ? "log frame from a future format version"
               : "log frame header does not match the frame directory");
  }
  if (Checksum32(fbuf.data() + kFrameHeaderSize, clen) != psum) {
    return Status::Corruption("log frame payload checksum mismatch");
  }
  return Decompress(fbuf.data() + kFrameHeaderSize, clen, dst, ulen);
}

Status LogManager::ReadLogical(Lsn lsn, size_t n, char* dst) {
  if (lsn < oldest_available_lsn() ||
      lsn + n > flushed_lsn_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument(
        "logical log read outside the flushed range");
  }
  size_t done = 0;
  while (done < n) {
    const Lsn at = lsn + done;
    REWIND_ASSIGN_OR_RETURN(std::shared_ptr<std::string> block,
                            FetchBlock(at / kBlockSize));
    const size_t off = at % kBlockSize;
    if (block->size() <= off) {
      return Status::Corruption("logical log read past materialized end");
    }
    const size_t take = std::min(n - done, block->size() - off);
    memcpy(dst + done, block->data() + off, take);
    done += take;
  }
  return Status::OK();
}

Lsn LogManager::oldest_available_lsn() const {
  const Lsn start = start_lsn_.load();
  if (archive_ == nullptr) return start;
  const Lsn oldest = archive_->oldest_lsn();
  const Lsn hw = archive_->high_water();
  // The archive extends the horizon only while contiguous with the
  // active log (archive-then-truncate keeps hw >= start; a gap would
  // mean bytes in (hw, start) are gone for good).
  if (oldest == kInvalidLsn || hw < start) return start;
  return std::min(oldest, start);
}

Status LogManager::ReadRecord(Lsn lsn, LogRecord* out, size_t* encoded_size,
                              wal::BackwardWindow* window) {
  if (lsn < start_lsn_.load() &&
      (archive_ == nullptr || !archive_->Covers(lsn))) {
    return Status::OutOfRange(
        "log record " + std::to_string(lsn) +
        " is older than the retention period (truncated)");
  }
  // Below the flush frontier the bytes are on disk, their frames are
  // published and stale cached blocks are gone (a flush stores
  // flushed_lsn_ last), so the read needs no append_mu_.
  if (lsn >= flushed_lsn_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> g(append_mu_);
    if (lsn >= next_lsn_) {
      return Status::InvalidArgument("read past log end");
    }
    if (lsn >= tail_start_) {
      // Still in the unflushed tail: serve from memory, no IO.
      size_t off = lsn - tail_start_;
      return ParseAt(tail_.data() + off, tail_.size() - off, out,
                     encoded_size);
    }
    if (!flushing_.empty() && lsn >= flushing_start_) {
      // In the batch a flusher stole but has not finished writing.
      size_t off = lsn - flushing_start_;
      return ParseAt(flushing_.data() + off, flushing_.size() - off, out,
                     encoded_size);
    }
    // A flush completed since the frontier check: read the file.
  }
  return ReadFromFile(lsn, out, encoded_size, window);
}

Status LogManager::ParseAt(const char* data, size_t avail, LogRecord* out,
                           size_t* encoded_size) {
  size_t consumed = 0;
  REWIND_RETURN_IF_ERROR(
      LogRecord::DecodeInto(Slice(data, avail), &consumed, out));
  if (encoded_size != nullptr) *encoded_size = consumed;
  return Status::OK();
}

Result<std::shared_ptr<std::string>> LogManager::FetchBlock(
    uint64_t idx, wal::BackwardWindow* window) {
  if (opts_.cache_blocks > 0) {
    std::lock_guard<std::mutex> g(cache_mu_);
    auto it = cache_.find(idx);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // node reused
      if (stats_ != nullptr) stats_->log_read_hits++;
      return it->second.block;
    }
  }
  if (window != nullptr) {
    REWIND_ASSIGN_OR_RETURN(std::shared_ptr<std::string> block,
                            ReadBackwardExtent(idx, window));
    if (block != nullptr) return block;
  }
  // Miss: materialize the block from the device. Without an archive
  // (or for blocks wholly at/above the archive high water mark) this is
  // one pread of the active file. A block below the high water mark is
  // composed from up to three sources at their original offsets:
  // the file header prefix [0, kFirstLsn) for block 0, archived bytes
  // for the range the archive covers, and the active file for the
  // suffix at/above the high water mark (which is never hole-punched).
  // A front that fell off even the archive horizon stays zeroed --
  // record reads there are rejected by ReadRecord's range guard before
  // they can touch it.
  uint64_t gen_before = flush_gen_.load(std::memory_order_acquire);
  const Lsn flushed_before = flushed_lsn_.load(std::memory_order_acquire);
  auto block = std::make_shared<std::string>();
  block->assign(kBlockSize, '\0');
  const Lsn base = static_cast<Lsn>(idx) * kBlockSize;
  const Lsn block_end = base + kBlockSize;
  Lsn arch_oldest = kInvalidLsn;
  Lsn arch_hw = 0;
  if (archive_ != nullptr) {
    arch_oldest = archive_->oldest_lsn();
    if (arch_oldest != kInvalidLsn) arch_hw = archive_->high_water();
  }
  size_t valid_end = 0;  // bytes [0, valid_end) of the block materialized
  if (arch_hw > base && arch_oldest < block_end) {
    const Lsn from = std::max(base, arch_oldest);
    const Lsn to = std::min(block_end, arch_hw);
    if (to > from) {
      REWIND_RETURN_IF_ERROR(
          archive_->ReadBytes(from, to - from, block->data() + (from - base)));
      valid_end = to - base;
    }
  }
  if (base < kFirstLsn) {
    // The log header lives only in the active file (never archived,
    // never punched).
    const size_t n_hdr = std::min<Lsn>(block_end, kFirstLsn) - base;
    if (::pread(fd_, block->data() + 0, n_hdr, static_cast<off_t>(base)) !=
        static_cast<ssize_t>(n_hdr)) {
      return Status::IoError("log header block read: " +
                             std::string(strerror(errno)));
    }
    valid_end = std::max(valid_end, n_hdr);
  }
  const Lsn file_from = arch_hw > base ? std::min(block_end, arch_hw) : base;
  if (file_from < block_end) {
    ssize_t n = ::pread(fd_, block->data() + (file_from - base),
                        block_end - file_from, static_cast<off_t>(file_from));
    if (n < 0) {
      return Status::IoError("log block read: " +
                             std::string(strerror(errno)));
    }
    if (disk_ != nullptr && n > 0) {
      disk_->Access(file_from, static_cast<uint64_t>(n));
    }
    if (n > 0) {
      valid_end =
          std::max(valid_end, static_cast<size_t>(file_from - base) +
                                  static_cast<size_t>(n));
    }
  }
  // Compression-frame overlay: the raw composite above holds frame
  // headers + compressed payloads (and holes) where framed logical
  // bytes should be. Materialize every durable frame that overlaps the
  // block and splice its logical bytes over the raw image. Frames
  // still being written by an in-flight flush are skipped -- reads in
  // that range are served from flushing_ memory, never from here.
  for (const LogFrame& f : FramesOverlapping(base, block_end)) {
    if (f.lsn + f.ulen > flushed_before) continue;
    std::string ubuf(f.ulen, '\0');
    REWIND_RETURN_IF_ERROR(MaterializeFrame(f, ubuf.data()));
    const Lsn lo = std::max<Lsn>(base, f.lsn);
    const Lsn hi = std::min<Lsn>(block_end, f.lsn + f.ulen);
    memcpy(block->data() + (lo - base), ubuf.data() + (lo - f.lsn), hi - lo);
    valid_end = std::max(valid_end, static_cast<size_t>(hi - base));
  }
  block->resize(valid_end);
  if (stats_ != nullptr) stats_->log_read_misses++;
  // A COMPLETE block of an append-only log is immutable, always safe
  // to cache. A SHORT (last) block may be extended by a concurrent
  // flush whose cache-invalidation pass ran before our insert, which
  // would leave a stale copy shadowing the new records -- so a short
  // block is inserted only if, under cache_mu_, no flush has started
  // since before our pread (flush_gen_ even and unchanged; the
  // invalidation pass runs strictly inside an odd-gen window, so an
  // unchanged even gen proves it has not run yet and any later flush
  // will invalidate what we insert).
  if (opts_.cache_blocks > 0) {
    std::lock_guard<std::mutex> g(cache_mu_);
    const bool short_block_safe =
        gen_before % 2 == 0 &&
        flush_gen_.load(std::memory_order_acquire) == gen_before;
    // A block wholly below the pre-read flush frontier is immutable
    // (its frames were published before the frontier moved); a block
    // reaching past it may have raced a concurrent flush's write and
    // is only cached when no flush ran across the read.
    const bool stable =
        block->size() == kBlockSize && block_end <= flushed_before;
    if (stable || short_block_safe) CacheLocked(idx, block);
  }
  return block;
}

void LogManager::CacheLocked(uint64_t idx,
                             std::shared_ptr<std::string> block) {
  if (cache_.find(idx) != cache_.end()) return;
  lru_.push_front(idx);
  cache_[idx] = {std::move(block), lru_.begin()};
  while (cache_.size() > opts_.cache_blocks) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
  }
}

Result<std::shared_ptr<std::string>> LogManager::ReadBackwardExtent(
    uint64_t idx, wal::BackwardWindow* window) {
  // The window doubles while each miss lands in the block just below
  // the previous read, and falls back to one block otherwise (a jump:
  // an FPI skip, a sparse stretch of the chain, a new walk).
  size_t want = 1;
  if (window->blocks > 0 && idx + 1 == window->low_block) {
    want = std::min(2 * window->blocks, kMaxBackwardExtentBlocks);
  }
  want = std::min(want, opts_.cache_blocks);  // read only what stays
  uint64_t lo = idx + 1 >= want ? idx + 1 - want : 0;
  lo = std::max({lo, window->floor_block, start_lsn_.load() / kBlockSize});
  bool extent = lo < idx && (idx + 1) * kBlockSize <=
                                flushed_lsn_.load(std::memory_order_acquire);
  if (extent && archive_ != nullptr && archive_->oldest_lsn() != kInvalidLsn &&
      archive_->high_water() > lo * kBlockSize) {
    extent = false;  // archived bytes: composed block by block
  }
  if (extent && !FramesOverlapping(lo * kBlockSize, (idx + 1) * kBlockSize)
                     .empty()) {
    extent = false;  // frames: materialized block by block
  }
  if (!extent) {
    *window = {window->floor_block, idx, 1};
    return std::shared_ptr<std::string>();
  }
  const size_t n = idx - lo + 1;
  std::vector<std::shared_ptr<std::string>> blocks(n);
  std::vector<struct iovec> iov(n);
  for (size_t i = 0; i < n; i++) {
    blocks[i] = std::make_shared<std::string>(kBlockSize, '\0');
    iov[i] = {blocks[i]->data(), kBlockSize};
  }
  ssize_t got = ::preadv(fd_, iov.data(), static_cast<int>(n),
                         static_cast<off_t>(lo * kBlockSize));
  if (got < 0) {
    return Status::IoError("log extent read: " + std::string(strerror(errno)));
  }
  if (static_cast<size_t>(got) != n * kBlockSize) {
    // Flushed bytes below the frontier always read in full; if they
    // did not, let the per-block path make sense of the short file.
    *window = {window->floor_block, idx, 1};
    return std::shared_ptr<std::string>();
  }
  if (disk_ != nullptr) disk_->Access(lo * kBlockSize, n * kBlockSize);
  if (stats_ != nullptr) stats_->log_read_misses++;
  {
    // Every block lies wholly below the flush frontier: immutable, so
    // always safe to cache. The missed block goes in last, as the most
    // recently used.
    std::lock_guard<std::mutex> g(cache_mu_);
    for (size_t i = 0; i < n; i++) CacheLocked(lo + i, blocks[i]);
  }
  *window = {window->floor_block, lo, n};
  return blocks[n - 1];
}

void LogManager::PrefetchBlock(Lsn lsn) {
  if (opts_.cache_blocks == 0) return;  // nothing to warm
  if (lsn >= flushed_lsn_.load(std::memory_order_acquire)) return;
  auto block = FetchBlock(lsn / kBlockSize);
  (void)block;
}

Status LogManager::ReadFromFile(Lsn lsn, LogRecord* out, size_t* encoded_size,
                                wal::BackwardWindow* window) {
  // Decode a record that lies inside one block straight from the cached
  // block; gather only a straddling record's own bytes. Only the first
  // block can start a backward extent: a straddle continues upward.
  uint64_t idx = lsn / kBlockSize;
  const size_t in_block = lsn % kBlockSize;
  REWIND_ASSIGN_OR_RETURN(std::shared_ptr<std::string> block,
                          FetchBlock(idx, window));
  if (block->size() <= in_block) {
    return Status::Corruption("log read past end of file");
  }
  const Slice head(block->data() + in_block, block->size() - in_block);
  uint32_t len = LogRecord::PeekLength(head);
  std::shared_ptr<std::string> next;
  if (head.size() < kLogLengthPrefix) {
    // Length prefix itself straddles: its rest opens the next block.
    REWIND_ASSIGN_OR_RETURN(next, FetchBlock(++idx));
    const size_t need = kLogLengthPrefix - head.size();
    if (next->size() >= need) {
      char prefix[kLogLengthPrefix];
      memcpy(prefix, head.data(), head.size());
      memcpy(prefix + head.size(), next->data(), need);
      len = DecodeFixed32(prefix);
    }
  }
  if (len == 0 || len > kMaxRecordBytes) {
    return Status::Corruption("log record: implausible length");
  }
  if (len <= head.size()) {
    return ParseAt(head.data(), len, out, encoded_size);
  }
  std::string buf;
  buf.reserve(len);
  buf.append(head.data(), head.size());
  while (buf.size() < len) {
    if (next == nullptr) {
      REWIND_ASSIGN_OR_RETURN(next, FetchBlock(++idx));
    }
    if (next->empty()) {
      return Status::Corruption("log record truncated");
    }
    buf.append(next->data(), std::min(next->size(), len - buf.size()));
    next.reset();
  }
  return ParseAt(buf.data(), len, out, encoded_size);
}

std::vector<CheckpointRef> LogManager::checkpoints() const {
  std::lock_guard<std::mutex> g(ckpt_mu_);
  return checkpoints_;
}

Status LogManager::TruncateBefore(Lsn lsn, bool reclaim) {
  // Never leave the log starting inside a compression frame: the
  // restart scan reads physical bytes from start_lsn, and a mid-frame
  // start would put it in the middle of a compressed payload. Keeping
  // the few extra records down to the frame boundary is always safe.
  lsn = FrameFloor(lsn);
  Lsn cur = start_lsn_.load();
  if (lsn <= cur) return Status::OK();
  {
    std::lock_guard<std::mutex> g(append_mu_);
    if (lsn > next_lsn_) {
      return Status::InvalidArgument("truncate beyond log end");
    }
  }
  start_lsn_.store(lsn);
  PruneCheckpointRefs();
  REWIND_RETURN_IF_ERROR(WriteHeader());
#if defined(__linux__) && defined(FALLOC_FL_PUNCH_HOLE)
  if (reclaim) {
    // Every truncated byte is sealed in the archive (the caller's
    // contract), so give the file blocks back to the filesystem. The
    // header's 4 KiB block is always kept; readers only touch the file
    // at/above the archive high water mark, which is >= lsn here.
    constexpr off_t kAlign = 4096;
    const off_t from = kAlign;
    const off_t to = static_cast<off_t>(lsn / kAlign) * kAlign;
    if (to > from) {
      // Best effort: filesystems without punch support keep the bytes;
      // the logical truncation above already hides them.
      (void)::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                        from, to - from);
    }
  }
#else
  (void)reclaim;
#endif
  return Status::OK();
}

void LogManager::PruneCheckpointRefs() {
  // Keep refs as long as their LSN is still resolvable through EITHER
  // tier: SplitLSN search and snapshot analysis need them for
  // long-horizon AS OF targets whose log lives only in the archive.
  const Lsn floor = oldest_available_lsn();
  PruneFrames(floor);
  std::lock_guard<std::mutex> g(ckpt_mu_);
  while (!checkpoints_.empty() && checkpoints_.front().begin_lsn < floor) {
    checkpoints_.erase(checkpoints_.begin());
  }
}

void LogManager::PrependCheckpoints(const std::vector<CheckpointRef>& refs) {
  if (refs.empty()) return;
  std::lock_guard<std::mutex> g(ckpt_mu_);
  checkpoints_.insert(checkpoints_.begin(), refs.begin(), refs.end());
}

Status LogManager::ReadRaw(Lsn lsn, size_t n, char* dst) {
  if (lsn < start_lsn_.load() ||
      lsn + n > flushed_lsn_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("raw log read outside the flushed range");
  }
  // Compressed frames leave their logical remainder unwritten, so the
  // physical file can legitimately end (or hole) inside the flushed
  // range: zero-fill and accept a short read, exactly what the sparse
  // bytes mean.
  memset(dst, 0, n);
  ssize_t r = ::pread(fd_, dst, n, static_cast<off_t>(lsn));
  if (r < 0) {
    return Status::IoError("raw log read: " + std::string(strerror(errno)));
  }
  if (disk_ != nullptr) disk_->Access(lsn, n);
  return Status::OK();
}

void LogManager::DropCache() {
  std::lock_guard<std::mutex> g(cache_mu_);
  cache_.clear();
  lru_.clear();
}

}  // namespace rewinddb
