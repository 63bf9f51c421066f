#include "wal/archive.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/coding.h"

namespace rewinddb {
namespace wal {

namespace {

// Segment file layout: 64-byte header, the payload (verbatim PHYSICAL
// log bytes; compression-frame gaps are file holes), then a footer of
// ckpt_count CheckpointRef entries followed by frame_count LogFrame
// entries (16 bytes each, one checksum over the whole footer) -- the
// checkpoint- and frame-directory slices for the segment's range, so
// Open recovers both from one small read per segment instead of
// decoding archived history. frame_count sits in previously-zeroed
// header padding: segments sealed before compression existed read as
// frame_count == 0 and parse unchanged. The LSN range is stored both
// in the file name (operator-visible, sortable) and the header
// (authoritative); Open rejects files where the two disagree.
constexpr uint64_t kSegmentMagic = 0x5257415243763101ULL;  // "RWARCv1"+01
constexpr size_t kSegmentHeaderSize = 64;
constexpr size_t kCheckpointRefSize = 16;
constexpr size_t kFrameRefSize = 16;

struct SegmentHeader {
  uint64_t magic;
  Lsn first_lsn;
  Lsn last_lsn;
  uint32_t payload_checksum;
  uint32_t ckpt_count;
  uint32_t footer_checksum;
  uint32_t frame_count;

  void WriteTo(char* buf) const {
    memset(buf, 0, kSegmentHeaderSize);
    memcpy(buf, &magic, 8);
    memcpy(buf + 8, &first_lsn, 8);
    memcpy(buf + 16, &last_lsn, 8);
    memcpy(buf + 24, &payload_checksum, 4);
    memcpy(buf + 28, &ckpt_count, 4);
    memcpy(buf + 32, &footer_checksum, 4);
    memcpy(buf + 36, &frame_count, 4);
  }
  static SegmentHeader ReadFrom(const char* buf) {
    SegmentHeader h;
    memcpy(&h.magic, buf, 8);
    memcpy(&h.first_lsn, buf + 8, 8);
    memcpy(&h.last_lsn, buf + 16, 8);
    memcpy(&h.payload_checksum, buf + 24, 4);
    memcpy(&h.ckpt_count, buf + 28, 4);
    memcpy(&h.footer_checksum, buf + 32, 4);
    memcpy(&h.frame_count, buf + 36, 4);
    return h;
  }
};

std::string EncodeFooter(const std::vector<CheckpointRef>& refs,
                         const std::vector<LogFrame>& frames) {
  std::string out;
  out.reserve(refs.size() * kCheckpointRefSize + frames.size() * kFrameRefSize);
  for (const CheckpointRef& r : refs) {
    char buf[kCheckpointRefSize];
    memcpy(buf, &r.begin_lsn, 8);
    memcpy(buf + 8, &r.wall_clock, 8);
    out.append(buf, sizeof(buf));
  }
  for (const LogFrame& f : frames) {
    char buf[kFrameRefSize];
    memcpy(buf, &f.lsn, 8);
    memcpy(buf + 8, &f.ulen, 4);
    memcpy(buf + 12, &f.clen, 4);
    out.append(buf, sizeof(buf));
  }
  return out;
}

Status CloseAndReport(int fd, Status s) {
  ::close(fd);
  return s;
}

/// Make the directory entry for a freshly renamed segment durable;
/// without this a post-seal hole punch of the active log could outlive
/// the rename across a power loss.
Status SyncDir(const std::string& dir) {
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::IoError("open archive dir for fsync: " +
                           std::string(strerror(errno)));
  }
  if (::fsync(dfd) != 0) {
    return CloseAndReport(dfd, Status::IoError("archive dir fsync: " +
                                               std::string(strerror(errno))));
  }
  ::close(dfd);
  return Status::OK();
}

}  // namespace

std::string ArchiveLayout::SegmentFileName(Lsn first_lsn,
                                           Lsn last_lsn) const {
  char buf[64];
  snprintf(buf, sizeof(buf), "seg-%016" PRIx64 "-%016" PRIx64 ".rwarc",
           first_lsn, last_lsn);
  return buf;
}

bool ArchiveLayout::ParseSegmentFileName(const std::string& name,
                                         Lsn* first_lsn,
                                         Lsn* last_lsn) const {
  uint64_t a = 0;
  uint64_t b = 0;
  if (sscanf(name.c_str(), "seg-%16" SCNx64 "-%16" SCNx64 ".rwarc", &a,
             &b) != 2) {
    return false;
  }
  // Exact round trip only: sscanf tolerates trailing garbage, and a
  // crash can leave "....rwarc.tmp" files that must never be indexed
  // as sealed segments.
  if (SegmentFileName(a, b) != name) return false;
  *first_lsn = a;
  *last_lsn = b;
  return true;
}

ArchiveManager::ArchiveManager(std::string dir, DiskModel* disk,
                               IoStats* stats, ArchiveOptions opts)
    : dir_(std::move(dir)),
      disk_(disk),
      stats_(stats),
      opts_(opts),
      layout_(opts.layout != nullptr ? opts.layout : &default_layout_) {}

Result<std::unique_ptr<ArchiveManager>> ArchiveManager::Open(
    const std::string& dir, DiskModel* disk, IoStats* stats,
    ArchiveOptions opts) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("create archive dir " + dir + ": " +
                           ec.message());
  }
  auto am = std::unique_ptr<ArchiveManager>(
      new ArchiveManager(dir, disk, stats, opts));

  struct Found {
    Segment seg;
    std::vector<CheckpointRef> ckpts;
    std::vector<LogFrame> frames;
  };
  std::vector<Found> found;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    Lsn first = kInvalidLsn;
    Lsn last = kInvalidLsn;
    if (!am->layout_->ParseSegmentFileName(name, &first, &last)) continue;
    // Validate the header against the name and the checkpoint footer
    // against its checksum; a mismatch means the file is not a sealed
    // segment of this archive and is skipped (never deleted). Payload
    // verification stays lazy -- the first read pays it.
    int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    char hdr[kSegmentHeaderSize];
    ssize_t n = ::pread(fd, hdr, sizeof(hdr), 0);
    SegmentHeader h = SegmentHeader::ReadFrom(hdr);
    bool valid = n == static_cast<ssize_t>(sizeof(hdr)) &&
                 h.magic == kSegmentMagic && h.first_lsn == first &&
                 h.last_lsn == last && last > first;
    std::vector<CheckpointRef> ckpts;
    std::vector<LogFrame> frames;
    if (valid && (h.ckpt_count > 0 || h.frame_count > 0)) {
      const size_t ckpt_bytes = h.ckpt_count * kCheckpointRefSize;
      const size_t footer_bytes = ckpt_bytes + h.frame_count * kFrameRefSize;
      std::string footer;
      footer.resize(footer_bytes);
      off_t at = static_cast<off_t>(kSegmentHeaderSize + (last - first));
      valid = h.ckpt_count <= (last - first) &&  // sanity bounds
              h.frame_count <= (last - first) &&
              ::pread(fd, footer.data(), footer_bytes, at) ==
                  static_cast<ssize_t>(footer_bytes) &&
              Checksum32(footer.data(), footer.size()) == h.footer_checksum;
      for (uint32_t i = 0; valid && i < h.ckpt_count; i++) {
        CheckpointRef r;
        memcpy(&r.begin_lsn, footer.data() + i * kCheckpointRefSize, 8);
        memcpy(&r.wall_clock, footer.data() + i * kCheckpointRefSize + 8, 8);
        ckpts.push_back(r);
      }
      for (uint32_t i = 0; valid && i < h.frame_count; i++) {
        const char* p = footer.data() + ckpt_bytes + i * kFrameRefSize;
        LogFrame f;
        memcpy(&f.lsn, p, 8);
        memcpy(&f.ulen, p + 8, 4);
        memcpy(&f.clen, p + 12, 4);
        frames.push_back(f);
      }
    }
    ::close(fd);
    if (!valid) continue;
    found.push_back({{first, last, entry.path().string(), false},
                     std::move(ckpts),
                     std::move(frames)});
  }
  if (ec) {
    return Status::IoError("scan archive dir " + dir + ": " + ec.message());
  }
  std::sort(found.begin(), found.end(),
            [](const Found& a, const Found& b) {
              return a.seg.first_lsn < b.seg.first_lsn;
            });
  // Keep the newest contiguous run: DropBefore only removes prefixes,
  // so gaps can only come from manual tampering or a dropped-then-
  // crashed prefix; serving across a gap would be a silent hole in
  // history.
  size_t run_start = 0;
  for (size_t i = 1; i < found.size(); i++) {
    if (found[i].seg.first_lsn != found[i - 1].seg.last_lsn) run_start = i;
  }
  for (size_t i = run_start; i < found.size(); i++) {
    am->segments_.push_back(found[i].seg);
    am->recovered_checkpoints_.insert(am->recovered_checkpoints_.end(),
                                      found[i].ckpts.begin(),
                                      found[i].ckpts.end());
    am->recovered_frames_.insert(am->recovered_frames_.end(),
                                 found[i].frames.begin(),
                                 found[i].frames.end());
  }
  return am;
}

Status ArchiveManager::Seal(Lsn first_lsn, Slice payload,
                            const std::vector<CheckpointRef>& checkpoints,
                            const std::vector<LogFrame>& frames) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty archive segment");
  }
  const Lsn last_lsn = first_lsn + payload.size();
  for (const LogFrame& f : frames) {
    if (f.lsn < first_lsn || f.lsn + f.ulen > last_lsn ||
        f.clen + LogManager::kFrameHeaderSize >= f.ulen) {
      return Status::InvalidArgument("archive frame outside segment range");
    }
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    if (!segments_.empty() && first_lsn != segments_.back().last_lsn) {
      return Status::InvalidArgument(
          "archive seal must append at the high water mark (" +
          std::to_string(segments_.back().last_lsn) + "), got " +
          std::to_string(first_lsn));
    }
  }

  const std::string footer = EncodeFooter(checkpoints, frames);
  SegmentHeader h;
  h.magic = kSegmentMagic;
  h.first_lsn = first_lsn;
  h.last_lsn = last_lsn;
  h.payload_checksum = Checksum32(payload.data(), payload.size());
  h.ckpt_count = static_cast<uint32_t>(checkpoints.size());
  h.frame_count = static_cast<uint32_t>(frames.size());
  h.footer_checksum = Checksum32(footer.data(), footer.size());
  char hdr[kSegmentHeaderSize];
  h.WriteTo(hdr);

  const std::string name = layout_->SegmentFileName(first_lsn, last_lsn);
  const std::string final_path = dir_ + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  int fd = ::open(tmp_path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("create archive segment " + tmp_path + ": " +
                           strerror(errno));
  }
  if (::pwrite(fd, hdr, sizeof(hdr), 0) !=
      static_cast<ssize_t>(sizeof(hdr))) {
    return CloseAndReport(fd, Status::IoError("archive header write: " +
                                              std::string(strerror(errno))));
  }
  // Write the payload sparsely: a compression frame occupies only
  // header + compressed bytes of its logical range, so the remainder
  // [frame + 24 + clen, frame + ulen) is all zeros -- skip it and let
  // the filesystem keep a hole. The payload checksum above was computed
  // over the full zero-filled image, so VerifySegment (which reads the
  // whole logical size; holes read back as zeros) is unaffected.
  {
    uint64_t cursor = 0;  // payload-relative
    auto write_run = [&](uint64_t off, uint64_t n) -> Status {
      if (n == 0) return Status::OK();
      if (::pwrite(fd, payload.data() + off, n,
                   static_cast<off_t>(kSegmentHeaderSize + off)) !=
          static_cast<ssize_t>(n)) {
        return Status::IoError("archive payload write: " +
                               std::string(strerror(errno)));
      }
      return Status::OK();
    };
    for (const LogFrame& f : frames) {
      const uint64_t data_end =
          (f.lsn - first_lsn) + LogManager::kFrameHeaderSize + f.clen;
      const uint64_t hole_end = (f.lsn - first_lsn) + f.ulen;
      Status s = write_run(cursor, data_end - cursor);
      if (!s.ok()) return CloseAndReport(fd, s);
      cursor = hole_end;
    }
    Status s = write_run(cursor, payload.size() - cursor);
    if (!s.ok()) return CloseAndReport(fd, s);
    // Ensure the file extends through any trailing hole so the footer
    // lands at the right offset even if the last frame ends the
    // payload (pwrite of the footer below does this implicitly; this
    // comment records the dependency).
  }
  if (!footer.empty() &&
      ::pwrite(fd, footer.data(), footer.size(),
               static_cast<off_t>(kSegmentHeaderSize + payload.size())) !=
          static_cast<ssize_t>(footer.size())) {
    return CloseAndReport(fd, Status::IoError("archive footer write: " +
                                              std::string(strerror(errno))));
  }
  if (::fdatasync(fd) != 0) {
    return CloseAndReport(
        fd, Status::IoError("archive sync: " + std::string(strerror(errno))));
  }
  ::close(fd);
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::IoError("publish archive segment: " + ec.message());
  }
  // The rename must be journalled before callers may hole-punch the
  // active log's copy of these bytes.
  REWIND_RETURN_IF_ERROR(SyncDir(dir_));
  if (disk_ != nullptr) disk_->Access(first_lsn, payload.size());
  if (stats_ != nullptr) stats_->log_bytes_written += payload.size();

  {
    std::lock_guard<std::mutex> g(mu_);
    // Re-check the append invariant: a racing Seal of the same range
    // may have published while the file was being written (callers
    // serialize via Wal's seal mutex, but this class promises safety
    // on its own).
    if (!segments_.empty() && first_lsn != segments_.back().last_lsn) {
      return Status::InvalidArgument(
          "archive seal lost an append race at " +
          std::to_string(first_lsn));
    }
    // Sealed by this process: the checksum was computed from the bytes
    // just written, no need to re-verify on first read.
    segments_.push_back({first_lsn, last_lsn, final_path, true});
  }
  segments_sealed_.fetch_add(1, std::memory_order_relaxed);
  bytes_sealed_.fetch_add(payload.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status ArchiveManager::VerifySegment(const Segment& seg) {
  const uint64_t payload_size = seg.last_lsn - seg.first_lsn;
  int fd = ::open(seg.path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("open archive segment " + seg.path + ": " +
                           strerror(errno));
  }
  char hdr[kSegmentHeaderSize];
  if (::pread(fd, hdr, sizeof(hdr), 0) !=
      static_cast<ssize_t>(sizeof(hdr))) {
    return CloseAndReport(fd,
                          Status::Corruption("archive header unreadable: " +
                                             seg.path));
  }
  SegmentHeader h = SegmentHeader::ReadFrom(hdr);
  std::string payload;
  payload.resize(payload_size);
  ssize_t n = ::pread(fd, payload.data(), payload_size, kSegmentHeaderSize);
  ::close(fd);
  if (n != static_cast<ssize_t>(payload_size)) {
    return Status::Corruption("archive segment short: " + seg.path);
  }
  if (Checksum32(payload.data(), payload.size()) != h.payload_checksum) {
    return Status::Corruption("archive segment checksum mismatch: " +
                              seg.path);
  }
  verifications_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ArchiveManager::ReadBytes(Lsn lsn, size_t n, char* dst) {
  size_t done = 0;
  while (done < n) {
    const Lsn at = lsn + done;
    Segment seg;
    bool need_verify = false;
    {
      std::lock_guard<std::mutex> g(mu_);
      auto it = std::upper_bound(
          segments_.begin(), segments_.end(), at,
          [](Lsn v, const Segment& s) { return v < s.last_lsn; });
      if (it == segments_.end() || at < it->first_lsn) {
        return Status::OutOfRange(
            "archived log byte " + std::to_string(at) +
            " is not retained (segment dropped or never sealed)");
      }
      seg = *it;
      need_verify = !it->verified;
    }
    if (need_verify) {
      REWIND_RETURN_IF_ERROR(VerifySegment(seg));
      std::lock_guard<std::mutex> g(mu_);
      for (Segment& s : segments_) {
        if (s.first_lsn == seg.first_lsn) s.verified = true;
      }
    }
    const size_t off_in_seg = at - seg.first_lsn;
    const size_t avail = (seg.last_lsn - seg.first_lsn) - off_in_seg;
    const size_t want = std::min(n - done, avail);
    int fd = ::open(seg.path.c_str(), O_RDONLY);
    if (fd < 0) {
      // Raced an archive-retention drop between the index lookup and
      // the open; report it like any other fallen-off-the-horizon read.
      return Status::OutOfRange("archived segment dropped: " + seg.path);
    }
    ssize_t r = ::pread(fd, dst + done, want,
                        static_cast<off_t>(kSegmentHeaderSize + off_in_seg));
    ::close(fd);
    if (r != static_cast<ssize_t>(want)) {
      return Status::Corruption("archive segment read short: " + seg.path);
    }
    if (disk_ != nullptr) disk_->Access(at, want);
    done += want;
  }
  bytes_read_.fetch_add(n, std::memory_order_relaxed);
  return Status::OK();
}

Status ArchiveManager::DropBefore(Lsn lsn) {
  std::vector<Segment> victims;
  {
    std::lock_guard<std::mutex> g(mu_);
    while (!segments_.empty() && segments_.front().last_lsn <= lsn) {
      victims.push_back(segments_.front());
      segments_.erase(segments_.begin());
    }
  }
  Status first_error;
  for (const Segment& s : victims) {
    std::error_code ec;
    std::filesystem::remove(s.path, ec);
    if (ec && first_error.ok()) {
      first_error = Status::IoError("drop archive segment " + s.path + ": " +
                                    ec.message());
    }
    segments_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(s.last_lsn - s.first_lsn,
                             std::memory_order_relaxed);
  }
  return first_error;
}

bool ArchiveManager::Covers(Lsn lsn) const {
  std::lock_guard<std::mutex> g(mu_);
  return !segments_.empty() && lsn >= segments_.front().first_lsn &&
         lsn < segments_.back().last_lsn;
}

Lsn ArchiveManager::oldest_lsn() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.empty() ? kInvalidLsn : segments_.front().first_lsn;
}

Lsn ArchiveManager::high_water() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.empty() ? kInvalidLsn : segments_.back().last_lsn;
}

uint64_t ArchiveManager::archived_bytes() const {
  std::lock_guard<std::mutex> g(mu_);
  uint64_t total = 0;
  for (const Segment& s : segments_) total += s.last_lsn - s.first_lsn;
  return total;
}

size_t ArchiveManager::segment_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return segments_.size();
}

ArchiveStats ArchiveManager::stats() const {
  ArchiveStats out;
  out.segments_sealed = segments_sealed_.load(std::memory_order_relaxed);
  out.segments_dropped = segments_dropped_.load(std::memory_order_relaxed);
  out.bytes_sealed = bytes_sealed_.load(std::memory_order_relaxed);
  out.bytes_dropped = bytes_dropped_.load(std::memory_order_relaxed);
  out.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  out.verifications = verifications_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace wal
}  // namespace rewinddb
