#include "buffer/buffer_manager.h"

#include <cassert>
#include <cstring>

#include "io/paged_file.h"

namespace rewinddb {

Status FilePageStore::ReadPage(PageId id, char* buf, bool* dirty) {
  *dirty = false;
  return file_->ReadPage(id, buf);
}

Status FilePageStore::WritePage(PageId id, const char* buf) {
  return file_->WritePage(id, buf);
}

// ----------------------------- PageGuard ------------------------------

PageGuard& PageGuard::operator=(PageGuard&& o) noexcept {
  if (this != &o) {
    Release();
    bm_ = o.bm_;
    frame_ = o.frame_;
    mode_ = o.mode_;
    o.bm_ = nullptr;
    o.frame_ = nullptr;
  }
  return *this;
}

PageId PageGuard::page_id() const {
  assert(valid());
  return frame_->page_id;
}

const char* PageGuard::data() const {
  assert(valid());
  return frame_->data;
}

char* PageGuard::mutable_data() {
  assert(valid() && mode_ == AccessMode::kWrite);
  return frame_->data;
}

void PageGuard::MarkDirty(Lsn lsn) {
  assert(valid() && mode_ == AccessMode::kWrite);
  SetPageLsn(frame_->data, lsn);
  if (!frame_->dirty) {
    frame_->dirty = true;
    frame_->rec_lsn = lsn;
  }
}

void PageGuard::MarkDirtyUnlogged() {
  assert(valid() && mode_ == AccessMode::kWrite);
  frame_->dirty = true;
}

void PageGuard::Release() {
  if (frame_ != nullptr) {
    bm_->Unpin(frame_, mode_);
    frame_ = nullptr;
    bm_ = nullptr;
  }
}

// --------------------------- BufferManager ----------------------------

BufferManager::BufferManager(PageStore* store, wal::Wal* log,
                             IoStats* stats, size_t pool_pages,
                             bool verify_checksums, size_t shards)
    : store_(store), log_(log), stats_(stats),
      verify_checksums_(verify_checksums), pool_pages_(pool_pages) {
  if (pool_pages == 0) pool_pages = pool_pages_ = 1;
  if (shards == 0) shards = pool_pages / kFramesPerShardTarget;
  if (shards > kMaxShards) shards = kMaxShards;
  if (shards > pool_pages) shards = pool_pages;
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; i++) {
    auto s = std::make_unique<Shard>();
    // Every shard gets its fair share of the frames (the first
    // `pool_pages % shards` shards hold one extra); PinFrame allocates
    // them on first use.
    s->capacity = pool_pages / shards + (i < pool_pages % shards ? 1 : 0);
    s->frames.reserve(s->capacity);
    shards_.push_back(std::move(s));
  }
}

BufferManager::~BufferManager() {
  for (auto& s : shards_) {
    for (Frame* f : s->frames) delete f;
  }
}

BufferManager::Shard* BufferManager::ShardOf(PageId id) {
  return shards_[PagePartition(id, shards_.size())].get();
}

BufferManager::Stats BufferManager::stats() const {
  Stats out;
  out.shards = shards_.size();
  out.pool_pages = pool_pages_;
  for (const auto& s : shards_) {
    out.frames += s->frames_allocated.load(std::memory_order_relaxed);
    out.hits += s->hits.load(std::memory_order_relaxed);
    out.misses += s->misses.load(std::memory_order_relaxed);
    out.evictions += s->evictions.load(std::memory_order_relaxed);
  }
  return out;
}

void BufferManager::Unpin(Frame* frame, AccessMode mode) {
  if (mode == AccessMode::kWrite) {
    frame->latch.unlock();
  } else {
    frame->latch.unlock_shared();
  }
  Shard* s = ShardOf(frame->page_id);
  std::lock_guard<std::mutex> g(s->mu);
  frame->pin_count--;
  assert(frame->pin_count >= 0);
}

Status BufferManager::EvictVictimLocked(Shard* s) {
  // Clock sweep: two full passes distinguish "everything referenced"
  // from "everything pinned".
  for (size_t step = 0; step < s->frames.size() * 2; step++) {
    Frame* f = s->frames[s->clock_hand];
    s->clock_hand = (s->clock_hand + 1) % s->frames.size();
    if (f->page_id == kInvalidPageId) return Status::OK();  // free frame
    if (f->pin_count > 0) continue;
    if (f->ref) {
      f->ref = false;
      continue;
    }
    // Victim found: flush if dirty (WAL rule), then drop the mapping.
    // pin_count == 0 implies no latch holder (latches are held only
    // while pinned), so reading the frame bytes here is safe.
    if (f->dirty) {
      REWIND_RETURN_IF_ERROR(WriteFrameToStore(f));
    }
    s->table.erase(f->page_id);
    RetireFrameLocked(s, f);
    s->evictions.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  return Status::Busy("buffer pool shard exhausted: every frame is pinned");
}

void BufferManager::RetireFrameLocked(Shard* s, Frame* f) {
  size_t slot = f->slot;
  delete f;
  Frame* fresh = new Frame;  // unzeroed, see Frame
  fresh->slot = slot;
  s->frames[slot] = fresh;
}

Status BufferManager::WriteFrameToStore(Frame* frame) {
  // WAL rule: the log must be durable up to the page's LSN before the
  // page image can reach the store.
  if (log_ != nullptr) {
    Lsn lsn = PageLsn(frame->data);
    if (lsn != kInvalidLsn) {
      REWIND_RETURN_IF_ERROR(log_->FlushTo(lsn));
    }
  }
  // Stamp the checksum on a copy so concurrent shared readers of the
  // frame never observe the checksum field mutating.
  char copy[kPageSize];
  memcpy(copy, frame->data, kPageSize);
  StampPageChecksum(copy);
  REWIND_RETURN_IF_ERROR(store_->WritePage(frame->page_id, copy));
  frame->dirty = false;
  frame->rec_lsn = kInvalidLsn;
  return Status::OK();
}

Result<Frame*> BufferManager::PinFrame(PageId id, bool read_on_miss,
                                       bool* was_present) {
  Shard* s = ShardOf(id);
  std::unique_lock<std::mutex> g(s->mu);
  for (;;) {
    auto it = s->table.find(id);
    if (it == s->table.end()) break;
    Frame* f = it->second;
    if (f->io_busy) {
      // Another thread is filling this frame; wait for the image (or
      // for the failed miss to retract the mapping) and re-check.
      s->io_cv.wait(g);
      continue;
    }
    f->pin_count++;
    f->ref = true;
    *was_present = true;
    s->hits.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  *was_present = false;
  s->misses.fetch_add(1, std::memory_order_relaxed);
  Frame* target = nullptr;
  if (s->frames.size() < s->capacity) {
    // Below capacity: allocate a frame (unzeroed, see Frame).
    target = new Frame;
    target->slot = s->frames.size();
    s->frames.push_back(target);
    s->frames_allocated.fetch_add(1, std::memory_order_relaxed);
  } else {
    REWIND_RETURN_IF_ERROR(EvictVictimLocked(s));
    // EvictVictimLocked leaves at least one free frame; find it near the
    // clock hand.
    for (size_t i = 0; i < s->frames.size(); i++) {
      Frame* f = s->frames[(s->clock_hand + i) % s->frames.size()];
      if (f->page_id == kInvalidPageId && f->pin_count == 0) {
        target = f;
        break;
      }
    }
    if (target == nullptr) {
      return Status::Busy("buffer pool shard exhausted");
    }
  }
  target->page_id = id;
  target->pin_count = 1;
  target->ref = true;
  target->dirty = false;
  target->rec_lsn = kInvalidLsn;
  s->table[id] = target;
  if (!read_on_miss) {
    // Page allocation: format an empty frame; no store IO, so no
    // io_busy window (done under the shard mutex).
    memset(target->data, 0, kPageSize);
    Header(target->data)->page_id = id;
    return target;
  }
  // Fill the frame outside the shard mutex. io_busy (not the frame
  // latch) excludes concurrent fetchers, so no mutex -> latch edge.
  target->io_busy = true;
  g.unlock();

  bool recovered = false;
  Status io = store_->ReadPage(id, target->data, &recovered);
  if (io.ok() && verify_checksums_ && !VerifyPageChecksum(target->data)) {
    io = Status::Corruption("page " + std::to_string(id) +
                            " failed checksum verification");
  }

  g.lock();
  target->io_busy = false;
  if (!io.ok()) {
    // Waiters never pin an io_busy frame, so the misser's pin is the
    // only one: retract the mapping and let waiters retry the miss.
    target->pin_count--;
    assert(target->pin_count == 0);
    s->table.erase(id);
    target->page_id = kInvalidPageId;
    s->io_cv.notify_all();
    return io;
  }
  // A recovered image is in no store yet: the write-back on eviction or
  // flush is what saves it.
  target->dirty = recovered;
  s->io_cv.notify_all();
  return target;
}

Result<PageGuard> BufferManager::FetchPage(PageId id, AccessMode mode) {
  bool present;
  REWIND_ASSIGN_OR_RETURN(Frame * frame, PinFrame(id, true, &present));
  if (mode == AccessMode::kWrite) {
    frame->latch.lock();
  } else {
    frame->latch.lock_shared();
  }
  return PageGuard(this, frame, mode);
}

Result<PageGuard> BufferManager::NewPage(PageId id) {
  bool present;
  REWIND_ASSIGN_OR_RETURN(Frame * frame, PinFrame(id, false, &present));
  frame->latch.lock();
  if (present) {
    // Page re-allocated while its old frame is still resident: reuse
    // the frame; the caller formats over it.
    memset(frame->data, 0, kPageSize);
    Header(frame->data)->page_id = id;
    frame->dirty = false;
    frame->rec_lsn = kInvalidLsn;
  }
  return PageGuard(this, frame, AccessMode::kWrite);
}

Status BufferManager::FlushPage(PageId id) {
  Shard* s = ShardOf(id);
  std::unique_lock<std::mutex> g(s->mu);
  auto it = s->table.find(id);
  if (it == s->table.end()) return Status::OK();
  Frame* f = it->second;
  if (f->io_busy) return Status::OK();  // mid-miss frames are clean
  f->pin_count++;
  g.unlock();

  f->latch.lock_shared();
  Status st = f->dirty ? WriteFrameToStore(f) : Status::OK();
  f->latch.unlock_shared();

  std::lock_guard<std::mutex> g2(s->mu);
  f->pin_count--;
  return st;
}

Status BufferManager::FlushAll() {
  std::vector<PageId> dirty;
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> g(s->mu);
    for (const auto& [id, f] : s->table) {
      if (f->dirty) dirty.push_back(id);
    }
  }
  for (PageId id : dirty) {
    REWIND_RETURN_IF_ERROR(FlushPage(id));
  }
  return Status::OK();
}

Status BufferManager::FlushAndEvict(PageId id) {
  REWIND_RETURN_IF_ERROR(FlushPage(id));
  Shard* s = ShardOf(id);
  std::lock_guard<std::mutex> g(s->mu);
  auto it = s->table.find(id);
  if (it == s->table.end()) return Status::OK();
  Frame* f = it->second;
  if (f->pin_count > 0) {
    return Status::Busy("cannot evict pinned page " + std::to_string(id));
  }
  if (f->dirty) {
    // Dirtied again between flush and evict; extremely unlikely in the
    // deallocation path, but do not lose the write.
    REWIND_RETURN_IF_ERROR(WriteFrameToStore(f));
  }
  s->table.erase(it);
  RetireFrameLocked(s, f);
  return Status::OK();
}

std::vector<DptEntry> BufferManager::DirtyPageTable() {
  std::vector<DptEntry> dpt;
  for (auto& s : shards_) {
    std::lock_guard<std::mutex> g(s->mu);
    for (const auto& [id, f] : s->table) {
      if (f->dirty) dpt.push_back({id, f->rec_lsn});
    }
  }
  return dpt;
}

}  // namespace rewinddb
