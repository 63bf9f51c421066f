// Sharded buffer pool with shared/exclusive page latches, per-shard
// clock eviction, dirty tracking and the WAL rule.
//
// The pool reads and writes through the PageStore interface. The primary
// database's store is the PagedFile; an as-of snapshot's store is the
// SnapshotStore, which checks the sparse side file, falls back to the
// primary file and rewinds the page on the way in (paper section 5.3).
// A page the store had to recover enters the pool dirty, so it reaches
// the side file only when it leaves the pool (eviction or flush).
// Keeping that indirection *below* the buffer pool is what preserves the
// paper's property that every component higher in the stack (B-tree,
// catalog, queries) is oblivious to time travel (section 2.2).
//
// Sharding: the frame table is split into N shards (per-shard hash
// table, mutex, frame array and clock hand), so parallel replay workers
// and concurrent queries touching different pages do not serialize on
// one table mutex. Per-frame shared_mutex latches are unchanged.
//
// Lock ordering (enforced, checked by the TSan CI job with
// detect_deadlocks=1):
//   frame latch -> shard mutex -> WAL mutexes
// A thread may hold page latches while fetching another page (which
// takes a shard mutex), and a shard mutex while flushing a victim
// (which takes WAL mutexes), but never the reverse. Miss IO therefore
// does NOT hold the frame latch: a frame being filled is marked
// `io_busy` and concurrent fetchers of the same page wait on the
// shard's condition variable, so no shard-mutex -> frame-latch edge
// exists.
#ifndef REWINDDB_BUFFER_BUFFER_MANAGER_H_
#define REWINDDB_BUFFER_BUFFER_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "io/io_stats.h"
#include "log/log_record.h"
#include "page/page.h"
#include "wal/wal.h"

namespace rewinddb {

/// Backing store for a buffer pool: where pages come from on a miss and
/// go on eviction/flush.
class PageStore {
 public:
  virtual ~PageStore() = default;
  /// Fill `buf` with page `id`. `*dirty` reports that the store does not
  /// hold this image yet (a snapshot store recovered it): the pool keeps
  /// the frame dirty, so the image is written back before it is dropped.
  virtual Status ReadPage(PageId id, char* buf, bool* dirty) = 0;
  virtual Status WritePage(PageId id, const char* buf) = 0;
};

/// Adapter: PagedFile as a PageStore.
class FilePageStore : public PageStore {
 public:
  explicit FilePageStore(class PagedFile* file) : file_(file) {}
  Status ReadPage(PageId id, char* buf, bool* dirty) override;
  Status WritePage(PageId id, const char* buf) override;

 private:
  class PagedFile* file_;
};

enum class AccessMode { kRead, kWrite };

/// One pool slot. Internal to the buffer manager; exposed in the header
/// only so PageGuard can be a cheap inline handle.
///
/// A Frame object lives for ONE page incarnation: eviction deletes it
/// and puts a fresh Frame in its slot. That keeps the per-incarnation
/// latch a distinct lock instance, so lock-order tracking (TSan
/// detect_deadlocks=1 in CI) sees page-latch ordering per page rather
/// than false cycles from one recycled mutex serving many pages.
/// Neither a first-use frame nor a fresh one has its `data` zeroed: a
/// miss read fills it (or is retracted) and page allocation formats it
/// before any reader sees it.
struct Frame {
  alignas(8) char data[kPageSize];
  PageId page_id = kInvalidPageId;
  /// Dirty flag and first-dirtier LSN (dirty page table). Atomic
  /// because flushers clear them under a SHARED latch: two concurrent
  /// FlushPage calls on one page (e.g. two simultaneous checkpoints)
  /// may race clear-vs-clear, and DirtyPageTable reads race a writer's
  /// MarkDirty. Set-vs-clear cannot race: MarkDirty requires the
  /// exclusive latch, which excludes the flusher's shared latch, and a
  /// miss that filled the frame by recovery sets it under the shard
  /// mutex as it clears io_busy, before any flusher can pin the frame.
  std::atomic<bool> dirty{false};
  std::atomic<Lsn> rec_lsn{kInvalidLsn};
  int pin_count = 0;          // guarded by the owning shard's mutex
  bool ref = false;           // clock reference bit
  /// Miss IO in flight: the misser fills `data` without the latch;
  /// concurrent fetchers wait on the shard cv until this clears.
  bool io_busy = false;
  /// Index in the owning shard's frame array (so eviction can replace
  /// this object in place).
  size_t slot = 0;
  std::shared_mutex latch;
};

class BufferManager;

/// RAII handle to a pinned, latched page frame. Move-only; releases the
/// latch and pin on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& o) noexcept { *this = std::move(o); }
  PageGuard& operator=(PageGuard&& o) noexcept;
  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;

  bool valid() const { return frame_ != nullptr; }
  PageId page_id() const;

  const char* data() const;
  /// Mutable page bytes; requires kWrite access.
  char* mutable_data();

  /// Record that this page was modified by the log record at `lsn`:
  /// sets the page LSN, marks the frame dirty and seeds its recovery
  /// LSN for the dirty page table.
  void MarkDirty(Lsn lsn);

  /// Mark dirty without an LSN (snapshot-side modifications, which are
  /// not logged -- the side file is a cache, not a database of record).
  void MarkDirtyUnlogged();

  /// Explicitly release (also done by the destructor).
  void Release();

 private:
  friend class BufferManager;
  PageGuard(BufferManager* bm, struct Frame* frame, AccessMode mode)
      : bm_(bm), frame_(frame), mode_(mode) {}

  BufferManager* bm_ = nullptr;
  struct Frame* frame_ = nullptr;
  AccessMode mode_ = AccessMode::kRead;
};

/// A pool of at most `pool_pages` page frames, sharded by page id.
/// Frames are allocated on first use: a shard takes a new frame on a
/// miss while it holds fewer than its share, and runs the clock sweep
/// only once it is full, so a pool costs memory for the pages it has
/// held, not for its capacity.
class BufferManager {
 public:
  /// Aggregated pool counters (per-shard counters summed).
  struct Stats {
    uint64_t hits = 0;       // fetches served from a resident frame
    uint64_t misses = 0;     // fetches that had to touch the store
    uint64_t evictions = 0;  // victim frames recycled by the clock sweep
    size_t shards = 0;
    size_t pool_pages = 0;   // capacity in frames
    size_t frames = 0;       // frames allocated so far (<= pool_pages)
  };

  /// \param store    backing page store (file or snapshot store)
  /// \param log      WAL to honour before flushing dirty pages; nullptr
  ///                 for snapshot pools (their writes are unlogged)
  /// \param pool_pages capacity in frames
  /// \param verify_checksums verify page checksums on every miss read
  /// \param shards   shard count; 0 picks one shard per 128 frames,
  ///                 capped at kMaxShards (small pools degenerate to a
  ///                 single shard, i.e. the pre-sharding behaviour)
  BufferManager(PageStore* store, wal::Wal* log, IoStats* stats,
                size_t pool_pages, bool verify_checksums = true,
                size_t shards = 0);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Fetch an existing page (reads through the store on a miss).
  Result<PageGuard> FetchPage(PageId id, AccessMode mode);

  /// Materialize a page frame without reading the store (page
  /// allocation: the caller formats the frame).
  Result<PageGuard> NewPage(PageId id);

  /// Write one page to the store if dirty (honours the WAL rule).
  Status FlushPage(PageId id);

  /// Flush every dirty page (checkpoint / snapshot creation).
  Status FlushAll();

  /// Flush (if dirty) and drop a page from the pool. Used at page
  /// deallocation so the store holds the final pre-dealloc image that a
  /// later preformat record must capture.
  Status FlushAndEvict(PageId id);

  /// Dirty page table for checkpoint end records.
  std::vector<DptEntry> DirtyPageTable();

  size_t pool_pages() const { return pool_pages_; }
  size_t shard_count() const { return shards_.size(); }

  /// Aggregated hit/miss/eviction counters across all shards.
  Stats stats() const;

  static constexpr size_t kMaxShards = 16;
  static constexpr size_t kFramesPerShardTarget = 128;

 private:
  friend class PageGuard;

  struct Shard {
    std::mutex mu;
    std::condition_variable io_cv;  // miss-IO completion
    std::unordered_map<PageId, Frame*> table;
    std::vector<Frame*> frames;  // allocated so far, at most `capacity`
    size_t capacity = 0;
    size_t clock_hand = 0;
    std::atomic<size_t> frames_allocated{0};  // frames.size(), lock-free
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
  };

  Shard* ShardOf(PageId id);
  Result<Frame*> PinFrame(PageId id, bool read_on_miss, bool* was_present);
  Status EvictVictimLocked(Shard* s);  // s->mu held
  /// Retire an unpinned, unmapped frame's incarnation: delete the
  /// object and seat a fresh Frame in its slot (s->mu held).
  void RetireFrameLocked(Shard* s, Frame* f);
  Status WriteFrameToStore(Frame* frame);
  void Unpin(Frame* frame, AccessMode mode);

  PageStore* store_;
  wal::Wal* log_;
  IoStats* stats_;
  const bool verify_checksums_;
  size_t pool_pages_ = 0;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rewinddb

#endif  // REWINDDB_BUFFER_BUFFER_MANAGER_H_
