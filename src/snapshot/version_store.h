// Shared version store: a cross-snapshot cache of rewound page images.
//
// The paper's §6.2–§6.3 show that as-of query cost is dominated by the
// per-page backward log-chain walk, and that N concurrent as-of queries
// at nearby times each repeat that walk from the *current* page image.
// The version store removes the repetition: every completed rewind
// publishes its result, keyed by (page_id, page_lsn), and later rewinds
// of the same page consult the store first.
//
// A cached version is the exact historical image of the page as it
// stood at `page_lsn`, and it stays the image of record until the next
// modification of that page at `valid_until` (exclusive). A rewind
// knows that bound for free, because the last chain element it
// processed IS that next modification. A seed that needed no undo at
// all is published too, with the mount's split + 1 as the bound: it
// already predated the split, so nothing changed the page between its
// LSN and the split. Every bound is a lower bound of the next change,
// so a re-publish of a cached version keeps the larger of the two.
// Lookup therefore distinguishes:
//
//   * exact hit    -- a version with page_lsn <= target < valid_until:
//                     the image is returned as-is, no chain walk at all.
//   * partial hit  -- the closest version with page_lsn > target: the
//                     image becomes the rewind STARTING POINT, so the
//                     chain walk covers only (target, page_lsn] instead
//                     of (target, current].
//   * miss         -- rewind from the current primary image as before.
//
// The store is hung off Database (one per engine; LSNs are engine
// scoped) and shared by every AsOfSnapshot, whatever surface created it
// (Connection::AsOf, Connection::Snapshot, engine-level Create). The
// per-snapshot sparse side files remain: they cache pages *at one
// snapshot's SplitLSN, after that snapshot's private loser-undo*; the
// version store is the layer above, holding only pristine physical
// rewind results that are valid for any snapshot.
//
// Memory is bounded by a byte budget (DatabaseOptions::
// version_store_bytes; 0 disables) with global LRU eviction plus a
// small per-page version cap, at which the page's least recently used
// version yields. Log truncation (retention enforcement) drops
// versions that lie wholly before the truncation point.
#ifndef REWINDDB_SNAPSHOT_VERSION_STORE_H_
#define REWINDDB_SNAPSHOT_VERSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/types.h"

namespace rewinddb {

/// Process-wide (per-Database) cache of rewound page images. Thread
/// safe; all operations are O(log versions-of-page) under one mutex.
class VersionStore {
 public:
  enum class LookupKind { kMiss, kExact, kPartial };

  struct Lookup {
    LookupKind kind = LookupKind::kMiss;
    /// Page LSN of the returned image (kExact / kPartial only).
    Lsn version_lsn = kInvalidLsn;
  };

  /// Counter snapshot, PageRewinder/IoStats-style: relaxed atomics
  /// written under the store mutex, read lock-free by benches.
  struct Stats {
    uint64_t exact_hits = 0;
    uint64_t partial_hits = 0;
    uint64_t misses = 0;
    uint64_t published = 0;
    /// Budget-pressure LRU evictions: the signal for sizing
    /// version_store_bytes.
    uint64_t evictions = 0;
    /// Displacements by the per-page version cap (not budget related):
    /// a full page's least recently used version yields.
    uint64_t cap_drops = 0;
    uint64_t truncation_drops = 0;
  };

  /// `budget_bytes` == 0 disables the store: every lookup misses and
  /// nothing is retained.
  explicit VersionStore(size_t budget_bytes) : budget_(budget_bytes) {}
  VersionStore(const VersionStore&) = delete;
  VersionStore& operator=(const VersionStore&) = delete;

  /// Best cached version of `id` for target `as_of_lsn`; on kExact or
  /// kPartial the image is copied into `buf` (kPageSize bytes).
  Lookup Find(PageId id, Lsn as_of_lsn, char* buf);

  /// Publish a rewound image. `buf`'s stamped page LSN keys the
  /// version; `valid_until` is the LSN of the page's next modification
  /// (the last chain element the rewind processed), or any lower bound
  /// of it. Re-publishing a cached version raises its valid_until to
  /// the larger bound. Ignored when disabled or when valid_until does
  /// not exceed the page LSN.
  void Publish(PageId id, const char* buf, Lsn valid_until);

  /// Retention enforcement truncated the log before `lsn`: drop every
  /// version whose validity range lies wholly before it (no in-
  /// retention target can use it). Versions spanning `lsn` stay -- they
  /// are still the image of record for targets at or after it.
  void TruncateBefore(Lsn lsn);

  /// Resize the budget at runtime (benches toggle cache-on/cache-off
  /// without rebuilding the database). Shrinking evicts immediately;
  /// 0 clears and disables.
  void SetBudget(size_t budget_bytes);

  void Clear();

  size_t budget_bytes() const {
    return budget_.load(std::memory_order_relaxed);
  }
  size_t bytes_used() const;
  size_t version_count() const;

  Stats stats() const {
    return {exact_hits_.load(std::memory_order_relaxed),
            partial_hits_.load(std::memory_order_relaxed),
            misses_.load(std::memory_order_relaxed),
            published_.load(std::memory_order_relaxed),
            evictions_.load(std::memory_order_relaxed),
            cap_drops_.load(std::memory_order_relaxed),
            truncation_drops_.load(std::memory_order_relaxed)};
  }
  void ResetStats();

 private:
  struct Version;
  using LruList = std::list<std::pair<PageId, Lsn>>;
  using VersionMap = std::map<Lsn, Version>;  // page_lsn -> version

  struct Version {
    /// Refcounted so Find can copy the bytes outside the mutex while a
    /// concurrent eviction drops the index entry.
    std::shared_ptr<char[]> image;  // kPageSize bytes
    Lsn valid_until = kInvalidLsn;  // exclusive
    LruList::iterator lru;
    /// use_clock_ at the last publish or find: picks the page's
    /// victim at the per-page cap.
    uint64_t last_use = 0;
  };

  /// Accounting cost of one version (image + index/LRU overhead).
  static constexpr size_t kVersionCost = kPageSize + 96;
  /// Hot pages keep at most this many materialized versions; beyond it
  /// the page's least recently published-or-found version yields,
  /// whatever its age. Keeping the newest instead bunched a hot page's
  /// versions at the latest targets, and every older target rewound it
  /// from there. A larger cap buys reuse with resident memory.
  static constexpr size_t kMaxVersionsPerPage = 8;

  void TouchLocked(Version* v);
  void EvictOneLocked();
  void EvictToBudgetLocked(size_t budget);
  void EraseLocked(PageId id, VersionMap::iterator it);

  std::atomic<size_t> budget_;

  mutable std::mutex mu_;
  std::unordered_map<PageId, VersionMap> pages_;
  LruList lru_;  // front = most recent
  uint64_t use_clock_ = 0;  // ticks once per publish or find
  size_t bytes_used_ = 0;
  /// Highest TruncateBefore point seen; publishes of versions that lie
  /// wholly before it (a rewind racing retention enforcement) are
  /// rejected rather than cached unreachable.
  Lsn truncated_before_ = kInvalidLsn;

  std::atomic<uint64_t> exact_hits_{0};
  std::atomic<uint64_t> partial_hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> cap_drops_{0};
  std::atomic<uint64_t> truncation_drops_{0};
};

}  // namespace rewinddb

#endif  // REWINDDB_SNAPSHOT_VERSION_STORE_H_
