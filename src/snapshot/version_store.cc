#include "snapshot/version_store.h"

#include <algorithm>
#include <cstring>

#include "page/page.h"

namespace rewinddb {

VersionStore::Lookup VersionStore::Find(PageId id, Lsn as_of_lsn,
                                        char* buf) {
  if (budget_.load(std::memory_order_relaxed) == 0) {
    return {};  // disabled: not even a miss worth counting
  }
  // Grab a reference under the lock, copy the 8 KiB outside it: the
  // images are refcounted, so a concurrent eviction only drops the
  // index entry.
  std::shared_ptr<char[]> image;
  Lookup out;
  {
    std::lock_guard<std::mutex> g(mu_);
    auto page_it = pages_.find(id);
    if (page_it == pages_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
    VersionMap& versions = page_it->second;

    // First version with page_lsn > target; its predecessor (if any)
    // is the newest version at or before the target.
    auto above = versions.upper_bound(as_of_lsn);
    if (above != versions.begin() &&
        as_of_lsn < std::prev(above)->second.valid_until) {
      // Exact: the image of record for this target.
      auto at_or_below = std::prev(above);
      image = at_or_below->second.image;
      TouchLocked(&at_or_below->second);
      exact_hits_.fetch_add(1, std::memory_order_relaxed);
      out = {LookupKind::kExact, at_or_below->first};
    } else if (above != versions.end()) {
      // Partial: closest image newer than the target; the rewind
      // starts here and walks only the gap.
      image = above->second.image;
      TouchLocked(&above->second);
      partial_hits_.fetch_add(1, std::memory_order_relaxed);
      out = {LookupKind::kPartial, above->first};
    } else {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return {};
    }
  }
  memcpy(buf, image.get(), kPageSize);
  return out;
}

void VersionStore::Publish(PageId id, const char* buf, Lsn valid_until) {
  if (budget_.load(std::memory_order_relaxed) < kVersionCost) return;
  // The image's own stamped LSN keys the version; a version must cover
  // a non-empty range to ever satisfy a lookup.
  Lsn page_lsn = PageLsn(buf);
  if (valid_until == kInvalidLsn || valid_until <= page_lsn) return;

  // Copy the image outside the lock: every concurrent snapshot read
  // serializes on mu_, so the critical section should be index/LRU
  // maintenance only.
  std::shared_ptr<char[]> image(new char[kPageSize]);
  memcpy(image.get(), buf, kPageSize);

  std::lock_guard<std::mutex> g(mu_);
  // Re-read under the mutex: a concurrent SetBudget shrink must not be
  // overshot (and never inserted into a just-disabled store).
  size_t budget = budget_.load(std::memory_order_relaxed);
  if (budget < kVersionCost) return;
  // A rewind that raced retention enforcement may deliver a version no
  // in-retention target can use; do not let it occupy budget.
  if (valid_until <= truncated_before_) return;
  VersionMap& versions = pages_[id];
  auto it = versions.find(page_lsn);
  if (it != versions.end()) {
    // Re-derived by another mount. Both bounds are lower bounds of the
    // page's next change (a walk's is exact), so the larger one holds.
    it->second.valid_until = std::max(it->second.valid_until, valid_until);
    TouchLocked(&it->second);
    return;
  }
  if (versions.size() >= kMaxVersionsPerPage) {
    // The page's least recently used version yields, not its oldest:
    // the targets still being asked for may lie anywhere in history.
    EraseLocked(id, std::min_element(
                        versions.begin(), versions.end(),
                        [](const auto& a, const auto& b) {
                          return a.second.last_use < b.second.last_use;
                        }));
  }
  while (bytes_used_ + kVersionCost > budget && !lru_.empty()) {
    EvictOneLocked();
  }
  if (bytes_used_ + kVersionCost > budget) return;
  Version v;
  v.image = std::move(image);
  v.valid_until = valid_until;
  lru_.emplace_front(id, page_lsn);
  v.lru = lru_.begin();
  v.last_use = ++use_clock_;
  pages_[id].emplace(page_lsn, std::move(v));
  bytes_used_ += kVersionCost;
  published_.fetch_add(1, std::memory_order_relaxed);
}

void VersionStore::TruncateBefore(Lsn lsn) {
  std::lock_guard<std::mutex> g(mu_);
  if (lsn > truncated_before_) truncated_before_ = lsn;
  for (auto page_it = pages_.begin(); page_it != pages_.end();) {
    VersionMap& versions = page_it->second;
    for (auto it = versions.begin(); it != versions.end();) {
      if (it->second.valid_until <= lsn) {
        lru_.erase(it->second.lru);
        bytes_used_ -= kVersionCost;
        truncation_drops_.fetch_add(1, std::memory_order_relaxed);
        it = versions.erase(it);
      } else {
        ++it;
      }
    }
    if (versions.empty()) {
      page_it = pages_.erase(page_it);
    } else {
      ++page_it;
    }
  }
}

void VersionStore::SetBudget(size_t budget_bytes) {
  std::lock_guard<std::mutex> g(mu_);
  budget_.store(budget_bytes, std::memory_order_relaxed);
  EvictToBudgetLocked(budget_bytes);
}

void VersionStore::Clear() {
  std::lock_guard<std::mutex> g(mu_);
  pages_.clear();
  lru_.clear();
  bytes_used_ = 0;
}

size_t VersionStore::bytes_used() const {
  std::lock_guard<std::mutex> g(mu_);
  return bytes_used_;
}

size_t VersionStore::version_count() const {
  std::lock_guard<std::mutex> g(mu_);
  return lru_.size();
}

void VersionStore::ResetStats() {
  exact_hits_.store(0, std::memory_order_relaxed);
  partial_hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  published_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  cap_drops_.store(0, std::memory_order_relaxed);
  truncation_drops_.store(0, std::memory_order_relaxed);
}

void VersionStore::TouchLocked(Version* v) {
  lru_.splice(lru_.begin(), lru_, v->lru);
  v->last_use = ++use_clock_;
}

void VersionStore::EvictOneLocked() {
  if (lru_.empty()) return;
  auto [id, page_lsn] = lru_.back();
  auto page_it = pages_.find(id);
  auto it = page_it->second.find(page_lsn);
  lru_.erase(it->second.lru);
  bytes_used_ -= kVersionCost;
  evictions_.fetch_add(1, std::memory_order_relaxed);
  page_it->second.erase(it);
  if (page_it->second.empty()) pages_.erase(page_it);
}

void VersionStore::EvictToBudgetLocked(size_t budget) {
  while (bytes_used_ > budget && !lru_.empty()) EvictOneLocked();
}

void VersionStore::EraseLocked(PageId id, VersionMap::iterator it) {
  lru_.erase(it->second.lru);
  bytes_used_ -= kVersionCost;
  cap_drops_.fetch_add(1, std::memory_order_relaxed);
  pages_[id].erase(it);
}

}  // namespace rewinddb
