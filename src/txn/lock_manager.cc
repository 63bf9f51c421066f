#include "txn/lock_manager.h"

#include <algorithm>

namespace rewinddb {

std::string RowLockKey(TreeId tree, const std::string& encoded_key) {
  std::string k;
  k.reserve(4 + encoded_key.size());
  k.append(reinterpret_cast<const char*>(&tree), sizeof(tree));
  k.append(encoded_key);
  return k;
}

std::string SchemaLockKey(TreeId tree) {
  std::string k = "S#";
  k.append(reinterpret_cast<const char*>(&tree), sizeof(tree));
  return k;
}

bool LockManager::CompatibleLocked(const LockState& st, TxnId txn,
                                   LockMode mode) const {
  for (const auto& [holder, held_mode] : st.holders) {
    if (holder == txn) continue;  // self-compatibility handled by caller
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

Status LockManager::AcquireInternal(TxnId txn, const std::string& key,
                                    LockMode mode, bool blocking) {
  std::unique_lock<std::mutex> g(mu_);
  LockState& st = locks_[key];

  auto self = st.holders.find(txn);
  if (self != st.holders.end()) {
    if (self->second == LockMode::kExclusive || mode == LockMode::kShared) {
      return Status::OK();  // already covered
    }
    // S -> X upgrade.
  }

  auto grantable = [&]() { return CompatibleLocked(st, txn, mode); };

  if (!grantable()) {
    if (!blocking) {
      if (st.holders.empty() && st.waiters == 0) locks_.erase(key);
      return Status::Busy("lock busy");
    }
    st.waiters++;
    bool ok = cv_.wait_for(g, std::chrono::microseconds(timeout_), grantable);
    // The map node may have been touched; re-find defensively.
    LockState& st2 = locks_[key];
    st2.waiters--;
    if (!ok) {
      if (st2.holders.empty() && st2.waiters == 0) locks_.erase(key);
      return Status::Aborted(
          "lock wait timeout (deadlock victim): txn " + std::to_string(txn));
    }
    st2.holders[txn] = mode;
    if (self == st.holders.end()) held_[txn].push_back(key);
    return Status::OK();
  }

  bool already_tracked = self != st.holders.end();
  st.holders[txn] = mode;
  if (!already_tracked) held_[txn].push_back(key);
  return Status::OK();
}

Status LockManager::Acquire(TxnId txn, const std::string& key, LockMode mode) {
  return AcquireInternal(txn, key, mode, /*blocking=*/true);
}

Status LockManager::TryAcquire(TxnId txn, const std::string& key,
                               LockMode mode) {
  return AcquireInternal(txn, key, mode, /*blocking=*/false);
}

void LockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> g(mu_);
  auto it = held_.find(txn);
  if (it == held_.end()) return;
  for (const std::string& key : it->second) {
    auto lk = locks_.find(key);
    if (lk == locks_.end()) continue;
    lk->second.holders.erase(txn);
    if (lk->second.holders.empty() && lk->second.waiters == 0) {
      locks_.erase(lk);
    }
  }
  held_.erase(it);
  cv_.notify_all();
}

size_t LockManager::LockedKeyCount() const {
  std::lock_guard<std::mutex> g(mu_);
  return locks_.size();
}

bool LockManager::Holds(TxnId txn, const std::string& key,
                        LockMode mode) const {
  std::lock_guard<std::mutex> g(mu_);
  auto lk = locks_.find(key);
  if (lk == locks_.end()) return false;
  auto it = lk->second.holders.find(txn);
  if (it == lk->second.holders.end()) return false;
  return mode == LockMode::kShared || it->second == LockMode::kExclusive;
}

}  // namespace rewinddb
