#include "wal/wal_cursor.h"

#include <vector>

#include "common/page_delta.h"
#include "log/log_manager.h"

namespace rewinddb {
namespace wal {

Status Cursor::LoadAt(Lsn lsn, bool benign_corruption,
                      BackwardWindow* window) {
  valid_ = false;
  if (lsn == kInvalidLsn) return Status::OK();  // chain end
  size_t size = 0;
  // Decoding into rec_ reuses its buffers: a chain walk allocates
  // nothing per step.
  Status s = core_->ReadRecord(lsn, &rec_, &size, window);
  if (s.ok()) {
    lsn_ = lsn;
    size_ = size;
    valid_ = true;
    return Status::OK();
  }
  if (s.IsInvalidArgument()) {
    // At or past the append frontier: the benign end of a forward scan.
    return Status::OK();
  }
  if (s.IsCorruption() && benign_corruption) {
    // Torn tail: the durable log simply ends here.
    return Status::OK();
  }
  return s;
}

Status Cursor::SeekTo(Lsn lsn) {
  return LoadAt(lsn, /*benign=*/false, /*window=*/nullptr);
}

void Cursor::EnableBackwardExtents(Lsn floor) {
  window_ = BackwardWindow{floor / LogManager::kBlockSize, 0, 0};
}

Status Cursor::Follow(Lsn lsn) {
  if (lsn == kInvalidLsn) {
    valid_ = false;
    return Status::OK();  // chain end
  }
  REWIND_RETURN_IF_ERROR(LoadAt(lsn, /*benign=*/false,
                                window_.has_value() ? &*window_ : nullptr));
  if (!valid_) {
    // Unlike a forward scan reaching the frontier, a chain link that
    // does not resolve to a record is a broken chain, never benign:
    // silently stopping here would present a partial rollback or
    // flashback as complete.
    return Status::Corruption("log chain link " + std::to_string(lsn) +
                              " points past the log end");
  }
  return Status::OK();
}

Status Cursor::Next() {
  if (!valid_) {
    return Status::InvalidArgument("Next() on an invalid wal::Cursor");
  }
  Lsn next = lsn_ + size_;
  // One-block readahead: on crossing into a new block, warm the cache
  // with the block AFTER it, so a record straddling out of the new
  // block finds its second half already resident.
  if ((next / LogManager::kBlockSize) != (lsn_ / LogManager::kBlockSize)) {
    core_->PrefetchBlock(next + LogManager::kBlockSize);
  }
  return LoadAt(next, /*benign=*/true, /*window=*/nullptr);
}

Status MaterializeFpiImage(const Cursor& at, std::string* image) {
  if (!at.Valid()) {
    return Status::InvalidArgument("MaterializeFpiImage on invalid cursor");
  }
  if (at.record().type == LogType::kPreformat) {
    if (at.record().image.size() != kPageSize) {
      return Status::Corruption("FPI at " + std::to_string(at.lsn()) +
                                " has wrong image size");
    }
    *image = at.record().image;
    return Status::OK();
  }
  if (at.record().type != LogType::kFpiDelta) {
    return Status::InvalidArgument("MaterializeFpiImage on non-FPI record");
  }
  // Walk the delta chain back to its kPreformat base, collecting the
  // patches newest-first. The writer bounds chains (PageOps gives up
  // and emits a full image past kMaxFpiDeltaChain), so a longer walk
  // here means a broken chain, not a deep one.
  constexpr size_t kChainCap = 64;
  std::vector<std::string> patches;  // newest-first
  Cursor cur = at;  // the caller's cursor never moves
  patches.push_back(cur.record().image);
  while (true) {
    if (patches.size() > kChainCap) {
      return Status::Corruption("FPI delta chain at " +
                                std::to_string(at.lsn()) +
                                " exceeds the chain cap");
    }
    REWIND_RETURN_IF_ERROR(cur.FollowPrevFpi());
    if (!cur.Valid()) {
      return Status::Corruption("FPI delta chain at " +
                                std::to_string(at.lsn()) +
                                " has no full-image base");
    }
    if (cur.record().type == LogType::kPreformat) break;
    if (cur.record().type != LogType::kFpiDelta) {
      return Status::Corruption("FPI chain at " + std::to_string(at.lsn()) +
                                " links a non-FPI record");
    }
    patches.push_back(cur.record().image);
  }
  if (cur.record().image.size() != kPageSize) {
    return Status::Corruption("FPI base at " + std::to_string(cur.lsn()) +
                              " has wrong image size");
  }
  *image = cur.record().image;
  for (size_t i = patches.size(); i-- > 0;) {  // oldest-first
    REWIND_RETURN_IF_ERROR(
        ApplyPageDelta(image->data(), image->size(), Slice(patches[i])));
  }
  return Status::OK();
}

}  // namespace wal
}  // namespace rewinddb
