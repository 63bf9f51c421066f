#include "engine/page_ops.h"

#include <cstring>
#include <utility>

#include "common/page_delta.h"
#include "page/alloc_page.h"
#include "page/slotted_page.h"

namespace rewinddb {

Lsn PageOps::Publish(Transaction* txn, const LogRecord& rec) {
  if (txn != nullptr) return txns_->Publish(txn, rec);
  return wal_->Append(rec);
}

Lsn PageOps::AppendChained(Transaction* txn, PageGuard& page,
                           LogRecord* rec) {
  PageHeader* h = Header(page.mutable_data());
  rec->txn_id = txn != nullptr ? txn->id : kInvalidTxnId;
  rec->prev_lsn = txn != nullptr ? txn->last_lsn.load() : kInvalidLsn;
  rec->is_system = txn != nullptr && txn->is_system;
  rec->prev_page_lsn = h->page_lsn;
  rec->prev_fpi_lsn = h->last_fpi_lsn;
  rec->page_id = h->page_id;
  if (rec->tree_id == kInvalidPageId) rec->tree_id = h->tree_id;
  return Publish(txn, *rec);
}

void PageOps::MaybeEmitFpi(Transaction* /*txn*/, PageGuard& page) {
  PageHeader* h = Header(page.mutable_data());
  h->mod_count++;
  if (fpi_period_ == 0 || h->mod_count < fpi_period_) return;

  // Periodic full page image (section 6.1): "the page content at this
  // LSN is exactly `image`". Logged outside any transaction chain; the
  // per-page and per-FPI chains are what the rewinder follows.
  LogRecord fpi;
  fpi.page_id = h->page_id;
  fpi.tree_id = h->tree_id;
  fpi.prev_page_lsn = h->page_lsn;
  fpi.prev_fpi_lsn = h->last_fpi_lsn;

  // WAL-diet delta path: when the page's previous FPI is recent (still
  // inside the configured log window) and its composed image is still
  // cached, log only the byte ranges that changed since. Any miss --
  // window exceeded, cache evicted, chain already at max depth, or a
  // patch that would barely undercut the full image -- falls back to a
  // full kPreformat, which also restarts the chain.
  uint32_t depth = 0;
  bool delta = false;
  if (fpi_delta_window_ > 0 && h->last_fpi_lsn != kInvalidLsn &&
      wal_->next_lsn() - h->last_fpi_lsn <= fpi_delta_window_) {
    std::lock_guard<std::mutex> g(delta_mu_);
    auto it = delta_cache_.find(h->page_id);
    if (it != delta_cache_.end() && it->second.lsn == h->last_fpi_lsn &&
        it->second.depth < kMaxFpiDeltaChain) {
      std::string patch =
          EncodePageDelta(it->second.image.data(), page.data(), kPageSize);
      if (patch.size() + 64 < kPageSize) {
        fpi.type = LogType::kFpiDelta;
        fpi.image = std::move(patch);
        depth = it->second.depth + 1;
        delta = true;
      }
    }
  }
  if (!delta) {
    fpi.type = LogType::kPreformat;
    fpi.image.assign(page.data(), kPageSize);
  }
  if (fpi_delta_window_ > 0) wal_->NoteFpiDelta(delta);
  Lsn lsn = wal_->Append(fpi);
  // Cache the CURRENT content (the image this FPI stands for, composed)
  // as the base for the page's next delta.
  CacheFpiImage(h->page_id, lsn, depth, page.data());
  h->last_fpi_lsn = lsn;
  h->mod_count = 0;
  page.MarkDirty(lsn);
}

void PageOps::CacheFpiImage(PageId id, Lsn lsn, uint32_t depth,
                            const char* image) {
  if (fpi_delta_window_ == 0) return;
  std::lock_guard<std::mutex> g(delta_mu_);
  if (delta_cache_.size() >= kFpiDeltaCacheEntries &&
      delta_cache_.find(id) == delta_cache_.end()) {
    // Evict an arbitrary entry: the cache is an optimization, and any
    // smarter policy would need bookkeeping on the mutation hot path.
    delta_cache_.erase(delta_cache_.begin());
  }
  FpiBase& e = delta_cache_[id];
  e.lsn = lsn;
  e.depth = depth;
  e.image.assign(image, kPageSize);
}

Status PageOps::LogInsert(Transaction* txn, PageGuard& page, uint16_t slot,
                          Slice entry) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.slot = slot;
  rec.image = entry.ToString();
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(page.mutable_data(), slot,
                                               entry));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogDelete(Transaction* txn, PageGuard& page, uint16_t slot) {
  if (slot >= SlottedPage::SlotCount(page.data())) {
    return Status::Corruption("LogDelete: slot out of range");
  }
  LogRecord rec;
  rec.type = LogType::kDelete;
  rec.slot = slot;
  rec.image = SlottedPage::Record(page.data(), slot).ToString();
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::RemoveAt(page.mutable_data(), slot));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogUpdate(Transaction* txn, PageGuard& page, uint16_t slot,
                          Slice entry) {
  if (slot >= SlottedPage::SlotCount(page.data())) {
    return Status::Corruption("LogUpdate: slot out of range");
  }
  LogRecord rec;
  rec.type = LogType::kUpdate;
  rec.slot = slot;
  rec.image = SlottedPage::Record(page.data(), slot).ToString();
  rec.image2 = entry.ToString();
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::ReplaceAt(page.mutable_data(), slot,
                                                entry));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogFormat(Transaction* txn, PageGuard& page, PageId id,
                          PageType type, uint8_t level, TreeId tree) {
  // Capture chain anchors before Init wipes the header. When LogFormat
  // follows LogPreformat, the preformat record is both the previous
  // page record and the newest FPI.
  PageHeader* h = Header(page.mutable_data());
  Lsn prev_page = h->page_lsn;
  Lsn prev_fpi = h->last_fpi_lsn;

  LogRecord rec;
  rec.type = LogType::kFormat;
  rec.page_id = id;
  rec.tree_id = tree;
  rec.fmt_type = static_cast<uint8_t>(type);
  rec.fmt_level = level;
  rec.txn_id = txn != nullptr ? txn->id : kInvalidTxnId;
  rec.prev_lsn = txn != nullptr ? txn->last_lsn.load() : kInvalidLsn;
  rec.is_system = txn != nullptr && txn->is_system;
  rec.prev_page_lsn = prev_page;
  rec.prev_fpi_lsn = prev_fpi;
  Lsn lsn = Publish(txn, rec);

  if (type == PageType::kAllocMap) {
    AllocPage::Init(page.mutable_data(), id);
  } else {
    SlottedPage::Init(page.mutable_data(), id, type, level, tree);
  }
  Header(page.mutable_data())->last_fpi_lsn = prev_fpi;
  page.MarkDirty(lsn);
  return Status::OK();
}

Status PageOps::LogPreformat(Transaction* txn, PageGuard& page,
                             const char* image) {
  const PageHeader* ih = Header(image);
  LogRecord rec;
  rec.type = LogType::kPreformat;
  rec.page_id = Header(page.data())->page_id;
  rec.tree_id = ih->tree_id;
  rec.txn_id = txn != nullptr ? txn->id : kInvalidTxnId;
  rec.prev_lsn = txn != nullptr ? txn->last_lsn.load() : kInvalidLsn;
  rec.is_system = txn != nullptr && txn->is_system;
  // Splice the chains: the preformat's predecessor is the last record
  // of the page's previous incarnation (paper figure 2).
  rec.prev_page_lsn = ih->page_lsn;
  rec.prev_fpi_lsn = ih->last_fpi_lsn;
  rec.image.assign(image, kPageSize);
  Lsn lsn = Publish(txn, rec);
  // A full image restarts the page's delta chain at depth 0.
  CacheFpiImage(Header(page.data())->page_id, lsn, 0, image);

  // The frame now carries the preformat LSN in both chain anchors so
  // the following LogFormat links to it.
  PageHeader* h = Header(page.mutable_data());
  h->page_lsn = lsn;
  h->last_fpi_lsn = lsn;
  h->mod_count = 0;
  page.MarkDirty(lsn);
  return Status::OK();
}

Status PageOps::LogSetSibling(Transaction* txn, PageGuard& page,
                              PageId new_sibling) {
  PageHeader* h = Header(page.mutable_data());
  LogRecord rec;
  rec.type = LogType::kSetSibling;
  rec.sibling_new = new_sibling;
  rec.sibling_old = h->right_sibling;
  Lsn lsn = AppendChained(txn, page, &rec);
  h->right_sibling = new_sibling;
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogAllocBits(Transaction* txn, PageGuard& map_page,
                             uint32_t bit, bool allocated, bool ever) {
  LogRecord rec;
  rec.type = LogType::kAllocBits;
  rec.alloc_bit = bit;
  rec.alloc_new = allocated;
  rec.ever_new = ever;
  rec.alloc_old = AllocPage::IsAllocated(map_page.data(), bit);
  rec.ever_old = AllocPage::EverAllocated(map_page.data(), bit);
  Lsn lsn = AppendChained(txn, map_page, &rec);
  bool pa, pe;
  AllocPage::SetBits(map_page.mutable_data(), bit, allocated, ever, &pa, &pe);
  map_page.MarkDirty(lsn);
  MaybeEmitFpi(txn, map_page);
  return Status::OK();
}

Status PageOps::LogClrInsert(Transaction* txn, PageGuard& page, uint16_t slot,
                             Slice entry, Lsn undo_next) {
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = LogType::kInsert;
  rec.slot = slot;
  rec.image = entry.ToString();
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(page.mutable_data(), slot,
                                               entry));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogClrDelete(Transaction* txn, PageGuard& page, uint16_t slot,
                             Lsn undo_next) {
  if (slot >= SlottedPage::SlotCount(page.data())) {
    return Status::Corruption("LogClrDelete: slot out of range");
  }
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = LogType::kDelete;
  rec.slot = slot;
  rec.image = SlottedPage::Record(page.data(), slot).ToString();
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::RemoveAt(page.mutable_data(), slot));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogClrUpdate(Transaction* txn, PageGuard& page, uint16_t slot,
                             Slice entry, Lsn undo_next) {
  if (slot >= SlottedPage::SlotCount(page.data())) {
    return Status::Corruption("LogClrUpdate: slot out of range");
  }
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = LogType::kUpdate;
  rec.slot = slot;
  rec.image = SlottedPage::Record(page.data(), slot).ToString();
  rec.image2 = entry.ToString();
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, page, &rec);
  REWIND_RETURN_IF_ERROR(SlottedPage::ReplaceAt(page.mutable_data(), slot,
                                                entry));
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogClrAllocBits(Transaction* txn, PageGuard& map_page,
                                uint32_t bit, bool allocated, bool ever,
                                Lsn undo_next) {
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = LogType::kAllocBits;
  rec.alloc_bit = bit;
  rec.alloc_new = allocated;
  rec.ever_new = ever;
  rec.alloc_old = AllocPage::IsAllocated(map_page.data(), bit);
  rec.ever_old = AllocPage::EverAllocated(map_page.data(), bit);
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, map_page, &rec);
  bool pa, pe;
  AllocPage::SetBits(map_page.mutable_data(), bit, allocated, ever, &pa, &pe);
  map_page.MarkDirty(lsn);
  MaybeEmitFpi(txn, map_page);
  return Status::OK();
}

Status PageOps::LogClrSetSibling(Transaction* txn, PageGuard& page,
                                 PageId new_sibling, Lsn undo_next) {
  PageHeader* h = Header(page.mutable_data());
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = LogType::kSetSibling;
  rec.sibling_new = new_sibling;
  rec.sibling_old = h->right_sibling;
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, page, &rec);
  h->right_sibling = new_sibling;
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

Status PageOps::LogClrNoop(Transaction* txn, PageGuard& page,
                           LogType compensated, Lsn undo_next) {
  LogRecord rec;
  rec.type = LogType::kClr;
  rec.clr_op = compensated;
  rec.undo_next_lsn = undo_next;
  Lsn lsn = AppendChained(txn, page, &rec);
  page.MarkDirty(lsn);
  MaybeEmitFpi(txn, page);
  return Status::OK();
}

}  // namespace rewinddb
