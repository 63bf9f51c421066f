#include "snapshot/asof_snapshot.h"

#include <algorithm>
#include <unordered_map>

#include "btree/btree.h"
#include "engine/read_core.h"
#include "engine/redo_undo.h"
#include "page/slotted_page.h"

namespace rewinddb {

namespace {

/// As-of read gate. The query surface waits for (or runs) a tree's
/// loser undo before it reads the tree (AsOfSnapshot::
/// EnsureTreeRecovered), so every row the B-tree can then deliver is
/// visible: the gate supplies only the snapshot's pool and latches,
/// and RowGate's row hooks keep their "visible" defaults.
class SnapshotRowGate : public RowGate {
 public:
  explicit SnapshotRowGate(AsOfSnapshot* snap) : snap_(snap) {}

  BufferManager* buffers() override { return snap_->buffers(); }
  std::shared_mutex* TreeLatch(TreeId tree) override {
    return snap_->TreeLatch(tree);
  }

 private:
  AsOfSnapshot* snap_;
};

/// First id of the snapshot-private page space: pages made by unlogged
/// splits live only in the side file, far above any primary page id.
constexpr PageId kFirstPrivatePageId = 3'000'000'000u;

}  // namespace

// ---------------------------- SnapshotStore ---------------------------

Status SnapshotStore::ReadPage(PageId id, char* buf, bool* dirty) {
  // Section 5.3 protocol, with the shared version store between the
  // side file and the primary: (a) side file, (b) version store --
  // exact hit needs no chain walk at all, a newer-than-target version
  // seeds the rewind so the walk covers only the gap, (c) a seed image
  // + rewind (RecoverPage; the seed's source depends on the mount
  // mode). Every recovered page, an untouched seed included, publishes
  // its pristine result for other snapshots. The prepared page goes to
  // the snapshot's pool dirty, and the pool writes it to the side file
  // when it evicts or flushes it. A recovery failure caches NOTHING --
  // the pool retracts the failed miss and the version store never sees a
  // partial page, so a later read simply retries.
  *dirty = false;
  Status s = owner_->side_file()->ReadPage(id, buf);
  if (s.ok()) return s;
  if (!s.IsNotFound()) return s;

  REWIND_RETURN_IF_ERROR(RecoverPage(id, buf));
  // Normalize the checksum field: a lazy mount seeds from a live pool
  // frame, whose checksum is stale, and eager/lazy pages must match.
  StampPageChecksum(buf);
  *dirty = true;
  return Status::OK();
}

Status SnapshotStore::RecoverPage(PageId id, char* buf) {
  // One path for both mount modes: version store, seed image, rewind,
  // publish. The rewinder's full-page-image jumps (section 6.1) skip
  // post-split log regions for either seed.
  VersionStore* versions = owner_->primary()->version_store();
  const Lsn split = owner_->split_lsn();
  VersionStore::Lookup hit = versions->Find(id, split, buf);
  if (hit.kind == VersionStore::LookupKind::kExact) return Status::OK();
  if (hit.kind != VersionStore::LookupKind::kPartial) {
    if (owner_->lazy()) {
      // No creation checkpoint: read the CURRENT image through the
      // primary's buffer pool, so unflushed changes are included.
      REWIND_ASSIGN_OR_RETURN(PageGuard live,
                              owner_->primary()->buffers()->FetchPage(
                                  id, AccessMode::kRead));
      memcpy(buf, live.data(), kPageSize);
    } else {
      REWIND_RETURN_IF_ERROR(owner_->primary()->data_file()->ReadPage(id, buf));
    }
  }
  REWIND_RETURN_IF_ERROR(
      owner_->CheckRecoveryFault(RecoveryFaultPoint::kRewindRead, id));
  Lsn valid_until = kInvalidLsn;
  REWIND_RETURN_IF_ERROR(
      owner_->rewinder()->PreparePageAsOf(buf, split, &valid_until));
  // A seed the walk left untouched already predated the split, and
  // nothing changed the page between its LSN and the split: an eager
  // mount's creation checkpoint wrote every page dirtied at or before
  // the split, and a lazy seed is the live image. Its next change
  // therefore lies after the split.
  if (valid_until == kInvalidLsn) valid_until = split + 1;
  versions->Publish(id, buf, valid_until);
  if (owner_->lazy()) owner_->NotePageRecovered();
  return Status::OK();
}

Status SnapshotStore::WritePage(PageId id, const char* buf) {
  return owner_->side_file()->WritePage(id, buf);
}

// ---------------------------- SnapshotTable ---------------------------

SnapshotTable::SnapshotTable(AsOfSnapshot* snap, TableInfo info,
                             std::vector<IndexInfo> indexes)
    : snap_(snap),
      info_(std::move(info)),
      indexes_(std::move(indexes)),
      types_(info_.schema.types()) {}

// Every read first makes sure the tree(s) it will traverse are free of
// loser effects, in both mount modes: the FIRST touch of a tree waits
// for its loser undo or runs it, later touches are free.

Result<Row> SnapshotTable::Get(const Row& key_values) {
  REWIND_RETURN_IF_ERROR(snap_->EnsureTreeRecovered(info_.root));
  SnapshotRowGate gate(snap_);
  return ReadCoreGet(&gate, info_, types_, key_values);
}

Status SnapshotTable::Scan(const std::optional<Row>& lower,
                           const std::optional<Row>& upper,
                           const std::function<bool(const Row&)>& cb) {
  REWIND_RETURN_IF_ERROR(snap_->EnsureTreeRecovered(info_.root));
  SnapshotRowGate gate(snap_);
  return ReadCoreScan(&gate, info_, types_, lower, upper, cb);
}

Status SnapshotTable::IndexScan(const std::string& index_name,
                                const Row& prefix_values,
                                const std::function<bool(const Row&)>& cb) {
  REWIND_RETURN_IF_ERROR(snap_->EnsureTreeRecovered(info_.root));
  for (const IndexInfo& ix : indexes_) {
    if (ix.name == index_name) {
      REWIND_RETURN_IF_ERROR(snap_->EnsureTreeRecovered(ix.root));
    }
  }
  SnapshotRowGate gate(snap_);
  return ReadCoreIndexScan(&gate, info_, indexes_, types_, index_name,
                           prefix_values, cb);
}

Result<uint64_t> SnapshotTable::Count() {
  REWIND_RETURN_IF_ERROR(snap_->EnsureTreeRecovered(info_.root));
  SnapshotRowGate gate(snap_);
  return ReadCoreCount(&gate, info_);
}

// ----------------------------- AsOfSnapshot ---------------------------

AsOfSnapshot::AsOfSnapshot(Database* primary, std::string name,
                           SplitPoint split, MountMode mode)
    : primary_(primary),
      name_(std::move(name)),
      split_(split),
      mode_(mode),
      rewinder_(primary->log()) {}

Result<std::unique_ptr<AsOfSnapshot>> AsOfSnapshot::Create(
    Database* primary, const std::string& name, WallClock as_of) {
  return Create(primary, name, as_of,
                primary->options().lazy_mount ? MountMode::kLazy
                                              : MountMode::kEager);
}

Result<std::unique_ptr<AsOfSnapshot>> AsOfSnapshot::Create(
    Database* primary, const std::string& name, WallClock as_of,
    MountMode mode) {
  Clock* clock = primary->clock();
  WallClock t0 = clock->NowMicros();

  REWIND_ASSIGN_OR_RETURN(
      SplitPoint split,
      FindSplitPoint(primary->log(), as_of, clock->NowMicros()));

  std::unique_ptr<AsOfSnapshot> snap(
      new AsOfSnapshot(primary, name, split, mode));
  // Pin the log the mount rewinds from before anything can fail: the
  // destructor unregisters the anchor on every path.
  primary->RegisterSnapshotAnchor(split.checkpoint_lsn);
  if (mode == MountMode::kEager) {
    // Creation checkpoint (section 5.1), bounded by the split: every
    // dirty page with rec_lsn <= SplitLSN is written back, so (a)
    // snapshot reads of the primary file never miss pre-split changes
    // and (b) the redo pass needs no page IO at all. A page first
    // dirtied after the split stays in the pool: its file image already
    // holds every change below its rec_lsn, and the rewind from that
    // older image walks back over less. A lazy mount skips the
    // checkpoint: reads go through the primary's buffer pool instead,
    // so the current image is always visible without forcing IO at
    // mount time.
    REWIND_RETURN_IF_ERROR(primary->CreationCheckpoint(split.split_lsn));
  }
  snap->stats_.split_lsn = split.split_lsn;
  snap->stats_.boundary_time = split.boundary_time;
  snap->stats_.checkpoint_lsn = split.checkpoint_lsn;
  snap->stats_.lazy = mode == MountMode::kLazy;
  snap->stats_.replay_threads = std::max(1, primary->options().replay_threads);
  REWIND_RETURN_IF_ERROR(snap->SetupStorage());
  // An eager mount runs analysis and the loser chain walk before it
  // opens (section 5.2). The whole lazy mount is the split search
  // (above, waypoint-narrowed) + store setup: its analysis runs in the
  // background, and queries recover what they touch meanwhile.
  if (mode == MountMode::kEager) REWIND_RETURN_IF_ERROR(snap->Analyze());
  primary->BumpLazyMount(mode == MountMode::kLazy);
  snap->stats_.create_micros = clock->NowMicros() - t0;

  // Open for queries now; undo the in-flight transactions' effects in
  // the background (section 5.2).
  snap->undo_thread_ =
      std::thread([s = snap.get()] { s->BackgroundRecovery(); });
  return snap;
}

Status AsOfSnapshot::SetupStorage() {
  REWIND_ASSIGN_OR_RETURN(
      side_, SparseFile::Create(primary_->dir() + "/" + name_ + ".side",
                                primary_->data_disk(), primary_->stats()));
  store_ = std::make_unique<SnapshotStore>(this);
  buffers_ = std::make_unique<BufferManager>(
      store_.get(), /*log=*/nullptr, primary_->stats(),
      primary_->options().buffer_pool_pages, /*verify_checksums=*/false,
      primary_->options().buffer_shards);
  catalog_ = std::make_unique<Catalog>(buffers_.get());
  return Status::OK();
}

Status AsOfSnapshot::ScanAnalysis(std::unordered_map<TxnId, Lsn>* att) {
  wal::Wal* log = primary_->log();

  // Analysis (section 5.2): find transactions in flight at the
  // SplitLSN, scanning from the newest checkpoint whose begin record is
  // at or before it. That checkpoint's end record lists what was in
  // flight at its begin record -- unless the split fell inside the
  // fuzzy checkpoint's window, so the scan reaches the split without
  // passing the end record. Only then does it restart one checkpoint
  // earlier: checkpoints serialize, so the first end record after a
  // begin record is its own (a checkpoint a crash cut short has none,
  // and the scan steps back again). With no checkpoint left, it starts
  // at the oldest byte EITHER log tier retains: a long-horizon mount
  // whose split lives in the archive scans archived history through
  // the same cursor.
  const std::vector<CheckpointRef> ckpts = log->checkpoints();
  int ckpt = -1;
  for (size_t i = 0; i < ckpts.size(); i++) {
    if (ckpts[i].begin_lsn <= split_.split_lsn) ckpt = static_cast<int>(i);
  }
  uint64_t records = 0;
  for (;; ckpt--) {
    const Lsn start = ckpt >= 0 ? ckpts[ckpt].begin_lsn : log->oldest_lsn();
    LogAnalysis a;
    // The record at the SplitLSN is the last one the scan includes.
    REWIND_RETURN_IF_ERROR(AnalyzeLog(log, start, split_.split_lsn + 1,
                                      /*with_dpt=*/false, &a));
    records += a.records;
    if (a.passed_checkpoint_end || ckpt < 0) {
      std::lock_guard<std::mutex> sg(stats_mu_);
      stats_.analysis_start_lsn = start;
      stats_.analysis_records = records;
      *att = std::move(a.att);
      return Status::OK();
    }
  }
}

Status AsOfSnapshot::Analyze() {
  Status s = BuildTreeWork();
  {
    std::lock_guard<std::mutex> lk(trees_mu_);
    analysis_ready_ = true;
    analysis_status_ = s;
  }
  trees_cv_.notify_all();
  return s;
}

Status AsOfSnapshot::BuildTreeWork() {
  Clock* clock = primary_->clock();
  const uint64_t t_analysis = clock->NowMicros();
  std::unordered_map<TxnId, Lsn> att;
  REWIND_RETURN_IF_ERROR(ScanAnalysis(&att));
  const uint64_t t_walk = clock->NowMicros();

  // One walk of every loser chain. Its page records are bucketed by
  // tree, to be undone in descending-LSN order per tree. CLRs are
  // followed through undo_next: their compensated region is already
  // undone in the log. That is the redo-stage work of snapshot
  // recovery: page redo needs no IO because the creation checkpoint
  // put every change at or below the split on file (section 5.2).
  // Unlike section 5.2, the walk re-acquires no row locks: a query
  // waits at EnsureTreeRecovered for its tree's whole undo instead.
  std::map<TreeId, TreeRecovery> work;
  wal::Cursor chain = primary_->log()->OpenCursor();
  for (const auto& loser : att) {
    Lsn next = loser.second;
    while (next != kInvalidLsn) {
      REWIND_RETURN_IF_ERROR(chain.SeekToChain(next));
      if (!chain.Valid()) break;
      const LogRecord& rec = chain.record();
      if (rec.type == LogType::kClr) {
        next = rec.undo_next_lsn;
        continue;
      }
      if (rec.type == LogType::kBegin) break;
      if (rec.IsPageRecord()) work[rec.tree_id].work.push_back(next);
      next = rec.prev_lsn;
    }
  }
  // Each tree takes its snapshot-private page ids from its own slice of
  // the space above kFirstPrivatePageId, fixed by its position in this
  // map. Both modes build the same map, so an unlogged split takes the
  // same ids whichever thread recovers the tree, and in whatever order.
  const PageId span = static_cast<PageId>(
      (kInvalidPageId - kFirstPrivatePageId) /
      std::max<size_t>(1, work.size()));
  PageId first = kFirstPrivatePageId;
  for (auto& [tree, tr] : work) {
    (void)tree;
    std::sort(tr.work.begin(), tr.work.end(), std::greater<Lsn>());
    tr.next_private_page = first;
    first += span;
    tr.private_page_end = first;
  }
  {
    std::lock_guard<std::mutex> sg(stats_mu_);
    stats_.analysis_micros = t_walk - t_analysis;
    stats_.redo_micros = clock->NowMicros() - t_walk;
    stats_.loser_transactions = att.size();
  }
  std::lock_guard<std::mutex> lk(trees_mu_);
  tree_work_ = std::move(work);
  return Status::OK();
}

void AsOfSnapshot::BackgroundRecovery() {
  Clock* clock = primary_->clock();
  const uint64_t t0 = clock->NowMicros();
  Status s;
  if (lazy()) s = Analyze();
  if (s.ok()) {
    // Every tree's loser undo, so a mount converges to the fully
    // undone state even for trees no query ever touches. Trees fan out
    // across the replay workers: a tree's worklist is sequential, but
    // different trees share no page. The first failure stops the
    // sweep; a failed or unswept tree stays kPending (progress kept)
    // and the next query of it resumes the work.
    std::vector<TreeId> trees;
    {
      std::lock_guard<std::mutex> lk(trees_mu_);
      for (const auto& [tree, tr] : tree_work_) trees.push_back(tree);
    }
    s = replay::ParallelFor(stats_.replay_threads, trees.size(),
                            [&](size_t i) {
                              return EnsureTreeRecoveredImpl(
                                  trees[i], /*on_demand=*/false);
                            });
  }
  // Write the undo output (and any other dirty page, such as one a
  // query recovered meanwhile) to the side file as the pass ends.
  // Eviction write-back already keeps a dirty page across eviction;
  // this flush settles the side file once undo is complete.
  if (s.ok()) s = buffers_->FlushAll();
  {
    std::lock_guard<std::mutex> sg(stats_mu_);
    stats_.undo_micros = clock->NowMicros() - t0;
  }
  undo_status_ = s;
  if (lazy() && s.ok()) primary_->BumpSweepsCompleted();
}

// ---------------------------- per-tree undo ---------------------------

Status AsOfSnapshot::EnsureTreeRecovered(TreeId tree) {
  return EnsureTreeRecoveredImpl(tree, /*on_demand=*/true);
}

Status AsOfSnapshot::EnsureTreeRecoveredImpl(TreeId tree, bool on_demand) {
  std::unique_lock<std::mutex> lk(trees_mu_);
  // No latches are held across these waits (the query surface calls in
  // BEFORE taking tree latches), so a waiting reader cannot block the
  // worklist owner.
  trees_cv_.wait(lk, [&] { return analysis_ready_; });
  REWIND_RETURN_IF_ERROR(analysis_status_);
  auto it = tree_work_.find(tree);
  if (it == tree_work_.end()) return Status::OK();  // no loser touched it
  TreeRecovery* tr = &it->second;
  for (;;) {
    if (tr->state == TreeRecovery::State::kDone) return Status::OK();
    if (tr->state == TreeRecovery::State::kPending) break;
    trees_cv_.wait(lk);  // another thread is applying: wait it out
  }
  tr->state = TreeRecovery::State::kRunning;
  lk.unlock();
  Status s = ApplyTreeWork(tree, tr);
  lk.lock();
  if (s.ok()) {
    tr->state = TreeRecovery::State::kDone;
    tr->work.clear();
    tr->work.shrink_to_fit();
    if (on_demand) primary_->BumpTreesRecoveredOnDemand(1);
  } else {
    // Back to kPending with tr->applied preserved: a later call resumes
    // exactly where this one failed, never double-applying a record.
    tr->state = TreeRecovery::State::kPending;
  }
  trees_cv_.notify_all();
  return s;
}

Status AsOfSnapshot::ApplyTreeWork(TreeId tree, TreeRecovery* tr) {
  wal::Cursor reader = primary_->log()->OpenCursor();
  while (tr->applied < tr->work.size()) {
    REWIND_RETURN_IF_ERROR(
        CheckRecoveryFault(RecoveryFaultPoint::kUndoApply, tree));
    REWIND_RETURN_IF_ERROR(reader.SeekToChain(tr->work[tr->applied]));
    const LogRecord& rec = reader.record();
    const bool row_op = rec.type == LogType::kInsert ||
                        rec.type == LogType::kDelete ||
                        rec.type == LogType::kUpdate;
    if (row_op && !rec.is_system) {
      // User rows may have moved under committed SMOs: undo by key.
      REWIND_RETURN_IF_ERROR(UndoUserRowUnlogged(rec, tr));
    } else {
      std::unique_lock<std::shared_mutex> tl(*TreeLatch(rec.tree_id));
      REWIND_ASSIGN_OR_RETURN(
          PageGuard page,
          buffers_->FetchPage(rec.page_id, AccessMode::kWrite));
      REWIND_RETURN_IF_ERROR(ApplyUndo(page.mutable_data(), rec));
      page.MarkDirtyUnlogged();
    }
    tr->applied++;
  }
  return Status::OK();
}

void AsOfSnapshot::SetRecoveryFaultHook(RecoveryFaultHook hook) {
  std::lock_guard<std::mutex> g(fault_mu_);
  fault_hook_ = std::move(hook);
}

Status AsOfSnapshot::CheckRecoveryFault(RecoveryFaultPoint point,
                                        uint64_t id) {
  RecoveryFaultHook hook;
  {
    std::lock_guard<std::mutex> g(fault_mu_);
    hook = fault_hook_;
  }
  if (!hook) return Status::OK();
  return hook(point, id);
}

void AsOfSnapshot::NotePageRecovered() {
  pages_recovered_.fetch_add(1, std::memory_order_relaxed);
  primary_->BumpPagesRecoveredOnDemand();
}

Status AsOfSnapshot::UndoUserRowUnlogged(const LogRecord& rec,
                                         TreeRecovery* tr) {
  Slice entry = rec.image;  // kUpdate: the OLD entry to restore
  Slice key = SlottedPage::EntryKey(entry);
  BTree tree(rec.tree_id);
  std::unique_lock<std::shared_mutex> tl(*TreeLatch(rec.tree_id));
  for (int attempt = 0; attempt < 64; attempt++) {
    REWIND_ASSIGN_OR_RETURN(std::vector<PageId> path,
                            tree.FindLeafPath(buffers_.get(), key));
    REWIND_ASSIGN_OR_RETURN(
        PageGuard leaf, buffers_->FetchPage(path.back(), AccessMode::kWrite));
    bool found;
    uint16_t idx = SlottedPage::LowerBound(leaf.data(), key, &found);
    switch (rec.type) {
      case LogType::kInsert:
        if (!found) {
          return Status::Corruption("snapshot undo: inserted key missing");
        }
        REWIND_RETURN_IF_ERROR(SlottedPage::RemoveAt(leaf.mutable_data(),
                                                     idx));
        leaf.MarkDirtyUnlogged();
        return Status::OK();
      case LogType::kDelete:
        if (found) {
          return Status::Corruption("snapshot undo: deleted key present");
        }
        if (SlottedPage::HasRoomFor(leaf.data(), entry.size())) {
          REWIND_RETURN_IF_ERROR(
              SlottedPage::InsertAt(leaf.mutable_data(), idx, entry));
          leaf.MarkDirtyUnlogged();
          return Status::OK();
        }
        break;  // split below
      case LogType::kUpdate: {
        if (!found) {
          return Status::Corruption("snapshot undo: updated key missing");
        }
        size_t old_len = SlottedPage::Record(leaf.data(), idx).size();
        bool fits = entry.size() <= old_len ||
                    SlottedPage::FreeSpace(leaf.data()) +
                            Header(leaf.data())->frag_bytes + old_len >=
                        entry.size();
        if (fits) {
          REWIND_RETURN_IF_ERROR(
              SlottedPage::ReplaceAt(leaf.mutable_data(), idx, entry));
          leaf.MarkDirtyUnlogged();
          return Status::OK();
        }
        break;  // split below
      }
      default:
        return Status::Corruption("snapshot undo: unexpected row op");
    }
    leaf.Release();
    REWIND_RETURN_IF_ERROR(UnloggedSplit(tr, rec.tree_id, path));
  }
  return Status::Corruption("snapshot undo did not converge");
}

Status AsOfSnapshot::UnloggedSplit(TreeRecovery* tr, TreeId tree,
                                   const std::vector<PageId>& path) {
  // Splits a snapshot page into a snapshot-private (virtual) sibling.
  // All changes are unlogged: the snapshot is not a database of record
  // and these pages live only in the side file.
  PageId node_id = path.back();
  REWIND_ASSIGN_OR_RETURN(PageGuard node,
                          buffers_->FetchPage(node_id, AccessMode::kWrite));
  PageHeader* nh = Header(node.mutable_data());
  const bool is_leaf = nh->type == PageType::kBtreeLeaf;
  uint16_t n = SlottedPage::SlotCount(node.data());
  if (n < 2) return Status::Corruption("unlogged split of underfull page");
  uint16_t mid = static_cast<uint16_t>(n / 2);
  std::string sep =
      SlottedPage::EntryKey(SlottedPage::Record(node.data(), mid)).ToString();

  if (node_id == tree) {
    // Root: redistribute into two virtual children; root page id stays.
    REWIND_ASSIGN_OR_RETURN(PageId left_id, tr->TakePrivatePage());
    REWIND_ASSIGN_OR_RETURN(PageId right_id, tr->TakePrivatePage());
    REWIND_ASSIGN_OR_RETURN(PageGuard left, buffers_->NewPage(left_id));
    REWIND_ASSIGN_OR_RETURN(PageGuard right, buffers_->NewPage(right_id));
    SlottedPage::Init(left.mutable_data(), left_id, nh->type, nh->level,
                      tree);
    SlottedPage::Init(right.mutable_data(), right_id, nh->type, nh->level,
                      tree);
    for (uint16_t i = 0; i < mid; i++) {
      REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(
          left.mutable_data(), i, SlottedPage::Record(node.data(), i)));
    }
    for (uint16_t i = mid; i < n; i++) {
      Slice e = SlottedPage::Record(node.data(), i);
      if (!is_leaf && i == mid) {
        std::string e0 =
            SlottedPage::MakeEntry(Slice(), SlottedPage::EntryValue(e));
        REWIND_RETURN_IF_ERROR(
            SlottedPage::InsertAt(right.mutable_data(), 0, e0));
      } else {
        REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(
            right.mutable_data(), static_cast<uint16_t>(i - mid), e));
      }
    }
    if (is_leaf) {
      Header(right.mutable_data())->right_sibling = nh->right_sibling;
      Header(left.mutable_data())->right_sibling = right_id;
    }
    uint8_t child_level = nh->level;
    SlottedPage::Init(node.mutable_data(), node_id, PageType::kBtreeInternal,
                      static_cast<uint8_t>(child_level + 1), tree);
    REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(
        node.mutable_data(), 0,
        SlottedPage::MakeEntry(Slice(), EncodeChild(left_id))));
    REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(
        node.mutable_data(), 1, SlottedPage::MakeEntry(sep,
                                                       EncodeChild(right_id))));
    left.MarkDirtyUnlogged();
    right.MarkDirtyUnlogged();
    node.MarkDirtyUnlogged();
    return Status::OK();
  }

  REWIND_ASSIGN_OR_RETURN(PageId right_id, tr->TakePrivatePage());
  REWIND_ASSIGN_OR_RETURN(PageGuard right, buffers_->NewPage(right_id));
  SlottedPage::Init(right.mutable_data(), right_id, nh->type, nh->level,
                    tree);
  for (uint16_t i = mid; i < n; i++) {
    Slice e = SlottedPage::Record(node.data(), i);
    if (!is_leaf && i == mid) {
      std::string e0 =
          SlottedPage::MakeEntry(Slice(), SlottedPage::EntryValue(e));
      REWIND_RETURN_IF_ERROR(
          SlottedPage::InsertAt(right.mutable_data(), 0, e0));
    } else {
      REWIND_RETURN_IF_ERROR(SlottedPage::InsertAt(
          right.mutable_data(), static_cast<uint16_t>(i - mid), e));
    }
  }
  for (uint16_t i = n; i-- > mid;) {
    REWIND_RETURN_IF_ERROR(SlottedPage::RemoveAt(node.mutable_data(), i));
  }
  if (is_leaf) {
    Header(right.mutable_data())->right_sibling = nh->right_sibling;
    nh->right_sibling = right_id;
  }
  right.MarkDirtyUnlogged();
  node.MarkDirtyUnlogged();
  right.Release();
  node.Release();

  // Insert the separator into the parent, splitting upward as needed.
  std::string entry = SlottedPage::MakeEntry(sep, EncodeChild(right_id));
  for (int attempt = 0; attempt < 64; attempt++) {
    REWIND_ASSIGN_OR_RETURN(
        std::vector<PageId> fresh,
        BTree(tree).FindLeafPath(buffers_.get(), sep));
    // Parent = the node at one level above this split's node.
    PageId parent_id = kInvalidPageId;
    for (size_t i = 0; i + 1 < fresh.size(); i++) {
      if (fresh[i + 1] == node_id || fresh[i + 1] == right_id) {
        parent_id = fresh[i];
        break;
      }
    }
    if (parent_id == kInvalidPageId) {
      // Not found on the descent (already routed right); use the
      // recorded path's parent.
      parent_id = path[path.size() - 2];
    }
    REWIND_ASSIGN_OR_RETURN(
        PageGuard parent, buffers_->FetchPage(parent_id, AccessMode::kWrite));
    bool found;
    uint16_t idx = SlottedPage::LowerBound(parent.data(), sep, &found);
    if (found) return Status::Corruption("unlogged split: duplicate sep");
    if (SlottedPage::HasRoomFor(parent.data(), entry.size())) {
      REWIND_RETURN_IF_ERROR(
          SlottedPage::InsertAt(parent.mutable_data(), idx, entry));
      parent.MarkDirtyUnlogged();
      return Status::OK();
    }
    parent.Release();
    std::vector<PageId> parent_path(path.begin(), path.end() - 1);
    REWIND_RETURN_IF_ERROR(UnloggedSplit(tr, tree, parent_path));
  }
  return Status::Corruption("unlogged split did not converge");
}

Status AsOfSnapshot::WaitForUndo() {
  std::lock_guard<std::mutex> g(undo_join_mu_);
  if (undo_thread_.joinable()) undo_thread_.join();
  if (undo_status_.ok()) return undo_status_;
  // The pass failed. An analysis failure stands; otherwise finish the
  // trees it left pending, as a query of each would, so the mount
  // settles once the fault has cleared.
  std::vector<TreeId> pending;
  {
    std::lock_guard<std::mutex> lk(trees_mu_);
    if (!analysis_status_.ok()) return undo_status_;
    for (const auto& [tree, tr] : tree_work_) {
      if (tr.state != TreeRecovery::State::kDone) pending.push_back(tree);
    }
  }
  for (TreeId tree : pending) {
    REWIND_RETURN_IF_ERROR(EnsureTreeRecoveredImpl(tree, /*on_demand=*/false));
  }
  undo_status_ = Status::OK();
  return undo_status_;
}

std::shared_mutex* AsOfSnapshot::TreeLatch(TreeId tree) {
  std::lock_guard<std::mutex> g(tree_latches_mu_);
  auto& slot = tree_latches_[tree];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return slot.get();
}

Result<SnapshotTable> AsOfSnapshot::OpenTable(const std::string& name) {
  // The catalog trees are ordinary B-trees and get loser undo like any
  // other (a mount can straddle an in-flight CREATE TABLE).
  REWIND_RETURN_IF_ERROR(EnsureTreeRecovered(Catalog::kSysTablesRoot));
  REWIND_RETURN_IF_ERROR(EnsureTreeRecovered(Catalog::kSysIndexesRoot));
  REWIND_ASSIGN_OR_RETURN(TableInfo info, catalog_->GetTable(name));
  REWIND_ASSIGN_OR_RETURN(std::vector<IndexInfo> indexes,
                          catalog_->ListIndexesOf(info.table_id));
  return SnapshotTable(this, std::move(info), std::move(indexes));
}

Result<std::vector<TableInfo>> AsOfSnapshot::ListTables() {
  REWIND_RETURN_IF_ERROR(EnsureTreeRecovered(Catalog::kSysTablesRoot));
  return catalog_->ListTables();
}

Status AsOfSnapshot::Drop() {
  if (side_ != nullptr) return side_->Destroy();
  return Status::OK();
}

AsOfSnapshot::~AsOfSnapshot() {
  // Join only: a mount being dropped starts no undo work.
  if (undo_thread_.joinable()) undo_thread_.join();
  primary_->UnregisterSnapshotAnchor(split_.checkpoint_lsn);
  Status s = Drop();
  (void)s;
}

}  // namespace rewinddb
