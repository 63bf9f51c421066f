#include "engine/database.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <unordered_map>

#include "engine/redo_undo.h"
#include "engine/table.h"
#include "page/slotted_page.h"

namespace rewinddb {

uint64_t DefaultCheckpointIntervalBytes() {
  static const uint64_t cached = [] {
    const char* env = std::getenv("REWINDDB_CHECKPOINT_INTERVAL_BYTES");
    if (env == nullptr || *env == '\0') return uint64_t{0};
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }();
  return cached;
}

namespace {
bool EnvFlagSet(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && *env != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}
}  // namespace

bool DefaultArchiveEnabled() {
  static const bool cached = EnvFlagSet("REWINDDB_ARCHIVE");
  return cached;
}

bool DefaultLazyMount() {
  static const bool cached = EnvFlagSet("REWINDDB_LAZY_MOUNT");
  return cached;
}

bool DefaultWalDiet() {
  static const bool cached = EnvFlagSet("REWINDDB_WAL_DIET");
  return cached;
}

// ------------------------- undo appliers ------------------------------

Status PhysicalUndoApplier::UndoRecord(Transaction* txn, Lsn /*lsn*/,
                                       const LogRecord& rec) {
  REWIND_ASSIGN_OR_RETURN(
      PageGuard page, buffers_->FetchPage(rec.page_id, AccessMode::kWrite));
  Lsn undo_next = rec.prev_lsn;
  switch (rec.type) {
    case LogType::kInsert:
      return ops_->LogClrDelete(txn, page, rec.slot, undo_next);
    case LogType::kDelete:
      return ops_->LogClrInsert(txn, page, rec.slot, rec.image, undo_next);
    case LogType::kUpdate:
      return ops_->LogClrUpdate(txn, page, rec.slot, rec.image, undo_next);
    case LogType::kAllocBits:
      return ops_->LogClrAllocBits(txn, page, rec.alloc_bit, rec.alloc_old,
                                   rec.ever_old, undo_next);
    case LogType::kSetSibling:
      return ops_->LogClrSetSibling(txn, page, rec.sibling_old, undo_next);
    case LogType::kFormat:
    case LogType::kPreformat:
      // The page content unwinds through the chain itself; compensate
      // with a no-op so repeated recoveries skip this record.
      return ops_->LogClrNoop(txn, page, rec.type, undo_next);
    default:
      return Status::Corruption("physical undo: unexpected record type " +
                                std::string(LogTypeName(rec.type)));
  }
}

Status LogicalUndoApplier::UndoRecord(Transaction* txn, Lsn lsn,
                                      const LogRecord& rec) {
  switch (rec.type) {
    case LogType::kInsert: {
      BTree tree(rec.tree_id);
      return tree.ClrErase(ctx_, txn, SlottedPage::EntryKey(rec.image),
                           rec.prev_lsn);
    }
    case LogType::kDelete: {
      BTree tree(rec.tree_id);
      return tree.ClrReinsert(ctx_, txn, rec.image, rec.prev_lsn);
    }
    case LogType::kUpdate: {
      BTree tree(rec.tree_id);
      return tree.ClrRestore(ctx_, txn, rec.image, rec.prev_lsn);
    }
    default:
      // Allocation bits, siblings, formats: position-independent.
      return physical_.UndoRecord(txn, lsn, rec);
  }
}

// ----------------------------- lifecycle ------------------------------

Database::Database(std::string dir, DatabaseOptions opts)
    : dir_(std::move(dir)),
      opts_(opts),
      clock_(opts.clock != nullptr ? opts.clock : RealClock::Default()),
      data_disk_(opts.data_media, clock_, &stats_),
      log_disk_(opts.log_media, clock_, &stats_),
      locks_(opts.lock_timeout_micros),
      undo_interval_micros_(opts.undo_interval_micros) {}

Database::~Database() {
  Status s = Close();
  (void)s;
}

Status Database::InitStorage(bool create) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string data_path = dir_ + "/data.rwdb";
  const std::string log_path = dir_ + "/log.rwdb";
  wal::WalOptions wo;
  wo.cache_blocks = opts_.log_cache_blocks;
  wo.flush_interval_micros = opts_.wal_flush_interval_micros;
  wo.archive_dir = ResolveArchiveDir();
  wo.archive_segment_bytes = opts_.archive_segment_bytes;
  wo.compression = opts_.wal_compression;
  if (create) {
    REWIND_ASSIGN_OR_RETURN(
        data_file_, PagedFile::Create(data_path, &data_disk_, &stats_));
    REWIND_ASSIGN_OR_RETURN(
        wal_, wal::Wal::Create(log_path, &log_disk_, &stats_, wo));
  } else {
    REWIND_ASSIGN_OR_RETURN(data_file_,
                            PagedFile::Open(data_path, &data_disk_, &stats_));
    REWIND_ASSIGN_OR_RETURN(
        wal_, wal::Wal::Open(log_path, &log_disk_, &stats_, wo));
  }
  store_ = std::make_unique<FilePageStore>(data_file_.get());
  buffers_ = std::make_unique<BufferManager>(store_.get(), wal_.get(),
                                             &stats_, opts_.buffer_pool_pages,
                                             /*verify_checksums=*/true,
                                             opts_.buffer_shards);
  txns_ = std::make_unique<TransactionManager>(wal_.get(), &locks_, clock_,
                                               opts_.default_commit_mode);
  ops_ = std::make_unique<PageOps>(wal_.get(), txns_.get(), opts_.fpi_period,
                                   opts_.fpi_delta_window_bytes);
  allocator_ = std::make_unique<PageAllocator>(buffers_.get(), ops_.get());
  allocator_->set_on_new_map([this](uint32_t) {
    Status s = WriteSuperBlock();
    (void)s;  // best effort; rebuilt by recovery redo otherwise
  });
  catalog_ = std::make_unique<Catalog>(buffers_.get());
  version_store_ = std::make_unique<VersionStore>(opts_.version_store_bytes);
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Create(const std::string& dir,
                                                   DatabaseOptions opts) {
  if (std::filesystem::exists(dir + "/data.rwdb")) {
    return Status::AlreadyExists("database exists at " + dir);
  }
  std::unique_ptr<Database> db(new Database(dir, opts));
  REWIND_RETURN_IF_ERROR(db->InitStorage(/*create=*/true));
  REWIND_RETURN_IF_ERROR(db->Bootstrap());
  db->StartCheckpointer();
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(const std::string& dir,
                                                 DatabaseOptions opts) {
  std::unique_ptr<Database> db(new Database(dir, opts));
  REWIND_RETURN_IF_ERROR(db->InitStorage(/*create=*/false));
  REWIND_RETURN_IF_ERROR(db->LoadSuperBlock());
  REWIND_RETURN_IF_ERROR(db->RunRecovery());
  // Object ids continue above everything the catalog knows.
  REWIND_ASSIGN_OR_RETURN(uint32_t max_id, db->catalog_->MaxObjectId());
  db->next_object_id_ = max_id + 1;
  db->StartCheckpointer();
  return db;
}

Status Database::Bootstrap() {
  // Superblock first so a crash during bootstrap is detectable.
  REWIND_RETURN_IF_ERROR(WriteSuperBlock());
  Transaction* txn = txns_->Begin();
  REWIND_RETURN_IF_ERROR(allocator_->CreateFirstAllocMap(txn));
  REWIND_RETURN_IF_ERROR(Catalog::Bootstrap(write_ctx(), txn));
  REWIND_RETURN_IF_ERROR(txns_->Commit(txn));
  return Checkpoint();
}

Status Database::LoadSuperBlock() {
  char page[kPageSize];
  REWIND_RETURN_IF_ERROR(data_file_->ReadPage(0, page));
  SuperBlock sb = SuperBlock::ReadFrom(page);
  if (sb.magic != SuperBlock::kMagic) {
    return Status::Corruption("superblock magic mismatch");
  }
  master_checkpoint_lsn_ = sb.master_checkpoint_lsn;
  allocator_->set_num_alloc_maps(sb.num_alloc_maps);
  next_object_id_ = sb.next_table_id;
  undo_interval_micros_ = sb.undo_interval_micros;
  txns_->BumpTxnId(sb.next_txn_id);
  return Status::OK();
}

Status Database::WriteSuperBlock() {
  SuperBlock sb;
  sb.magic = SuperBlock::kMagic;
  sb.master_checkpoint_lsn = master_checkpoint_lsn_.load();
  sb.num_alloc_maps = allocator_->num_alloc_maps();
  sb.next_table_id = next_object_id_.load();
  sb.undo_interval_micros = undo_interval_micros_.load();
  sb.next_txn_id = txns_ != nullptr ? txns_->NextTxnIdHint() : 1;
  char page[kPageSize];
  sb.WriteTo(page);
  StampPageChecksum(page);
  REWIND_RETURN_IF_ERROR(data_file_->WritePage(0, page));
  return data_file_->Sync();
}

void Database::SimulateCrash() {
  StopCheckpointer();
  // Stop the WAL flusher without a final flush: whatever sits in the
  // unflushed tail is lost, exactly as in a real crash.
  wal_->SimulateCrash();
  closed_ = true;
}

Status Database::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  StopCheckpointer();
  // A failed Create/Open can reach here with storage only partially
  // initialized (e.g. a corrupt archive segment rejected by the WAL's
  // archive scan); there is nothing to checkpoint then.
  if (wal_ == nullptr || buffers_ == nullptr) return Status::OK();
  REWIND_RETURN_IF_ERROR(Checkpoint());
  return Status::OK();
}

// ----------------------------- recovery -------------------------------

namespace {

/// Per-record undo routing for per-transaction recovery undo: system
/// records physically (slot-exact -- their pages were exclusive to the
/// SMO), user records logically (by key). Each record is applied under
/// the exclusive latch of the tree it touches, so parallel workers
/// honour the engine's concurrency contract ("writers hold the tree's
/// exclusive latch"): logical undo re-traverses the tree and may split
/// leaves; physical undo changes structure. Records without a tree
/// (allocation map bits) share the kInvalidPageId latch.
class TreeLatchedUndoApplier : public UndoApplier {
 public:
  TreeLatchedUndoApplier(Database* db, UndoApplier* physical,
                         UndoApplier* logical)
      : db_(db), physical_(physical), logical_(logical) {}
  Status UndoRecord(Transaction* txn, Lsn lsn, const LogRecord& rec) override {
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(rec.tree_id));
    UndoApplier* inner = rec.is_system ? physical_ : logical_;
    return inner->UndoRecord(txn, lsn, rec);
  }

 private:
  Database* db_;
  UndoApplier* physical_;
  UndoApplier* logical_;
};

}  // namespace

Status Database::RedoOne(Lsn lsn, const LogRecord& rec) {
  auto fetched = buffers_->FetchPage(rec.page_id, AccessMode::kWrite);
  if (!fetched.ok()) {
    // Never flushed before the crash: materialize an empty frame;
    // the first record to redo formats it.
    fetched = buffers_->NewPage(rec.page_id);
    if (!fetched.ok()) return fetched.status();
  }
  PageGuard page = std::move(*fetched);
  if (PageLsn(page.data()) < lsn) {  // not yet applied
    REWIND_RETURN_IF_ERROR(ApplyRedo(page.mutable_data(), rec, lsn));
    page.MarkDirty(lsn);
  }
  return Status::OK();
}

Status Database::UndoLoser(TxnId id, Lsn last_lsn) {
  // One loser's whole chain, CLR-logged, exactly like a runtime abort.
  // User records are undone logically (by key -- committed SMOs may
  // have moved the rows; paper section 4.1), system records physically.
  Transaction* txn = txns_->AdoptForRecovery(id, last_lsn);
  PhysicalUndoApplier physical(buffers_.get(), ops_.get());
  LogicalUndoApplier logical(write_ctx());
  TreeLatchedUndoApplier applier(this, &physical, &logical);
  return txns_->Abort(txn, &applier);
}

Status Database::RunRecovery() {
  const int threads = opts_.replay_threads < 1 ? 1 : opts_.replay_threads;
  recovery_stats_ = RecoveryStats();
  recovery_stats_.replay_threads = threads;
  recovery_stats_.durable_end_lsn = wal_->flushed_lsn();
  uint64_t t0 = clock_->NowMicros();

  // --- Analysis: from the master checkpoint to the end of the log. ---
  Lsn analysis_start = master_checkpoint_lsn_.load();
  if (analysis_start == kInvalidLsn ||
      analysis_start < wal_->oldest_lsn()) {
    analysis_start = wal_->oldest_lsn();
  }
  recovery_stats_.analysis_start_lsn = analysis_start;
  const Lsn end_lsn = wal_->next_lsn();
  LogAnalysis analysis;
  REWIND_RETURN_IF_ERROR(AnalyzeLog(wal_.get(), analysis_start, end_lsn,
                                    /*with_dpt=*/true, &analysis));
  recovery_stats_.analysis_records = analysis.records;
  const std::unordered_map<TxnId, Lsn>& att = analysis.att;
  const std::unordered_map<PageId, Lsn>& dpt = analysis.dpt;
  recovery_stats_.analysis_micros = clock_->NowMicros() - t0;

  const bool clean = att.empty() && dpt.empty();
  recovered_from_crash_ = !clean;
  if (clean) return Status::OK();

  // --- Redo: repeat history from the oldest recLSN. ---
  // The dispatcher (this thread) scans the log once and routes each
  // DPT-qualified record to the worker owning its page; same-page
  // order is preserved by the partition, different pages replay
  // concurrently over the sharded buffer pool. threads == 1 applies
  // inline: the serial path, in the serial order.
  t0 = clock_->NowMicros();
  Lsn redo_start = end_lsn;
  for (const auto& [pid, rec_lsn] : dpt) {
    if (rec_lsn < redo_start) redo_start = rec_lsn;
  }
  // Clamp to the oldest byte EITHER tier retains: with fuzzy
  // checkpoints the min recLSN may predate the master checkpoint, and
  // with the archive tier those records may live below the active log's
  // start -- the cursor reads across the boundary transparently.
  if (redo_start < wal_->oldest_lsn()) redo_start = wal_->oldest_lsn();
  wal::Cursor cur = wal_->OpenCursor();
  {
    replay::PagePool pool(threads,
                          [this](size_t, Lsn lsn, const LogRecord& rec) {
                            return RedoOne(lsn, rec);
                          });
    Status scan = cur.SeekTo(redo_start);
    while (scan.ok() && cur.Valid() && cur.lsn() < end_lsn) {
      const Lsn lsn = cur.lsn();
      const LogRecord& rec = cur.record();
      auto it = rec.IsPageRecord() ? dpt.find(rec.page_id) : dpt.end();
      if (it != dpt.end() && lsn >= it->second) {
        if (!pool.Dispatch(lsn, rec)) break;  // poisoned: stop scanning
      }
      scan = cur.Next();
    }
    Status applied = pool.Finish();
    REWIND_RETURN_IF_ERROR(scan);
    REWIND_RETURN_IF_ERROR(applied);
    recovery_stats_.redo_records = pool.dispatched();
  }
  recovery_stats_.redo_micros = clock_->NowMicros() - t0;

  // --- Undo: roll back losers with CLRs, each like a runtime abort. ---
  // Partitioned by transaction: a loser's chain walk is sequential,
  // different losers are disjoint (user rows by two-phase locking,
  // system-transaction pages by the SMO's tree latch). System losers
  // go first and serially -- an in-flight SMO's structural changes
  // must be reverted before by-key undo re-traverses that tree, and
  // at the crash point every user record on the tree predates the SMO.
  // A loser's last record carries its is_system flag. User losers then
  // fan out across the workers (inline and in order at one thread).
  // Undo can begin system transactions (splits), so first move the id
  // allocator past every loser: one not yet adopted must never lend its
  // id to a COMMIT that analysis would read as that loser's end.
  t0 = clock_->NowMicros();
  recovery_stats_.loser_transactions = att.size();
  for (const auto& [id, last] : att) txns_->BumpTxnId(id + 1);
  std::vector<AttEntry> user_losers;
  for (const auto& [id, last] : att) {
    REWIND_RETURN_IF_ERROR(cur.SeekToChain(last));
    if (cur.record().is_system) {
      REWIND_RETURN_IF_ERROR(UndoLoser(id, last));
    } else {
      user_losers.push_back({id, last});
    }
  }
  REWIND_RETURN_IF_ERROR(replay::ParallelFor(
      threads, user_losers.size(), [&](size_t i) {
        return UndoLoser(user_losers[i].txn_id, user_losers[i].last_lsn);
      }));
  recovery_stats_.undo_micros = clock_->NowMicros() - t0;
  REWIND_RETURN_IF_ERROR(wal_->FlushAll());
  return Checkpoint();
}

// --------------------------- transactions -----------------------------

Transaction* Database::Begin() {
  // The BEGIN record is staged in the transaction's wal::Writer and
  // published together with the first update.
  return txns_->Begin();
}

Status Database::Commit(Transaction* txn, CommitMode mode) {
  txn->commit_mode = mode;
  return Commit(txn);
}

Status Database::Commit(Transaction* txn) {
  TxnId id = txn->id;
  REWIND_RETURN_IF_ERROR(txns_->Commit(txn));
  // Execute deferred drops (page deallocation) outside the user
  // transaction so an abort never races re-allocation.
  std::vector<DeferredDrop> drops;
  {
    std::lock_guard<std::mutex> g(deferred_mu_);
    auto it = deferred_drops_.find(id);
    if (it != deferred_drops_.end()) {
      drops = std::move(it->second);
      deferred_drops_.erase(it);
    }
  }
  for (const DeferredDrop& d : drops) {
    Transaction* sys = txns_->Begin(/*is_system=*/true);
    BTree tree(d.tree);
    std::unique_lock<std::shared_mutex> tl(*TreeLatch(d.tree));
    Status s = tree.Drop(write_ctx(), sys);
    if (!s.ok()) return s;
    REWIND_RETURN_IF_ERROR(txns_->Commit(sys));
  }
  MaybeAutoCheckpoint();
  return Status::OK();
}

Status Database::Abort(Transaction* txn) {
  {
    std::lock_guard<std::mutex> g(deferred_mu_);
    deferred_drops_.erase(txn->id);
  }
  LogicalUndoApplier applier(write_ctx());
  return txns_->Abort(txn, &applier);
}

std::shared_mutex* Database::TreeLatch(TreeId tree) {
  std::lock_guard<std::mutex> g(tree_latches_mu_);
  auto& slot = tree_latches_[tree];
  if (slot == nullptr) slot = std::make_unique<std::shared_mutex>();
  return slot.get();
}

// ------------------------------- DDL ----------------------------------

Status Database::CreateTable(Transaction* txn, const std::string& name,
                             const Schema& schema) {
  if (schema.num_key_columns() == 0 ||
      schema.num_key_columns() > schema.num_columns()) {
    return Status::InvalidArgument("schema needs a key prefix");
  }
  std::lock_guard<std::mutex> g(ddl_mu_);
  // Catalog rows obey strict 2PL like user rows: without the row lock,
  // a CREATE could re-insert a name whose DROP is still in flight,
  // which breaks abort (the undo would collide) and the as-of snapshot
  // boundary invariant (an in-flight delete whose key is present).
  REWIND_RETURN_IF_ERROR(
      locks_.Acquire(txn->id,
                     RowLockKey(Catalog::kSysTablesRoot, Catalog::NameKey(name)),
                     LockMode::kExclusive));
  if (catalog_->GetTable(name).ok()) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  REWIND_ASSIGN_OR_RETURN(TreeId root, BTree::Create(write_ctx(), txn));
  TableInfo info;
  info.table_id = AllocateObjectId();
  info.name = name;
  info.root = root;
  info.schema = schema;
  return catalog_->PutTable(write_ctx(), txn, info);
}

Status Database::DropTable(Transaction* txn, const std::string& name) {
  std::lock_guard<std::mutex> g(ddl_mu_);
  REWIND_RETURN_IF_ERROR(
      locks_.Acquire(txn->id,
                     RowLockKey(Catalog::kSysTablesRoot, Catalog::NameKey(name)),
                     LockMode::kExclusive));
  REWIND_ASSIGN_OR_RETURN(TableInfo info, catalog_->GetTable(name));
  REWIND_ASSIGN_OR_RETURN(std::vector<IndexInfo> indexes,
                          catalog_->ListIndexesOf(info.table_id));
  // Exclusive schema locks: no transaction may have in-flight changes
  // on the table when its pages are eventually deallocated.
  REWIND_RETURN_IF_ERROR(locks_.Acquire(txn->id, SchemaLockKey(info.root),
                                        LockMode::kExclusive));
  for (const IndexInfo& idx : indexes) {
    REWIND_RETURN_IF_ERROR(locks_.Acquire(txn->id, SchemaLockKey(idx.root),
                                          LockMode::kExclusive));
    REWIND_RETURN_IF_ERROR(locks_.Acquire(
        txn->id, RowLockKey(Catalog::kSysIndexesRoot, Catalog::NameKey(idx.name)),
        LockMode::kExclusive));
  }
  // Erase catalog rows inside the user transaction (undoable, and what
  // as-of metadata queries rewind through); defer page deallocation.
  REWIND_RETURN_IF_ERROR(catalog_->EraseTable(write_ctx(), txn, name));
  std::lock_guard<std::mutex> dg(deferred_mu_);
  auto& drops = deferred_drops_[txn->id];
  for (const IndexInfo& idx : indexes) {
    REWIND_RETURN_IF_ERROR(catalog_->EraseIndex(write_ctx(), txn, idx.name));
    drops.push_back({idx.root});
  }
  drops.push_back({info.root});
  return Status::OK();
}

Status Database::CreateIndex(Transaction* txn, const std::string& index_name,
                             const std::string& table_name,
                             const std::vector<std::string>& columns) {
  std::lock_guard<std::mutex> g(ddl_mu_);
  REWIND_RETURN_IF_ERROR(locks_.Acquire(
      txn->id,
      RowLockKey(Catalog::kSysIndexesRoot, Catalog::NameKey(index_name)),
      LockMode::kExclusive));
  if (catalog_->GetIndex(index_name).ok()) {
    return Status::AlreadyExists("index '" + index_name + "' exists");
  }
  REWIND_ASSIGN_OR_RETURN(TableInfo tinfo, catalog_->GetTable(table_name));
  IndexInfo info;
  info.index_id = AllocateObjectId();
  info.name = index_name;
  info.table_id = tinfo.table_id;
  for (const std::string& col : columns) {
    int idx = tinfo.schema.ColumnIndex(col);
    if (idx < 0) {
      return Status::InvalidArgument("no column '" + col + "' in table '" +
                                     table_name + "'");
    }
    info.key_columns.push_back(static_cast<uint16_t>(idx));
  }
  REWIND_ASSIGN_OR_RETURN(info.root, BTree::Create(write_ctx(), txn));
  REWIND_RETURN_IF_ERROR(catalog_->PutIndex(write_ctx(), txn, info));

  // Backfill from existing rows.
  BTree table_tree(tinfo.root);
  BTree index_tree(info.root);
  std::vector<ColumnType> types = tinfo.schema.types();
  Status backfill;
  REWIND_ASSIGN_OR_RETURN(
      ScanOutcome so,
      table_tree.Scan(buffers_.get(), Slice(), Slice(),
                      [&](Slice pk, Slice value) {
                        auto row = DecodeRow(types, value);
                        if (!row.ok()) {
                          backfill = row.status();
                          return ScanAction::kStop;
                        }
                        std::string ikey;
                        for (uint16_t c : info.key_columns) {
                          EncodeKeyValue((*row)[c], &ikey);
                        }
                        ikey.append(pk.data(), pk.size());
                        backfill = index_tree.Insert(write_ctx(), txn, ikey,
                                                     pk);
                        return backfill.ok() ? ScanAction::kContinue
                                             : ScanAction::kStop;
                      }));
  (void)so;
  return backfill;
}

Status Database::DropIndex(Transaction* txn, const std::string& index_name) {
  std::lock_guard<std::mutex> g(ddl_mu_);
  REWIND_RETURN_IF_ERROR(locks_.Acquire(
      txn->id,
      RowLockKey(Catalog::kSysIndexesRoot, Catalog::NameKey(index_name)),
      LockMode::kExclusive));
  REWIND_ASSIGN_OR_RETURN(IndexInfo info, catalog_->GetIndex(index_name));
  REWIND_RETURN_IF_ERROR(catalog_->EraseIndex(write_ctx(), txn, index_name));
  std::lock_guard<std::mutex> dg(deferred_mu_);
  deferred_drops_[txn->id].push_back({info.root});
  return Status::OK();
}

// --------------------------- maintenance ------------------------------

std::string Database::ResolveArchiveDir() const {
  if (opts_.archive_dir == "auto") {
    return DefaultArchiveEnabled() ? dir_ + "/archive" : std::string();
  }
  return opts_.archive_dir;
}

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> g(checkpoint_serial_mu_);
  // Sharp: every dirty page, so crash redo starts no earlier than the
  // checkpoint and the data file holds every change before it.
  return CheckpointImpl(std::numeric_limits<Lsn>::max());
}

Status Database::CreationCheckpoint(Lsn split_lsn) {
  std::lock_guard<std::mutex> g(checkpoint_serial_mu_);
  // Section 5.1: every dirty page holding a change at or below the
  // split. A page first dirtied after it already has all of those in
  // its file image.
  return CheckpointImpl(split_lsn + 1);
}

Status Database::FuzzyCheckpoint() {
  std::lock_guard<std::mutex> g(checkpoint_serial_mu_);
  // Two-checkpoint rule: only pages dirty since BEFORE the previous
  // checkpoint are written back, so the redo floor advances one
  // checkpoint interval per checkpoint while writers never drain.
  REWIND_RETURN_IF_ERROR(CheckpointImpl(master_checkpoint_lsn_.load()));
  // Bounded-log steady state: everything below the new truncation
  // floor moves to the archive tier (no-op when the tier is off).
  return TrimActiveWal();
}

Status Database::CheckpointImpl(Lsn flush_below) {
  LogRecord begin;
  begin.type = LogType::kCheckpointBegin;
  begin.wall_clock = clock_->NowMicros();
  Lsn begin_lsn = wal_->Append(begin);

  LogRecord end;
  end.type = LogType::kCheckpointEnd;
  end.wall_clock = begin.wall_clock;
  end.att = txns_->ActiveTransactions();
  // Write back the dirty pages first dirtied below the bound, in page-id
  // order. Commits, evictions and page latching proceed concurrently;
  // the DPT captured below is whatever remains dirty, so crash redo
  // starts at its smallest rec_lsn.
  std::vector<DptEntry> flush = buffers_->DirtyPageTable();
  std::erase_if(flush,
                [&](const DptEntry& e) { return e.rec_lsn >= flush_below; });
  std::sort(flush.begin(), flush.end(),
            [](const DptEntry& a, const DptEntry& b) {
              return a.page_id < b.page_id;
            });
  for (const DptEntry& e : flush) {
    REWIND_RETURN_IF_ERROR(buffers_->FlushPage(e.page_id));
  }
  end.dpt = buffers_->DirtyPageTable();
  wal_->Append(end);
  REWIND_RETURN_IF_ERROR(wal_->FlushAll());

  Lsn redo_floor = begin_lsn;
  for (const DptEntry& e : end.dpt) {
    redo_floor = std::min(redo_floor, e.rec_lsn);
  }
  master_checkpoint_lsn_ = begin_lsn;
  checkpoint_redo_floor_ = redo_floor;
  checkpoint_wal_mark_ = wal_->next_lsn();
  return WriteSuperBlock();
}

void Database::MaybeAutoCheckpoint() {
  const uint64_t interval = opts_.checkpoint_interval_bytes;
  if (interval == 0 || closed_) return;
  if (wal_->next_lsn() - checkpoint_wal_mark_.load(std::memory_order_relaxed) <
      interval) {
    return;
  }
  bool expected = false;
  if (!auto_checkpoint_running_.compare_exchange_strong(expected, true)) {
    return;  // another committer is already paying for it
  }
  Status s = FuzzyCheckpoint();
  (void)s;  // best effort; surfaced by the next explicit checkpoint
  auto_checkpoint_running_.store(false);
}

Lsn Database::TruncationFloor() {
  Lsn floor = checkpoint_redo_floor_.load();
  if (floor == kInvalidLsn) floor = master_checkpoint_lsn_.load();
  if (floor == kInvalidLsn) return kInvalidLsn;
  Lsn oldest_active = txns_->OldestActiveFirstLsn();
  if (oldest_active != kInvalidLsn && oldest_active < floor) {
    floor = oldest_active;
  }
  {
    std::lock_guard<std::mutex> g(anchors_mu_);
    if (!snapshot_anchors_.empty() && *snapshot_anchors_.begin() < floor) {
      floor = *snapshot_anchors_.begin();
    }
  }
  return floor;
}

Status Database::TrimActiveWal() {
  if (wal_->archive() == nullptr) return Status::OK();
  const Lsn floor = TruncationFloor();
  if (floor == kInvalidLsn || floor <= wal_->start_lsn()) return Status::OK();
  REWIND_RETURN_IF_ERROR(wal_->ArchiveUpTo(floor));
  // Truncate only past the archive high water mark: if sealing stopped
  // short of the floor (unflushed tail) the unsealed remainder stays
  // active. The version store is deliberately NOT truncated here --
  // targets below the trim point remain reachable through the archive.
  const Lsn hw = wal_->archive()->high_water();
  if (hw == kInvalidLsn) return Status::OK();
  const Lsn target = std::min(floor, hw);
  if (target > wal_->start_lsn()) {
    REWIND_RETURN_IF_ERROR(wal_->TruncateBefore(target));
  }
  return Status::OK();
}

Status Database::SetUndoInterval(uint64_t micros) {
  undo_interval_micros_ = micros;
  return WriteSuperBlock();
}

void Database::RegisterSnapshotAnchor(Lsn anchor) {
  std::lock_guard<std::mutex> g(anchors_mu_);
  snapshot_anchors_.insert(anchor);
}

void Database::UnregisterSnapshotAnchor(Lsn anchor) {
  std::lock_guard<std::mutex> g(anchors_mu_);
  auto it = snapshot_anchors_.find(anchor);
  if (it != snapshot_anchors_.end()) snapshot_anchors_.erase(it);
}

size_t Database::SnapshotAnchorCount() {
  std::lock_guard<std::mutex> g(anchors_mu_);
  return snapshot_anchors_.size();
}

namespace {

/// Begin-LSN of the newest checkpoint at or before `cutoff` wall-clock
/// time; kInvalidLsn if none. Everything below it is outside the
/// corresponding retention window.
Lsn NewestCheckpointBefore(const std::vector<CheckpointRef>& ckpts,
                           WallClock cutoff) {
  Lsn out = kInvalidLsn;
  for (const CheckpointRef& c : ckpts) {
    if (c.wall_clock <= cutoff) out = c.begin_lsn;
  }
  return out;
}

}  // namespace

Status Database::EnforceRetention() {
  const WallClock now = clock_->NowMicros();
  const uint64_t retention = undo_interval_micros_.load();

  if (wal_->archive() == nullptr) {
    // No archive tier: truncation IS the horizon (seed behaviour).
    // Never truncate what crash recovery, an active transaction or a
    // live snapshot still needs.
    if (now < retention) return Status::OK();
    Lsn candidate =
        NewestCheckpointBefore(wal_->checkpoints(), now - retention);
    if (candidate == kInvalidLsn) return Status::OK();
    Lsn floor = TruncationFloor();
    Lsn target = std::min(candidate, floor);
    if (target == kInvalidLsn || target <= wal_->start_lsn()) {
      return Status::OK();
    }
    REWIND_RETURN_IF_ERROR(wal_->TruncateBefore(target));
    // Cached versions wholly before the truncation point can no longer
    // serve any in-retention target; drop them so the store's budget
    // goes to reachable history.
    version_store_->TruncateBefore(target);
    return Status::OK();
  }

  // Archive tier on: the active log is bounded by seal-then-truncate up
  // to the truncation floor (the AS OF horizon is unaffected -- reads
  // below the cut fall through to the archive)...
  REWIND_RETURN_IF_ERROR(TrimActiveWal());

  // ...and the HORIZON is enforced on the archive instead: drop sealed
  // segments wholly older than the archive retention window, but never
  // past a pin (TruncationFloor includes the oldest live snapshot).
  const uint64_t archive_retention = opts_.archive_retention_micros != 0
                                         ? opts_.archive_retention_micros
                                         : retention;
  if (now < archive_retention) return Status::OK();
  Lsn drop = NewestCheckpointBefore(wal_->checkpoints(),
                                    now - archive_retention);
  if (drop == kInvalidLsn) return Status::OK();
  const Lsn floor = TruncationFloor();
  if (floor != kInvalidLsn) drop = std::min(drop, floor);
  REWIND_RETURN_IF_ERROR(wal_->DropArchiveBefore(drop));
  // Only now is the history below `drop` truly unreachable.
  version_store_->TruncateBefore(drop);
  return Status::OK();
}

void Database::StartCheckpointer() {
  if (opts_.checkpoint_interval_micros == 0) return;
  checkpointer_ = std::thread([this] {
    std::unique_lock<std::mutex> g(ckpt_mu_);
    while (!stop_checkpointer_) {
      ckpt_cv_.wait_for(
          g, std::chrono::microseconds(opts_.checkpoint_interval_micros));
      if (stop_checkpointer_) break;
      g.unlock();
      // Fuzzy: the background cadence must never drain the pool or
      // stall writers; retention (and with it active-log trimming)
      // rides along.
      Status s = FuzzyCheckpoint();
      (void)s;
      s = EnforceRetention();
      (void)s;
      g.lock();
    }
  });
}

void Database::StopCheckpointer() {
  if (!checkpointer_.joinable()) return;
  {
    std::lock_guard<std::mutex> g(ckpt_mu_);
    stop_checkpointer_ = true;
  }
  ckpt_cv_.notify_all();
  checkpointer_.join();
}

Result<Table> Database::OpenTable(const std::string& name) {
  REWIND_ASSIGN_OR_RETURN(TableInfo info, catalog_->GetTable(name));
  REWIND_ASSIGN_OR_RETURN(std::vector<IndexInfo> indexes,
                          catalog_->ListIndexesOf(info.table_id));
  return Table(this, std::move(info), std::move(indexes));
}

}  // namespace rewinddb
