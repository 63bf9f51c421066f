// Database: the engine facade tying together file, buffer pool, log,
// locks, transactions, allocator, catalog and recovery.
//
// The architecture mirrors the SQL Server slice described in the
// paper's section 2: index manager (btree/), lock manager (txn/),
// buffer manager (buffer/), transaction manager (txn/), log manager
// (log/) and recovery manager (this file), over slotted pages with
// ARIES-style logging.
#ifndef REWINDDB_ENGINE_DATABASE_H_
#define REWINDDB_ENGINE_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <set>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "buffer/buffer_manager.h"
#include "catalog/catalog.h"
#include "common/clock.h"
#include "engine/allocator.h"
#include "engine/page_ops.h"
#include "engine/parallel_replay.h"
#include "io/disk_model.h"
#include "io/paged_file.h"
#include "snapshot/version_store.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "wal/commit_mode.h"
#include "wal/wal.h"

namespace rewinddb {

class Table;

/// Default for DatabaseOptions::checkpoint_interval_bytes: the
/// REWINDDB_CHECKPOINT_INTERVAL_BYTES environment variable, else 0
/// (byte-triggered checkpoints off).
uint64_t DefaultCheckpointIntervalBytes();

/// True when the REWINDDB_ARCHIVE environment variable asks for the
/// archive tier (any non-empty value except "0").
bool DefaultArchiveEnabled();

/// True when the REWINDDB_LAZY_MOUNT environment variable asks for
/// lazy AS OF mounts (any non-empty value except "0"). How CI runs the
/// whole suite with lazy mounts on.
bool DefaultLazyMount();

/// True when the REWINDDB_WAL_DIET environment variable asks for both
/// halves of the WAL diet (any non-empty value except "0"): compressed
/// flush frames and delta FPIs.
bool DefaultWalDiet();

struct DatabaseOptions {
  /// Buffer pool capacity in pages. Frames are allocated on first use:
  /// the pool, and each AS OF mount's snapshot pool of the same
  /// capacity, grows as pages enter it, up to this cap.
  size_t buffer_pool_pages = 2048;
  /// Emit a full page image every N modifications of a page (paper
  /// section 6.1); 0 disables periodic images.
  uint32_t fpi_period = 0;
  /// Delta-encode periodic FPIs against the page's previous FPI when
  /// that FPI lies within this many bytes of log (the WAL-diet FPI
  /// half; 0 = always log full images). The default is 1 MiB under
  /// REWINDDB_WAL_DIET, else 0: a window that comfortably spans a few
  /// checkpoint intervals of the test workloads.
  uint64_t fpi_delta_window_bytes = DefaultWalDiet() ? uint64_t{1} << 20 : 0;
  /// Compress group-commit flush batches into frames (the WAL-diet
  /// space half; readers handle framed logs unconditionally). The
  /// default honours REWINDDB_WAL_DIET.
  bool wal_compression = DefaultWalDiet();
  /// Retention period for as-of queries (ALTER DATABASE SET
  /// UNDO_INTERVAL, section 4.3). Default: 24 hours.
  uint64_t undo_interval_micros = 24ULL * 3600 * 1'000'000;
  /// Media model for the data file and the log device.
  MediaProfile data_media = MediaProfile::None();
  MediaProfile log_media = MediaProfile::None();
  /// Clock; nullptr selects the process-wide RealClock.
  Clock* clock = nullptr;
  /// Log block cache capacity (32 KiB blocks).
  size_t log_cache_blocks = 256;
  /// Byte budget for the shared version store: the cross-snapshot cache
  /// of rewound page images (LRU-evicted; 0 disables). All as-of
  /// snapshots of this database share one store, so concurrent
  /// point-in-time queries at nearby times reuse instead of repeat the
  /// per-page log-chain walks (paper sections 6.2-6.3).
  size_t version_store_bytes = 32ull << 20;
  /// Default durability level for Commit (Txn::Commit(mode) and
  /// Connection::SetDefaultCommitMode override per call / session).
  CommitMode default_commit_mode = CommitMode::kGroup;
  /// Background WAL flusher cadence for kAsync/kNone stragglers;
  /// 0 flushes only on demand (deterministic for crash tests).
  uint64_t wal_flush_interval_micros = 2'000;
  uint64_t lock_timeout_micros = 1'000'000;
  /// Background checkpoint cadence; 0 = manual checkpoints only. The
  /// background thread takes FUZZY checkpoints (writers never drained)
  /// and runs retention enforcement after each one.
  uint64_t checkpoint_interval_micros = 0;
  /// Fuzzy-checkpoint trigger by WAL volume: when this many log bytes
  /// accumulate since the last checkpoint, the committing thread takes
  /// a fuzzy checkpoint (and, with the archive tier on, archives and
  /// trims the active log -- the bounded-log steady state). 0 disables
  /// the byte trigger. The default honours the
  /// REWINDDB_CHECKPOINT_INTERVAL_BYTES environment variable (how CI
  /// forces multiple checkpoints across the whole suite).
  uint64_t checkpoint_interval_bytes = DefaultCheckpointIntervalBytes();
  /// WAL archive tier directory. "auto" (the default) enables the tier
  /// at "<dir>/archive" iff the REWINDDB_ARCHIVE environment variable
  /// is set; "" disables it explicitly (truncation then drops history,
  /// the pre-archive behaviour); any other value is used as the archive
  /// directory. With the tier on, retention becomes archive-then-
  /// truncate and AS OF reaches transparently into archived history.
  std::string archive_dir = "auto";
  /// Target payload bytes per sealed archive segment.
  uint64_t archive_segment_bytes = 4ull << 20;
  /// How long ARCHIVED log is retained (the long-horizon AS OF window).
  /// 0 = follow undo_interval_micros. Only meaningful with the archive
  /// tier on; segments pinned by a live snapshot are never dropped.
  uint64_t archive_retention_micros = 0;
  /// Worker threads for parallel replay: crash-recovery redo/undo and
  /// a snapshot's background undo pass partition their work across
  /// this many workers (redo by page, crash undo by loser transaction,
  /// snapshot undo by tree). 1 runs the same code inline, in order.
  /// The default honours the REWINDDB_REPLAY_THREADS environment
  /// variable (how CI runs the whole suite with workers on).
  int replay_threads = replay::DefaultReplayThreads();
  /// Buffer pool shard count (per-shard hash table + mutex + clock
  /// hand); 0 = auto: one shard per 128 frames, at most 16. Small
  /// pools degenerate to a single shard.
  size_t buffer_shards = 0;
  /// Lazy AS OF mounts: snapshot creation records only the SplitLSN
  /// and defers analysis + loser undo to a background sweeper, while
  /// pages are recovered individually on first access (per-page rewind
  /// from the primary's pool image). Mount cost becomes O(1) in
  /// log-since-backup; first-query latency becomes O(working set).
  /// The eager path (default) stays the oracle: both produce the same
  /// rows and byte-identical page images (tests/lazy_mount_test.cc).
  /// Overridable per session with SET MOUNT_MODE. The default honours
  /// the REWINDDB_LAZY_MOUNT environment variable.
  bool lazy_mount = DefaultLazyMount();
};

/// Counters behind SHOW STATS' lazy_mount.* rows: how much recovery
/// work lazy mounts deferred and where it was eventually paid (on
/// demand by queries vs. by the background sweeper). Plain values; the
/// engine keeps them in relaxed atomics.
struct LazyMountCounters {
  uint64_t lazy_mounts = 0;
  uint64_t eager_mounts = 0;
  /// Pages recovered on first access by a lazily mounted snapshot.
  uint64_t pages_recovered_on_demand = 0;
  /// Trees whose loser undo was applied on first query touch, under
  /// either mount mode (the remainder were completed by the background
  /// pass).
  uint64_t trees_recovered_on_demand = 0;
  /// Background sweeps that ran to completion.
  uint64_t sweeps_completed = 0;
};

/// Phase timings of the last crash recovery, charged to the database
/// clock (simulated micros under a SimClock). Zeroed when the shutdown
/// was clean.
struct RecoveryStats {
  uint64_t analysis_micros = 0;
  uint64_t redo_micros = 0;
  uint64_t undo_micros = 0;
  /// LSN the analysis scan started at: the last completed checkpoint's
  /// begin record (the log's oldest available byte only when no
  /// checkpoint exists). What bounds recovery time in steady state.
  Lsn analysis_start_lsn = kInvalidLsn;
  /// Records the analysis scan decoded (analysis_start_lsn -> end).
  uint64_t analysis_records = 0;
  /// Where the durable log ended when recovery STARTED -- before undo
  /// CLRs and the post-recovery checkpoint appended past it. After a
  /// crash this is the boundary between kept and lost history.
  Lsn durable_end_lsn = kInvalidLsn;
  /// Records the redo dispatcher handed to workers (after DPT filter).
  uint64_t redo_records = 0;
  uint64_t loser_transactions = 0;
  int replay_threads = 1;
};

/// Physical undo applier: compensates records at their recorded page
/// and slot. Valid whenever records are undone in reverse-LSN order
/// (crash recovery) or belong to a system transaction whose pages no
/// one else touched (runtime SMO failure).
class PhysicalUndoApplier : public UndoApplier {
 public:
  PhysicalUndoApplier(BufferManager* buffers, PageOps* ops)
      : buffers_(buffers), ops_(ops) {}
  Status UndoRecord(Transaction* txn, Lsn lsn, const LogRecord& rec) override;

 private:
  BufferManager* buffers_;
  PageOps* ops_;
};

/// Logical undo applier: row operations re-traverse the B-tree by key
/// (rows may have moved since); everything else is position-independent
/// and compensated physically.
class LogicalUndoApplier : public UndoApplier {
 public:
  explicit LogicalUndoApplier(const TreeWriteContext& ctx)
      : ctx_(ctx), physical_(ctx.buffers, ctx.ops) {}
  Status UndoRecord(Transaction* txn, Lsn lsn, const LogRecord& rec) override;

 private:
  TreeWriteContext ctx_;
  PhysicalUndoApplier physical_;
};

class Database {
 public:
  ~Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Create a fresh database in directory `dir` (created if needed):
  /// data file `dir`/data.rwdb, log `dir`/log.rwdb.
  static Result<std::unique_ptr<Database>> Create(const std::string& dir,
                                                  DatabaseOptions opts = {});

  /// Open an existing database; runs ARIES crash recovery
  /// (analysis / redo / undo) if the shutdown was not clean.
  static Result<std::unique_ptr<Database>> Open(const std::string& dir,
                                                DatabaseOptions opts = {});

  /// Flush everything and stop background work. Called by the
  /// destructor if not called explicitly.
  Status Close();

  // ------------------------- transactions ----------------------------
  Transaction* Begin();
  /// Commit with the transaction's stamped CommitMode (the engine
  /// default unless overridden).
  Status Commit(Transaction* txn);
  /// Commit with an explicit durability level for this transaction.
  Status Commit(Transaction* txn, CommitMode mode);
  Status Abort(Transaction* txn);

  // ----------------------------- DDL ---------------------------------
  Status CreateTable(Transaction* txn, const std::string& name,
                     const Schema& schema);
  /// Drops the table and its indexes. Page deallocation is deferred to
  /// commit (so aborting the transaction cannot race re-allocations).
  Status DropTable(Transaction* txn, const std::string& name);
  Result<Table> OpenTable(const std::string& name);
  Status CreateIndex(Transaction* txn, const std::string& index_name,
                     const std::string& table_name,
                     const std::vector<std::string>& columns);
  Status DropIndex(Transaction* txn, const std::string& index_name);

  // ------------------------- maintenance -----------------------------
  // Every checkpoint appends wall-clock-stamped begin/end records,
  // writes back (in page-id order) the dirty pages first dirtied below
  // its bound, lists the pages left dirty in the end record's DPT and
  // updates the master record. The three differ only in the bound.

  /// SHARP checkpoint: writes back every dirty page, so the data file
  /// holds every pre-checkpoint change -- what backup and a clean
  /// shutdown rely on. Drains the buffer pool's dirty set, so prefer
  /// FuzzyCheckpoint() for routine log bounding.
  Status Checkpoint();

  /// Snapshot-creation checkpoint (section 5.1), taken by an eager AS OF
  /// mount once it knows its SplitLSN: writes back only the dirty pages
  /// whose rec_lsn is at or below `split_lsn`. Afterwards every page's
  /// file image holds all of its changes at or below the split -- a page
  /// first dirtied after the split had them on file already -- which is
  /// what the snapshot's reads of the primary file need.
  Status CreationCheckpoint(Lsn split_lsn);

  /// FUZZY checkpoint (taken without blocking writers): writes back only
  /// the pages dirty since before the PREVIOUS checkpoint's begin record,
  /// so the redo floor keeps advancing (the classic two-checkpoint rule)
  /// while the pool stays warm. Crash recovery's analysis starts at the
  /// resulting master checkpoint. The only checkpoint that trims: with
  /// the archive tier on, it also archives + trims the active log up to
  /// the new truncation floor. Triggered by checkpoint_interval_bytes,
  /// the SQL CHECKPOINT statement, and the background checkpointer.
  Status FuzzyCheckpoint();

  /// ALTER DATABASE SET UNDO_INTERVAL.
  Status SetUndoInterval(uint64_t micros);
  uint64_t undo_interval_micros() const { return undo_interval_micros_; }

  /// Enforce the retention policy (section 4.3). Without the archive
  /// tier: truncate log older than the retention period (keeping
  /// everything crash recovery, active transactions or live snapshots
  /// still need). With the archive tier: seal-then-truncate the active
  /// log up to the truncation floor, then drop ARCHIVED segments older
  /// than archive_retention (never past a live snapshot's pin).
  Status EnforceRetention();

  // ------------------------ engine internals -------------------------
  // Exposed for the snapshot, backup and benchmark layers.
  wal::Wal* log() { return wal_.get(); }
  BufferManager* buffers() { return buffers_.get(); }
  LockManager* locks() { return &locks_; }
  TransactionManager* txns() { return txns_.get(); }
  PageAllocator* allocator() { return allocator_.get(); }
  Catalog* catalog() { return catalog_.get(); }
  Clock* clock() { return clock_; }
  IoStats* stats() { return &stats_; }
  PagedFile* data_file() { return data_file_.get(); }
  /// Shared cross-snapshot cache of rewound page images; every
  /// AsOfSnapshot of this database reads through it. Never null (a
  /// zero budget makes it an always-miss no-op).
  VersionStore* version_store() { return version_store_.get(); }
  DiskModel* data_disk() { return &data_disk_; }
  DiskModel* log_disk() { return &log_disk_; }
  const std::string& dir() const { return dir_; }
  const DatabaseOptions& options() const { return opts_; }

  TreeWriteContext write_ctx() {
    return {buffers_.get(), ops_.get(), txns_.get(), allocator_.get()};
  }

  /// Per-tree reader/writer latch (writers of a tree are serialized;
  /// readers exclude structure changes).
  std::shared_mutex* TreeLatch(TreeId tree);

  /// Master-record LSN of the last completed checkpoint.
  Lsn master_checkpoint_lsn() const { return master_checkpoint_lsn_; }

  /// True if the last Open had to run crash recovery (tests).
  bool recovered_from_crash() const { return recovered_from_crash_; }

  /// Phase breakdown of the last crash recovery (analysis/redo/undo).
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// Test/benchmark hook: abandon all in-memory state as a real crash
  /// would -- no checkpoint, no page flush, unflushed log lost. The
  /// object may only be destroyed afterwards; reopen with Open() to
  /// exercise recovery.
  void SimulateCrash();

  uint32_t AllocateObjectId() { return next_object_id_++; }

  /// Open as-of snapshots pin the log they depend on: retention
  /// enforcement never truncates past the oldest registered anchor.
  void RegisterSnapshotAnchor(Lsn anchor);
  void UnregisterSnapshotAnchor(Lsn anchor);
  /// Number of currently registered anchors == open as-of snapshots.
  /// The baseline signal SHOW STATS and the network tests use to prove
  /// session teardown released every snapshot handle.
  size_t SnapshotAnchorCount();

  /// Lazy-mount accounting (bumped by AsOfSnapshot, which this
  /// Database always outlives).
  void BumpLazyMount(bool lazy) {
    (lazy ? lazy_mounts_ : eager_mounts_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  void BumpPagesRecoveredOnDemand() {
    pages_recovered_on_demand_.fetch_add(1, std::memory_order_relaxed);
  }
  void BumpTreesRecoveredOnDemand(uint64_t n) {
    trees_recovered_on_demand_.fetch_add(n, std::memory_order_relaxed);
  }
  void BumpSweepsCompleted() {
    sweeps_completed_.fetch_add(1, std::memory_order_relaxed);
  }
  LazyMountCounters lazy_mount_counters() const {
    LazyMountCounters c;
    c.lazy_mounts = lazy_mounts_.load(std::memory_order_relaxed);
    c.eager_mounts = eager_mounts_.load(std::memory_order_relaxed);
    c.pages_recovered_on_demand =
        pages_recovered_on_demand_.load(std::memory_order_relaxed);
    c.trees_recovered_on_demand =
        trees_recovered_on_demand_.load(std::memory_order_relaxed);
    c.sweeps_completed = sweeps_completed_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  friend class Table;

  explicit Database(std::string dir, DatabaseOptions opts);

  Status InitStorage(bool create);
  Status Bootstrap();
  Status LoadSuperBlock();
  Status WriteSuperBlock();
  Status RunRecovery();
  /// Redo worker body: fetch (or materialize) the page and repeat
  /// history if the page LSN says the record is not yet applied.
  Status RedoOne(Lsn lsn, const LogRecord& rec);
  /// Undo one loser transaction's whole chain (CLR-logged), appending
  /// its ABORT record. Thread-safe: logical undo re-latches trees per
  /// record.
  Status UndoLoser(TxnId id, Lsn last_lsn);
  /// The one body of every checkpoint: writes back the dirty pages
  /// whose rec_lsn is below `flush_below`. The caller holds
  /// checkpoint_serial_mu_, so begin/end pairs never interleave in the
  /// log.
  Status CheckpointImpl(Lsn flush_below);
  /// Byte-triggered fuzzy checkpoint (called from Commit); claims an
  /// atomic flag so exactly one committer pays for it.
  void MaybeAutoCheckpoint();
  /// Oldest LSN the active log must keep: min of the last checkpoint's
  /// redo floor, the oldest active transaction's first record and the
  /// oldest live snapshot's pin.
  Lsn TruncationFloor();
  /// Archive-then-truncate the active log up to TruncationFloor()
  /// (no-op without the archive tier -- truncation would destroy the
  /// AS OF horizon).
  Status TrimActiveWal();
  /// Resolve opts_.archive_dir ("auto"/""/path) to the directory the
  /// WAL should archive into; empty = tier off.
  std::string ResolveArchiveDir() const;
  void StartCheckpointer();
  void StopCheckpointer();

  /// Deferred DROP TABLE work executed at commit.
  struct DeferredDrop {
    TreeId tree;
  };

  std::string dir_;
  DatabaseOptions opts_;
  Clock* clock_;
  IoStats stats_;
  DiskModel data_disk_;
  DiskModel log_disk_;

  std::unique_ptr<PagedFile> data_file_;
  std::unique_ptr<FilePageStore> store_;
  std::unique_ptr<wal::Wal> wal_;
  std::unique_ptr<BufferManager> buffers_;
  LockManager locks_;
  std::unique_ptr<TransactionManager> txns_;
  std::unique_ptr<PageOps> ops_;
  std::unique_ptr<PageAllocator> allocator_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<VersionStore> version_store_;

  std::atomic<uint64_t> undo_interval_micros_;
  std::atomic<uint32_t> next_object_id_{1};
  std::atomic<Lsn> master_checkpoint_lsn_{kInvalidLsn};
  /// Min rec_lsn across the last checkpoint's DPT (== its begin LSN
  /// when the DPT was empty): where redo would have to start, i.e. the
  /// checkpoint's contribution to the truncation floor. kInvalidLsn
  /// until the first checkpoint this process lifetime (TruncationFloor
  /// then falls back to the master checkpoint, which is exact for the
  /// sharp checkpoint a clean shutdown wrote).
  std::atomic<Lsn> checkpoint_redo_floor_{kInvalidLsn};
  /// wal next_lsn at the last checkpoint: the byte trigger's baseline.
  std::atomic<Lsn> checkpoint_wal_mark_{0};
  /// Claim flag so one committer at a time pays for the byte-triggered
  /// checkpoint.
  std::atomic<bool> auto_checkpoint_running_{false};
  /// Serializes checkpoint begin/end pairs (manual, byte-triggered,
  /// background, snapshot-creation). Ordered BEFORE every other engine
  /// lock; nothing is held when acquiring it.
  std::mutex checkpoint_serial_mu_;
  bool recovered_from_crash_ = false;
  RecoveryStats recovery_stats_;
  bool closed_ = false;

  std::mutex tree_latches_mu_;
  std::map<TreeId, std::unique_ptr<std::shared_mutex>> tree_latches_;

  std::mutex deferred_mu_;
  std::map<TxnId, std::vector<DeferredDrop>> deferred_drops_;

  std::mutex anchors_mu_;
  std::multiset<Lsn> snapshot_anchors_;

  std::atomic<uint64_t> lazy_mounts_{0};
  std::atomic<uint64_t> eager_mounts_{0};
  std::atomic<uint64_t> pages_recovered_on_demand_{0};
  std::atomic<uint64_t> trees_recovered_on_demand_{0};
  std::atomic<uint64_t> sweeps_completed_{0};

  std::thread checkpointer_;
  std::mutex ckpt_mu_;
  std::condition_variable ckpt_cv_;
  bool stop_checkpointer_ = false;

  std::mutex ddl_mu_;  // serializes DDL statements
};

}  // namespace rewinddb

#endif  // REWINDDB_ENGINE_DATABASE_H_
