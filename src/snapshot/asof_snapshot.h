// As-of database snapshots (paper section 5).
//
// An AsOfSnapshot presents a transactionally consistent, read-only view
// of the primary database as of an arbitrary wall-clock time within the
// retention period. It is built from three pieces:
//
//  * SnapshotStore -- a PageStore whose read path implements the
//    section 5.3 protocol: side file hit -> return; miss -> take a seed
//    image of the page from the PRIMARY, PreparePageAsOf(page, SplitLSN)
//    and hand the rewound page to the snapshot's buffer pool as dirty.
//    The pool is the page's first home; the sparse side file receives
//    it only when the pool evicts or flushes it, so a page is rewound
//    at most once while the snapshot is mounted. Keeping this below
//    the snapshot's buffer pool leaves the B-tree, catalog and queries
//    entirely oblivious to time travel.
//
//  * Snapshot recovery (section 5.2) -- analysis (AnalyzeLog, shared
//    with crash restart) scans the log between the checkpoint preceding
//    the SplitLSN and the SplitLSN to find transactions in flight at
//    that point. One walk of their chains buckets their page records
//    by tree (redo itself needs no page reads: an eager mount finds the
//    SplitLSN first, then its creation checkpoint writes back every
//    primary page dirtied at or before it). A BACKGROUND pass then
//    undoes each tree's records in descending-LSN order on the
//    snapshot's pages, trees fanned out across
//    DatabaseOptions::replay_threads workers, while queries are already
//    allowed. Both mount modes run this one pass and gate queries the
//    same way; they differ only in when analysis runs and in where a
//    page comes from.
//
//  * SnapshotTable -- read-only typed access mirroring Table. Before it
//    reads a tree it waits for that tree's loser undo, or claims and
//    runs it (EnsureTreeRecovered), so no query sees a row of a
//    transaction in flight at the SplitLSN.
//
// DEPRECATED as an application surface: applications should reach the
// past through Connection::AsOf / Connection::Snapshot, which return
// the unified ReadView handle (same TableView query interface as live
// reads, plus a deterministic drop story). This header remains the
// engine-level snapshot machinery underneath api/; SnapshotTable's read
// methods delegate to engine/read_core.h.
#ifndef REWINDDB_SNAPSHOT_ASOF_SNAPSHOT_H_
#define REWINDDB_SNAPSHOT_ASOF_SNAPSHOT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "buffer/buffer_manager.h"
#include "catalog/catalog.h"
#include "engine/database.h"
#include "io/sparse_file.h"
#include "snapshot/page_rewinder.h"
#include "snapshot/split_lsn.h"
#include "snapshot/version_store.h"

namespace rewinddb {

class AsOfSnapshot;

/// How a snapshot is brought up (DatabaseOptions::lazy_mount picks the
/// default; SET MOUNT_MODE overrides per session). The modes differ in
/// where analysis runs and in which image seeds a page's rewind:
///
///  * kEager -- the section 5.1/5.2 pipeline: split search, a creation
///    checkpoint that writes only the pages dirtied at or before the
///    SplitLSN, inline analysis, then the background pass undoes every
///    tree. Pages are rewound from the primary FILE. Create cost grows
///    with log-since-checkpoint.
///  * kLazy -- create records only the SplitLSN (waypoint-narrowed
///    search) and returns; the background pass first runs analysis.
///    Pages are rewound from the primary's pool.
///
/// Queries wait at one per-tree gate in both modes: each TREE's loser
/// records are undone before its first query reads it (by key, below
/// -- per-page loser undo would be unsound because committed structure
/// modifications move in-flight rows between pages), by that query or
/// by the background pass, whichever claims the tree first. Both modes
/// undo a tree's records in the same order, and a tree's unlogged
/// splits take page ids from that tree's own range, so the modes
/// produce the same rows and byte-identical pages at any
/// replay_threads.
enum class MountMode { kEager, kLazy };

/// Test-only fault injection into snapshot recovery, in either mode:
/// page recovery right before the rewind (kRewindRead, argument: the
/// page id) and per-tree undo (kUndoApply, argument: the tree id).
/// Returning !ok() makes the recovery step fail exactly as a real IO
/// error there would.
enum class RecoveryFaultPoint { kRewindRead, kUndoApply };
using RecoveryFaultHook = std::function<Status(RecoveryFaultPoint, uint64_t)>;

/// PageStore implementing the as-of read protocol of section 5.3,
/// extended with the shared version store: side-file hit -> version
/// store (exact hit returns immediately; a newer-than-target version
/// becomes the rewind starting point) -> a seed image from the primary
/// + full rewind. Every recovered page publishes its pristine result
/// back to the store, a seed that needed no undo included (it already
/// predated the split, so it is valid up to the split), so snapshots
/// at nearby times share undo work and primary page reads. The read
/// path never writes the side file: a page served
/// from anywhere but the side file is reported dirty, and the
/// snapshot's pool writes it there when it evicts or flushes the page.
class SnapshotStore : public PageStore {
 public:
  /// The split, the rewinder, the side file and the primary all come
  /// from `owner`. Both mount modes recover a page the same way; they
  /// differ only in the seed image. An eager mount reads the primary
  /// FILE, which its creation checkpoint brought up to the split. A
  /// lazy mount copies the CURRENT image out of the primary's buffer
  /// pool (sound: page LSNs are stamped only after the record is
  /// published, and the WAL tail is cursor-readable, so the rewinder
  /// can always walk back from the live image).
  explicit SnapshotStore(AsOfSnapshot* owner) : owner_(owner) {}

  /// `*dirty` is false on a side-file hit and true for a recovered
  /// page, which the side file does not hold yet.
  Status ReadPage(PageId id, char* buf, bool* dirty) override;
  /// Writes (from the snapshot's buffer pool: evicted or flushed
  /// recovered pages, background-undo results) always land in the side
  /// file -- never in the version store, which holds only physical
  /// rewind results valid for any snapshot, not this snapshot's private
  /// loser-undo.
  Status WritePage(PageId id, const char* buf) override;

 private:
  /// Produce the split-time image of `id` into `buf` on a side-file
  /// miss (everything after the side-file probe). Split out so the
  /// fault-injection tests can fail it; a failure caches nothing, as
  /// the pool retracts the failed miss.
  Status RecoverPage(PageId id, char* buf);

  AsOfSnapshot* owner_;
};

/// Read-only table handle over a snapshot. Every read first waits for,
/// or runs, the loser undo of each tree it reads
/// (AsOfSnapshot::EnsureTreeRecovered).
class SnapshotTable {
 public:
  SnapshotTable(AsOfSnapshot* snap, TableInfo info,
                std::vector<IndexInfo> indexes);

  const Schema& schema() const { return info_.schema; }
  const TableInfo& info() const { return info_; }
  const std::vector<IndexInfo>& indexes() const { return indexes_; }

  /// Point lookup as of the snapshot time.
  Result<Row> Get(const Row& key_values);
  /// Range scan; nullopt bounds are open.
  Status Scan(const std::optional<Row>& lower, const std::optional<Row>& upper,
              const std::function<bool(const Row&)>& cb);
  /// Secondary-index equality scan.
  Status IndexScan(const std::string& index_name, const Row& prefix_values,
                   const std::function<bool(const Row&)>& cb);
  Result<uint64_t> Count();

 private:
  AsOfSnapshot* snap_;
  TableInfo info_;
  std::vector<IndexInfo> indexes_;
  std::vector<ColumnType> types_;
};

/// A queryable as-of replica of a primary database.
class AsOfSnapshot {
 public:
  struct CreationStats {
    Lsn split_lsn = kInvalidLsn;
    WallClock boundary_time = 0;
    Lsn checkpoint_lsn = kInvalidLsn;
    /// In-flight transactions at the SplitLSN (undone in background).
    size_t loser_transactions = 0;
    /// Simulated+real microseconds spent creating the snapshot
    /// (checkpoint + SplitLSN search + analysis).
    uint64_t create_micros = 0;
    // Mount-phase breakdown (all charged to the primary's clock, so
    // simulated micros under a SimClock):
    /// Analysis scan (analysis_start_lsn -> SplitLSN).
    uint64_t analysis_micros = 0;
    /// LSN the analysis scan started at: the begin record of the newest
    /// checkpoint at or before the split, or of the one before it when
    /// the split fell inside that checkpoint's window (the log's oldest
    /// available byte when no such checkpoint exists). Mirrors
    /// RecoveryStats; under kLazy, read it after WaitForUndo.
    Lsn analysis_start_lsn = kInvalidLsn;
    /// Records the analysis scan decoded, a restarted scan's first pass
    /// included.
    uint64_t analysis_records = 0;
    /// The redo-stage work: the loser chain walk that builds the per-tree
    /// worklists (page redo needs no IO -- the creation checkpoint
    /// already put every change at or below the split on file).
    uint64_t redo_micros = 0;
    /// The background pass. Written by its thread; read it only after
    /// WaitForUndo().
    uint64_t undo_micros = 0;
    /// Workers the background pass fanned trees out over (both modes).
    int replay_threads = 1;
    /// Mount mode this snapshot was created with. Under kLazy,
    /// analysis_micros and redo_micros are part of the background pass
    /// (read after WaitForUndo); create_micros covers only the split
    /// search + store setup -- the O(1) mount claim fig9 measures.
    bool lazy = false;
  };

  ~AsOfSnapshot();
  AsOfSnapshot(const AsOfSnapshot&) = delete;
  AsOfSnapshot& operator=(const AsOfSnapshot&) = delete;

  /// CREATE DATABASE <name> AS SNAPSHOT OF <primary> AS OF <as_of>.
  /// Eager: opens for queries as soon as analysis/redo complete; the
  /// undo of in-flight transactions proceeds in the background, and a
  /// query of a tree not yet undone waits for it or runs it. Lazy:
  /// opens immediately after the split search; analysis and loser undo
  /// proceed in the background, and queries recover what they touch.
  /// Mode defaults to the primary's DatabaseOptions::lazy_mount.
  static Result<std::unique_ptr<AsOfSnapshot>> Create(Database* primary,
                                                      const std::string& name,
                                                      WallClock as_of);
  static Result<std::unique_ptr<AsOfSnapshot>> Create(Database* primary,
                                                      const std::string& name,
                                                      WallClock as_of,
                                                      MountMode mode);

  /// Query-surface: tables and metadata resolve through the snapshot's
  /// own (rewound) catalog pages.
  Result<SnapshotTable> OpenTable(const std::string& name);
  Result<std::vector<TableInfo>> ListTables();

  /// Block until the background undo pass finishes. If the pass failed
  /// after analysis, claim and retry every tree it left pending, as a
  /// query would, so the mount settles once the fault clears: returns
  /// the retry's first failure, or OK. An analysis failure is returned
  /// unchanged. Safe to call from several ReadView handles
  /// concurrently.
  Status WaitForUndo();

  /// Per-tree reader/writer latch (mirrors Database::TreeLatch).
  std::shared_mutex* TreeLatch(TreeId tree);

  /// Returns a consistent copy. Timing/loser fields filled by the
  /// background pass settle only after WaitForUndo(); reading earlier
  /// is safe but may see zeros.
  CreationStats creation_stats() const {
    std::lock_guard<std::mutex> g(stats_mu_);
    return stats_;
  }
  const std::string& name() const { return name_; }
  Lsn split_lsn() const { return split_.split_lsn; }
  BufferManager* buffers() { return buffers_.get(); }
  PageRewinder* rewinder() { return &rewinder_; }
  SparseFile* side_file() { return side_.get(); }
  Database* primary() { return primary_; }

  // ------------------------- lazy-mount surface ----------------------
  bool lazy() const { return mode_ == MountMode::kLazy; }
  /// Block until this tree's loser records are undone on the
  /// snapshot's pages, claiming and running the undo if no other
  /// thread has (no-op for trees no loser touched). Called by the query
  /// surface before it reads a tree, in both modes; also driven
  /// tree-by-tree by the background pass. Idempotent,
  /// safe from many threads; on failure the tree stays pending and a
  /// later call RESUMES where the failed one stopped, so an injected
  /// fault never poisons the tree.
  Status EnsureTreeRecovered(TreeId tree);
  /// Pages this snapshot recovered on first access (lazy).
  uint64_t pages_recovered_on_demand() const {
    return pages_recovered_.load(std::memory_order_relaxed);
  }
  /// Test-only: install (or clear, with nullptr) the recovery fault
  /// hook. Takes effect for subsequent page recoveries / undo steps.
  void SetRecoveryFaultHook(RecoveryFaultHook hook);
  /// Internal: consult the fault hook at `point` (OK when unset).
  Status CheckRecoveryFault(RecoveryFaultPoint point, uint64_t id);
  /// Internal (store callback): one page was recovered on demand.
  void NotePageRecovered();

  /// Delete the side file (done automatically on destruction).
  Status Drop();

 private:
  AsOfSnapshot(Database* primary, std::string name, SplitPoint split,
               MountMode mode);

  /// Side file + store + buffer pool + catalog (both modes).
  Status SetupStorage();
  /// Analysis: scan [newest checkpoint at or before the split -> split]
  /// -- restarting one checkpoint earlier if the scan reaches the split
  /// inside that checkpoint's window, before its end record -- and
  /// return the in-flight transactions (ATT) at the split.
  Status ScanAnalysis(std::unordered_map<TxnId, Lsn>* att);
  /// BuildTreeWork, then publish its outcome to EnsureTreeRecovered's
  /// waiters. Inline in Create under kEager, first in the background
  /// pass under kLazy.
  Status Analyze();
  /// ScanAnalysis + one walk of every loser chain: fills tree_work_,
  /// each tree with its worklist and its private page-id range.
  Status BuildTreeWork();
  /// The background pass (both modes): [kLazy: Analyze] -> every
  /// tree's undo through ParallelFor(replay_threads) -> side-file flush.
  void BackgroundRecovery();
  struct TreeRecovery;
  /// Apply tree-restricted loser undo in descending-LSN order,
  /// resuming at tr->applied. Caller holds the kRunning claim.
  Status ApplyTreeWork(TreeId tree, TreeRecovery* tr);
  /// Shared claim/wait state machine behind EnsureTreeRecovered and
  /// the background pass; `on_demand` marks query-triggered (vs
  /// background) completion for the stats counters.
  Status EnsureTreeRecoveredImpl(TreeId tree, bool on_demand);
  /// Unlogged logical undo of a user row record on the snapshot's
  /// pages: locate the row by key (it may have moved under committed
  /// structure modifications before the split) and apply the inverse
  /// directly. May split snapshot leaves into snapshot-private virtual
  /// pages, with ids from tr's range, when a re-inserted row no longer
  /// fits.
  Status UndoUserRowUnlogged(const LogRecord& rec, TreeRecovery* tr);
  Status UnloggedSplit(TreeRecovery* tr, TreeId tree,
                       const std::vector<PageId>& path);

  Database* primary_;
  std::string name_;
  SplitPoint split_;
  const MountMode mode_;
  PageRewinder rewinder_;

  std::unique_ptr<SparseFile> side_;
  std::unique_ptr<SnapshotStore> store_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<Catalog> catalog_;

  std::thread undo_thread_;
  std::mutex undo_join_mu_;
  Status undo_status_;

  std::mutex tree_latches_mu_;
  std::map<TreeId, std::unique_ptr<std::shared_mutex>> tree_latches_;

  // Per-tree recovery state (both modes). trees_mu_ guards the map
  // shape and every TreeRecovery's state field; a tree's worklist,
  // progress cursor and page-id counter are touched only by the thread
  // holding its kRunning claim (publication happens-before via
  // trees_mu_).
  struct TreeRecovery {
    enum class State { kPending, kRunning, kDone };
    State state = State::kPending;
    /// This tree's loser page-record LSNs, descending: the one order
    /// every mount undoes the tree in, whichever thread claims it --
    /// what makes lazy and eager pages byte-identical.
    std::vector<Lsn> work;
    /// Progress cursor: records [0, applied) are already undone, so a
    /// retry after a failure resumes instead of double-applying.
    size_t applied = 0;
    /// The tree's snapshot-private page ids for unlogged splits:
    /// [next_private_page, private_page_end), set by BuildTreeWork.
    PageId next_private_page = kInvalidPageId;
    PageId private_page_end = kInvalidPageId;
    Result<PageId> TakePrivatePage() {
      if (next_private_page == private_page_end) {
        return Status::Corruption("snapshot-private page ids exhausted");
      }
      return next_private_page++;
    }
  };
  std::mutex trees_mu_;
  std::condition_variable trees_cv_;
  bool analysis_ready_ = false;
  Status analysis_status_;
  std::map<TreeId, TreeRecovery> tree_work_;

  std::mutex fault_mu_;
  RecoveryFaultHook fault_hook_;
  std::atomic<uint64_t> pages_recovered_{0};

  /// Leaf mutex: the background pass updates stats_ while the mount is
  /// already visible to readers, so every write from its thread and
  /// every read through creation_stats() takes it. Never held across
  /// any other lock.
  mutable std::mutex stats_mu_;
  CreationStats stats_;
};

}  // namespace rewinddb

#endif  // REWINDDB_SNAPSHOT_ASOF_SNAPSHOT_H_
