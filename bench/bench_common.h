// Shared harness for the paper-reproduction benchmarks.
//
// The latency experiments (figures 7-11) run on a simulated clock: a
// TPC-C history is generated minute by minute, the clock is advanced
// explicitly, and every IO the engine performs is charged to the clock
// through the media models (SSD / 10K SAS). Reported "seconds" are
// simulated seconds; the shapes -- who wins, growth in the time
// travelled, media sensitivity -- are the reproduction target, not the
// absolute values of the authors' 2012 testbed.
//
// The cold bulk of the paper's 40 GB database is emulated by extending
// the data file with filler pages: they cost restore (which copies every
// byte) but not the as-of query (which touches only accessed pages).
#ifndef REWINDDB_BENCH_BENCH_COMMON_H_
#define REWINDDB_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/connection.h"
#include "api/read_view.h"
#include "backup/backup_manager.h"
#include "common/random.h"
#include "engine/database.h"
#include "snapshot/asof_snapshot.h"
#include "tpcc/tpcc.h"

namespace rewinddb {
namespace bench {

constexpr uint64_t kSecond = 1'000'000;
constexpr uint64_t kMinute = 60 * kSecond;

struct HistoryOptions {
  MediaProfile data_media = MediaProfile::Ssd();
  MediaProfile log_media = MediaProfile::Ssd();
  int minutes = 50;
  int orders_per_minute = 60;
  int checkpoint_every_minutes = 5;
  uint64_t filler_pages = 20000;  // ~160 MiB of cold data
  uint32_t fpi_period = 16;
  int warehouses = 2;
  int items = 800;
  /// Percent of generated orders aimed at warehouse 1 (the warehouse the
  /// as-of query reads): models the paper's setup where the queried
  /// district is a tiny, moderately-hot fraction of a large database.
  int hot_warehouse_percent = 10;
  size_t log_cache_blocks = 32;  // small: as-of log reads mostly stall
  /// Shared version store budget. The paper's experiments model an
  /// ad-hoc recovery query with nothing warmed up, so histories default
  /// to 0 (disabled) to keep the figure shapes faithful; the dedicated
  /// version-store sections re-enable it at runtime via SetBudget to
  /// show the cache-on vs cache-off delta.
  size_t version_store_bytes = 0;
};

struct History {
  std::string dir;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<Database> db;
  std::unique_ptr<TpccDatabase> tpcc;
  BackupInfo backup;
  /// marks[i] = simulated wall-clock at the end of minute i (1-based
  /// position i corresponds to marks[i-1]).
  std::vector<WallClock> minute_marks;

  ~History() {
    tpcc.reset();
    db.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

inline std::string BenchDir(const std::string& name) {
  // Prefer tmpfs: the paper ran the log on dedicated fast media where
  // sequential log IO was "easily sustainable"; a slow host filesystem
  // would make every group-commit fdatasync the bottleneck and measure
  // the host, not the engine.
  std::filesystem::path base = std::filesystem::exists("/dev/shm")
                                   ? std::filesystem::path("/dev/shm")
                                   : std::filesystem::temp_directory_path();
  auto dir = base / "rewinddb_bench" / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir.parent_path());
  return dir.string();
}

/// Build a TPC-C database, take a base backup, then generate `minutes`
/// of simulated activity with per-minute time marks.
inline Result<std::unique_ptr<History>> BuildHistory(
    const std::string& name, const HistoryOptions& opts) {
  auto h = std::make_unique<History>();
  h->dir = BenchDir(name);
  h->clock = std::make_unique<SimClock>(kMinute);

  DatabaseOptions dbo;
  dbo.clock = h->clock.get();
  dbo.data_media = opts.data_media;
  dbo.log_media = opts.log_media;
  dbo.buffer_pool_pages = 4096;
  dbo.log_cache_blocks = opts.log_cache_blocks;
  dbo.fpi_period = opts.fpi_period;
  dbo.version_store_bytes = opts.version_store_bytes;
  REWIND_ASSIGN_OR_RETURN(h->db, Database::Create(h->dir + "/db", dbo));

  TpccConfig tc;
  tc.warehouses = opts.warehouses;
  tc.items = opts.items;
  tc.customers_per_district = 30;
  REWIND_ASSIGN_OR_RETURN(h->tpcc,
                          TpccDatabase::CreateAndLoad(h->db.get(), tc));

  // Cold-data filler: raw pages appended to the data file. They are
  // never referenced by any tree; they exist so a full restore has the
  // paper's "whole database" to copy.
  {
    char zero[kPageSize];
    memset(zero, 0, sizeof(zero));
    PageId base = h->db->data_file()->NumPages();
    for (uint64_t i = 0; i < opts.filler_pages; i++) {
      REWIND_RETURN_IF_ERROR(h->db->data_file()->WritePage(
          base + static_cast<PageId>(i), zero));
    }
  }

  // The base backup the restore experiments roll forward from.
  REWIND_ASSIGN_OR_RETURN(h->backup,
                          BackupManager::BackupFull(h->db.get(),
                                                    h->dir + "/base.bak"));

  Random rnd(4242);
  for (int minute = 1; minute <= opts.minutes; minute++) {
    for (int i = 0; i < opts.orders_per_minute; i++) {
      int w = rnd.Percent(static_cast<uint32_t>(opts.hot_warehouse_percent))
                  ? 1
                  : 1 + static_cast<int>(rnd.UniformRange(
                            1, opts.warehouses > 1 ? opts.warehouses - 1
                                                   : 1));
      Status s = h->tpcc->NewOrder(&rnd, w);
      if (!s.ok() && !s.IsAborted()) return s;
      if (i % 3 == 0) {
        s = h->tpcc->Payment(&rnd);
        if (!s.ok() && !s.IsAborted()) return s;
      }
      // Spread the minute across the transactions.
      h->clock->Advance(kMinute / opts.orders_per_minute);
    }
    if (minute % opts.checkpoint_every_minutes == 0) {
      REWIND_RETURN_IF_ERROR(h->db->Checkpoint());
    }
    h->minute_marks.push_back(h->clock->NowMicros());
  }
  REWIND_RETURN_IF_ERROR(h->db->log()->FlushAll());
  return h;
}

/// Wall-clock target for "T minutes back from the end of the history".
inline WallClock MinutesBack(const History& h, int t) {
  int idx = static_cast<int>(h.minute_marks.size()) - t;
  if (idx < 0) idx = 0;
  return h.minute_marks[static_cast<size_t>(idx)];
}

struct AsOfCost {
  double create_seconds = 0;  // snapshot creation incl. recovery
  double query_seconds = 0;   // the stock-level as-of query
  uint64_t undo_log_ios = 0;  // log cache misses during the query
  uint64_t records_undone = 0;
  uint64_t fpi_jumps = 0;
  /// Shared version store traffic during the query (0 when disabled).
  uint64_t vs_exact_hits = 0;
  uint64_t vs_partial_hits = 0;
  /// Data pages read across mount and query: the primary file's, plus
  /// the side file's if the snapshot pool evicted (its 4096 frames hold
  /// every page a stock-level query touches).
  uint64_t data_reads = 0;
  /// Mount-phase breakdown (simulated micros): analysis scan, lock
  /// re-acquisition (the redo-stage work) and background undo, plus
  /// the replay worker count the undo ran with.
  uint64_t analysis_micros = 0;
  uint64_t redo_micros = 0;
  uint64_t undo_micros = 0;
  int replay_threads = 1;
  int result = 0;
};

/// Create an as-of snapshot T minutes back and run the stock-level
/// query against it, measuring simulated costs.
inline Result<AsOfCost> MeasureAsOf(History* h, int minutes_back,
                                    const std::string& snap_name) {
  AsOfCost out;
  WallClock target = MinutesBack(*h, minutes_back);
  // Cold log cache: the paper's scenario is an ad-hoc recovery query,
  // not a warmed-up reporting loop.
  h->db->log()->DropCache();

  const uint64_t reads0 = h->db->stats()->data_reads.load();
  WallClock t0 = h->clock->NowMicros();
  REWIND_ASSIGN_OR_RETURN(
      std::unique_ptr<AsOfSnapshot> snap,
      AsOfSnapshot::Create(h->db.get(), snap_name, target));
  REWIND_RETURN_IF_ERROR(snap->WaitForUndo());
  WallClock t1 = h->clock->NowMicros();
  out.analysis_micros = snap->creation_stats().analysis_micros;
  out.redo_micros = snap->creation_stats().redo_micros;
  out.undo_micros = snap->creation_stats().undo_micros;
  out.replay_threads = snap->creation_stats().replay_threads;

  uint64_t miss0 = h->db->stats()->log_read_misses.load();
  uint64_t undone0 = snap->rewinder()->records_undone();
  uint64_t jumps0 = snap->rewinder()->fpi_jumps();
  VersionStore::Stats vs0 = h->db->version_store()->stats();
  std::unique_ptr<ReadView> view = WrapSnapshot(snap.get());
  REWIND_ASSIGN_OR_RETURN(out.result,
                          TpccDatabase::StockLevelOn(view.get(), 1, 1, 60));
  WallClock t2 = h->clock->NowMicros();

  VersionStore::Stats vs1 = h->db->version_store()->stats();
  out.create_seconds = static_cast<double>(t1 - t0) / kSecond;
  out.query_seconds = static_cast<double>(t2 - t1) / kSecond;
  out.undo_log_ios = h->db->stats()->log_read_misses.load() - miss0;
  out.records_undone = snap->rewinder()->records_undone() - undone0;
  out.fpi_jumps = snap->rewinder()->fpi_jumps() - jumps0;
  out.vs_exact_hits = vs1.exact_hits - vs0.exact_hits;
  out.vs_partial_hits = vs1.partial_hits - vs0.partial_hits;
  out.data_reads = h->db->stats()->data_reads.load() - reads0;
  return out;
}

/// Lazy-mount costs for the same experiment: create records only the
/// SplitLSN (no checkpoint, no analysis wait), so the interesting split
/// is create vs FIRST query -- the first query pays the on-demand page
/// recoveries the eager mount front-loaded.
struct LazyAsOfCost {
  double create_seconds = 0;       // split search + store setup only
  double first_query_seconds = 0;  // includes on-demand recovery
  uint64_t pages_recovered_on_demand = 0;
  int result = 0;
};

/// Lazily mount an as-of snapshot T minutes back and run the
/// stock-level query against it immediately -- without waiting for the
/// background sweeper -- so the measurement reflects what an impatient
/// investigator sees.
inline Result<LazyAsOfCost> MeasureLazyAsOf(History* h, int minutes_back,
                                            const std::string& snap_name) {
  LazyAsOfCost out;
  WallClock target = MinutesBack(*h, minutes_back);
  h->db->log()->DropCache();

  WallClock t0 = h->clock->NowMicros();
  REWIND_ASSIGN_OR_RETURN(
      std::unique_ptr<AsOfSnapshot> snap,
      AsOfSnapshot::Create(h->db.get(), snap_name, target,
                           MountMode::kLazy));
  WallClock t1 = h->clock->NowMicros();
  std::unique_ptr<ReadView> view = WrapSnapshot(snap.get());
  REWIND_ASSIGN_OR_RETURN(out.result,
                          TpccDatabase::StockLevelOn(view.get(), 1, 1, 60));
  WallClock t2 = h->clock->NowMicros();

  out.create_seconds = static_cast<double>(t1 - t0) / kSecond;
  out.first_query_seconds = static_cast<double>(t2 - t1) / kSecond;
  out.pages_recovered_on_demand = snap->pages_recovered_on_demand();
  // Let the sweeper settle before the snapshot drops, so its background
  // IO is not still charging the clock into the next measurement.
  (void)snap->WaitForUndo();
  return out;
}

/// Restore the base backup to T minutes back, measuring simulated cost.
inline Result<double> MeasureRestore(History* h, int minutes_back,
                                     const std::string& dest_name) {
  WallClock target = MinutesBack(*h, minutes_back);
  DatabaseOptions ropts;
  ropts.clock = h->clock.get();
  ropts.data_media = h->db->options().data_media;
  ropts.log_media = h->db->options().log_media;
  ropts.buffer_pool_pages = 4096;
  WallClock t0 = h->clock->NowMicros();
  REWIND_ASSIGN_OR_RETURN(
      RestoreResult r,
      BackupManager::RestoreToTime(h->db.get(), h->backup,
                                   h->dir + "/" + dest_name, target, ropts));
  // Include the cost of actually getting at the data, as the paper's
  // end-to-end comparison does.
  TpccConfig tc;
  REWIND_ASSIGN_OR_RETURN(std::unique_ptr<TpccDatabase> rt,
                          TpccDatabase::Attach(r.database.get(), tc));
  REWIND_ASSIGN_OR_RETURN(int low, rt->StockLevel(1, 1, 60));
  (void)low;
  WallClock t1 = h->clock->NowMicros();
  r.database->SimulateCrash();  // skip close-time checkpoint charges
  return static_cast<double>(t1 - t0) / kSecond;
}

inline void PrintHeader(const std::string& title,
                        const char* paper_summary);

/// End-of-run engine counters through the public Connection surface:
/// the sharded buffer pool (hits/misses/evictions summed per shard)
/// next to the shared version store, so cache behaviour is visible in
/// every figure run.
inline void PrintEngineStats(Database* db) {
  std::unique_ptr<Connection> conn = Connection::Attach(db);
  BufferManager::Stats bs = conn->BufferStats();
  VersionStore::Stats vs = conn->VersionStoreStats();
  printf("\nbuffer pool: %llu hits, %llu misses, %llu evictions "
         "(%zu shards x ~%zu frames)\n",
         static_cast<unsigned long long>(bs.hits),
         static_cast<unsigned long long>(bs.misses),
         static_cast<unsigned long long>(bs.evictions), bs.shards,
         bs.shards > 0 ? bs.pool_pages / bs.shards : bs.pool_pages);
  printf("version store: %llu exact, %llu partial, %llu misses, "
         "%llu published, %llu evicted\n",
         static_cast<unsigned long long>(vs.exact_hits),
         static_cast<unsigned long long>(vs.partial_hits),
         static_cast<unsigned long long>(vs.misses),
         static_cast<unsigned long long>(vs.published),
         static_cast<unsigned long long>(vs.evictions));
  wal::WalStats ws = db->log()->stats();
  if (ws.frames_written > 0 || ws.fpi_delta_hits > 0) {
    printf("wal diet: %llu frames (%llu -> %llu bytes), "
           "%llu delta FPIs / %llu full\n",
           static_cast<unsigned long long>(ws.frames_written),
           static_cast<unsigned long long>(ws.frame_logical_bytes),
           static_cast<unsigned long long>(ws.frame_physical_bytes),
           static_cast<unsigned long long>(ws.fpi_delta_hits),
           static_cast<unsigned long long>(ws.fpi_delta_fallbacks));
  }
  printf("JSON {\"section\":\"engine_stats\",\"buffer_hits\":%llu,"
         "\"buffer_misses\":%llu,\"buffer_evictions\":%llu,"
         "\"buffer_shards\":%zu,\"vs_exact_hits\":%llu,"
         "\"vs_partial_hits\":%llu,\"vs_misses\":%llu,"
         "\"vs_published\":%llu,\"vs_evictions\":%llu,"
         "\"wal_frames_written\":%llu,\"wal_frame_logical_bytes\":%llu,"
         "\"wal_frame_physical_bytes\":%llu,\"wal_fpi_delta_hits\":%llu,"
         "\"wal_fpi_delta_fallbacks\":%llu}\n",
         static_cast<unsigned long long>(bs.hits),
         static_cast<unsigned long long>(bs.misses),
         static_cast<unsigned long long>(bs.evictions), bs.shards,
         static_cast<unsigned long long>(vs.exact_hits),
         static_cast<unsigned long long>(vs.partial_hits),
         static_cast<unsigned long long>(vs.misses),
         static_cast<unsigned long long>(vs.published),
         static_cast<unsigned long long>(vs.evictions),
         static_cast<unsigned long long>(ws.frames_written),
         static_cast<unsigned long long>(ws.frame_logical_bytes),
         static_cast<unsigned long long>(ws.frame_physical_bytes),
         static_cast<unsigned long long>(ws.fpi_delta_hits),
         static_cast<unsigned long long>(ws.fpi_delta_fallbacks));
}

/// Deterministic throughput probe: run the standard mix on one worker
/// until `target_new_orders` commit; returns tpmC from the elapsed real
/// time. Far more stable on small hosts than timed multi-thread runs.
inline double RunFixedWork(TpccDatabase* tpcc, int target_new_orders,
                           uint64_t seed) {
  Random rnd(seed);
  auto t0 = std::chrono::steady_clock::now();
  int committed = 0;
  while (committed < target_new_orders) {
    uint64_t pick = rnd.Uniform(100);
    if (pick < 48) {
      if (tpcc->NewOrder(&rnd).ok()) committed++;
    } else if (pick < 92) {
      (void)tpcc->Payment(&rnd);
    } else if (pick < 96) {
      (void)tpcc->OrderStatus(&rnd);
    } else {
      (void)tpcc->Delivery(&rnd);
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  double micros = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0)
          .count());
  return micros > 0 ? target_new_orders * 60'000'000.0 / micros : 0;
}

/// Shared driver for figures 7 and 8: sweep minutes-back, comparing the
/// as-of path against restore+replay on the given media.
inline void RunAsofVsRestore(const MediaProfile& media, const char* fig,
                             const char* paper_line) {
  HistoryOptions ho;
  ho.data_media = media;
  ho.log_media = media;
  auto history = BuildHistory(std::string(fig) + "_hist", ho);
  if (!history.ok()) {
    printf("history build failed: %s\n",
           history.status().ToString().c_str());
    return;
  }
  History* h = history->get();

  PrintHeader(std::string(fig) +
                  ": as-of query vs restore+replay, media = " + media.name,
              paper_line);
  printf("%-12s %16s %16s %10s\n", "minutes back", "as-of total (s)",
         "restore (s)", "ratio");
  const int sweeps[] = {1, 2, 5, 10, 20, 40};
  int i = 0;
  for (int t : sweeps) {
    auto asof = MeasureAsOf(h, t, "asof" + std::to_string(i));
    if (!asof.ok()) {
      printf("as-of failed: %s\n", asof.status().ToString().c_str());
      return;
    }
    auto restore = MeasureRestore(h, t, "restored" + std::to_string(i));
    if (!restore.ok()) {
      printf("restore failed: %s\n", restore.status().ToString().c_str());
      return;
    }
    double asof_total = asof->create_seconds + asof->query_seconds;
    printf("%-12d %16.3f %16.3f %9.1fx\n", t, asof_total, *restore,
           asof_total > 0 ? *restore / asof_total : 0.0);
    i++;
  }
  PrintEngineStats(h->db.get());
  printf("\nexpected shape: as-of grows with minutes back; restore is "
         "~flat and much larger for recent targets\n");
}

/// Shared driver for figures 9 and 10: split the as-of cost into
/// snapshot creation vs query. Returns the process exit status: 1 when
/// the history build or a mount failed.
inline int RunCreateVsQuery(const MediaProfile& media, const char* fig,
                            const char* paper_line) {
  HistoryOptions ho;
  ho.data_media = media;
  ho.log_media = media;
  auto history = BuildHistory(std::string(fig) + "_hist", ho);
  if (!history.ok()) {
    printf("history build failed: %s\n",
           history.status().ToString().c_str());
    return 1;
  }
  History* h = history->get();
  PrintHeader(std::string(fig) +
                  ": snapshot creation vs as-of query, media = " + media.name,
              paper_line);
  printf("%-12s %14s %14s %12s %10s %10s\n", "minutes back", "create (s)",
         "query (s)", "analysis(ms)", "redo(ms)", "undo(ms)");
  const int sweeps[] = {1, 2, 5, 10, 20, 40};
  std::vector<double> eager_create_s;
  int i = 0;
  for (int t : sweeps) {
    auto asof = MeasureAsOf(h, t, "cq" + std::to_string(i++));
    if (!asof.ok()) {
      printf("as-of failed: %s\n", asof.status().ToString().c_str());
      return 1;
    }
    eager_create_s.push_back(asof->create_seconds);
    printf("%-12d %14.3f %14.3f %12.1f %10.1f %10.1f\n", t,
           asof->create_seconds, asof->query_seconds,
           static_cast<double>(asof->analysis_micros) / 1000.0,
           static_cast<double>(asof->redo_micros) / 1000.0,
           static_cast<double>(asof->undo_micros) / 1000.0);
    printf("JSON {\"bench\":\"%s\",\"section\":\"create_vs_query\","
           "\"minutes_back\":%d,\"create_s\":%.3f,\"query_s\":%.3f,"
           "\"analysis_ms\":%.1f,\"redo_ms\":%.1f,\"undo_ms\":%.1f,"
           "\"replay_threads\":%d,\"records_undone\":%llu}\n",
           fig, t, asof->create_seconds, asof->query_seconds,
           static_cast<double>(asof->analysis_micros) / 1000.0,
           static_cast<double>(asof->redo_micros) / 1000.0,
           static_cast<double>(asof->undo_micros) / 1000.0,
           asof->replay_threads,
           static_cast<unsigned long long>(asof->records_undone));
  }
  printf("\nexpected shape: creation ~flat (bounded by log scanned from "
         "the nearest checkpoint); query grows with minutes back\n");

  // Lazy mounts over the same sweep: creation records only the
  // SplitLSN (waypoint-narrowed search, no checkpoint, no analysis
  // wait), so lazy create stays O(1)-flat even where the eager create
  // grows with log-since-checkpoint; the first query pays the
  // on-demand page recoveries instead.
  printf("\n-- lazy mounts: create vs FIRST query (on-demand recovery) --\n");
  printf("%-12s %16s %16s %16s %12s\n", "minutes back", "lazy create (ms)",
         "eager create (s)", "1st query (s)", "pages/demand");
  i = 0;
  for (int t : sweeps) {
    auto lazy = MeasureLazyAsOf(h, t, "lz" + std::to_string(i));
    if (!lazy.ok()) {
      printf("lazy as-of failed: %s\n", lazy.status().ToString().c_str());
      return 1;
    }
    printf("%-12d %16.3f %16.3f %16.3f %12llu\n", t,
           lazy->create_seconds * 1000.0,
           eager_create_s[static_cast<size_t>(i)],
           lazy->first_query_seconds,
           static_cast<unsigned long long>(lazy->pages_recovered_on_demand));
    printf("JSON {\"bench\":\"%s\",\"section\":\"lazy_mount\","
           "\"minutes_back\":%d,\"create_ms\":%.3f,"
           "\"first_query_ms\":%.1f,\"pages_recovered_on_demand\":%llu,"
           "\"eager_create_ms\":%.1f}\n",
           fig, t, lazy->create_seconds * 1000.0,
           lazy->first_query_seconds * 1000.0,
           static_cast<unsigned long long>(lazy->pages_recovered_on_demand),
           eager_create_s[static_cast<size_t>(i)] * 1000.0);
    i++;
  }
  printf("\nexpected shape: lazy create flat and orders of magnitude "
         "below eager create; the first query absorbs the recovery cost "
         "for exactly the pages it touches\n");

  // Shared version store (cache-on vs the cache-off sweep above): the
  // first snapshot at a target pays the full chain walks and publishes
  // every page it recovers, rewound or not; a second snapshot at the
  // SAME target then materializes from the store (exact hits, ~no
  // records undone, no primary page reads), and the paper's
  // "concurrent as-of queries repeat the undo work" overhead (section
  // 6.3) collapses to the gap between targets.
  printf("\n-- shared version store: second snapshot at the same time --\n");
  printf("%-12s %16s %16s %12s %12s %12s\n", "minutes back", "1st undone",
         "2nd undone", "2nd exact", "2nd partial", "2nd reads");
  h->db->version_store()->SetBudget(64ull << 20);
  for (int t : {5, 20}) {
    h->db->version_store()->Clear();
    h->db->version_store()->ResetStats();
    auto first = MeasureAsOf(h, t, "vs_cold" + std::to_string(t));
    if (!first.ok()) {
      printf("as-of failed: %s\n", first.status().ToString().c_str());
      return 1;
    }
    auto second = MeasureAsOf(h, t, "vs_warm" + std::to_string(t));
    if (!second.ok()) {
      printf("as-of failed: %s\n", second.status().ToString().c_str());
      return 1;
    }
    VersionStore::Stats vs = h->db->version_store()->stats();
    printf("%-12d %16llu %16llu %12llu %12llu %12llu\n", t,
           static_cast<unsigned long long>(first->records_undone),
           static_cast<unsigned long long>(second->records_undone),
           static_cast<unsigned long long>(second->vs_exact_hits),
           static_cast<unsigned long long>(second->vs_partial_hits),
           static_cast<unsigned long long>(second->data_reads));
    printf("JSON {\"bench\":\"%s\",\"section\":\"version_store\","
           "\"minutes_back\":%d,\"first_records_undone\":%llu,"
           "\"second_records_undone\":%llu,\"second_exact_hits\":%llu,"
           "\"second_partial_hits\":%llu,\"second_primary_reads\":%llu,"
           "\"published\":%llu,\"evictions\":%llu,"
           "\"first_query_s\":%.3f,\"second_query_s\":%.3f}\n",
           fig, t,
           static_cast<unsigned long long>(first->records_undone),
           static_cast<unsigned long long>(second->records_undone),
           static_cast<unsigned long long>(second->vs_exact_hits),
           static_cast<unsigned long long>(second->vs_partial_hits),
           static_cast<unsigned long long>(second->data_reads),
           static_cast<unsigned long long>(vs.published),
           static_cast<unsigned long long>(vs.evictions),
           first->query_seconds, second->query_seconds);
  }
  PrintEngineStats(h->db.get());
  printf("\nexpected shape: the second snapshot undoes >=50%% fewer "
         "records (near zero: exact hits replace entire chain walks) "
         "and reads no primary page\n");
  return 0;
}

inline void PrintHeader(const std::string& title,
                        const char* paper_summary) {
  printf("==================================================================\n");
  printf("%s\n", title.c_str());
  printf("paper: %s\n", paper_summary);
  printf("------------------------------------------------------------------\n");
}

}  // namespace bench
}  // namespace rewinddb

#endif  // REWINDDB_BENCH_BENCH_COMMON_H_
