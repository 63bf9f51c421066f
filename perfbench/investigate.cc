// investigate: the paper's section 6.2 scenario. Each set-up loads TPC-C
// and plays simulated minutes of single-writer activity on a SimClock
// with the SSD media model, taking a CHECKPOINT every 5 simulated
// minutes and recording the live STOCK-LEVEL answer (hand-coded, through
// TpccDatabase::StockLevelOn) at sampled instants. The timed phase then
// investigates seeded instants spread over the histories of all the
// set-ups: mount an AS OF snapshot, run the STOCK-LEVEL SQL and
// follow-up queries through ParseSql / exec::PlanSelect / the executor,
// compare every answer with the recorded one, drop the snapshot.
// Single-threaded simulated time repeats exactly for a seed and restores
// the log-IO stalls that the page cache hides.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "api/read_view.h"
#include "common.h"
#include "common/random.h"
#include "engine/table.h"
#include "exec/planner.h"
#include "snapshot/asof_snapshot.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {

using namespace rewinddb;

namespace {

constexpr int kWarehouses = 2;
constexpr uint64_t kSecondUs = 1'000'000;
constexpr int kMinutes = 40;
constexpr int kOrdersPerMinute = 60;
constexpr int kCheckpointEveryMinutes = 5;
/// An instant is recorded after every this many orders.
constexpr int kOrdersPerMark = 10;
/// Set-ups per run: each builds its own history (seeded from the run's
/// seed) and takes its share of the investigations, so a run's
/// percentiles do not hang on one history's draw.
constexpr int kSetups = 10;
/// Recoveries of copies of the one crash image.
constexpr int kRestarts = 5;
/// Investigations per run second.
constexpr int kInvestigationsPerSecond = 10;

/// A recorded instant and the live answers at it.
struct Mark {
  WallClock t = 0;
  int w = 0;
  int d = 0;
  int next_o_id = 0;
  int stock_level = 0;
};

struct History {
  std::string dir;
  uint64_t seed = 0;
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<Database> db;
  std::vector<Mark> marks;
  // The history's writes, after the load: WAL counters, growth of the
  // log's allocated bytes and wall seconds.
  wal::WalStats wal{};
  uint64_t log_bytes = 0;
  double write_s = 0;

  ~History() {
    db.reset();
    std::error_code ec;
    if (!dir.empty()) std::filesystem::remove_all(dir, ec);
  }
};

Result<std::unique_ptr<History>> BuildHistory(const std::string& dir,
                                              uint64_t seed) {
  auto h = std::make_unique<History>();
  h->dir = dir;
  h->seed = seed;
  h->clock = std::make_unique<SimClock>(60 * kSecondUs);
  DatabaseOptions opts = DefaultOptions();
  opts.clock = h->clock.get();
  opts.data_media = MediaProfile::Ssd();
  opts.log_media = MediaProfile::Ssd();
  REWIND_ASSIGN_OR_RETURN(h->db, Database::Create(dir, opts));
  REWIND_ASSIGN_OR_RETURN(
      std::unique_ptr<TpccDatabase> tpcc,
      TpccDatabase::CreateAndLoad(h->db.get(),
                                  BaseTpccConfig(kWarehouses, seed)));
  REWIND_RETURN_IF_ERROR(h->db->log()->FlushAll());
  const wal::WalStats wal0 = h->db->log()->stats();
  const uint64_t log0 = LogAllocatedBytes(dir);
  const int64_t w0 = NowNs();

  Random rnd(seed * 7919 + 17);
  const uint64_t step = 60 * kSecondUs / kOrdersPerMinute;
  for (int minute = 1; minute <= kMinutes; minute++) {
    for (int i = 0; i < kOrdersPerMinute; i++) {
      Status s = tpcc->NewOrder(&rnd);
      if (!s.ok() && !s.IsAborted()) return s;
      if (i % 3 == 0) {
        s = tpcc->Payment(&rnd);
        if (!s.ok() && !s.IsAborted()) return s;
      }
      if ((i + 1) % kOrdersPerMark == 0) {
        Mark m;
        m.t = h->clock->NowMicros();
        m.w = static_cast<int>(rnd.UniformRange(1, kWarehouses));
        m.d = static_cast<int>(rnd.UniformRange(1, 10));
        std::unique_ptr<ReadView> live = WrapLive(h->db.get());
        REWIND_ASSIGN_OR_RETURN(std::unique_ptr<TableView> district,
                                live->OpenTable("district"));
        REWIND_ASSIGN_OR_RETURN(Row drow, district->Get({m.w, m.d}));
        m.next_o_id = drow[4].AsInt32();
        REWIND_ASSIGN_OR_RETURN(
            m.stock_level, TpccDatabase::StockLevelOn(live.get(), m.w, m.d,
                                                      kStockThreshold));
        h->marks.push_back(m);
      }
      // Commits land at the current simulated microsecond and AS OF t
      // includes commits stamped t: move on before the next write.
      h->clock->Advance(step);
    }
    if (minute % kCheckpointEveryMinutes == 0) {
      REWIND_RETURN_IF_ERROR(h->db->FuzzyCheckpoint());
    }
  }
  REWIND_RETURN_IF_ERROR(h->db->log()->FlushAll());
  h->write_s = Ms(w0, NowNs()) / 1e3;
  AddWalDelta(&h->wal, wal0, h->db->log()->stats());
  h->log_bytes = LogAllocatedBytes(dir) - log0;
  return h;
}

/// One SELECT through the SQL layers, with the wall time of its first
/// row and the sim time when it arrived.
struct QueryResult {
  std::vector<Row> rows;
  int64_t first_row_ns = 0;
  WallClock first_row_sim = 0;
};

Result<QueryResult> RunQuery(ReadView* view, const std::string& sql,
                             SimClock* clock) {
  Result<SqlCommand> cmd = [&] {
    ScopedSpan span(kSqlParse);
    return ParseSql(sql);
  }();
  if (!cmd.ok()) return cmd.status();
  if (cmd->kind != SqlCommand::Kind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  Result<exec::PreparedQuery> plan = [&] {
    ScopedSpan span(kExecPlan);
    return exec::PlanSelect(view, *cmd->select);
  }();
  if (!plan.ok()) return plan.status();
  QueryResult out;
  ScopedSpan span(kExecRun);
  REWIND_RETURN_IF_ERROR(plan->root->Open());
  for (;;) {
    Row row;
    REWIND_ASSIGN_OR_RETURN(bool more, plan->root->Next(&row));
    if (!more) break;
    if (out.rows.empty()) {
      out.first_row_ns = NowNs();
      out.first_row_sim = clock->NowMicros();
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

/// The first column of the first row as an integer.
int64_t Scalar(const QueryResult& q) {
  if (q.rows.empty() || q.rows[0].empty()) return -1;
  const Value& v = q.rows[0][0];
  if (v.type() == ColumnType::kInt32) return v.AsInt32();
  if (v.type() == ColumnType::kInt64) return v.AsInt64();
  return -1;
}

/// Latencies of the investigations, on the database's clock (the
/// SimClock: modelled SSD IO) and on the wall clock.
struct Samples {
  std::vector<double> first_sim_ms, followup_sim_ms, first_ms, followup_ms;
};

/// Investigation `k`: mounts `h` AS OF mark `m`, runs the probe and the
/// follow-ups, checks every answer, drops the snapshot.
void InvestigateOne(History* h, int k, const Mark& m, Samples* out,
                    Layers* layers, Report* r) {
  Database* db = h->db.get();
  SimClock* clock = h->clock.get();
  r->Attempt();
  ScopedSpan inv_span(kInvestigation);
  WallClock sim0 = clock->NowMicros();
  int64_t t0 = NowNs();
  Result<std::unique_ptr<AsOfSnapshot>> snap = [&] {
    ScopedSpan span(kApiMount);
    return AsOfSnapshot::Create(db, "inv" + std::to_string(k), m.t);
  }();
  if (!snap.ok()) {
    r->Fail("mount: " + snap.status().ToString());
    return;
  }
  std::unique_ptr<ReadView> view = WrapSnapshot(snap->get());
  if (Status s = view->WaitReady(); !s.ok()) {
    r->Fail("wait ready: " + s.ToString());
    return;
  }
  Result<QueryResult> probe =
      RunQuery(view.get(), DistrictProbeSql(m.w, m.d, ""), clock);
  if (!probe.ok() || probe->rows.empty()) {
    r->Fail("district probe: " + probe.status().ToString());
    return;
  }
  out->first_ms.push_back(Ms(t0, probe->first_row_ns));
  out->first_sim_ms.push_back(
      static_cast<double>(probe->first_row_sim - sim0) / 1e3);
  int next_o_id = static_cast<int>(Scalar(*probe));
  if (next_o_id != m.next_o_id) {
    r->Mismatch("AS OF " + std::to_string(m.t) + ": d_next_o_id " +
                std::to_string(next_o_id) + ", live was " +
                std::to_string(m.next_o_id));
  }

  // Follow-ups on the mounted snapshot, each checked against the live
  // answers: STOCK-LEVEL, the district's order count (ids are dense,
  // so next_o_id - 1) and its last five orders. STOCK-LEVEL is the
  // timed follow-up (asof_query_p50_ms).
  const std::string followups[] = {
      StockLevelSql(m.w, m.d, m.next_o_id, ""),
      "SELECT COUNT(*) FROM orders WHERE o_w_id = " + std::to_string(m.w) +
          " AND o_d_id = " + std::to_string(m.d),
      "SELECT o_id, o_ol_cnt FROM orders WHERE o_w_id = " +
          std::to_string(m.w) + " AND o_d_id = " + std::to_string(m.d) +
          " AND o_id >= " + std::to_string(m.next_o_id - 5)};
  const int64_t expected[] = {m.stock_level, m.next_o_id - 1,
                              m.next_o_id - 1 >= 5 ? 5 : m.next_o_id - 1};
  for (int q = 0; q < 3; q++) {
    WallClock s0 = clock->NowMicros();
    int64_t q0 = NowNs();
    Result<QueryResult> res = RunQuery(view.get(), followups[q], clock);
    int64_t q1 = NowNs();
    if (!res.ok()) {
      r->Fail("follow-up: " + res.status().ToString());
      continue;
    }
    if (q == 0) {
      out->followup_sim_ms.push_back(
          static_cast<double>(clock->NowMicros() - s0) / 1e3);
      out->followup_ms.push_back(Ms(q0, q1));
    }
    int64_t got = q == 2 ? static_cast<int64_t>(res->rows.size())
                         : Scalar(*res);
    if (got != expected[q]) {
      r->Mismatch("AS OF " + std::to_string(m.t) + " query " +
                  std::to_string(q) + ": " + std::to_string(got) +
                  ", live was " + std::to_string(expected[q]));
    }
  }

  AsOfSnapshot::CreationStats cs = (*snap)->creation_stats();
  layers->asofs++;
  layers->create_sim_ms.push_back(cs.create_micros / 1e3);
  layers->analysis_sim_ms.push_back(cs.analysis_micros / 1e3);
  layers->records_undone += (*snap)->rewinder()->records_undone();
  layers->fpi_jumps += (*snap)->rewinder()->fpi_jumps();
  layers->pages_rewound += (*snap)->rewinder()->pages_rewound();
  layers->snapshot_buffer_misses += (*snap)->buffers()->stats().misses;
  view.reset();
  ScopedSpan drop_span(kApiDrop);
  snap->reset();
}

}  // namespace

void RunInvestigate(const RunConfig& cfg, Report* r) {
  const size_t marks = kMinutes * kOrdersPerMinute / kOrdersPerMark;
  // Instants stratified over the history: one per equal slice, at a
  // seeded position inside it, visited in one fixed scrambled order, the
  // histories taking turns. Every seed then travels back the same
  // distances, in the same sequence of log-cache and version-store
  // states, so the percentiles move with the engine rather than with the
  // draw.
  const int investigations = kInvestigationsPerSecond * cfg.seconds;
  Random pick(cfg.seed * 104729 + 3);
  std::vector<size_t> targets;
  for (int k = 0; k < investigations; k++) {
    double pos = (k + static_cast<double>(pick.Uniform(1'000'000)) / 1e6) *
                 static_cast<double>(marks) / investigations;
    targets.push_back(std::min(static_cast<size_t>(pos), marks - 1));
  }
  Random order(20120827);
  for (size_t i = targets.size(); i > 1; i--) {
    std::swap(targets[i - 1], targets[order.Uniform(i)]);
  }

  Samples samples;
  // The commit path runs in the set-ups' histories only: their WAL
  // counters stand for the wal layer here.
  Layers layers;
  std::vector<double> setup_s;
  uint64_t history_log_bytes = 0;
  std::string log_bytes, data_pages;
  // Set-ups alternate with the timed phase: history i is built, its
  // build timed, and then it takes investigations i, i + kSetups, ...
  // The set-up times so sample the whole run, not its first seconds,
  // whose host speed can differ from the rest.
  std::unique_ptr<History> h;
  for (int i = 0; i < kSetups; i++) {
    h.reset();
    int64_t t0 = NowNs();
    Result<std::unique_ptr<History>> built =
        BuildHistory(cfg.dir + "/investigate-" + std::to_string(i),
                     cfg.seed * kSetups + static_cast<uint64_t>(i));
    if (!built.ok()) {
      r->Fail("history: " + built.status().ToString());
      return;
    }
    setup_s.push_back(Ms(t0, NowNs()) / 1e3);
    h = std::move(*built);
    if (h->marks.size() != marks) {
      r->Fail("history recorded " + std::to_string(h->marks.size()) +
              " instants, expected " + std::to_string(marks));
      return;
    }
    log_bytes += " " + std::to_string(LogAllocatedBytes(h->dir));
    data_pages += " " + std::to_string(h->db->data_file()->NumPages());
    AddWalDelta(&layers.wal, {}, h->wal);
    layers.phase_s += h->write_s;
    history_log_bytes += h->log_bytes;

    Database* db = h->db.get();
    const IoStats::Snapshot io0 = db->stats()->Capture();
    const VersionStore::Stats vs0 = db->version_store()->stats();
    const LazyMountCounters lazy0 = db->lazy_mount_counters();
    const BufferManager::Stats buf0 = db->buffers()->stats();
    for (int k = i; k < investigations; k += kSetups) {
      InvestigateOne(h.get(), k, h->marks[targets[static_cast<size_t>(k)]],
                     &samples, &layers, r);
    }
    AddIoDelta(&layers, io0, db->stats()->Capture());
    const BufferManager::Stats buf1 = db->buffers()->stats();
    layers.buffer_hits += buf1.hits - buf0.hits;
    layers.buffer_misses += buf1.misses - buf0.misses;
    layers.buffer_evictions += buf1.evictions - buf0.evictions;
    const VersionStore::Stats vs1 = db->version_store()->stats();
    layers.vs_exact += vs1.exact_hits - vs0.exact_hits;
    layers.vs_partial += vs1.partial_hits - vs0.partial_hits;
    layers.vs_miss += vs1.misses - vs0.misses;
    layers.pages_on_demand +=
        db->lazy_mount_counters().pages_recovered_on_demand -
        lazy0.pages_recovered_on_demand;
  }
  layers.commits = TotalCommits(layers.wal);
  Database* db = h->db.get();
  r->Note("options", OptionsJson(db->options()));
  r->Note("shape", "histories=" + std::to_string(kSetups) +
                       " minutes=" + std::to_string(kMinutes) +
                       " orders_per_minute=" +
                       std::to_string(kOrdersPerMinute) +
                       " marks=" + std::to_string(marks) +
                       " log_bytes=" + log_bytes.substr(1) +
                       " data_pages=" + data_pages.substr(1));

  // Restart: crash the last history's primary with one transaction open,
  // then recover copies of that one image, each made durable first so
  // that Open reads a crash image rather than competing with its
  // writeback. Every acknowledged order must survive (each district's
  // next order id is unchanged and ids stay dense) and the loser must be
  // undone.
  std::vector<int> next_ids;
  {
    Result<Table> district = db->OpenTable("district");
    for (int w = 1; w <= kWarehouses && district.ok(); w++) {
      for (int d = 1; d <= 10; d++) {
        Result<Row> row = district->Get(nullptr, {w, d});
        next_ids.push_back(row.ok() ? (*row)[4].AsInt32() : -1);
      }
    }
  }
  Status s = OpenLoser(db, 1);
  if (s.ok()) s = db->log()->FlushAll();
  if (!s.ok()) {
    r->Fail("open loser: " + s.ToString());
    return;
  }
  // Reopened on engine defaults (real clock, no media model): the
  // restart time is the wall time of Database::Open, and the phase
  // timings are real.
  const DatabaseOptions opts = DefaultOptions();
  db->SimulateCrash();
  h->db.reset();
  std::vector<double> restart_s;
  for (int i = 0; i < kRestarts; i++) {
    const std::string copy = cfg.dir + "/restart-" + std::to_string(i);
    std::error_code ec;
    std::filesystem::copy(h->dir, copy,
                          std::filesystem::copy_options::recursive, ec);
    if (ec || !SyncTree(copy)) {
      r->Fail("copy crash image: " + ec.message());
      return;
    }
    int64_t o0 = NowNs();
    Result<std::unique_ptr<Database>> opened = Database::Open(copy, opts);
    int64_t o1 = NowNs();
    if (!opened.ok()) {
      r->Mismatch("recovery: " + opened.status().ToString());
      return;
    }
    std::unique_ptr<Database> rdb = std::move(*opened);
    restart_s.push_back(Ms(o0, o1) / 1e3);
    const RecoveryStats& rs = rdb->recovery_stats();
    double phases_ms = static_cast<double>(rs.analysis_micros +
                                           rs.redo_micros + rs.undo_micros) /
                       1e3;
    layers.rec_analysis_ms.push_back(rs.analysis_micros / 1e3);
    layers.rec_redo_ms.push_back(rs.redo_micros / 1e3);
    layers.rec_undo_ms.push_back(rs.undo_micros / 1e3);
    layers.rec_other_ms.push_back(Ms(o0, o1) - phases_ms);
    layers.rec_redo_records.push_back(static_cast<double>(rs.redo_records));
    layers.rec_losers.push_back(static_cast<double>(rs.loser_transactions));
    if (rs.loser_transactions != 1) {
      r->Mismatch("recovery found " + std::to_string(rs.loser_transactions) +
                  " losers, expected 1");
    }
    {
      Result<std::unique_ptr<TpccDatabase>> tpcc = TpccDatabase::Attach(
          rdb.get(), BaseTpccConfig(kWarehouses, h->seed));
      s = tpcc.ok() ? (*tpcc)->CheckConsistency() : tpcc.status();
      if (!s.ok()) r->Mismatch("consistency after recovery: " + s.ToString());
    }
    Result<Table> district = rdb->OpenTable("district");
    if (!district.ok()) r->Mismatch("district table lost in recovery");
    for (size_t k = 0; k < next_ids.size() && district.ok(); k++) {
      int w = static_cast<int>(k / 10) + 1, d = static_cast<int>(k % 10) + 1;
      Result<Row> row = district->Get(nullptr, {w, d});
      if (!row.ok() || (*row)[4].AsInt32() != next_ids[k]) {
        r->Mismatch("district (" + std::to_string(w) + "," +
                    std::to_string(d) + ") changed across the crash");
      }
    }
    rdb.reset();
    std::filesystem::remove_all(copy, ec);
  }

  // The end-to-end latencies are on the database's clock. Wall times of
  // this single-threaded, memory-bound workload follow the shared host's
  // speed (quartile spreads of 0.16-0.28 across runs of one seed), so
  // they are per-layer metrics; fleet gates the wall-clock AS OF times.
  r->E2e("setup_s", Median(setup_s), "s");
  r->E2e("peak_rss_mb", PeakRssMb(), "MB");
  r->E2e("log_bytes_per_commit",
         static_cast<double>(history_log_bytes) /
             static_cast<double>(layers.commits ? layers.commits : 1),
         "B");
  const double first_p50 =
      r->Pct("asof first row", samples.first_sim_ms, 50);
  const double first_p90 =
      r->Pct("asof first row", samples.first_sim_ms, 90);
  const double followup_p50 =
      r->Pct("asof follow-up", samples.followup_sim_ms, 50);
  r->E2e("asof_first_row_p50_ms", first_p50, "ms");
  r->E2e("asof_first_row_p90_ms", first_p90, "ms");
  r->E2e("asof_query_p50_ms", followup_p50, "ms");
  ReportTraced(r, {{"asof_first_row_p50_ms", first_p50},
                   {"asof_first_row_p90_ms", first_p90},
                   {"asof_query_p50_ms", followup_p50},
                   {"restart_s", Median(restart_s)}});
  ReportWall(r, r->Pct("asof first row (wall)", samples.first_ms, 50),
             r->Pct("asof first row (wall)", samples.first_ms, 90),
             r->Pct("asof follow-up (wall)", samples.followup_ms, 50));
  ReportLayers(r, layers);
}

}  // namespace perfbench
