#include "common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "engine/table.h"
#include "log/log_record.h"
#include "tpcc_writer.h"

namespace perfbench {

using rewinddb::wal::WalStats;

void Report::Fail(const std::string& what) {
  failed_++;
  if (errors_.size() < 20) errors_.push_back("failed: " + what);
}

void Report::Mismatch(const std::string& what) {
  mismatches_++;
  if (errors_.size() < 20) errors_.push_back("oracle mismatch: " + what);
}

double Report::Pct(const std::string& what,
                   const std::vector<double>& samples, double p) {
  if (samples.size() < MinSamples(p)) {
    char pct[16];
    snprintf(pct, sizeof(pct), "p%g", p);
    Fail(what + " " + pct + " from " + std::to_string(samples.size()) +
         " samples, fewer than the " + std::to_string(MinSamples(p)) +
         " it needs");
  }
  return Percentile(samples, p);
}

void Report::Print() const {
  for (const auto& [k, v] : notes_) printf("note %s %s\n", k.c_str(), v.c_str());
  for (const std::string& e : errors_) fprintf(stderr, "%s\n", e.c_str());
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {",
         correct() ? "true" : "false", attempted_, failed_ + mismatches_);
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    double v = std::isfinite(m.value) ? m.value : 0.0;
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
           first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  printf("}}\n");
  fflush(stdout);
}

rewinddb::TpccConfig BaseTpccConfig(int warehouses, uint64_t seed) {
  rewinddb::TpccConfig c;
  c.warehouses = warehouses;
  c.districts_per_warehouse = 10;
  c.customers_per_district = 100;
  c.items = 10000;
  c.initial_orders_per_district = 30;
  c.seed = seed;
  return c;
}

rewinddb::DatabaseOptions DefaultOptions() { return {}; }

std::string OptionsJson(const rewinddb::DatabaseOptions& o) {
  char buf[1024];
  snprintf(buf, sizeof(buf),
           "{\"buffer_pool_pages\": %zu, \"fpi_period\": %u, "
           "\"fpi_delta_window_bytes\": %" PRIu64
           ", \"wal_compression\": %s, \"log_cache_blocks\": %zu, "
           "\"version_store_bytes\": %zu, \"default_commit_mode\": \"%s\", "
           "\"wal_flush_interval_micros\": %" PRIu64
           ", \"lock_timeout_micros\": %" PRIu64
           ", \"checkpoint_interval_micros\": %" PRIu64
           ", \"checkpoint_interval_bytes\": %" PRIu64
           ", \"archive_dir\": \"%s\", \"replay_threads\": %d, "
           "\"buffer_shards\": %zu, \"lazy_mount\": %s, "
           "\"data_media\": \"%s\", \"log_media\": \"%s\"}",
           o.buffer_pool_pages, o.fpi_period, o.fpi_delta_window_bytes,
           o.wal_compression ? "true" : "false", o.log_cache_blocks,
           o.version_store_bytes,
           rewinddb::CommitModeName(o.default_commit_mode),
           o.wal_flush_interval_micros, o.lock_timeout_micros,
           o.checkpoint_interval_micros, o.checkpoint_interval_bytes,
           o.archive_dir.c_str(), o.replay_threads, o.buffer_shards,
           o.lazy_mount ? "true" : "false", o.data_media.name.c_str(),
           o.log_media.name.c_str());
  return buf;
}

namespace {
std::string ViewClause(const std::string& snapshot) {
  return snapshot.empty() ? "" : " SNAPSHOT OF " + snapshot;
}
}  // namespace

std::string DistrictProbeSql(int w, int d, const std::string& snapshot) {
  return "SELECT d_next_o_id FROM district WHERE d_w_id = " +
         std::to_string(w) + " AND d_id = " + std::to_string(d) +
         ViewClause(snapshot);
}

std::string StockLevelSql(int w, int d, int next_o_id,
                          const std::string& snapshot) {
  int low = next_o_id - 20 < 1 ? 1 : next_o_id - 20;
  return "SELECT COUNT(DISTINCT ol.ol_i_id) FROM order_line ol "
         "JOIN stock s ON s.s_w_id = ol.ol_w_id AND s.s_i_id = ol.ol_i_id "
         "WHERE ol.ol_w_id = " +
         std::to_string(w) + " AND ol.ol_d_id = " + std::to_string(d) +
         " AND ol.ol_o_id >= " + std::to_string(low) +
         " AND ol.ol_o_id < " + std::to_string(next_o_id) +
         " AND s.s_quantity < " + std::to_string(kStockThreshold) +
         ViewClause(snapshot);
}

rewinddb::Status OpenLoser(rewinddb::Database* db, int w) {
  using rewinddb::Row;
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table district, db->OpenTable("district"));
  REWIND_ASSIGN_OR_RETURN(rewinddb::Table orders, db->OpenTable("orders"));
  rewinddb::Transaction* t = db->Begin();
  REWIND_ASSIGN_OR_RETURN(Row d, district.Get(t, {w, 1}));
  int o_id = d[4].AsInt32();
  d[4] = o_id + 1;
  REWIND_RETURN_IF_ERROR(district.Update(t, d));
  return orders.Insert(t, {w, 1, o_id, 1, 1, 0, static_cast<int64_t>(0)});
}

void CheckAcked(rewinddb::Database* db, int w, const WriterLog& log,
                Report* r) {
  rewinddb::Result<rewinddb::Table> orders = db->OpenTable("orders");
  rewinddb::Result<rewinddb::Table> history = db->OpenTable("history");
  if (!orders.ok() || !history.ok()) {
    r->Mismatch("orders or history table missing");
    return;
  }
  for (const auto& [d, o] : log.orders) {
    if (!orders->Get(nullptr, {w, d, o}).ok()) {
      r->Mismatch("acknowledged order (" + std::to_string(w) + "," +
                  std::to_string(d) + "," + std::to_string(o) +
                  ") missing");
    }
  }
  for (const auto& [d, c, seq] : log.payments) {
    if (!history->Get(nullptr, {w, d, c, seq}).ok()) {
      r->Mismatch("acknowledged payment " + std::to_string(seq) +
                  " of warehouse " + std::to_string(w) + " missing");
    }
  }
}

uint64_t LogAllocatedBytes(const std::string& db_dir) {
  namespace fs = std::filesystem;
  uint64_t total = 0;
  auto add = [&](const fs::path& p) {
    struct stat st;
    if (stat(p.c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  };
  add(fs::path(db_dir) / "log.rwdb");
  std::error_code ec;
  fs::path archive = fs::path(db_dir) / "archive";
  if (fs::is_directory(archive, ec)) {
    for (const auto& e : fs::recursive_directory_iterator(archive, ec)) {
      add(e.path());
    }
  }
  return total;
}

bool SyncTree(const std::string& dir) {
  namespace fs = std::filesystem;
  auto sync_one = [](const fs::path& p, int flags) {
    int fd = open(p.c_str(), flags);
    if (fd < 0) return false;
    bool ok = fsync(fd) == 0;
    close(fd);
    return ok;
  };
  std::error_code ec;
  bool ok = true;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) ok = sync_one(e.path(), O_RDONLY) && ok;
  }
  return !ec && sync_one(dir, O_RDONLY | O_DIRECTORY) && ok;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t TotalCommits(const WalStats& s) {
  return s.sync_commits + s.group_commits + s.async_commits + s.none_commits;
}

void AddWalDelta(WalStats* acc, const WalStats& before,
                 const WalStats& after) {
  acc->fsyncs += after.fsyncs - before.fsyncs;
  acc->flushed_bytes += after.flushed_bytes - before.flushed_bytes;
  acc->appends += after.appends - before.appends;
  acc->group_commit_waits +=
      after.group_commit_waits - before.group_commit_waits;
  acc->sync_commits += after.sync_commits - before.sync_commits;
  acc->group_commits += after.group_commits - before.group_commits;
  acc->async_commits += after.async_commits - before.async_commits;
  acc->none_commits += after.none_commits - before.none_commits;
  for (size_t k = 0; k < WalStats::kTypeSlots; k++) {
    acc->record_counts[k] += after.record_counts[k] - before.record_counts[k];
    acc->record_bytes[k] += after.record_bytes[k] - before.record_bytes[k];
  }
  acc->frames_written += after.frames_written - before.frames_written;
  acc->frame_logical_bytes +=
      after.frame_logical_bytes - before.frame_logical_bytes;
  acc->frame_physical_bytes +=
      after.frame_physical_bytes - before.frame_physical_bytes;
}

void AddIoDelta(Layers* l, const rewinddb::IoStats::Snapshot& before,
                const rewinddb::IoStats::Snapshot& after) {
  l->log_read_hits += after.log_read_hits - before.log_read_hits;
  l->log_read_misses += after.log_read_misses - before.log_read_misses;
  l->sim_io_us += after.sim_io_micros - before.sim_io_micros;
  l->data_reads += after.data_reads - before.data_reads;
  l->data_writes += after.data_writes - before.data_writes;
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Count(uint64_t v) { return static_cast<double>(v); }
}  // namespace

void ReportLayers(Report* r, const Layers& l) {
  // wal
  const WalStats& w = l.wal;
  double commits = Count(l.commits);
  r->Layer("wal.commits_per_fsync", Ratio(Count(TotalCommits(w)), Count(w.fsyncs)),
           "count");
  r->Layer("wal.fsyncs_per_s", Ratio(Count(w.fsyncs), l.phase_s), "1/s");
  r->Layer("wal.group_commit_waits", Count(w.group_commit_waits), "count");
  uint64_t logical = 0;
  for (size_t k = 0; k < WalStats::kTypeSlots; k++) {
    logical += w.record_bytes[k];
    if (k == 0 || k > static_cast<size_t>(rewinddb::LogType::kFpiDelta)) {
      continue;
    }
    std::string kind =
        rewinddb::LogTypeName(static_cast<rewinddb::LogType>(k));
    for (char& ch : kind) ch = static_cast<char>(std::tolower(ch));
    r->Layer("wal.record_bytes." + kind, Ratio(Count(w.record_bytes[k]), commits),
             "B");
  }
  r->Layer("wal.logical_bytes_per_commit", Ratio(Count(logical), commits), "B");
  r->Layer("wal.frame_ratio",
           w.frame_logical_bytes > 0
               ? Ratio(Count(w.frame_physical_bytes), Count(w.frame_logical_bytes))
               : 1.0,
           "ratio");
  // txn
  r->Layer("txn.lock_timeouts", Count(l.lock_timeouts), "count");
  r->Layer("txn.rollbacks", Count(l.rollbacks), "count");
  // buffer
  r->Layer("buffer.hit_ratio",
           Ratio(Count(l.buffer_hits), Count(l.buffer_hits + l.buffer_misses)),
           "ratio");
  r->Layer("buffer.misses", Count(l.buffer_misses), "count");
  r->Layer("buffer.evictions", Count(l.buffer_evictions), "count");
  // snapshot
  double asofs = Count(l.asofs);
  r->Layer("snapshot.buffer_misses_per_asof",
           Ratio(Count(l.snapshot_buffer_misses), asofs), "count");
  r->Layer("snapshot.create_sim_ms", Median(l.create_sim_ms), "ms");
  r->Layer("snapshot.analysis_sim_ms", Median(l.analysis_sim_ms), "ms");
  r->Layer("snapshot.records_undone_per_asof", Ratio(Count(l.records_undone), asofs),
           "count");
  r->Layer("snapshot.fpi_jumps_per_asof", Ratio(Count(l.fpi_jumps), asofs), "count");
  r->Layer("snapshot.pages_rewound_per_asof", Ratio(Count(l.pages_rewound), asofs),
           "count");
  uint64_t probes = l.vs_exact + l.vs_partial + l.vs_miss;
  r->Layer("snapshot.vs_hit_ratio",
           Ratio(Count(l.vs_exact + l.vs_partial), Count(probes)), "ratio");
  r->Layer("snapshot.vs_exact_hits", Count(l.vs_exact), "count");
  r->Layer("snapshot.vs_partial_hits", Count(l.vs_partial), "count");
  r->Layer("snapshot.vs_misses", Count(l.vs_miss), "count");
  r->Layer("snapshot.pages_recovered_on_demand_per_asof",
           Ratio(Count(l.pages_on_demand), asofs), "count");
  // log, io
  r->Layer("log.read_misses_per_asof", Ratio(Count(l.log_read_misses), asofs),
           "count");
  r->Layer("log.read_hit_ratio",
           Ratio(Count(l.log_read_hits), Count(l.log_read_hits + l.log_read_misses)),
           "ratio");
  r->Layer("io.sim_io_ms_per_asof", Ratio(Count(l.sim_io_us) / 1e3, asofs), "ms");
  r->Layer("io.data_reads_per_asof", Ratio(Count(l.data_reads), asofs), "count");
  r->Layer("io.data_writes_per_asof", Ratio(Count(l.data_writes), asofs), "count");
  // engine (crash recovery)
  r->Layer("engine.recovery.analysis_ms", Median(l.rec_analysis_ms), "ms");
  r->Layer("engine.recovery.redo_ms", Median(l.rec_redo_ms), "ms");
  r->Layer("engine.recovery.undo_ms", Median(l.rec_undo_ms), "ms");
  r->Layer("engine.recovery.other_ms", Median(l.rec_other_ms), "ms");
  r->Layer("engine.recovery.redo_records", Median(l.rec_redo_records), "count");
  r->Layer("engine.recovery.loser_txns", Median(l.rec_losers), "count");
  // server
  r->Layer("server.frames_per_txn", Ratio(Count(l.server_frames), Count(l.wire_txns)),
           "count");
  r->Layer("server.frame_errors", Count(l.server_frame_errors), "count");
}

void ReportTraced(Report* r, const std::map<std::string, double>& values) {
  static const std::pair<const char*, const char*> kTraced[] = {
      {"commits_per_s", "1/s"},
      {"txn_p50_ms", "ms"},
      {"txn_p99_ms", "ms"},
      {"asof_first_row_p50_ms", "ms"},
      {"asof_first_row_p90_ms", "ms"},
      {"asof_query_p50_ms", "ms"},
      {"live_query_p50_ms", "ms"},
      {"restart_s", "s"}};
  for (const auto& [name, unit] : kTraced) {
    auto it = values.find(name);
    r->Layer(std::string("traced.") + name,
             it == values.end() ? 0.0 : it->second, unit);
  }
}

void ReportWall(Report* r, double first_row_p50_ms, double first_row_p90_ms,
                double query_p50_ms) {
  r->Layer("wall.asof_first_row_p50_ms", first_row_p50_ms, "ms");
  r->Layer("wall.asof_first_row_p90_ms", first_row_p90_ms, "ms");
  r->Layer("wall.asof_query_p50_ms", query_p50_ms, "ms");
}

double SpanCostNs() {
  constexpr int kSpans = 100000;
  std::vector<double> reps;
  std::vector<Span> buf;
  buf.reserve(kSpans);
  for (int rep = 0; rep < 5; rep++) {
    buf.clear();
    int64_t t0 = NowNs();
    for (int i = 0; i < kSpans; i++) {
      Span s;
      s.name = static_cast<uint32_t>(i & 7);
      s.id = static_cast<uint64_t>(i) + 1;
      s.start_ns = NowNs();
      s.end_ns = NowNs();
      buf.push_back(s);
    }
    reps.push_back(static_cast<double>(NowNs() - t0) / kSpans);
  }
  return Median(reps);
}

void ReportSpans(Report* r, const std::string& spans_path) {
  std::vector<Span> spans = Tracer::Get().Collect();
  std::vector<int64_t> self = SelfTimes(spans);

  std::vector<std::vector<double>> dur_us(kSpanNameCount);
  std::vector<double> self_ns(kSpanNameCount, 0);
  double roots = 0, root_ns = 0;
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    if (s.name >= kSpanNameCount) continue;
    dur_us[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) /
                             1e3);
    self_ns[s.name] += static_cast<double>(self[i]);
    if (s.parent == 0) {
      roots++;
      root_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }

  auto p = [&](SpanName n, double pct) { return Percentile(dur_us[n], pct); };
  // Only oltp drives Connection DML and Txn::Commit, and oltp is not in
  // BENCHMARK.json while its oracle fails; the other workloads leave
  // these metrics out rather than report a 0 that can never move.
  const bool api_dml = !dur_us[kApiDml].empty();
  if (api_dml) {
    r->Layer("api.dml_us_p50", p(kApiDml, 50), "us");
    r->Layer("api.dml_us_p99", p(kApiDml, 99), "us");
    r->Layer("api.commit_us_p50", p(kApiCommit, 50), "us");
    r->Layer("api.commit_us_p99", p(kApiCommit, 99), "us");
  }
  r->Layer("api.mount_ms_p50", p(kApiMount, 50) / 1e3, "ms");
  r->Layer("sql.parse_us_p50", p(kSqlParse, 50), "us");
  r->Layer("exec.plan_us_p50", p(kExecPlan, 50), "us");
  r->Layer("exec.run_ms_p50", p(kExecRun, 50) / 1e3, "ms");
  r->Layer("client.ping_us_p50", p(kClientPing, 50), "us");
  for (SpanName n : {kClientBegin, kClientGet, kClientUpdate, kClientInsert,
                     kClientCommit, kClientExecute}) {
    std::string op = std::string(SpanNameText(n)).substr(strlen("client."));
    r->Layer("client.op_us_p50." + op, p(n, 50), "us");
  }
  for (uint32_t n = 0; n < kSpanNameCount; n++) {
    if (!api_dml && (n == kApiDml || n == kApiCommit)) continue;
    r->Layer(std::string("self_us_per_request.") + SpanNameText(n),
             roots > 0 ? self_ns[n] / 1e3 / roots : 0, "us");
  }
  double cost = SpanCostNs();
  r->Layer("trace.spans", static_cast<double>(spans.size()), "count");
  r->Layer("trace.overhead_pct",
           root_ns > 0 ? 100.0 * cost * static_cast<double>(spans.size()) /
                             root_ns
                       : 0,
           "%");

  if (spans_path.empty()) return;
  FILE* f = fopen(spans_path.c_str(), "w");
  if (f == nullptr) {
    r->Fail("cannot write spans to " + spans_path);
    return;
  }
  fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); i++) {
    const Span& s = spans[i];
    fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRId64
               "\t%" PRId64 "\t%" PRId64 "\n",
            s.id, s.parent, s.request, SpanNameText(s.name), s.start_ns,
            s.end_ns, self[i]);
  }
  fclose(f);
}

}  // namespace perfbench
