// Shared pieces of the three workloads: run configuration, the metric
// report, TPC-C sizing, the SQL texts and the counter readers.
#ifndef REWINDDB_PERFBENCH_COMMON_H_
#define REWINDDB_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/database.h"
#include "io/io_stats.h"
#include "stats.h"
#include "tpcc/tpcc.h"
#include "trace.h"
#include "wal/wal.h"

namespace perfbench {

using rewinddb::DatabaseOptions;
using rewinddb::TpccConfig;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Private directory for this run's databases (run.py removes it).
  std::string dir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// What a workload hands back: the contract's result line plus notes.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// End-to-end metric: kept only in the untraced run.
  void E2e(const std::string& name, double value, const std::string& unit) {
    if (!trace_) metrics_[name] = {value, unit};
  }
  /// Percentile `p` of `samples` (`what` names them). A sample smaller
  /// than MinSamples(p) cannot support that percentile: it fails the run.
  double Pct(const std::string& what, const std::vector<double>& samples,
             double p);
  /// Per-layer metric: kept only in the traced run.
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (trace_) metrics_[name] = {value, unit};
  }
  bool trace() const { return trace_; }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// An operation that did not complete (lock timeout, error).
  void Fail(const std::string& what);
  /// A wrong answer: fails the run.
  void Mismatch(const std::string& what);
  /// Free-form context printed before the result line.
  void Note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  bool correct() const { return mismatches_ == 0 && failed_ == 0; }
  /// Prints the notes, then the one-line JSON result.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
  };
  bool trace_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
  std::map<std::string, Value> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> errors_;
};

// ------------------------------ sizing --------------------------------

/// TPC-C shape shared by the workloads (warehouse count set per
/// workload). Sized so the oltp data stays inside the default
/// 2048-page buffer pool.
TpccConfig BaseTpccConfig(int warehouses, uint64_t seed);

/// Engine defaults: every REWINDDB_* variable is cleared before the
/// first DatabaseOptions is built (main.cc), so this is the plain
/// default-constructed struct.
DatabaseOptions DefaultOptions();

/// The effective options as a JSON object (recorded in the output).
std::string OptionsJson(const DatabaseOptions& o);

// ------------------------------- SQL ----------------------------------

/// The district probe and STOCK-LEVEL statements of
/// bench/sql_stocklevel.cc, for warehouse `w`, district `d`, optionally
/// against a named snapshot.
std::string DistrictProbeSql(int w, int d, const std::string& snapshot);
std::string StockLevelSql(int w, int d, int next_o_id,
                          const std::string& snapshot);
constexpr int kStockThreshold = 60;

/// Leaves a transaction open on warehouse `w` -- a district bump and an
/// order insert -- so crash recovery has a loser to undo. Runs through
/// the engine's Table API: a Connection Txn would abort itself when
/// destroyed, after the crash.
rewinddb::Status OpenLoser(rewinddb::Database* db, int w);

// ----------------------------- counters -------------------------------

/// Allocated bytes (st_blocks * 512) of the log: the active log file
/// plus every archive segment under `db_dir`.
uint64_t LogAllocatedBytes(const std::string& db_dir);

/// fsyncs every regular file under `dir`, then `dir` itself.
bool SyncTree(const std::string& dir);

/// Process peak resident set, MB.
double PeakRssMb();

/// Commits across durability modes.
uint64_t TotalCommits(const rewinddb::wal::WalStats& s);

/// Counters of the layers a workload drives, accumulated over its timed
/// phases. A module the workload does not drive keeps its zeros, which
/// is the prediction for it there: no change.
struct Layers {
  rewinddb::wal::WalStats wal{};  // deltas over the timed phases
  uint64_t commits = 0;           // user commits acknowledged
  double phase_s = 0;
  uint64_t lock_timeouts = 0;
  uint64_t rollbacks = 0;
  uint64_t buffer_hits = 0, buffer_misses = 0, buffer_evictions = 0;
  uint64_t asofs = 0;  // AS OF mounts
  uint64_t snapshot_buffer_misses = 0;
  std::vector<double> create_sim_ms, analysis_sim_ms;
  uint64_t records_undone = 0, fpi_jumps = 0, pages_rewound = 0;
  uint64_t vs_exact = 0, vs_partial = 0, vs_miss = 0;
  uint64_t pages_on_demand = 0;
  uint64_t log_read_hits = 0, log_read_misses = 0;
  uint64_t sim_io_us = 0, data_reads = 0, data_writes = 0;
  std::vector<double> rec_analysis_ms, rec_redo_ms, rec_undo_ms,
      rec_other_ms, rec_redo_records, rec_losers;
  uint64_t server_frames = 0, server_frame_errors = 0;
  uint64_t wire_txns = 0;  // transactions sent over the wire
};

/// Adds after - before to every WAL counter in `acc`.
void AddWalDelta(rewinddb::wal::WalStats* acc,
                 const rewinddb::wal::WalStats& before,
                 const rewinddb::wal::WalStats& after);
/// Adds the IoStats delta to the log/io counters of `l`.
void AddIoDelta(Layers* l, const rewinddb::IoStats::Snapshot& before,
                const rewinddb::IoStats::Snapshot& after);

/// Every counter-based per-layer metric.
void ReportLayers(Report* r, const Layers& l);

/// Per-layer metrics derived from the recorded spans: latency
/// percentiles per layer call, self time per request, span count and
/// the estimated tracing overhead. Writes the spans to `spans_path`.
void ReportSpans(Report* r, const std::string& spans_path);

/// End-to-end values the traced run also reports, as traced.<name>: to
/// compare with the untraced run (steadiness.py prints the gap), and to
/// show the wall times investigate keeps out of its end-to-end set. A
/// workload passes the ones it measures; the rest read 0.
void ReportTraced(Report* r, const std::map<std::string, double>& values);

/// The AS OF latencies on the wall clock, as wall.<name>: investigate's
/// end-to-end ones are on its SimClock.
void ReportWall(Report* r, double first_row_p50_ms, double first_row_p90_ms,
                double query_p50_ms);

/// Cost of recording one span, measured on a private buffer.
double SpanCostNs();

/// Wall-clock micros on the engine's real clock: the time base of
/// commit records, and so of AS OF targets.
inline uint64_t WallUs() { return rewinddb::RealClock::Default()->NowMicros(); }

/// Latency sample in milliseconds between two NowNs() readings.
inline double Ms(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

}  // namespace perfbench

#endif  // REWINDDB_PERFBENCH_COMMON_H_
