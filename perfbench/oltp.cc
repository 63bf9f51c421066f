// oltp: the commit path. Three writers, each with its own Connection
// and its own TPC-C home warehouse (shared rows would measure the lock
// manager's 1 s deadlock timeout, not the engine), run a fixed number of
// NewOrder- and Payment-shaped transactions through Connection::Get/
// Update/Insert and Txn::Commit. Each round then crashes the database
// with one transaction open per writer, recovers it with Database::Open
// and checks that every acknowledged commit survived.
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/connection.h"
#include "common.h"
#include "tpcc_writer.h"
#include "workloads.h"

namespace perfbench {

using namespace rewinddb;

namespace {

constexpr int kWriters = 3;
/// Work per writer per round. A run makes one round per --seconds; each
/// round is a fresh database, this fixed work, a crash and a recovery,
/// so restart_s recovers the same amount of log however fast commits
/// get.
constexpr int kTxnsPerWriter = 1500;

/// api::Connection session: DML through Connection, commit through Txn.
class ConnSession {
 public:
  explicit ConnSession(Database* db) : conn_(Connection::Attach(db)) {}

  Status Begin() {
    txn_ = conn_->Begin();
    return Status::OK();
  }
  Result<Row> Get(const std::string& table, const Row& key) {
    ScopedSpan span(kApiDml);
    return conn_->Get(txn_, table, key);
  }
  Status Update(const std::string& table, const Row& row) {
    ScopedSpan span(kApiDml);
    return conn_->Update(txn_, table, row);
  }
  Status Insert(const std::string& table, const Row& row) {
    ScopedSpan span(kApiDml);
    return conn_->Insert(txn_, table, row);
  }
  Status Commit() {
    ScopedSpan span(kApiCommit);
    return txn_.Commit();
  }
  Status Rollback() { return txn_.active() ? txn_.Abort() : Status::OK(); }

 private:
  std::unique_ptr<Connection> conn_;
  Txn txn_;
};

}  // namespace

void RunOltp(const RunConfig& cfg, Report* r) {
  const int rounds = cfg.seconds;
  const TpccConfig tcfg = BaseTpccConfig(kWriters, cfg.seed);
  const DatabaseOptions opts = DefaultOptions();
  r->Note("options", OptionsJson(opts));
  r->Note("shape", "rounds=" + std::to_string(rounds) +
                       " writers=" + std::to_string(kWriters) +
                       " txns_per_writer=" + std::to_string(kTxnsPerWriter));

  std::vector<double> setup_s, commits_per_s, log_bytes_per_commit,
      restart_s, txn_ms;
  Layers layers;
  uint64_t data_pages = 0;

  for (int round = 0; round < rounds; round++) {
    const std::string dir = cfg.dir + "/oltp-" + std::to_string(round);

    int64_t t0 = NowNs();
    Result<std::unique_ptr<Database>> created = Database::Create(dir, opts);
    if (!created.ok()) {
      r->Fail("create: " + created.status().ToString());
      return;
    }
    std::unique_ptr<Database> db = std::move(*created);
    {
      Result<std::unique_ptr<TpccDatabase>> loaded =
          TpccDatabase::CreateAndLoad(db.get(), tcfg);
      if (!loaded.ok()) {
        r->Fail("load: " + loaded.status().ToString());
        return;
      }
    }
    setup_s.push_back(Ms(t0, NowNs()) / 1e3);

    wal::WalStats wal0 = db->log()->stats();
    BufferManager::Stats buf0 = db->buffers()->stats();
    uint64_t log0 = LogAllocatedBytes(dir);

    std::vector<WriterLog> logs(kWriters);
    std::vector<std::thread> threads;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    for (int w = 1; w <= kWriters; w++) {
      threads.emplace_back([&, w] {
        ConnSession session(db.get());
        TpccWriter<ConnSession> writer(
            &session, w, tcfg,
            cfg.seed * 1'000'003 + static_cast<uint64_t>(round * 16 + w));
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (int i = 0; i < kTxnsPerWriter; i++) {
          writer.RunOne(&logs[static_cast<size_t>(w - 1)]);
        }
      });
    }
    while (ready.load() < kWriters) std::this_thread::yield();
    int64_t p0 = NowNs();
    go.store(true);
    for (auto& t : threads) t.join();
    double phase = Ms(p0, NowNs()) / 1e3;

    uint64_t commits = 0;
    for (const WriterLog& log : logs) {
      commits += log.commits();
      ReportWriter(log, r);
      layers.rollbacks += log.rollbacks;
      layers.lock_timeouts += log.lock_timeouts;
      txn_ms.insert(txn_ms.end(), log.txn_ms.begin(), log.txn_ms.end());
    }
    commits_per_s.push_back(static_cast<double>(commits) / phase);
    log_bytes_per_commit.push_back(
        static_cast<double>(LogAllocatedBytes(dir) - log0) /
        static_cast<double>(commits > 0 ? commits : 1));
    AddWalDelta(&layers.wal, wal0, db->log()->stats());
    BufferManager::Stats buf1 = db->buffers()->stats();
    layers.buffer_hits += buf1.hits - buf0.hits;
    layers.buffer_misses += buf1.misses - buf0.misses;
    layers.buffer_evictions += buf1.evictions - buf0.evictions;
    layers.commits += commits;
    layers.phase_s += phase;
    data_pages = db->data_file()->NumPages();

    // The writers' work is consistent before the crash, too: a mismatch
    // found only after recovery is recovery's.
    {
      Result<std::unique_ptr<TpccDatabase>> tpcc =
          TpccDatabase::Attach(db.get(), tcfg);
      Status s = tpcc.ok() ? (*tpcc)->CheckConsistency() : tpcc.status();
      if (!s.ok()) r->Mismatch("consistency before the crash: " + s.ToString());
    }

    // Crash with a transaction open per writer, then recover.
    Status s;
    for (int w = 1; w <= kWriters && s.ok(); w++) s = OpenLoser(db.get(), w);
    if (s.ok()) s = db->log()->FlushAll();
    if (!s.ok()) {
      r->Fail("open losers: " + s.ToString());
      return;
    }
    db->SimulateCrash();
    db.reset();

    int64_t o0 = NowNs();
    Result<std::unique_ptr<Database>> opened = Database::Open(dir, opts);
    int64_t o1 = NowNs();
    if (!opened.ok()) {
      r->Mismatch("recovery: " + opened.status().ToString());
      return;
    }
    db = std::move(*opened);
    restart_s.push_back(Ms(o0, o1) / 1e3);
    const RecoveryStats& rs = db->recovery_stats();
    double phases_ms =
        static_cast<double>(rs.analysis_micros + rs.redo_micros +
                            rs.undo_micros) / 1e3;
    layers.rec_analysis_ms.push_back(rs.analysis_micros / 1e3);
    layers.rec_redo_ms.push_back(rs.redo_micros / 1e3);
    layers.rec_undo_ms.push_back(rs.undo_micros / 1e3);
    layers.rec_other_ms.push_back(Ms(o0, o1) - phases_ms);
    layers.rec_redo_records.push_back(static_cast<double>(rs.redo_records));
    layers.rec_losers.push_back(static_cast<double>(rs.loser_transactions));
    if (rs.loser_transactions != kWriters) {
      r->Mismatch("recovery found " + std::to_string(rs.loser_transactions) +
                  " losers, expected " + std::to_string(kWriters));
    }

    {
      Result<std::unique_ptr<TpccDatabase>> tpcc =
          TpccDatabase::Attach(db.get(), tcfg);
      if (!tpcc.ok()) {
        r->Mismatch("attach after recovery: " + tpcc.status().ToString());
        return;
      }
      if (Status s = (*tpcc)->CheckConsistency(); !s.ok()) {
        r->Mismatch("consistency after recovery: " + s.ToString());
      }
    }
    for (int w = 1; w <= kWriters; w++) {
      CheckAcked(db.get(), w, logs[static_cast<size_t>(w - 1)], r);
    }
    if (Status s = db->Close(); !s.ok()) r->Fail("close: " + s.ToString());
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  r->Note("data_pages", std::to_string(data_pages));
  r->E2e("setup_s", Median(setup_s), "s");
  r->E2e("commits_per_s", Median(commits_per_s), "1/s");
  r->E2e("txn_p50_ms", r->Pct("txn", txn_ms, 50), "ms");
  r->E2e("txn_p99_ms", r->Pct("txn", txn_ms, 99), "ms");
  r->E2e("log_bytes_per_commit", Median(log_bytes_per_commit), "B");
  r->E2e("restart_s", Median(restart_s), "s");
  r->E2e("peak_rss_mb", PeakRssMb(), "MB");
  ReportTraced(r, {{"commits_per_s", Median(commits_per_s)},
                   {"txn_p50_ms", r->Pct("txn", txn_ms, 50)},
                   {"txn_p99_ms", r->Pct("txn", txn_ms, 99)}});
  ReportLayers(r, layers);
}

}  // namespace perfbench
