// The order-entry writer shared by oltp and fleet: TPC-C NewOrder and
// Payment transactions on one home warehouse, written once over a
// session type so the same transactions run through api::Connection
// (oltp) and over the wire through client::Client (fleet).
//
// A Session provides Begin(), Get(table, key), Update(table, row),
// Insert(table, row), Commit() and Rollback(), each wrapping its call in
// the layer's span.
#ifndef REWINDDB_PERFBENCH_TPCC_WRITER_H_
#define REWINDDB_PERFBENCH_TPCC_WRITER_H_

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common.h"
#include "common/random.h"

namespace perfbench {

/// What one writer did, kept for the oracles.
struct WriterLog {
  /// One NewOrder: wall-clock micros when it began and, if it committed,
  /// when the commit was acknowledged (0 otherwise).
  struct OrderTimes {
    int d = 0;
    uint64_t begin_us = 0;
    uint64_t ack_us = 0;
  };
  std::vector<OrderTimes> new_orders;
  std::vector<std::pair<int, int>> orders;              // acked (d, o_id)
  std::vector<std::tuple<int, int, int64_t>> payments;  // acked (d, c, seq)
  std::vector<double> txn_ms;  // Begin to commit acknowledged
  uint64_t attempted = 0;
  uint64_t rollbacks = 0;  // intentional, completed
  uint64_t lock_timeouts = 0;
  uint64_t errors = 0;
  std::string first_error;

  uint64_t commits() const { return orders.size() + payments.size(); }
};

/// Adds a writer's outcome to the report: attempts, one failure per
/// lock timeout or error.
inline void ReportWriter(const WriterLog& log, Report* r) {
  r->Attempt(log.attempted);
  for (uint64_t i = 0; i < log.lock_timeouts + log.errors; i++) {
    r->Fail(log.first_error);
  }
}

template <typename Session>
class TpccWriter {
 public:
  TpccWriter(Session* session, int warehouse, const TpccConfig& cfg,
             uint64_t seed)
      : s_(session), w_(warehouse), cfg_(cfg), rnd_(seed) {}

  /// One transaction, two NewOrders to one Payment, recorded in `log`.
  /// A Payment takes a third of a NewOrder's time; at an even mix the
  /// latency median would fall in the gap between the two and jump with
  /// the draw, at two to one it sits inside the NewOrder mode.
  void RunOne(WriterLog* log) {
    log->attempted++;
    int64_t t0 = NowNs();
    bool committed = false;
    rewinddb::Status st;
    {
      ScopedSpan span(kTxn);
      st = rnd_.Uniform(3) != 0 ? NewOrder(log, &committed)
                                : Payment(log, &committed);
    }
    if (committed) {
      log->txn_ms.push_back(Ms(t0, NowNs()));
      return;
    }
    if (st.ok()) return;  // intentional rollback
    if (st.IsAborted() &&
        st.ToString().find("lock wait timeout") != std::string::npos) {
      log->lock_timeouts++;
    } else {
      log->errors++;
    }
    if (log->first_error.empty()) log->first_error = st.ToString();
    (void)s_->Rollback();
  }

 private:
  using Row = rewinddb::Row;
  using Status = rewinddb::Status;

  Status NewOrder(WriterLog* log, bool* committed) {
    int d = static_cast<int>(
        rnd_.UniformRange(1, cfg_.districts_per_warehouse));
    int cust = static_cast<int>(
        rnd_.NonUniform(1023, 1, cfg_.customers_per_district));
    int ol_cnt = static_cast<int>(
        rnd_.UniformRange(cfg_.min_order_lines, cfg_.max_order_lines));
    bool rollback = rnd_.Percent(cfg_.new_order_rollback_percent);

    log->new_orders.push_back({d, WallUs(), 0});
    REWIND_RETURN_IF_ERROR(s_->Begin());
    REWIND_ASSIGN_OR_RETURN(Row district, s_->Get("district", {w_, d}));
    int o_id = district[4].AsInt32();
    district[4] = o_id + 1;
    REWIND_RETURN_IF_ERROR(s_->Update("district", district));
    REWIND_RETURN_IF_ERROR(s_->Insert(
        "orders", {w_, d, o_id, cust, ol_cnt, 0,
                   static_cast<int64_t>(WallUs())}));
    REWIND_RETURN_IF_ERROR(s_->Insert("new_order", {w_, d, o_id}));
    for (int l = 1; l <= ol_cnt; l++) {
      if (rollback && l == ol_cnt) {
        // TPC-C's 1% invalid item: an intentional, completed rollback.
        REWIND_RETURN_IF_ERROR(s_->Rollback());
        log->rollbacks++;
        return Status::OK();
      }
      int item = static_cast<int>(rnd_.NonUniform(8191, 1, cfg_.items));
      REWIND_ASSIGN_OR_RETURN(Row irow, s_->Get("item", {item}));
      double price = irow[2].AsDouble();
      int qty = static_cast<int>(rnd_.UniformRange(1, 10));
      REWIND_ASSIGN_OR_RETURN(Row stock, s_->Get("stock", {w_, item}));
      int s_qty = stock[2].AsInt32();
      stock[2] = s_qty >= qty + 10 ? s_qty - qty : s_qty - qty + 91;
      stock[3] = stock[3].AsDouble() + qty;
      stock[4] = stock[4].AsInt32() + 1;
      REWIND_RETURN_IF_ERROR(s_->Update("stock", stock));
      REWIND_RETURN_IF_ERROR(s_->Insert(
          "order_line", {w_, d, o_id, l, item, qty, price * qty}));
    }
    REWIND_RETURN_IF_ERROR(s_->Commit());
    *committed = true;
    log->new_orders.back().ack_us = WallUs();
    log->orders.emplace_back(d, o_id);
    return Status::OK();
  }

  Status Payment(WriterLog* log, bool* committed) {
    int d = static_cast<int>(
        rnd_.UniformRange(1, cfg_.districts_per_warehouse));
    int c = static_cast<int>(
        rnd_.NonUniform(1023, 1, cfg_.customers_per_district));
    double amount = 1.0 + static_cast<double>(rnd_.Uniform(499900)) / 100.0;
    int64_t seq = next_history_seq_++;

    REWIND_RETURN_IF_ERROR(s_->Begin());
    REWIND_ASSIGN_OR_RETURN(Row wh, s_->Get("warehouse", {w_}));
    wh[2] = wh[2].AsDouble() + amount;
    REWIND_RETURN_IF_ERROR(s_->Update("warehouse", wh));
    REWIND_ASSIGN_OR_RETURN(Row dist, s_->Get("district", {w_, d}));
    dist[3] = dist[3].AsDouble() + amount;
    REWIND_RETURN_IF_ERROR(s_->Update("district", dist));
    REWIND_ASSIGN_OR_RETURN(Row cust, s_->Get("customer", {w_, d, c}));
    cust[4] = cust[4].AsDouble() - amount;
    cust[5] = cust[5].AsDouble() + amount;
    cust[6] = cust[6].AsInt32() + 1;
    REWIND_RETURN_IF_ERROR(s_->Update("customer", cust));
    REWIND_RETURN_IF_ERROR(s_->Insert("history", {w_, d, c, seq, amount}));
    REWIND_RETURN_IF_ERROR(s_->Commit());
    *committed = true;
    log->payments.emplace_back(d, c, seq);
    return Status::OK();
  }

  Session* s_;
  int w_;
  TpccConfig cfg_;
  rewinddb::Random rnd_;
  int64_t next_history_seq_ = 1;
};

/// Every acknowledged order and payment of warehouse `w` is present in
/// `db` (read untracked through the engine's tables).
void CheckAcked(rewinddb::Database* db, int w, const WriterLog& log,
                Report* r);

}  // namespace perfbench

#endif  // REWINDDB_PERFBENCH_TPCC_WRITER_H_
