// Tests for the SQL executor (src/exec/): the planner's plan shapes,
// the executors' semantics, and above all the time-travel parity
// property -- the same SELECT text, run live at a quiesced instant and
// AS OF that instant after heavy churn, must return identical rows for
// every plan shape (filters, joins, aggregates, order/limit, with and
// without a secondary index).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "api/connection.h"
#include "sql/parser.h"
#include "sql/session.h"

namespace rewinddb {
namespace {

constexpr uint64_t kSecond = 1'000'000;

std::string TestDir() {
  return (std::filesystem::temp_directory_path() / "rewinddb_exec" /
          ::testing::UnitTest::GetInstance()->current_test_info()->name())
      .string();
}

/// Render a rowset as comparable strings, one per row.
std::vector<std::string> Rendered(const SqlResult& r) {
  std::vector<std::string> out;
  for (const Row& row : r.rows) {
    std::string line;
    for (const Value& v : row) {
      line += v.ToString();
      line += "|";
    }
    out.push_back(std::move(line));
  }
  return out;
}

bool HasOrderBy(const std::string& sql) {
  return sql.find("ORDER BY") != std::string::npos;
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir();
    std::filesystem::remove_all(dir_);
    clock_ = std::make_unique<SimClock>(10 * kSecond);
    DatabaseOptions opts;
    opts.clock = clock_.get();
    auto conn = Connection::Create(dir_, opts);
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(*conn);
    session_ = std::make_unique<SqlSession>(conn_.get());
  }

  void TearDown() override {
    session_.reset();
    conn_.reset();
    std::filesystem::remove_all(dir_);
  }

  /// emp(id, dept, score, bonus) + dept(dept, city, pop), with a
  /// secondary index on emp.dept created through SQL.
  void LoadDataset(int rows = 60) {
    ASSERT_TRUE(conn_->CreateTable(
                        "emp", Schema({{"id", ColumnType::kInt64},
                                       {"dept", ColumnType::kString},
                                       {"score", ColumnType::kInt64},
                                       {"bonus", ColumnType::kInt32}},
                                      1))
                    .ok());
    ASSERT_TRUE(conn_->CreateTable(
                        "dept", Schema({{"dept", ColumnType::kString},
                                        {"city", ColumnType::kString},
                                        {"pop", ColumnType::kInt64}},
                                       1))
                    .ok());
    auto idx = session_->Execute("CREATE INDEX emp_by_dept ON emp (dept)");
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    Txn txn = conn_->Begin();
    for (int i = 1; i <= rows; i++) {
      ASSERT_TRUE(conn_->Insert(txn, "emp",
                                {int64_t{i}, "d" + std::to_string(i % 4),
                                 int64_t{(i * 7) % 50},
                                 int32_t{i % 3}})
                      .ok());
    }
    for (int d = 0; d < 4; d++) {
      ASSERT_TRUE(conn_->Insert(txn, "dept",
                                {"d" + std::to_string(d),
                                 std::string(d % 2 ? "east" : "west"),
                                 int64_t{100 * d}})
                      .ok());
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  /// Bury the dataset under churn so AS OF has real work to do:
  /// update every emp row, delete a third, insert new ones, and drop a
  /// dept row.
  void Churn() {
    Txn txn = conn_->Begin();
    for (int i = 1; i <= 60; i++) {
      if (i % 3 == 0) {
        ASSERT_TRUE(conn_->Delete(txn, "emp", {int64_t{i}}).ok());
      } else {
        ASSERT_TRUE(conn_->Update(txn, "emp",
                                  {int64_t{i}, std::string("zz"),
                                   int64_t{999}, int32_t{0}})
                        .ok());
      }
    }
    for (int i = 200; i < 240; i++) {
      ASSERT_TRUE(conn_->Insert(txn, "emp",
                                {int64_t{i}, std::string("new"),
                                 int64_t{1}, int32_t{1}})
                      .ok());
    }
    ASSERT_TRUE(conn_->Delete(txn, "dept", {std::string("d3")}).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }

  SqlResult MustExecute(const std::string& sql) {
    auto r = session_->ExecuteStatement(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? *r : SqlResult{};
  }

  std::string ExplainText(const std::string& select) {
    SqlResult r = MustExecute("EXPLAIN " + select);
    std::string out;
    for (const Row& row : r.rows) {
      out += row[0].AsString();
      out += "\n";
    }
    return out;
  }

  std::string dir_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<SqlSession> session_;
};

// The plan shapes the parity property quantifies over. Each runs live
// at a quiesced instant, then AS OF that instant after churn, then
// against a named snapshot of that instant; all three must agree.
const char* kParityShapes[] = {
    // Seq scan + pushed-down filter with pk bounds.
    "SELECT id, dept, score FROM emp WHERE id >= 10 AND id < 40 AND "
    "score > 5",
    // Secondary-index equality scan.
    "SELECT id, score FROM emp WHERE dept = 'd1'",
    // Index + residual filter.
    "SELECT id FROM emp WHERE dept = 'd2' AND score < 25",
    // Hash equi-join with a WHERE on one side.
    "SELECT e.id, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
    "WHERE e.score >= 10 ORDER BY e.id",
    // Nested-loop (non-equi) join.
    "SELECT e.id, d.dept FROM emp e JOIN dept d ON e.score < d.pop "
    "WHERE e.id <= 12 ORDER BY e.id, d.dept",
    // Grouped aggregates, every function at once.
    "SELECT dept, COUNT(*), SUM(score), MIN(score), MAX(score), "
    "AVG(score) FROM emp GROUP BY dept ORDER BY dept",
    // Global aggregate (no GROUP BY).
    "SELECT COUNT(*), SUM(bonus) FROM emp WHERE score > 20",
    // Join + aggregate + HAVING + order/limit: the acceptance query.
    "SELECT d.city, COUNT(*) AS cnt FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.score > 5 GROUP BY d.city "
    "HAVING COUNT(*) >= 2 ORDER BY cnt DESC, d.city LIMIT 3",
    // DISTINCT.
    "SELECT DISTINCT dept FROM emp ORDER BY dept",
    // ORDER BY a hidden (non-selected) key, descending, with LIMIT.
    "SELECT id FROM emp ORDER BY score DESC, id LIMIT 7",
    // Expression projection and arithmetic in the filter.
    "SELECT id, score * 2 + bonus FROM emp WHERE (score + bonus) % 5 = "
    "1 ORDER BY id",
    // Join + aggregate routed through the secondary index (the
    // acceptance query: the dept predicate turns the emp scan into an
    // IndexScan, asserted separately in IndexScanChosenLiveAndAsOf).
    "SELECT d.city, COUNT(*), SUM(e.score) FROM emp e JOIN dept d "
    "ON e.dept = d.dept WHERE e.dept = 'd2' GROUP BY d.city",
};

TEST_F(ExecTest, LiveAsOfAndSnapshotParityAcrossPlanShapes) {
  LoadDataset();
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();

  std::vector<std::vector<std::string>> live_results;
  for (const char* shape : kParityShapes) {
    live_results.push_back(Rendered(MustExecute(shape)));
  }

  clock_->Advance(kSecond);
  Churn();
  ASSERT_TRUE(session_
                  ->Execute("CREATE DATABASE past AS SNAPSHOT OF db AS OF " +
                            std::to_string(t))
                  .ok());

  for (size_t i = 0; i < std::size(kParityShapes); i++) {
    std::string shape = kParityShapes[i];
    std::vector<std::string> live = live_results[i];
    std::vector<std::string> as_of =
        Rendered(MustExecute(shape + " AS OF " + std::to_string(t)));
    std::vector<std::string> snap =
        Rendered(MustExecute(shape + " SNAPSHOT OF past"));
    if (!HasOrderBy(shape)) {
      std::sort(live.begin(), live.end());
      std::sort(as_of.begin(), as_of.end());
      std::sort(snap.begin(), snap.end());
    }
    EXPECT_EQ(live, as_of) << "AS OF parity broken for: " << shape;
    EXPECT_EQ(live, snap) << "snapshot parity broken for: " << shape;
    EXPECT_FALSE(live.empty()) << "vacuous parity check for: " << shape;
  }

  // The churned live database disagrees with the past for a shape that
  // touches updated rows -- parity is not comparing constants.
  std::vector<std::string> now = Rendered(MustExecute(kParityShapes[0]));
  EXPECT_NE(now, live_results[0]);
}

TEST_F(ExecTest, IndexScanChosenLiveAndAsOf) {
  LoadDataset();
  clock_->Advance(kSecond);
  WallClock t = clock_->NowMicros();
  clock_->Advance(kSecond);
  Churn();

  std::string q = "SELECT id, score FROM emp WHERE dept = 'd1'";
  EXPECT_NE(ExplainText(q).find("IndexScan emp index=emp_by_dept"),
            std::string::npos);
  // The AS OF plan picks the same index: CREATE INDEX is time-travel
  // visible catalog state, not a live-only artifact.
  EXPECT_NE(ExplainText(q + " AS OF " + std::to_string(t))
                .find("IndexScan emp index=emp_by_dept"),
            std::string::npos);

  // Same for the join+aggregate acceptance shape from kParityShapes.
  std::string join_agg =
      "SELECT d.city, COUNT(*), SUM(e.score) FROM emp e JOIN dept d "
      "ON e.dept = d.dept WHERE e.dept = 'd2' GROUP BY d.city";
  EXPECT_NE(ExplainText(join_agg).find("IndexScan e index=emp_by_dept"),
            std::string::npos);
  EXPECT_NE(ExplainText(join_agg + " AS OF " + std::to_string(t))
                .find("IndexScan e index=emp_by_dept"),
            std::string::npos);
}

TEST_F(ExecTest, ExplainShowsPushdownBoundsAndJoinStrategy) {
  LoadDataset();
  std::string text = ExplainText(
      "SELECT e.id, d.city FROM emp e JOIN dept d ON e.dept = d.dept "
      "WHERE e.id >= 5 AND e.id < 9 ORDER BY e.id LIMIT 2");
  EXPECT_NE(text.find("Limit 2"), std::string::npos) << text;
  EXPECT_NE(text.find("Sort"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin keys=[e.dept = d.dept]"), std::string::npos)
      << text;
  EXPECT_NE(text.find("SeqScan e bounds=[(5), (9))"), std::string::npos)
      << text;
  EXPECT_NE(text.find("filter=((e.id >= 5) AND (e.id < 9))"),
            std::string::npos)
      << text;

  std::string nlj = ExplainText(
      "SELECT e.id FROM emp e JOIN dept d ON e.score < d.pop");
  EXPECT_NE(nlj.find("NestedLoopJoin"), std::string::npos) << nlj;
}

TEST_F(ExecTest, JoinKeyEqualityBoundsTheOtherSide) {
  // The STOCK-LEVEL shape: lines(w, o, i) joined to stock(w, i) on both
  // key columns, with only the lines side bound to a warehouse.
  ASSERT_TRUE(conn_->CreateTable("lines",
                                 Schema({{"w", ColumnType::kInt32},
                                         {"o", ColumnType::kInt32},
                                         {"i", ColumnType::kInt32}},
                                        2))
                  .ok());
  ASSERT_TRUE(conn_->CreateTable("stock",
                                 Schema({{"w", ColumnType::kInt32},
                                         {"i", ColumnType::kInt32},
                                         {"q", ColumnType::kInt32}},
                                        2))
                  .ok());
  Txn txn = conn_->Begin();
  for (int32_t w = 1; w <= 3; w++) {
    for (int32_t i = 0; i < 20; i++) {
      ASSERT_TRUE(conn_->Insert(txn, "stock", {w, i, (i * 7 + w) % 25}).ok());
    }
    for (int32_t o = 0; o < 15; o++) {
      ASSERT_TRUE(conn_->Insert(txn, "lines", {w, o, (o * 3) % 20}).ok());
    }
  }
  ASSERT_TRUE(txn.Commit().ok());

  const std::string q =
      "SELECT COUNT(DISTINCT l.i) FROM lines l JOIN stock s ON s.w = l.w "
      "AND s.i = l.i WHERE l.w = 2 AND l.o >= 3 AND s.q < 15";
  std::string text = ExplainText(q);
  EXPECT_NE(text.find("SeqScan l bounds=[(2, 3), (3))"), std::string::npos)
      << text;
  // s.w = 2 is derived from l.w = 2 and s.w = l.w; it bounds the scan
  // and adds nothing to the filter, which the WHERE already implies.
  EXPECT_NE(text.find("SeqScan s bounds=[(2), (3)) filter=(s.q < 15)"),
            std::string::npos)
      << text;

  // The same answer as with the bound written out, and as by hand.
  SqlResult derived = MustExecute(q);
  SqlResult written = MustExecute(q + " AND s.w = 2");
  ASSERT_EQ(derived.rows.size(), 1u);
  EXPECT_EQ(Rendered(derived), Rendered(written));
  std::set<int32_t> items;
  for (int32_t o = 3; o < 15; o++) {
    int32_t i = (o * 3) % 20;
    if ((i * 7 + 2) % 25 < 15) items.insert(i);
  }
  EXPECT_EQ(derived.rows[0][0].AsInt64(), static_cast<int64_t>(items.size()));

  // The binding also crosses from the other side of the join.
  std::string reverse = ExplainText(
      "SELECT COUNT(*) FROM lines l JOIN stock s ON l.w = s.w AND "
      "l.i = s.i WHERE s.w = 3");
  EXPECT_NE(reverse.find("SeqScan l bounds=[(3), (4))"), std::string::npos)
      << reverse;
}

TEST_F(ExecTest, MismatchedJoinKeyTypesGetNoPropagation) {
  LoadDataset();
  // emp.bonus is INT32, tier.level INT64: an equality across them is
  // not propagated, so the tier scan stays unbounded.
  ASSERT_TRUE(conn_->CreateTable("tier",
                                 Schema({{"level", ColumnType::kInt64},
                                         {"name", ColumnType::kString}},
                                        1))
                  .ok());
  Txn txn = conn_->Begin();
  for (int64_t l = 0; l < 3; l++) {
    ASSERT_TRUE(
        conn_->Insert(txn, "tier", {l, "tier" + std::to_string(l)}).ok());
  }
  ASSERT_TRUE(txn.Commit().ok());

  const std::string q =
      "SELECT e.id, t.name FROM emp e JOIN tier t ON e.bonus = t.level "
      "WHERE e.bonus = 1 ORDER BY e.id";
  std::string text = ExplainText(q);
  EXPECT_NE(text.find("SeqScan t\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("SeqScan t bounds"), std::string::npos) << text;
  SqlResult r = MustExecute(q);
  EXPECT_EQ(r.rows.size(), 20u);  // ids 1..60 with id % 3 == 1
  for (const Row& row : r.rows) EXPECT_EQ(row[1].AsString(), "tier1");
}

TEST_F(ExecTest, DroppingTheIndexFallsBackToSeqScan) {
  LoadDataset();
  std::string q = "SELECT id FROM emp WHERE dept = 'd1'";
  std::vector<std::string> with_index = Rendered(MustExecute(q));
  EXPECT_NE(ExplainText(q).find("IndexScan"), std::string::npos);
  ASSERT_TRUE(session_->Execute("DROP INDEX emp_by_dept").ok());
  EXPECT_EQ(ExplainText(q).find("IndexScan"), std::string::npos);
  std::vector<std::string> without_index = Rendered(MustExecute(q));
  std::sort(with_index.begin(), with_index.end());
  std::sort(without_index.begin(), without_index.end());
  EXPECT_EQ(with_index, without_index);
}

TEST_F(ExecTest, ScanResumeAcrossBatches) {
  // 3000 rows crosses the scan's internal batch size several times;
  // totals prove no row is lost or duplicated at batch seams.
  ASSERT_TRUE(conn_->CreateTable("big", Schema({{"id", ColumnType::kInt64},
                                                {"v", ColumnType::kInt64}},
                                               1))
                  .ok());
  int64_t expected_sum = 0;
  Txn txn = conn_->Begin();
  for (int64_t i = 0; i < 3000; i++) {
    ASSERT_TRUE(conn_->Insert(txn, "big", {i, i % 97}).ok());
    expected_sum += i % 97;
  }
  ASSERT_TRUE(txn.Commit().ok());

  SqlResult r = MustExecute("SELECT COUNT(*), SUM(v) FROM big");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 3000);
  EXPECT_EQ(r.rows[0][1].AsInt64(), expected_sum);

  // A filtered scan straddling many batches.
  SqlResult f = MustExecute("SELECT COUNT(*) FROM big WHERE v = 13");
  int64_t by_hand = 0;
  for (int64_t i = 0; i < 3000; i++) by_hand += (i % 97) == 13;
  EXPECT_EQ(f.rows[0][0].AsInt64(), by_hand);
}

TEST_F(ExecTest, NullSemantics) {
  LoadDataset(5);
  // Aggregates over no rows are the NULL source; arithmetic and
  // comparisons propagate it; IS NULL is NULL-proof.
  SqlResult agg = MustExecute("SELECT MAX(score), AVG(score) FROM emp "
                              "WHERE id > 1000");
  ASSERT_EQ(agg.rows.size(), 1u);
  EXPECT_TRUE(agg.rows[0][0].is_null());
  EXPECT_TRUE(agg.rows[0][1].is_null());

  SqlResult lit = MustExecute("SELECT NULL, NULL + 1, NULL = NULL, "
                              "NULL IS NULL, 3 IS NOT NULL FROM emp "
                              "WHERE id = 1");
  ASSERT_EQ(lit.rows.size(), 1u);
  EXPECT_TRUE(lit.rows[0][0].is_null());
  EXPECT_TRUE(lit.rows[0][1].is_null());
  EXPECT_TRUE(lit.rows[0][2].is_null());
  EXPECT_EQ(lit.rows[0][3].AsInt32(), 1);
  EXPECT_EQ(lit.rows[0][4].AsInt32(), 1);

  // Kleene: NULL AND FALSE = FALSE (row kept by NOT), NULL OR TRUE =
  // TRUE. WHERE keeps only TRUE, so NULL predicates reject.
  SqlResult k1 = MustExecute(
      "SELECT COUNT(*) FROM emp WHERE NOT (NULL AND 1 = 2)");
  EXPECT_EQ(k1.rows[0][0].AsInt64(), 5);
  SqlResult k2 = MustExecute("SELECT COUNT(*) FROM emp WHERE NULL OR 1 = 1");
  EXPECT_EQ(k2.rows[0][0].AsInt64(), 5);
  SqlResult k3 = MustExecute("SELECT COUNT(*) FROM emp WHERE NULL");
  EXPECT_EQ(k3.rows[0][0].AsInt64(), 0);

  // COUNT(expr) skips NULLs where COUNT(*) does not.
  SqlResult c = MustExecute("SELECT COUNT(NULL + score), COUNT(*) FROM emp");
  EXPECT_EQ(c.rows[0][0].AsInt64(), 0);
  EXPECT_EQ(c.rows[0][1].AsInt64(), 5);
}

TEST_F(ExecTest, ErrorsNameTheProblem) {
  LoadDataset(3);
  struct Case { const char* sql; const char* needle; };
  const Case cases[] = {
      {"SELECT nosuch FROM emp", "unknown column"},
      {"SELECT id FROM nosuch", "nosuch"},
      {"SELECT e.id FROM emp e JOIN dept e ON 1 = 1", "duplicate table"},
      {"SELECT id FROM emp WHERE dept + 1 = 2", "string"},
      {"SELECT SUM(id) FROM emp WHERE SUM(id) > 0", "not allowed"},
      {"SELECT id, COUNT(*) FROM emp", "GROUP BY"},
      {"SELECT id FROM emp HAVING id > 0", "HAVING"},
      {"SELECT 1 / 0 FROM emp", "division by zero"},
      {"SELECT id FROM emp LEFT JOIN dept ON 1 = 1", "INNER"},
      {"SELECT DISTINCT dept FROM emp ORDER BY id", "DISTINCT"},
  };
  for (const Case& c : cases) {
    auto r = session_->ExecuteStatement(c.sql);
    ASSERT_FALSE(r.ok()) << c.sql;
    EXPECT_NE(r.status().message().find(c.needle), std::string::npos)
        << c.sql << " -> " << r.status().message();
    EXPECT_NE(r.status().message().find("[statement:"), std::string::npos)
        << c.sql << " -> " << r.status().message();
  }
}

TEST_F(ExecTest, SelectStarAndAliases) {
  LoadDataset(4);
  SqlResult star = MustExecute("SELECT * FROM emp ORDER BY id LIMIT 1");
  ASSERT_EQ(star.column_names.size(), 4u);
  EXPECT_EQ(star.column_names[0], "id");
  EXPECT_EQ(star.column_names[1], "dept");

  SqlResult qualified = MustExecute(
      "SELECT d.*, e.id FROM emp e JOIN dept d ON e.dept = d.dept "
      "ORDER BY e.id LIMIT 1");
  ASSERT_EQ(qualified.column_names.size(), 4u);
  EXPECT_EQ(qualified.column_names[0], "dept");
  EXPECT_EQ(qualified.column_names[3], "id");

  SqlResult aliased = MustExecute(
      "SELECT id AS emp_id, score + 1 total FROM emp ORDER BY emp_id "
      "LIMIT 1");
  EXPECT_EQ(aliased.column_names[0], "emp_id");
  EXPECT_EQ(aliased.column_names[1], "total");

  // Result metadata carries static expression types.
  SqlResult typed = MustExecute(
      "SELECT id, dept, score / 2, AVG(score) FROM emp GROUP BY id, "
      "dept, score / 2 LIMIT 1");
  ASSERT_EQ(typed.column_types.size(), 4u);
  EXPECT_EQ(typed.column_types[0], ColumnType::kInt64);
  EXPECT_EQ(typed.column_types[1], ColumnType::kString);
  EXPECT_EQ(typed.column_types[2], ColumnType::kInt64);
  EXPECT_EQ(typed.column_types[3], ColumnType::kDouble);
}

TEST_F(ExecTest, CountDistinctAndDistinctAggregates) {
  LoadDataset();
  SqlResult r = MustExecute(
      "SELECT COUNT(DISTINCT dept), COUNT(dept), COUNT(*) FROM emp");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsInt64(), 4);
  EXPECT_EQ(r.rows[0][1].AsInt64(), 60);
  EXPECT_EQ(r.rows[0][2].AsInt64(), 60);
}

TEST_F(ExecTest, OrderByAliasAndExpression) {
  LoadDataset(10);
  SqlResult by_alias = MustExecute(
      "SELECT dept, COUNT(*) AS cnt FROM emp GROUP BY dept "
      "ORDER BY cnt DESC, dept");
  ASSERT_GE(by_alias.rows.size(), 2u);
  for (size_t i = 1; i < by_alias.rows.size(); i++) {
    EXPECT_GE(by_alias.rows[i - 1][1].AsInt64(),
              by_alias.rows[i][1].AsInt64());
  }
  // ORDER BY an expression over an aggregate that is not selected.
  SqlResult by_expr = MustExecute(
      "SELECT dept FROM emp GROUP BY dept ORDER BY SUM(score) * -1, dept");
  ASSERT_EQ(by_expr.column_names.size(), 1u);
  ASSERT_GE(by_expr.rows.size(), 2u);
}

}  // namespace
}  // namespace rewinddb
