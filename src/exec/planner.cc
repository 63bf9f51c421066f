#include "exec/planner.h"

#include <cstdint>
#include <map>
#include <set>
#include <utility>

namespace rewinddb {
namespace exec {

namespace {

// ------------------------- expression helpers -------------------------

void SplitConjuncts(const sql::ExprPtr& e, std::vector<sql::ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kBinary && e->op == sql::BinOp::kAnd) {
    SplitConjuncts(e->lhs, out);
    SplitConjuncts(e->rhs, out);
    return;
  }
  out->push_back(e);
}

sql::ExprPtr AndAll(const std::vector<sql::ExprPtr>& conjuncts) {
  sql::ExprPtr e;
  for (const sql::ExprPtr& c : conjuncts) {
    e = e == nullptr ? c : sql::MakeBinary(sql::BinOp::kAnd, e, c);
  }
  return e;
}

void CollectSlots(const sql::Expr& e, std::vector<int>* slots) {
  if (e.kind == sql::Expr::Kind::kColumn && e.slot >= 0) {
    slots->push_back(e.slot);
  }
  if (e.lhs != nullptr) CollectSlots(*e.lhs, slots);
  if (e.rhs != nullptr) CollectSlots(*e.rhs, slots);
}

void ShiftSlots(sql::Expr* e, int delta) {
  if (e->kind == sql::Expr::Kind::kColumn && e->slot >= 0) e->slot += delta;
  if (e->lhs != nullptr) ShiftSlots(e->lhs.get(), delta);
  if (e->rhs != nullptr) ShiftSlots(e->rhs.get(), delta);
}

/// Successor of an integer value, if it has one.
bool TryIncrement(Value* v) {
  switch (v->type()) {
    case ColumnType::kInt32:
      if (v->AsInt32() == INT32_MAX) return false;
      *v = Value(v->AsInt32() + 1);
      return true;
    case ColumnType::kInt64:
      if (v->AsInt64() == INT64_MAX) return false;
      *v = Value(v->AsInt64() + 1);
      return true;
    default:
      return false;
  }
}

// --------------------------------- scope ------------------------------

struct ScopeTable {
  std::string binding;
  std::unique_ptr<TableView> table;
  size_t offset = 0;  // first slot in the joined row layout
};

}  // namespace

// -------------------------------- planner -----------------------------

namespace {

class Planner {
 public:
  Planner(ReadView* view, const sql::SelectStmt& stmt)
      : view_(view), stmt_(stmt) {}

  Result<PreparedQuery> Plan();

 private:
  // Scope / binding.
  Status OpenTables();
  Result<int> ResolveColumn(const std::string& qual, const std::string& name);
  Status Bind(sql::Expr* e, bool allow_agg);
  /// Table index whose slot range contains `slot`.
  size_t TableOf(int slot) const;

  // Scans and joins.
  /// Derive `b = literal` from `a = literal` and an inner-join `a = b`
  /// into derived_bounds_, to a fixpoint.
  void PropagateEqualities();
  Result<std::unique_ptr<Executor>> BuildScan(
      size_t ti, std::vector<sql::ExprPtr> conjuncts);
  Result<std::unique_ptr<Executor>> BuildJoinTree();

  // Aggregation.
  Result<sql::ExprPtr> RewriteOverAgg(const sql::ExprPtr& e);
  void CollectAggs(const sql::ExprPtr& e);

  ReadView* view_;
  const sql::SelectStmt& stmt_;
  std::vector<ScopeTable> tables_;
  std::vector<ColumnType> joined_types_;
  /// WHERE/ON conjuncts not pushed into a scan, keyed by the join
  /// (table index) that first sees both sides.
  std::vector<std::vector<sql::ExprPtr>> join_conjuncts_;
  std::vector<std::vector<sql::ExprPtr>> scan_conjuncts_;
  /// Equalities implied across join keys, per table, in table-local
  /// slots. They narrow the scan's key bounds only: the conjuncts that
  /// imply them stay in the plan.
  std::vector<std::vector<sql::ExprPtr>> derived_bounds_;

  // Aggregation state.
  std::vector<sql::ExprPtr> group_exprs_;
  std::vector<std::string> group_renders_;
  std::vector<sql::ExprPtr> agg_nodes_;
  std::vector<std::string> agg_renders_;
};

Status Planner::OpenTables() {
  std::vector<sql::TableRef> refs;
  refs.push_back(stmt_.from);
  for (const sql::JoinRef& j : stmt_.joins) refs.push_back(j.ref);
  for (const sql::TableRef& r : refs) {
    for (const ScopeTable& t : tables_) {
      if (t.binding == r.binding()) {
        return Status::InvalidArgument("duplicate table name '" +
                                       r.binding() +
                                       "' (use an alias to disambiguate)");
      }
    }
    Result<std::unique_ptr<TableView>> tv = view_->OpenTable(r.table);
    if (!tv.ok()) return tv.status();
    ScopeTable st;
    st.binding = r.binding();
    st.table = std::move(*tv);
    st.offset = joined_types_.size();
    for (ColumnType t : st.table->schema().types()) joined_types_.push_back(t);
    tables_.push_back(std::move(st));
  }
  join_conjuncts_.resize(tables_.size());
  scan_conjuncts_.resize(tables_.size());
  derived_bounds_.resize(tables_.size());
  return Status::OK();
}

Result<int> Planner::ResolveColumn(const std::string& qual,
                                   const std::string& name) {
  int found = -1;
  bool saw_table = false;
  for (const ScopeTable& t : tables_) {
    if (!qual.empty() && t.binding != qual) continue;
    saw_table = true;
    int idx = t.table->schema().ColumnIndex(name);
    if (idx < 0) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column '" + name +
                                     "' (qualify it with a table name)");
    }
    found = static_cast<int>(t.offset) + idx;
  }
  if (!qual.empty() && !saw_table) {
    return Status::InvalidArgument("unknown table '" + qual + "'");
  }
  if (found < 0) {
    return Status::InvalidArgument(
        "unknown column '" + (qual.empty() ? name : qual + "." + name) + "'");
  }
  return found;
}

Status Planner::Bind(sql::Expr* e, bool allow_agg) {
  switch (e->kind) {
    case sql::Expr::Kind::kColumn: {
      if (e->slot >= 0) return Status::OK();  // planner-minted slot node
      Result<int> slot = ResolveColumn(e->table, e->column);
      if (!slot.ok()) return slot.status();
      e->slot = *slot;
      return Status::OK();
    }
    case sql::Expr::Kind::kAgg:
      if (!allow_agg) {
        return Status::InvalidArgument("aggregate " + e->Render() +
                                       " is not allowed here");
      }
      // No nested aggregates.
      return e->lhs == nullptr ? Status::OK() : Bind(e->lhs.get(), false);
    default:
      if (e->lhs != nullptr) {
        REWIND_RETURN_IF_ERROR(Bind(e->lhs.get(), allow_agg));
      }
      if (e->rhs != nullptr) {
        REWIND_RETURN_IF_ERROR(Bind(e->rhs.get(), allow_agg));
      }
      return Status::OK();
  }
}

size_t Planner::TableOf(int slot) const {
  for (size_t i = tables_.size(); i-- > 0;) {
    if (static_cast<size_t>(slot) >= tables_[i].offset) return i;
  }
  return 0;
}

void Planner::PropagateEqualities() {
  // Literal each column is bound to by a `col = literal` conjunct.
  std::map<int, sql::ExprPtr> bound;
  for (const std::vector<sql::ExprPtr>& list : scan_conjuncts_) {
    for (const sql::ExprPtr& c : list) {
      if (c->kind != sql::Expr::Kind::kBinary || c->op != sql::BinOp::kEq) {
        continue;
      }
      const sql::ExprPtr* col = &c->lhs;
      const sql::ExprPtr* lit = &c->rhs;
      if ((*col)->kind != sql::Expr::Kind::kColumn) std::swap(col, lit);
      if ((*col)->kind == sql::Expr::Kind::kColumn && (*col)->slot >= 0 &&
          (*lit)->kind == sql::Expr::Kind::kLiteral &&
          !(*lit)->literal.is_null()) {
        bound.emplace((*col)->slot, *lit);
      }
    }
  }
  // Inner-join keys `a = b` between two tables' columns of one type:
  // equality is transitive there, so `a = x` implies `b = x`.
  std::vector<std::pair<int, int>> keys;
  for (const std::vector<sql::ExprPtr>& list : join_conjuncts_) {
    for (const sql::ExprPtr& c : list) {
      if (c->kind != sql::Expr::Kind::kBinary || c->op != sql::BinOp::kEq ||
          c->lhs->kind != sql::Expr::Kind::kColumn ||
          c->rhs->kind != sql::Expr::Kind::kColumn) {
        continue;
      }
      const int a = c->lhs->slot;
      const int b = c->rhs->slot;
      if (a >= 0 && b >= 0 && TableOf(a) != TableOf(b) &&
          joined_types_[a] == joined_types_[b]) {
        keys.push_back({a, b});
      }
    }
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const auto& [a, b] : keys) {
      for (const auto& [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
        auto it = bound.find(from);
        if (it == bound.end() || bound.count(to)) continue;
        sql::ExprPtr lit = it->second;
        bound.emplace(to, lit);
        const size_t t = TableOf(to);
        const int local = to - static_cast<int>(tables_[t].offset);
        derived_bounds_[t].push_back(sql::MakeBinary(
            sql::BinOp::kEq,
            sql::MakeSlot(local,
                          tables_[t].table->schema().columns()[local].name),
            lit));
        grew = true;
      }
    }
  }
}

Result<std::unique_ptr<Executor>> Planner::BuildScan(
    size_t ti, std::vector<sql::ExprPtr> conjuncts) {
  ScopeTable& st = tables_[ti];
  const Schema& schema = st.table->schema();
  int offset = static_cast<int>(st.offset);
  for (const sql::ExprPtr& c : conjuncts) ShiftSlots(c.get(), -offset);
  sql::ExprPtr residual = AndAll(conjuncts);
  for (const sql::ExprPtr& d : derived_bounds_[ti]) conjuncts.push_back(d);

  // Equality and range conjuncts of the shape `col op literal` (either
  // side), by table-local column position.
  std::map<int, Value> eq;
  struct Range { sql::BinOp op; Value v; };
  std::map<int, std::vector<Range>> ranges;
  for (const sql::ExprPtr& c : conjuncts) {
    if (c->kind != sql::Expr::Kind::kBinary) continue;
    sql::BinOp op = c->op;
    const sql::Expr* col = c->lhs.get();
    const sql::Expr* lit = c->rhs.get();
    if (col->kind != sql::Expr::Kind::kColumn) {
      std::swap(col, lit);
      // Mirror the operator when the literal is on the left.
      switch (op) {
        case sql::BinOp::kLt: op = sql::BinOp::kGt; break;
        case sql::BinOp::kLe: op = sql::BinOp::kGe; break;
        case sql::BinOp::kGt: op = sql::BinOp::kLt; break;
        case sql::BinOp::kGe: op = sql::BinOp::kLe; break;
        default: break;
      }
    }
    if (col->kind != sql::Expr::Kind::kColumn || col->slot < 0) continue;
    if (lit->kind != sql::Expr::Kind::kLiteral || lit->literal.is_null()) {
      continue;
    }
    // Bounds need the literal in the column's storage type; a value
    // that cannot convert cannot bound the key range.
    Result<Value> v =
        CoerceValue(lit->literal, schema.columns()[col->slot].type);
    if (!v.ok()) continue;
    switch (op) {
      case sql::BinOp::kEq:
        eq.emplace(col->slot, *v);
        break;
      case sql::BinOp::kLt:
      case sql::BinOp::kLe:
      case sql::BinOp::kGt:
      case sql::BinOp::kGe:
        ranges[col->slot].push_back({op, *v});
        break;
      default:
        break;
    }
  }

  // Secondary-index selection: pick the index whose key columns have
  // the longest equality-covered prefix, when that beats the primary
  // key's equality prefix.
  size_t num_keys = schema.num_key_columns();
  size_t pk_eq = 0;
  while (pk_eq < num_keys && eq.count(static_cast<int>(pk_eq))) pk_eq++;
  const IndexInfo* best_index = nullptr;
  size_t best_eq = pk_eq;
  for (const IndexInfo& idx : st.table->indexes()) {
    size_t n = 0;
    while (n < idx.key_columns.size() && eq.count(idx.key_columns[n])) n++;
    if (n > best_eq) {
      best_eq = n;
      best_index = &idx;
    }
  }
  if (best_index != nullptr) {
    Row prefix;
    for (size_t j = 0; j < best_eq; j++) {
      prefix.push_back(eq.at(best_index->key_columns[j]));
    }
    return std::unique_ptr<Executor>(
        new IndexScanExec(std::move(st.table), st.binding, best_index->name,
                          std::move(prefix), std::move(residual)));
  }

  // Primary-key bounds from the equality prefix plus at most one range
  // conjunct on the next key column. Optimization only: `residual`
  // keeps the full predicate.
  std::optional<Row> lower, upper;
  Row eq_prefix;
  for (size_t j = 0; j < pk_eq; j++) {
    eq_prefix.push_back(eq.at(static_cast<int>(j)));
  }
  if (!eq_prefix.empty()) lower = eq_prefix;
  bool have_upper = false;
  if (pk_eq < num_keys) {
    auto it = ranges.find(static_cast<int>(pk_eq));
    if (it != ranges.end()) {
      for (const Range& r : it->second) {
        if (r.op == sql::BinOp::kGt || r.op == sql::BinOp::kGe) {
          // Inclusive lower even for `>`: the residual drops equality.
          Row lo = eq_prefix;
          lo.push_back(r.v);
          lower = std::move(lo);
        } else {
          Value v = r.v;
          // `<= X` widens to `< X+1`; if X has no successor, fall back
          // to the equality-prefix upper bound below.
          if (r.op == sql::BinOp::kLe && !TryIncrement(&v)) continue;
          Row hi = eq_prefix;
          hi.push_back(v);
          upper = std::move(hi);
          have_upper = true;
        }
      }
    }
  }
  if (!have_upper && !eq_prefix.empty()) {
    // Successor of the equality prefix: increment the last column that
    // has a successor, truncating the rest.
    for (size_t j = eq_prefix.size(); j-- > 0;) {
      Value v = eq_prefix[j];
      if (!TryIncrement(&v)) continue;
      Row hi(eq_prefix.begin(), eq_prefix.begin() + j);
      hi.push_back(v);
      upper = std::move(hi);
      break;
    }
  }
  return std::unique_ptr<Executor>(
      new SeqScanExec(std::move(st.table), st.binding, std::move(lower),
                      std::move(upper), std::move(residual)));
}

Result<std::unique_ptr<Executor>> Planner::BuildJoinTree() {
  REWIND_ASSIGN_OR_RETURN(std::unique_ptr<Executor> left,
                          BuildScan(0, std::move(scan_conjuncts_[0])));
  for (size_t i = 1; i < tables_.size(); i++) {
    int offset = static_cast<int>(tables_[i].offset);
    size_t arity = tables_[i].table->schema().num_columns();
    std::vector<ColumnType> right_types = tables_[i].table->schema().types();
    std::vector<ColumnType> left_types(joined_types_.begin(),
                                       joined_types_.begin() + offset);
    // The scan consumes tables_[i].table, so build it after computing
    // everything that needs the schema.
    std::vector<HashJoinExec::Key> keys;
    std::vector<sql::ExprPtr> residual;
    for (const sql::ExprPtr& c : join_conjuncts_[i]) {
      if (c->kind != sql::Expr::Kind::kBinary || c->op != sql::BinOp::kEq) {
        residual.push_back(c);
        continue;
      }
      std::vector<int> ls, rs;
      CollectSlots(*c->lhs, &ls);
      CollectSlots(*c->rhs, &rs);
      auto all_left = [&](const std::vector<int>& v) {
        for (int s : v) if (s >= offset) return false;
        return !v.empty();
      };
      auto all_right = [&](const std::vector<int>& v) {
        for (int s : v) {
          if (s < offset || static_cast<size_t>(s) >= offset + arity) {
            return false;
          }
        }
        return !v.empty();
      };
      sql::ExprPtr lkey, rkey;
      if (all_left(ls) && all_right(rs)) {
        lkey = c->lhs;
        rkey = c->rhs;
      } else if (all_left(rs) && all_right(ls)) {
        lkey = c->rhs;
        rkey = c->lhs;
      } else {
        residual.push_back(c);
        continue;
      }
      ShiftSlots(rkey.get(), -offset);
      Result<ColumnType> lt = InferType(*lkey, left_types);
      Result<ColumnType> rt = InferType(*rkey, right_types);
      ColumnType common = ColumnType::kNull;
      if (lt.ok() && rt.ok()) {
        bool ls_str = *lt == ColumnType::kString;
        bool rs_str = *rt == ColumnType::kString;
        if (ls_str && rs_str) {
          common = ColumnType::kString;
        } else if (!ls_str && !rs_str && *lt != ColumnType::kNull &&
                   *rt != ColumnType::kNull) {
          common = (*lt == ColumnType::kDouble || *rt == ColumnType::kDouble)
                       ? ColumnType::kDouble
                       : ColumnType::kInt64;
        }
      }
      if (common == ColumnType::kNull) {
        // Incomparable or statically-NULL keys: evaluate as a plain
        // predicate instead (NULL = anything rejects every row).
        ShiftSlots(rkey.get(), offset);
        residual.push_back(c);
        continue;
      }
      keys.push_back({std::move(lkey), std::move(rkey), common});
    }
    REWIND_ASSIGN_OR_RETURN(std::unique_ptr<Executor> right,
                            BuildScan(i, std::move(scan_conjuncts_[i])));
    if (!keys.empty()) {
      left = std::make_unique<HashJoinExec>(std::move(left), std::move(right),
                                            std::move(keys), AndAll(residual));
    } else {
      left = std::make_unique<NestedLoopJoinExec>(
          std::move(left), std::move(right), AndAll(join_conjuncts_[i]));
    }
  }
  return left;
}

void Planner::CollectAggs(const sql::ExprPtr& e) {
  if (e == nullptr) return;
  if (e->kind == sql::Expr::Kind::kAgg) {
    std::string r = e->Render();
    for (const std::string& seen : agg_renders_) {
      if (seen == r) return;
    }
    agg_renders_.push_back(std::move(r));
    agg_nodes_.push_back(e);
    return;
  }
  CollectAggs(e->lhs);
  CollectAggs(e->rhs);
}

Result<sql::ExprPtr> Planner::RewriteOverAgg(const sql::ExprPtr& e) {
  std::string r = e->Render();
  for (size_t i = 0; i < group_renders_.size(); i++) {
    if (group_renders_[i] == r) {
      return sql::MakeSlot(static_cast<int>(i), r);
    }
  }
  if (e->kind == sql::Expr::Kind::kAgg) {
    for (size_t j = 0; j < agg_renders_.size(); j++) {
      if (agg_renders_[j] == r) {
        return sql::MakeSlot(static_cast<int>(group_renders_.size() + j), r);
      }
    }
    return Status::Corruption("internal: uncollected aggregate " + r);
  }
  if (e->kind == sql::Expr::Kind::kColumn) {
    return Status::InvalidArgument(
        "column " + r + " must appear in GROUP BY or inside an aggregate");
  }
  if (e->kind == sql::Expr::Kind::kLiteral) return e;
  auto copy = std::make_shared<sql::Expr>(*e);
  if (e->lhs != nullptr) {
    REWIND_ASSIGN_OR_RETURN(copy->lhs, RewriteOverAgg(e->lhs));
  }
  if (e->rhs != nullptr) {
    REWIND_ASSIGN_OR_RETURN(copy->rhs, RewriteOverAgg(e->rhs));
  }
  return copy;
}

Result<PreparedQuery> Planner::Plan() {
  REWIND_RETURN_IF_ERROR(OpenTables());

  // --- expand the select list ---------------------------------------
  struct Item {
    sql::ExprPtr expr;
    std::string name;
    std::string render;  // pre-rewrite render, for ORDER BY matching
  };
  std::vector<Item> items;
  for (const sql::SelectItem& it : stmt_.items) {
    if (!it.star) {
      Item item;
      item.expr = it.expr;
      item.render = it.expr->Render();
      item.name = !it.alias.empty() ? it.alias
                  : it.expr->kind == sql::Expr::Kind::kColumn
                      ? it.expr->column
                      : item.render;
      items.push_back(std::move(item));
      continue;
    }
    bool matched = false;
    for (const ScopeTable& t : tables_) {
      if (!it.star_table.empty() && t.binding != it.star_table) continue;
      matched = true;
      for (const Column& c : t.table->schema().columns()) {
        // Qualify only when the bare name is ambiguous in this scope.
        int owners = 0;
        for (const ScopeTable& u : tables_) {
          if (u.table->schema().ColumnIndex(c.name) >= 0) owners++;
        }
        Item item;
        item.expr = sql::MakeColumn(owners > 1 ? t.binding : "", c.name);
        item.render = item.expr->Render();
        item.name = c.name;
        items.push_back(std::move(item));
      }
    }
    if (!matched) {
      return Status::InvalidArgument("unknown table '" + it.star_table +
                                     "' in " + it.star_table + ".*");
    }
  }
  if (items.empty()) {
    return Status::InvalidArgument("SELECT list is empty");
  }

  // --- bind everything against the joined scope ---------------------
  for (Item& it : items) {
    REWIND_RETURN_IF_ERROR(Bind(it.expr.get(), /*allow_agg=*/true));
  }
  if (stmt_.where != nullptr) {
    REWIND_RETURN_IF_ERROR(Bind(stmt_.where.get(), /*allow_agg=*/false));
  }
  for (const sql::JoinRef& j : stmt_.joins) {
    REWIND_RETURN_IF_ERROR(Bind(j.on.get(), /*allow_agg=*/false));
  }
  for (const sql::ExprPtr& g : stmt_.group_by) {
    REWIND_RETURN_IF_ERROR(Bind(g.get(), /*allow_agg=*/false));
  }
  if (stmt_.having != nullptr) {
    REWIND_RETURN_IF_ERROR(Bind(stmt_.having.get(), /*allow_agg=*/true));
  }

  // ORDER BY items that name a select item (by alias or structurally)
  // sort on that output slot; anything else is a hidden sort key
  // computed alongside the projection. Only hidden keys are bound
  // against the input scope -- an alias is not a column.
  struct PendingSort {
    int item_slot = -1;     // >= 0: sort on items[item_slot]
    sql::ExprPtr hidden;    // else: this bound expression
    bool desc = false;
  };
  std::vector<PendingSort> pending_sorts;
  for (const sql::OrderItem& o : stmt_.order_by) {
    PendingSort p;
    p.desc = o.desc;
    std::string r = o.expr->Render();
    for (size_t i = 0; i < items.size(); i++) {
      bool alias_match = o.expr->kind == sql::Expr::Kind::kColumn &&
                         o.expr->table.empty() &&
                         o.expr->column == items[i].name;
      if (alias_match || items[i].render == r) {
        p.item_slot = static_cast<int>(i);
        break;
      }
    }
    if (p.item_slot < 0) {
      REWIND_RETURN_IF_ERROR(Bind(o.expr.get(), /*allow_agg=*/true));
      p.hidden = o.expr;
    }
    pending_sorts.push_back(std::move(p));
  }

  // --- sink WHERE and ON conjuncts ----------------------------------
  std::vector<sql::ExprPtr> conjuncts;
  SplitConjuncts(stmt_.where, &conjuncts);
  for (const sql::JoinRef& j : stmt_.joins) SplitConjuncts(j.on, &conjuncts);
  for (const sql::ExprPtr& c : conjuncts) {
    std::vector<int> slots;
    CollectSlots(*c, &slots);
    size_t max_table = 0;
    bool single = true;
    for (int s : slots) {
      size_t t = TableOf(s);
      if (!slots.empty() && t != TableOf(slots[0])) single = false;
      if (t > max_table) max_table = t;
    }
    if (slots.empty() || single) {
      scan_conjuncts_[slots.empty() ? 0 : TableOf(slots[0])].push_back(c);
    } else {
      join_conjuncts_[max_table].push_back(c);
    }
  }
  PropagateEqualities();

  REWIND_ASSIGN_OR_RETURN(std::unique_ptr<Executor> root, BuildJoinTree());

  // --- aggregation --------------------------------------------------
  bool has_agg = !stmt_.group_by.empty();
  for (const Item& it : items) has_agg |= ContainsAggregate(*it.expr);
  if (stmt_.having != nullptr) has_agg |= ContainsAggregate(*stmt_.having);
  for (const PendingSort& p : pending_sorts) {
    if (p.hidden != nullptr) has_agg |= ContainsAggregate(*p.hidden);
  }
  if (stmt_.having != nullptr && !has_agg) {
    return Status::InvalidArgument("HAVING requires GROUP BY or aggregates");
  }

  std::vector<ColumnType> pre_projection_types = joined_types_;
  sql::ExprPtr having = stmt_.having;
  if (has_agg) {
    group_exprs_ = stmt_.group_by;
    for (const sql::ExprPtr& g : group_exprs_) {
      group_renders_.push_back(g->Render());
    }
    for (const Item& it : items) CollectAggs(it.expr);
    CollectAggs(stmt_.having);
    for (const PendingSort& p : pending_sorts) CollectAggs(p.hidden);

    std::vector<HashAggExec::AggSpec> specs;
    std::vector<ColumnType> agg_out_types;
    for (const sql::ExprPtr& g : group_exprs_) {
      REWIND_ASSIGN_OR_RETURN(ColumnType t, InferType(*g, joined_types_));
      agg_out_types.push_back(t);
    }
    for (const sql::ExprPtr& a : agg_nodes_) {
      REWIND_ASSIGN_OR_RETURN(ColumnType t, InferType(*a, joined_types_));
      agg_out_types.push_back(t);
      specs.push_back({a->agg, a->lhs, a->agg_distinct, t});
    }
    root = std::make_unique<HashAggExec>(std::move(root), group_exprs_,
                                         std::move(specs));
    for (Item& it : items) {
      REWIND_ASSIGN_OR_RETURN(it.expr, RewriteOverAgg(it.expr));
    }
    if (having != nullptr) {
      REWIND_ASSIGN_OR_RETURN(having, RewriteOverAgg(having));
    }
    pre_projection_types = std::move(agg_out_types);
  }
  if (having != nullptr) {
    root = std::make_unique<FilterExec>(std::move(root), having);
  }

  // --- projection, ORDER BY (with hidden sort keys), DISTINCT -------
  std::vector<sql::ExprPtr> projections;
  PreparedQuery out;
  for (const Item& it : items) {
    REWIND_ASSIGN_OR_RETURN(ColumnType t,
                            InferType(*it.expr, pre_projection_types));
    out.column_names.push_back(it.name);
    out.column_types.push_back(t);
    projections.push_back(it.expr);
  }
  size_t visible = projections.size();

  std::vector<SortKey> sort_keys;
  for (const PendingSort& p : pending_sorts) {
    if (p.item_slot >= 0) {
      sort_keys.push_back({p.item_slot, p.desc});
      continue;
    }
    if (stmt_.distinct) {
      return Status::InvalidArgument(
          "ORDER BY with DISTINCT must use selected columns");
    }
    sql::ExprPtr key = p.hidden;
    if (has_agg) {
      REWIND_ASSIGN_OR_RETURN(key, RewriteOverAgg(key));
    }
    sort_keys.push_back({static_cast<int>(projections.size()), p.desc});
    projections.push_back(key);
  }

  root = std::make_unique<ProjectExec>(
      std::move(root), projections,
      projections.size() > visible ? "Project+SortKeys" : "Project");

  if (stmt_.distinct) {
    std::vector<sql::ExprPtr> group;
    for (size_t i = 0; i < visible; i++) {
      group.push_back(sql::MakeSlot(static_cast<int>(i), out.column_names[i]));
    }
    root = std::make_unique<HashAggExec>(std::move(root), std::move(group),
                                         std::vector<HashAggExec::AggSpec>());
  }
  if (!sort_keys.empty()) {
    root = std::make_unique<SortExec>(std::move(root), std::move(sort_keys));
  }
  if (projections.size() > visible) {
    root = std::make_unique<PrefixExec>(std::move(root), visible);
  }
  if (stmt_.limit) {
    root = std::make_unique<LimitExec>(std::move(root), *stmt_.limit);
  }
  out.root = std::move(root);
  return out;
}

void ExplainInto(const Executor* e, size_t depth,
                 std::vector<std::string>* out) {
  out->push_back(std::string(depth * 2, ' ') + e->Describe());
  for (const Executor* c : e->Children()) ExplainInto(c, depth + 1, out);
}

}  // namespace

std::vector<std::string> PreparedQuery::ExplainLines() const {
  std::vector<std::string> lines;
  if (root != nullptr) ExplainInto(root.get(), 0, &lines);
  return lines;
}

Result<PreparedQuery> PlanSelect(ReadView* view, const sql::SelectStmt& stmt) {
  Planner planner(view, stmt);
  return planner.Plan();
}

Result<SelectOutput> RunSelect(ReadView* view, const sql::SelectStmt& stmt) {
  REWIND_ASSIGN_OR_RETURN(PreparedQuery q, PlanSelect(view, stmt));
  SelectOutput out;
  out.column_names = std::move(q.column_names);
  out.column_types = std::move(q.column_types);
  REWIND_RETURN_IF_ERROR(q.root->Open());
  Row row;
  while (true) {
    REWIND_ASSIGN_OR_RETURN(bool more, q.root->Next(&row));
    if (!more) break;
    out.rows.push_back(std::move(row));
    row.clear();
  }
  return out;
}

}  // namespace exec
}  // namespace rewinddb
