#include "engine/read_core.h"

#include "btree/btree.h"
#include "buffer/buffer_manager.h"

namespace rewinddb {

Result<Row> ReadCoreGet(RowGate* gate, const TableInfo& info,
                        const std::vector<ColumnType>& types,
                        const Row& key_values) {
  std::string pk = EncodeKey(key_values, info.schema.num_key_columns());
  REWIND_RETURN_IF_ERROR(gate->BeforePointRead(info.root, pk));
  BTree tree(info.root);
  std::shared_lock<std::shared_mutex> tl(*gate->TreeLatch(info.root));
  REWIND_ASSIGN_OR_RETURN(std::string value, tree.Get(gate->buffers(), pk));
  return DecodeRow(types, value);
}

Status ReadCoreScan(RowGate* gate, const TableInfo& info,
                    const std::vector<ColumnType>& types,
                    const std::optional<Row>& lower,
                    const std::optional<Row>& upper,
                    const std::function<bool(const Row&)>& cb) {
  std::string lo = lower ? EncodeKey(*lower, lower->size()) : std::string();
  std::string hi = upper ? EncodeKey(*upper, upper->size()) : std::string();

  BTree tree(info.root);
  std::string cursor = lo;
  bool done = false;
  Status inner;
  while (!done) {
    ScanOutcome out;
    {
      std::shared_lock<std::shared_mutex> tl(*gate->TreeLatch(info.root));
      auto r = tree.Scan(
          gate->buffers(), cursor, hi, [&](Slice key, Slice value) {
            if (gate->ScanNeedsRowCheck()) {
              auto check = gate->CheckScanRow(info.root, key.ToString());
              if (!check.ok()) {
                inner = check.status();
                return ScanAction::kStop;
              }
              if (*check == RowGate::Check::kYield) {
                return ScanAction::kYield;
              }
            }
            auto row = DecodeRow(types, value);
            if (!row.ok()) {
              inner = row.status();
              return ScanAction::kStop;
            }
            if (!cb(*row)) {
              done = true;
              return ScanAction::kStop;
            }
            return ScanAction::kContinue;
          });
      if (!r.ok()) return r.status();
      out = std::move(*r);
    }
    REWIND_RETURN_IF_ERROR(inner);
    if (!out.yielded) break;
    // Wait with no latches held, then resume at the yielded key
    // (inclusive: the row has not been delivered yet; if the wait made
    // it disappear, the scan simply moves past it).
    REWIND_RETURN_IF_ERROR(gate->AwaitRow(info.root, out.yield_key));
    cursor = out.yield_key;
  }
  return Status::OK();
}

Status ReadCoreIndexScan(RowGate* gate, const TableInfo& info,
                         const std::vector<IndexInfo>& indexes,
                         const std::vector<ColumnType>& types,
                         const std::string& index_name,
                         const Row& prefix_values,
                         const std::function<bool(const Row&)>& cb) {
  const IndexInfo* idx = nullptr;
  for (const IndexInfo& i : indexes) {
    if (i.name == index_name) {
      idx = &i;
      break;
    }
  }
  if (idx == nullptr) {
    return Status::NotFound("index '" + index_name + "' not on this table");
  }
  if (prefix_values.size() > idx->key_columns.size()) {
    return Status::InvalidArgument("prefix longer than index key");
  }
  std::string prefix;
  for (const Value& v : prefix_values) EncodeKeyValue(v, &prefix);

  BTree itree(idx->root);
  std::vector<std::string> pks;
  {
    std::shared_lock<std::shared_mutex> tl(*gate->TreeLatch(idx->root));
    REWIND_ASSIGN_OR_RETURN(
        ScanOutcome out,
        itree.Scan(gate->buffers(), prefix, Slice(),
                   [&](Slice key, Slice value) {
                     if (!key.starts_with(prefix)) return ScanAction::kStop;
                     pks.push_back(value.ToString());
                     return ScanAction::kContinue;
                   }));
    (void)out;
  }
  // Fetch base rows outside the index latch. BeforePointRead makes each
  // fetch safe; a base row gone by the time its gate clears (deleted
  // live, or an in-flight insert's phantom entry undone away on a
  // snapshot) simply no longer qualifies.
  BTree btree(info.root);
  for (const std::string& pk : pks) {
    REWIND_RETURN_IF_ERROR(gate->BeforePointRead(info.root, pk));
    std::string value;
    {
      std::shared_lock<std::shared_mutex> tl(*gate->TreeLatch(info.root));
      auto v = btree.Get(gate->buffers(), pk);
      if (v.status().IsNotFound()) continue;
      if (!v.ok()) return v.status();
      value = std::move(*v);
    }
    REWIND_ASSIGN_OR_RETURN(Row row, DecodeRow(types, value));
    if (!cb(row)) break;
  }
  return Status::OK();
}

Result<uint64_t> ReadCoreCount(RowGate* gate, const TableInfo& info) {
  BTree tree(info.root);
  std::shared_lock<std::shared_mutex> tl(*gate->TreeLatch(info.root));
  return tree.Count(gate->buffers());
}

}  // namespace rewinddb
