#include "engine/table.h"

#include <shared_mutex>

#include "btree/btree.h"
#include "engine/database.h"
#include "engine/read_core.h"

namespace rewinddb {

namespace {

/// Live-read gate: rows are visible once their lock can be shared.
/// With no transaction the gate is a pass-through (untracked read).
class LiveRowGate : public RowGate {
 public:
  LiveRowGate(Database* db, Transaction* txn) : db_(db), txn_(txn) {}

  BufferManager* buffers() override { return db_->buffers(); }
  std::shared_mutex* TreeLatch(TreeId tree) override {
    return db_->TreeLatch(tree);
  }
  Status BeforePointRead(TreeId tree, const std::string& pk) override {
    if (txn_ == nullptr) return Status::OK();
    return db_->locks()->Acquire(txn_->id, RowLockKey(tree, pk),
                                 LockMode::kShared);
  }
  bool ScanNeedsRowCheck() override { return txn_ != nullptr; }
  // The scan hooks below run only while ScanNeedsRowCheck() is true.
  Result<Check> CheckScanRow(TreeId tree, const std::string& key) override {
    Status s = db_->locks()->TryAcquire(txn_->id, RowLockKey(tree, key),
                                        LockMode::kShared);
    if (s.IsBusy()) return Check::kYield;
    if (!s.ok()) return s;
    return Check::kVisible;
  }
  Status AwaitRow(TreeId tree, const std::string& key) override {
    return db_->locks()->Acquire(txn_->id, RowLockKey(tree, key),
                                 LockMode::kShared);
  }

 private:
  Database* db_;
  Transaction* txn_;
};

}  // namespace

Table::Table(Database* db, TableInfo info, std::vector<IndexInfo> indexes)
    : db_(db),
      info_(std::move(info)),
      indexes_(std::move(indexes)),
      types_(info_.schema.types()) {}

std::string Table::IndexKeyFor(const IndexInfo& idx, const Row& row,
                               const std::string& pk) const {
  std::string ikey;
  for (uint16_t c : idx.key_columns) EncodeKeyValue(row[c], &ikey);
  ikey += pk;  // primary key suffix makes secondary entries unique
  return ikey;
}

Status Table::MaintainIndexesOnInsert(Transaction* txn, const Row& row,
                                      const std::string& pk) {
  for (const IndexInfo& idx : indexes_) {
    BTree tree(idx.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(idx.root));
    REWIND_RETURN_IF_ERROR(
        tree.Insert(db_->write_ctx(), txn, IndexKeyFor(idx, row, pk), pk));
  }
  return Status::OK();
}

Status Table::MaintainIndexesOnDelete(Transaction* txn, const Row& old_row,
                                      const std::string& pk) {
  for (const IndexInfo& idx : indexes_) {
    BTree tree(idx.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(idx.root));
    REWIND_RETURN_IF_ERROR(
        tree.Delete(db_->write_ctx(), txn, IndexKeyFor(idx, old_row, pk)));
  }
  return Status::OK();
}

Status Table::Insert(Transaction* txn, const Row& row) {
  REWIND_RETURN_IF_ERROR(info_.schema.CheckRow(row));
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, SchemaLockKey(info_.root), LockMode::kShared));
  std::string pk = info_.schema.KeyOf(row);
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, RowLockKey(info_.root, pk), LockMode::kExclusive));
  std::string value;
  EncodeRow(types_, row, &value);
  {
    BTree tree(info_.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(info_.root));
    REWIND_RETURN_IF_ERROR(tree.Insert(db_->write_ctx(), txn, pk, value));
  }
  return MaintainIndexesOnInsert(txn, row, pk);
}

Status Table::Update(Transaction* txn, const Row& row) {
  REWIND_RETURN_IF_ERROR(info_.schema.CheckRow(row));
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, SchemaLockKey(info_.root), LockMode::kShared));
  std::string pk = info_.schema.KeyOf(row);
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, RowLockKey(info_.root, pk), LockMode::kExclusive));
  // Fetch the old row for index maintenance.
  Row old_row;
  {
    BTree tree(info_.root);
    std::shared_lock<std::shared_mutex> tl(*db_->TreeLatch(info_.root));
    auto old = tree.Get(db_->buffers(), pk);
    if (!old.ok()) return old.status();
    REWIND_ASSIGN_OR_RETURN(old_row, DecodeRow(types_, *old));
  }
  std::string value;
  EncodeRow(types_, row, &value);
  {
    BTree tree(info_.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(info_.root));
    REWIND_RETURN_IF_ERROR(tree.Update(db_->write_ctx(), txn, pk, value));
  }
  // Refresh index entries whose key columns changed.
  for (const IndexInfo& idx : indexes_) {
    std::string old_ikey = IndexKeyFor(idx, old_row, pk);
    std::string new_ikey = IndexKeyFor(idx, row, pk);
    if (old_ikey == new_ikey) continue;
    BTree tree(idx.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(idx.root));
    REWIND_RETURN_IF_ERROR(tree.Delete(db_->write_ctx(), txn, old_ikey));
    REWIND_RETURN_IF_ERROR(tree.Insert(db_->write_ctx(), txn, new_ikey, pk));
  }
  return Status::OK();
}

Status Table::Delete(Transaction* txn, const Row& key_values) {
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, SchemaLockKey(info_.root), LockMode::kShared));
  std::string pk = EncodeKey(key_values, info_.schema.num_key_columns());
  REWIND_RETURN_IF_ERROR(db_->locks()->Acquire(
      txn->id, RowLockKey(info_.root, pk), LockMode::kExclusive));
  Row old_row;
  {
    BTree tree(info_.root);
    std::shared_lock<std::shared_mutex> tl(*db_->TreeLatch(info_.root));
    auto old = tree.Get(db_->buffers(), pk);
    if (!old.ok()) return old.status();
    REWIND_ASSIGN_OR_RETURN(old_row, DecodeRow(types_, *old));
  }
  {
    BTree tree(info_.root);
    std::unique_lock<std::shared_mutex> tl(*db_->TreeLatch(info_.root));
    REWIND_RETURN_IF_ERROR(tree.Delete(db_->write_ctx(), txn, pk));
  }
  return MaintainIndexesOnDelete(txn, old_row, pk);
}

Result<Row> Table::Get(Transaction* txn, const Row& key_values) {
  LiveRowGate gate(db_, txn);
  return ReadCoreGet(&gate, info_, types_, key_values);
}

Status Table::Scan(Transaction* txn, const std::optional<Row>& lower,
                   const std::optional<Row>& upper,
                   const std::function<bool(const Row&)>& cb) {
  LiveRowGate gate(db_, txn);
  return ReadCoreScan(&gate, info_, types_, lower, upper, cb);
}

Status Table::IndexScan(Transaction* txn, const std::string& index_name,
                        const Row& prefix_values,
                        const std::function<bool(const Row&)>& cb) {
  LiveRowGate gate(db_, txn);
  return ReadCoreIndexScan(&gate, info_, indexes_, types_, index_name,
                           prefix_values, cb);
}

Result<uint64_t> Table::Count() {
  LiveRowGate gate(db_, nullptr);
  return ReadCoreCount(&gate, info_);
}

}  // namespace rewinddb
