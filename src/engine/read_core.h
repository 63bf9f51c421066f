// Shared read-path plumbing behind every table surface.
//
// The live Table and the snapshot's as-of table run the same
// Get/Scan/IndexScan/Count loops, differing only in where pages come
// from and in how a row's visibility is decided: live transactional
// reads S-lock rows (try-lock + yield during scans, so a scan never
// waits on a lock while holding a latch), while an as-of table waits
// for (or runs) each tree's loser undo before it reads the tree
// (AsOfSnapshot::EnsureTreeRecovered), after which every row it can
// reach is visible. This file implements those loops once,
// parameterized by a RowGate that supplies the buffer pool, the
// per-tree latches and the row visibility decisions.
#ifndef REWINDDB_ENGINE_READ_CORE_H_
#define REWINDDB_ENGINE_READ_CORE_H_

#include <functional>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "common/value.h"

namespace rewinddb {

class BufferManager;

/// Visibility and locking hooks distinguishing one read surface from
/// another. Implementations must be callable from multiple threads.
/// The row hooks default to "every row is visible"; only live
/// transactional reads override them.
class RowGate {
 public:
  enum class Check { kVisible, kYield };

  virtual ~RowGate() = default;

  /// Buffer pool the table's trees resolve through (the primary's, or a
  /// snapshot's side-file-backed pool).
  virtual BufferManager* buffers() = 0;

  /// Reader/writer latch for `tree`.
  virtual std::shared_mutex* TreeLatch(TreeId tree) = 0;

  /// Called before a point read of primary key `pk`, e.g. to S-lock it.
  virtual Status BeforePointRead(TreeId /*tree*/, const std::string& /*pk*/) {
    return Status::OK();
  }

  /// Cheap per-row pre-test: false means every row is visible and
  /// CheckScanRow will not be called, sparing the scan the key
  /// materialization.
  virtual bool ScanNeedsRowCheck() { return false; }

  /// Called under the tree latch for each row a scan is about to
  /// deliver (only while ScanNeedsRowCheck() is true). kYield means:
  /// release every latch, AwaitRow(key), then resume the scan at `key`
  /// (inclusive -- the row has not been delivered yet).
  virtual Result<Check> CheckScanRow(TreeId /*tree*/,
                                     const std::string& /*key*/) {
    return Check::kVisible;
  }

  /// Latch-free wait after a yield; returns once `key` may be re-read.
  virtual Status AwaitRow(TreeId /*tree*/, const std::string& /*key*/) {
    return Status::OK();
  }
};

/// The four read operations every table surface exposes, implemented
/// once over a (descriptor, gate) pair.
Result<Row> ReadCoreGet(RowGate* gate, const TableInfo& info,
                        const std::vector<ColumnType>& types,
                        const Row& key_values);

Status ReadCoreScan(RowGate* gate, const TableInfo& info,
                    const std::vector<ColumnType>& types,
                    const std::optional<Row>& lower,
                    const std::optional<Row>& upper,
                    const std::function<bool(const Row&)>& cb);

Status ReadCoreIndexScan(RowGate* gate, const TableInfo& info,
                         const std::vector<IndexInfo>& indexes,
                         const std::vector<ColumnType>& types,
                         const std::string& index_name,
                         const Row& prefix_values,
                         const std::function<bool(const Row&)>& cb);

Result<uint64_t> ReadCoreCount(RowGate* gate, const TableInfo& info);

}  // namespace rewinddb

#endif  // REWINDDB_ENGINE_READ_CORE_H_
