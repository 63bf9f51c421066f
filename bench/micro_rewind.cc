// Microbenchmarks for the core primitive: PreparePageAsOf cost as a
// function of chain length, with and without periodic full page images
// -- the ablation DESIGN.md calls out for the section 6.1 optimization.
// Also the page checksum, which every page flush and miss read pays.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "btree/btree.h"
#include "engine/database.h"
#include "page/page.h"
#include "snapshot/page_rewinder.h"

namespace rewinddb {
namespace {

struct RewindFixture {
  std::string dir;
  std::unique_ptr<Database> db;
  TreeId tree_root = kInvalidPageId;
  PageId leaf = kInvalidPageId;
  Lsn as_of = kInvalidLsn;
  char page[kPageSize];

  static RewindFixture* Build(int chain_len, uint32_t fpi_period) {
    auto* f = new RewindFixture();
    f->dir = (std::filesystem::temp_directory_path() / "rewinddb_microbench" /
              ("c" + std::to_string(chain_len) + "_f" +
               std::to_string(fpi_period)))
                 .string();
    std::filesystem::remove_all(f->dir);
    DatabaseOptions opts;
    opts.fpi_period = fpi_period;
    auto db = Database::Create(f->dir, opts);
    if (!db.ok()) return nullptr;
    f->db = std::move(*db);

    Transaction* txn = f->db->Begin();
    auto root = BTree::Create(f->db->write_ctx(), txn);
    if (!root.ok()) return nullptr;
    f->tree_root = *root;
    BTree tree(*root);
    Status s = tree.Insert(f->db->write_ctx(), txn, "key", "v0");
    if (!s.ok()) return nullptr;
    if (!f->db->Commit(txn).ok()) return nullptr;
    f->as_of = f->db->log()->next_lsn();

    // Build the chain: `chain_len` updates of the single row.
    Transaction* upd = f->db->Begin();
    for (int i = 0; i < chain_len; i++) {
      s = tree.Update(f->db->write_ctx(), upd, "key",
                      "value" + std::to_string(i));
      if (!s.ok()) return nullptr;
    }
    if (!f->db->Commit(upd).ok()) return nullptr;

    auto path = tree.FindLeafPath(f->db->buffers(), "key");
    if (!path.ok()) return nullptr;
    f->leaf = path->back();
    auto guard = f->db->buffers()->FetchPage(f->leaf, AccessMode::kRead);
    if (!guard.ok()) return nullptr;
    memcpy(f->page, guard->data(), kPageSize);
    return f;
  }

  ~RewindFixture() {
    db.reset();
    std::filesystem::remove_all(dir);
  }
};

void BM_PreparePageAsOf(benchmark::State& state) {
  int chain_len = static_cast<int>(state.range(0));
  uint32_t fpi = static_cast<uint32_t>(state.range(1));
  std::unique_ptr<RewindFixture> f(RewindFixture::Build(chain_len, fpi));
  if (f == nullptr) {
    state.SkipWithError("fixture build failed");
    return;
  }
  PageRewinder rewinder(f->db->log());
  char work[kPageSize];
  for (auto _ : state) {
    memcpy(work, f->page, kPageSize);
    Status s = rewinder.PreparePageAsOf(work, f->as_of);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(work[100]);
  }
  state.counters["chain"] = chain_len;
  state.counters["records_undone_total"] =
      static_cast<double>(rewinder.records_undone());
  state.counters["fpi_jumps_total"] =
      static_cast<double>(rewinder.fpi_jumps());
}

// Chain length sweep without images, then with every-16th images: the
// with-images runs should flatten out.
BENCHMARK(BM_PreparePageAsOf)
    ->Args({8, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({8, 16})
    ->Args({64, 16})
    ->Args({256, 16})
    ->Unit(benchmark::kMicrosecond);

// ComputePageChecksum over one 8 KiB page: the stamp on every flush
// (an eager mount's creation checkpoint stamps hundreds) and the check
// on every miss read of the primary pool.
void BM_PageChecksum(benchmark::State& state) {
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; i++) {
    page[i] = static_cast<char>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(page);
    benchmark::DoNotOptimize(ComputePageChecksum(page));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}

BENCHMARK(BM_PageChecksum)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace rewinddb

BENCHMARK_MAIN();
