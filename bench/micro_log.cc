// Microbenchmarks for the log layer: record encode/decode, append
// throughput through the wal surface (the paper's observation that
// record COUNT, not size, limits throughput hinges on the per-append
// synchronization this measures), random cursor reads (alone and beside
// a background appender), sequential cursor scans, and the WAL-diet
// compressed flush path.
//
// `micro_log --smoke` skips the benchmarks and runs only the CI gate:
// an FPI-heavy workload through a compressed Wal must shrink on disk
// by more than 1.2x, else the process exits nonzero.
#include <benchmark/benchmark.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "log/log_record.h"
#include "page/page.h"
#include "wal/wal.h"
#include "wal/wal_writer.h"

namespace rewinddb {
namespace {

LogRecord SampleRecord(size_t payload) {
  LogRecord rec;
  rec.type = LogType::kInsert;
  rec.txn_id = 42;
  rec.prev_lsn = 1000;
  rec.prev_page_lsn = 900;
  rec.prev_fpi_lsn = 800;
  rec.page_id = 7;
  rec.tree_id = 5;
  rec.slot = 3;
  rec.image = std::string(payload, 'x');
  return rec;
}

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord rec = SampleRecord(static_cast<size_t>(state.range(0)));
  std::string buf;
  for (auto _ : state) {
    buf.clear();
    rec.EncodeTo(&buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_LogRecordEncode)->Arg(64)->Arg(512)->Arg(4096);

void BM_LogRecordDecode(benchmark::State& state) {
  LogRecord rec = SampleRecord(static_cast<size_t>(state.range(0)));
  std::string buf;
  rec.EncodeTo(&buf);
  size_t consumed;
  for (auto _ : state) {
    auto out = LogRecord::Decode(buf, &consumed);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_LogRecordDecode)->Arg(64)->Arg(512)->Arg(4096);

void BM_WalAppend(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "append.log").string();
  std::filesystem::remove(path);
  auto lm = wal::Wal::Create(path, nullptr, nullptr);
  if (!lm.ok()) {
    state.SkipWithError("log create failed");
    return;
  }
  LogRecord rec = SampleRecord(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize((*lm)->Append(rec));
  }
  Status s = (*lm)->FlushAll();
  if (!s.ok()) state.SkipWithError("flush failed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  lm->reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(512);

void BM_WriterStagedAppend(benchmark::State& state) {
  // The wal::Writer path: encode outside the append lock, publish with
  // a staged BEGIN riding along on the first record.
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "writer_append.log").string();
  std::filesystem::remove(path);
  auto lm = wal::Wal::Create(path, nullptr, nullptr);
  if (!lm.ok()) {
    state.SkipWithError("log create failed");
    return;
  }
  LogRecord rec = SampleRecord(static_cast<size_t>(state.range(0)));
  wal::Writer writer = (*lm)->MakeWriter();
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.Append(rec));
  }
  Status s = (*lm)->FlushAll();
  if (!s.ok()) state.SkipWithError("flush failed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  lm->reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_WriterStagedAppend)->Arg(64)->Arg(512);

/// Random cursor seeks over 4000 flushed records. With `appender`, a
/// background thread keeps appending and flushing meanwhile: the reads
/// then race the writers' append lock and the flusher's cache
/// invalidation, as AS OF mounts do beside live writers.
void CursorRandomRead(benchmark::State& state, bool appender) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "read.log").string();
  std::filesystem::remove(path);
  wal::WalOptions opts;
  opts.cache_blocks = static_cast<size_t>(state.range(1));
  auto lm = wal::Wal::Create(path, nullptr, nullptr, opts);
  if (!lm.ok()) {
    state.SkipWithError("log create failed");
    return;
  }
  LogRecord rec = SampleRecord(256);
  std::vector<Lsn> lsns;
  for (int i = 0; i < 4000; i++) lsns.push_back((*lm)->Append(rec));
  Status s = (*lm)->FlushAll();
  if (!s.ok()) {
    state.SkipWithError("flush failed");
    return;
  }
  std::atomic<bool> stop{false};
  std::thread writer;
  if (appender) {
    writer = std::thread([&] {
      // Paced (8 records, a flush, 100 us) so the file stays small.
      while (!stop.load(std::memory_order_relaxed)) {
        for (int i = 0; i < 8; i++) (*lm)->Append(rec);
        (void)(*lm)->FlushAll();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
  }
  uint64_t x = 88172645463325252ULL;
  wal::Cursor cur = (*lm)->OpenCursor();
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    s = cur.SeekTo(lsns[x % lsns.size()]);
    benchmark::DoNotOptimize(s.ok() && cur.Valid());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (appender) {
    stop.store(true);
    writer.join();
  }
  lm->reset();
  std::filesystem::remove(path);
}

void BM_CursorRandomRead(benchmark::State& state) {
  CursorRandomRead(state, /*appender=*/false);
}
// Second arg: cache blocks (0 = every read is a device read).
BENCHMARK(BM_CursorRandomRead)->Args({0, 0})->Args({0, 256});

void BM_CursorRandomReadUnderAppends(benchmark::State& state) {
  CursorRandomRead(state, /*appender=*/true);
}
BENCHMARK(BM_CursorRandomReadUnderAppends)->Args({0, 256});

void BM_CursorSequentialScan(benchmark::State& state) {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "scan.log").string();
  std::filesystem::remove(path);
  auto lm = wal::Wal::Create(path, nullptr, nullptr);
  if (!lm.ok()) {
    state.SkipWithError("log create failed");
    return;
  }
  LogRecord rec = SampleRecord(256);
  for (int i = 0; i < 4000; i++) (*lm)->Append(rec);
  Status s = (*lm)->FlushAll();
  if (!s.ok()) {
    state.SkipWithError("flush failed");
    return;
  }
  for (auto _ : state) {
    wal::Cursor cur = (*lm)->OpenCursor();
    s = cur.SeekTo((*lm)->start_lsn());
    int64_t n = 0;
    while (s.ok() && cur.Valid()) {
      n++;
      s = cur.Next();
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4000);
  lm->reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_CursorSequentialScan);

/// A slotted-page-shaped image: row-sized runs with headers, the
/// repetitive layout real FPIs have (all-'x' would flatter the codec).
std::string FpiHeavyImage(uint32_t seed) {
  std::string img(kPageSize, '\0');
  for (size_t off = 64; off + 80 <= kPageSize; off += 80) {
    std::memcpy(&img[off], &seed, sizeof(seed));
    std::memcpy(&img[off + 4], &off, sizeof(uint32_t));
    std::memset(&img[off + 8], 'r', 64);
    img[off + 8 + seed % 64] = static_cast<char>(seed * 31 + off);
  }
  return img;
}

void BM_WalFpiFlush(benchmark::State& state) {
  // Append-and-flush of FPI-heavy batches, compression off (arg 0) vs
  // on (arg 1): the diet's write-path cost next to its space win.
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "fpi_flush.log").string();
  LogRecord fpi;
  fpi.type = LogType::kPreformat;
  fpi.page_id = 7;
  int64_t bytes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    wal::WalOptions opts;
    opts.compression = state.range(0) != 0;
    auto lm = wal::Wal::Create(path, nullptr, nullptr, opts);
    if (!lm.ok()) {
      state.SkipWithError("log create failed");
      return;
    }
    state.ResumeTiming();
    for (uint32_t i = 0; i < 64; i++) {
      fpi.image = FpiHeavyImage(i);
      (*lm)->Append(fpi);
      bytes += static_cast<int64_t>(fpi.image.size());
    }
    Status s = (*lm)->FlushAll();
    if (!s.ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    state.PauseTiming();
    lm->reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(bytes);
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalFpiFlush)->Arg(0)->Arg(1);

/// The CI smoke gate: logical bytes flushed vs blocks actually
/// allocated on disk for an FPI-heavy compressed log.
int SmokeCompressionRatio() {
  auto dir = std::filesystem::temp_directory_path() / "rewinddb_microbench";
  std::filesystem::create_directories(dir);
  auto path = (dir / "smoke.log").string();
  std::filesystem::remove(path);
  wal::WalOptions opts;
  opts.compression = true;
  auto lm = wal::Wal::Create(path, nullptr, nullptr, opts);
  if (!lm.ok()) {
    std::fprintf(stderr, "smoke: create failed: %s\n",
                 lm.status().ToString().c_str());
    return 1;
  }
  LogRecord fpi;
  fpi.type = LogType::kPreformat;
  fpi.page_id = 7;
  for (uint32_t i = 0; i < 256; i++) {
    fpi.image = FpiHeavyImage(i);
    (*lm)->Append(fpi);
  }
  Status s = (*lm)->FlushAll();
  if (!s.ok()) {
    std::fprintf(stderr, "smoke: flush failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const uint64_t logical = (*lm)->flushed_lsn();
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    std::perror("smoke: stat");
    return 1;
  }
  const uint64_t disk = static_cast<uint64_t>(st.st_blocks) * 512;
  lm->reset();
  std::filesystem::remove(path);
  const double ratio =
      disk > 0 ? static_cast<double>(logical) / static_cast<double>(disk) : 0;
  std::printf("smoke: logical=%llu disk=%llu ratio=%.2fx (gate: >1.20x)\n",
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(disk), ratio);
  return ratio > 1.2 ? 0 : 1;
}

}  // namespace
}  // namespace rewinddb

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      return rewinddb::SmokeCompressionRatio();
    }
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
