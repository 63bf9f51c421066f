// perfbench: the benchmark driver. Usually started by run.py:
//
//   perfbench --workload oltp|investigate|fleet --seed N --seconds S
//             --trace 0|1 --dir RUN_DIR [--spans FILE]
//
// Builds its inputs from --seed, runs one workload in RUN_DIR (which
// must not exist yet), checks its answers and prints one JSON result
// line (end-to-end metrics untraced, per-layer metrics traced). run.py
// caps the run's time and removes RUN_DIR on every exit path.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// Engine defaults only: drop every REWINDDB_* variable before the first
/// DatabaseOptions reads them.
void ClearEngineEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; e++) {
    if (strncmp(*e, "REWINDDB_", 9) == 0) {
      const char* eq = strchr(*e, '=');
      names.emplace_back(*e, eq ? static_cast<size_t>(eq - *e) : strlen(*e));
    }
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

int Usage() {
  fprintf(stderr,
          "usage: perfbench --workload oltp|investigate|fleet --seed N "
          "--seconds S --trace 0|1 --dir RUN_DIR [--spans FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      cfg.workload = v;
    } else if (k == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      cfg.seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      cfg.trace = v == "1";
    } else if (k == "--dir") {
      cfg.dir = v;
    } else if (k == "--spans") {
      cfg.spans_path = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || cfg.dir.empty() || cfg.seconds < 1) return Usage();
  void (*run)(const RunConfig&, Report*) = nullptr;
  if (cfg.workload == "oltp") run = RunOltp;
  if (cfg.workload == "investigate") run = RunInvestigate;
  if (cfg.workload == "fleet") run = RunFleet;
  if (run == nullptr) return Usage();

  ClearEngineEnv();
  std::error_code ec;
  if (std::filesystem::exists(cfg.dir, ec)) {
    fprintf(stderr, "perfbench: run directory %s already exists\n",
            cfg.dir.c_str());
    return 2;
  }
  std::filesystem::create_directories(cfg.dir, ec);
  if (ec) {
    fprintf(stderr, "perfbench: cannot create %s\n", cfg.dir.c_str());
    return 2;
  }

  Report report(cfg.trace);
  if (cfg.trace) Tracer::Get().Enable();
  report.Note("seed", std::to_string(cfg.seed));
  report.Note("trace", cfg.trace ? "1" : "0");
  run(cfg, &report);
  if (cfg.trace) ReportSpans(&report, cfg.spans_path);
  report.Print();
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
