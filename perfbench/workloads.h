// The three workloads. Each fills `r` with its end-to-end metrics (the
// untraced run) or its per-layer metrics (the traced run) and counts
// what it attempted, what failed and every oracle mismatch.
#ifndef REWINDDB_PERFBENCH_WORKLOADS_H_
#define REWINDDB_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunOltp(const RunConfig& cfg, Report* r);
void RunInvestigate(const RunConfig& cfg, Report* r);
void RunFleet(const RunConfig& cfg, Report* r);

}  // namespace perfbench

#endif  // REWINDDB_PERFBENCH_WORKLOADS_H_
