// Figure 9: snapshot creation time vs as-of query time on SSD.
//
// Paper result: creation is roughly constant (bounded by the log
// scanned between the nearest checkpoint and the SplitLSN, and
// amortizable over many queries of the same snapshot); the query time
// grows with the amount of modification being unwound.
#include "bench_common.h"

int main() {
  return rewinddb::bench::RunCreateVsQuery(
      rewinddb::MediaProfile::Ssd(), "fig9",
      "SSD: creation ~flat; query grows with minutes back");
}
