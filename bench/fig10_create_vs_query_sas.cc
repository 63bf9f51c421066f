// Figure 10: snapshot creation vs as-of query time on 10K SAS.
//
// Paper result: same split as figure 9 with both components more
// expensive; the query dominates because each log-chain fetch is a
// rotational-latency stall.
#include "bench_common.h"

int main() {
  return rewinddb::bench::RunCreateVsQuery(
      rewinddb::MediaProfile::Sas(), "fig10",
      "SAS: creation ~flat; query grows and dominates");
}
