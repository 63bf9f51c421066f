// Order statistics and span self-time, shared by the driver and its
// unit tests (stats_test.cc). Header-only and engine-free.
#ifndef REWINDDB_PERFBENCH_STATS_H_
#define REWINDDB_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it. `p` in (0, 100]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// The fewest samples a percentile may be reported from: 1000 for p99
/// and above, 100 for p90 and above, else 1.
inline size_t MinSamples(double p) {
  return p >= 99 ? 1000 : p >= 90 ? 100 : 1;
}

/// Median (mean of the middle two for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One finished span: a timed call into a layer. `parent` is the id of
/// the span that was open on the same thread when this one began (0 for
/// a root); `request` is the id of the root span it belongs to.
struct Span {
  uint32_t name = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span (same order as `spans`): its duration minus
/// the part of its interval covered by the union of its children's
/// intervals. Children may overlap each other or stick out of the
/// parent; only the covered part of the parent's own interval counts.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); i++) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); i++) {
    int64_t covered = 0;
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench

#endif  // REWINDDB_PERFBENCH_STATS_H_
