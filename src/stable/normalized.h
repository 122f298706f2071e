// Section 4.5, Problem 2: normalized stable clusters — the top-k paths of
// length at least lmin with the highest stability = weight / length. The
// exact engine path is the BFS interval sweep (IntervalSweep in
// stable/bfs_finder.h) in normalized mode; this header holds what every
// normalized finder shares: its options and Theorem 1.
//
// Theorem 1 pruning (drop a prefix whose stability does not exceed that of
// the remaining >= lmin tail) skips extending reducible paths. It
// preserves the top-1 answer exactly (Theorem 1) but for k > 1 may replace
// a lower-ranked result with its dominating suffix; it is off by default
// and on in the paper-replication benchmarks.

#ifndef STABLETEXT_STABLE_NORMALIZED_H_
#define STABLETEXT_STABLE_NORMALIZED_H_

#include <cstddef>
#include <cstdint>

#include "stable/cluster_graph.h"
#include "stable/path.h"

namespace stabletext {

/// Options for the normalized DFS and paper-literal finders.
struct NormalizedFinderOptions {
  size_t k = 5;
  uint32_t lmin = 2;  ///< Minimum path length ("to avoid trivial results").
  /// Theorem 1 prefix pruning; see the header comment for semantics.
  bool theorem1_pruning = false;
};

/// Theorem 1's split search: the first split s (0 < s < nodes.size() - 1)
/// at which `path` = pre + curr, pre = nodes[0..s], curr = nodes[s..],
/// with length(curr) >= lmin and stability(pre) <= stability(curr); 0 when
/// there is none. When a split is found and `prefix_weight` is non-null,
/// it receives weight(pre).
size_t Theorem1Split(const StablePath& path, const ClusterGraph& graph,
                     uint32_t lmin, double* prefix_weight = nullptr);

/// True if `path` is Theorem-1 reducible, so every extension of `path` is
/// stability-dominated by the same extension of its suffix curr.
inline bool Theorem1Reducible(const StablePath& path,
                              const ClusterGraph& graph, uint32_t lmin) {
  return Theorem1Split(path, graph, lmin) != 0;
}

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_NORMALIZED_H_
