// Section 4.5, Problem 2: normalized stable clusters — the top-k paths of
// length at least lmin with the highest stability = weight / length. The
// exact finders are the BFS interval sweep (IntervalSweep in
// stable/bfs_finder.h) and the DFS (stable/dfs_finder.h) in normalized
// mode; this header holds what every normalized finder shares: Theorem 1.
//
// Theorem 1 pruning (drop a prefix whose stability does not exceed that of
// the remaining >= lmin tail; for the DFS, which grows paths leftwards, the
// mirrored suffix) skips extending reducible paths. It
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

/// Which end of a path Theorem 1 cuts. A finder that grows paths by
/// appending (BFS, the literal finder) drops a prefix; one that grows them
/// by prepending (DFS) drops a suffix. The two are mirror images, since a
/// path's stability does not depend on the direction it is read in.
enum class Theorem1Cut { kPrefix, kSuffix };

/// Theorem 1's split search; 0 when there is no split.
///  - kPrefix: the first split s (0 < s < nodes.size() - 1) at which
///    `path` = pre + curr, pre = nodes[0..s], curr = nodes[s..], with
///    length(curr) >= lmin and stability(pre) <= stability(curr).
///  - kSuffix: the last split s at which `path` = curr + post,
///    curr = nodes[0..s], post = nodes[s..], with length(curr) >= lmin and
///    stability(post) <= stability(curr).
/// When a split is found and `cut_weight` is non-null, it receives the
/// weight of the cut part (pre or post).
size_t Theorem1Split(const StablePath& path, const ClusterGraph& graph,
                     uint32_t lmin, double* cut_weight = nullptr,
                     Theorem1Cut cut = Theorem1Cut::kPrefix);

/// True if `path` is Theorem-1 reducible from the `cut` end, so every
/// extension of `path` at the other end is stability-dominated by `path`
/// itself or by the same extension of curr.
inline bool Theorem1Reducible(const StablePath& path,
                              const ClusterGraph& graph, uint32_t lmin,
                              Theorem1Cut cut = Theorem1Cut::kPrefix) {
  return Theorem1Split(path, graph, lmin, nullptr, cut) != 0;
}

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_NORMALIZED_H_
