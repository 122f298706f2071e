// The *literal* Section 4.5 algorithm for normalized stable clusters,
// kept alongside the exact normalized BFS sweep as a faithful-ablation
// implementation:
//
//  - smallpaths(c, x): ALL paths of length x < lmin ending at c (no
//    top-k truncation — this is what makes the paper's running time grow
//    with lmin, Figure 14);
//  - bestpaths(c): a list of candidate paths of length >= lmin ending at
//    c, pruned by the paper's two rules — drop a path that is a subpath
//    of another in the list, and apply Theorem 1 (replace pre+curr by
//    curr when len(curr) >= lmin and stability(pre) <= stability(curr));
//  - a global top-k heap ranked by stability over every generated path.
//
// Semantics: the global top-1 is exact (Theorem 1 guarantees the
// reduced path dominates); lower ranks may be replaced by their
// dominating suffixes, exactly as in the paper. The update equations are
// the paper's, which enumerate prefix length x = lmin - len only; with
// gaps (len > 1) intermediate lengths are also folded in so no candidate
// crossing the lmin boundary is missed.

#ifndef STABLETEXT_STABLE_NORMALIZED_LITERAL_FINDER_H_
#define STABLETEXT_STABLE_NORMALIZED_LITERAL_FINDER_H_

#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "stable/normalized.h"

namespace stabletext {

/// Options for NormalizedLiteralFinder.
struct NormalizedFinderOptions {
  size_t k = 5;
  uint32_t lmin = 2;  ///< Minimum path length ("to avoid trivial results").
  /// Theorem 1 pruning; see stable/normalized.h for semantics.
  bool theorem1_pruning = false;
};

/// \brief Paper-literal normalized stable-cluster finder (Section 4.5).
class NormalizedLiteralFinder {
 public:
  explicit NormalizedLiteralFinder(NormalizedFinderOptions options = {})
      : options_(options) {}

  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  NormalizedFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_NORMALIZED_LITERAL_FINDER_H_
