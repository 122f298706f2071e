// Depth-first solution to the normalized stable clusters problem. The
// paper sketches it ("The above algorithm can be used with the DFS
// framework as well... Details are omitted for brevity"); this is the
// worked-out version: a single DFS pass maintaining, per node, top-k
// by-weight heaps of suffix paths (paths starting at the node) for every
// feasible length, with a global stability-ranked heap over all generated
// paths of length >= lmin. Weight-based subtree pruning is not effective
// under stability ranking (any low prefix can be diluted), so none is
// applied; the DFS variant's value, as in Section 4.3, is its small
// memory footprint.

#ifndef STABLETEXT_STABLE_NORMALIZED_DFS_FINDER_H_
#define STABLETEXT_STABLE_NORMALIZED_DFS_FINDER_H_

#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "stable/normalized.h"
#include "stable/topk_heap.h"

namespace stabletext {

/// \brief Depth-first normalized-stable-cluster finder.
class NormalizedDfsFinder {
 public:
  explicit NormalizedDfsFinder(NormalizedFinderOptions options = {})
      : options_(options) {}

  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  NormalizedFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_NORMALIZED_DFS_FINDER_H_
