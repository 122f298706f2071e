// Algorithm 3: depth-first solution to the kl-stable clusters problem,
// designed for memory-constrained environments. Node annotations
// (maxweight, bestpaths, visited flag) conceptually live on disk; only the
// DFS stack (bounded by m) and the global heap are memory-resident. Each
// child consideration costs one random read, each node retirement one
// random write. CanPrune postpones subtrees that provably cannot contribute
// a top-k path given the best prefix weight seen so far, unmarking the
// visited flags of all stacked nodes so those subtrees are re-explored if a
// heavier prefix is found later.
//
// The same walk serves both problems of the paper. Problem 1 (kl-stable)
// is Algorithm 3 as above. Problem 2 (normalized, Section 4.5: "can be
// used with the DFS framework as well") changes only the ranking: node
// heaps are bounded by the node's horizon only, the global heap ranks
// every path of length >= lmin by stability, and CanPrune (and the
// maxweight it reads) is skipped, since its bound is for paths of length
// exactly l. Theorem 1 pruning (stable/normalized.h) is an option; the DFS
// grows paths by prepending, so it cuts from the right end.
//
// Storage follows the paths, not the annotation. Node state is flat
// per-node arrays (visited flag, modelled bytes, first held heap), and a
// bestpaths heap exists only once a path of its length starting at its
// node is admitted, so a childless node holds none. The held heaps are
// taken from a HeapPool kept per thread and given back, buffers and all,
// when the query ends, so a warm thread's query allocates per query, not
// per held path. kl-stable maxweight is one flat array that keeps, per
// node, only the prefix lengths a length-l path through it can have:
// min(l, m-1-l)+1 doubles, one for full paths. An edge-less node is
// never pushed: the virtual source charges it as a push and a retirement.
// The cost model still charges every node the annotation the paper
// describes (its (l+1)-wide maxweight row and all its bestpaths heaps,
// empty where nothing is held), updated by the bytes each offer adds, so
// io and peak memory are those of Algorithm 3 as written.

#ifndef STABLETEXT_STABLE_DFS_FINDER_H_
#define STABLETEXT_STABLE_DFS_FINDER_H_

#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "stable/topk_heap.h"

namespace stabletext {

/// Options for DfsStableFinder.
struct DfsFinderOptions {
  FinderMode mode = FinderMode::kKlStable;
  size_t k = 5;     ///< Paths sought.
  /// kKlStable: path length, 0 means full paths (m-1).
  /// kNormalized: minimum path length lmin.
  uint32_t l = 0;
  /// kNormalized: Theorem 1 pruning (stable/normalized.h).
  bool theorem1_pruning = false;
  /// kKlStable: CanPrune-based subtree postponement (Section 4.3).
  /// Disabling it is an ablation knob; results are identical either way.
  bool enable_pruning = true;
  /// Children sorted by descending edge weight ("this heuristic is for
  /// efficient execution, and correctness ... is unaffected"). When false,
  /// children are visited in target-id order. Ablation knob.
  bool sort_children_by_weight = true;
};

/// \brief Depth-first stable-cluster finder (Sections 4.3 and 4.5).
class DfsStableFinder {
 public:
  /// A thread's pool of bestpaths heaps is released when a query leaves
  /// it holding more than this many bytes. A server worker's pool keeps
  /// ~250 KiB on `query_cold` and ~700 KiB on `live_mixed`.
  static constexpr size_t kMaxPooledBytes = size_t{1} << 20;

  /// Bytes the calling thread's pool of bestpaths heaps keeps between
  /// queries.
  static size_t PooledBytes();

  explicit DfsStableFinder(DfsFinderOptions options = {})
      : options_(options) {}

  /// Finds the top-k paths of length l (full length when options.l == 0),
  /// or of length >= lmin by stability in normalized mode.
  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  DfsFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_DFS_FINDER_H_
