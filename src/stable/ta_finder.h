// Section 4.4: adaptation of the Threshold Algorithm (Fagin, Lotem, Naor)
// to full-path discovery. One sorted edge list is kept per pair of temporal
// intervals; edges are consumed round-robin in descending weight order;
// every consumed edge triggers random probes assembling all full paths
// through it; the algorithm stops when the k-th best assembled path weighs
// at least as much as the "virtual tuple" built from each list's next
// unseen edge. Restricted to full paths (l = m-1), as in the paper, and to
// g = 0 (the Table 3 configuration; the paper notes the probe count
// explodes combinatorially otherwise).

#ifndef STABLETEXT_STABLE_TA_FINDER_H_
#define STABLETEXT_STABLE_TA_FINDER_H_

#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "stable/topk_heap.h"

namespace stabletext {

/// Options for TaStableFinder.
struct TaFinderOptions {
  size_t k = 5;
  /// startwts/endwts upper-bound hash tables (the I/O optimization of
  /// Section 4.4). Ablation knob; results are identical either way.
  bool use_bound_tables = true;
  /// Safety valve for the exponential probe count: abort with
  /// ResourceExhausted once this many probes have been issued (0 = no
  /// limit).
  uint64_t max_probes = 0;
};

/// \brief Threshold-algorithm kl-stable-cluster finder, full paths only.
class TaStableFinder {
 public:
  explicit TaStableFinder(TaFinderOptions options = {})
      : options_(options) {}

  /// Finds the top-k full paths (t_0 .. t_{m-1}). Requires gap() == 0.
  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  TaFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_TA_FINDER_H_
