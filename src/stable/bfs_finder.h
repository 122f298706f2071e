// Algorithm 2: breadth-first (interval-sweep) solution to the kl-stable
// clusters problem. Each node cij is annotated with up to l heaps h^x_ij
// holding the top-k subpaths of length x ending at cij; intervals are
// processed left to right keeping a sliding window of g+1 interval's worth
// of annotations in memory; a global heap H accumulates the top-k paths of
// length exactly l.
//
// The per-interval step is IntervalSweep, and it serves both settings of
// the paper. Batch BFS (Section 4.2) advances a sweep over every interval
// of a finished graph. The online setting (Section 4.6) is the same sweep
// advanced as intervals arrive: a node's heaps are computed once, when its
// interval arrives, and never revisited, so appending interval m+1 costs
// exactly the last step of the batch run and no past work is redone. The
// global top-k grows monotonically. The engine keeps one such sweep warm
// over its growing graph and publishes its top-k with every epoch.

#ifndef STABLETEXT_STABLE_BFS_FINDER_H_
#define STABLETEXT_STABLE_BFS_FINDER_H_

#include <deque>
#include <vector>

#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "stable/topk_heap.h"
#include "util/memory_tracker.h"

namespace stabletext {

/// \brief Algorithm 2's per-interval step over a ClusterGraph.
///
/// Advance(graph, i) integrates interval i: every node of i gets its heaps
/// from its parents' heaps, and new length-l paths are offered to the
/// global top-k. Parents and the gap are read from the graph; the sweep
/// keeps no copy of nodes or edges. It holds annotations only for the
/// g+1-interval window plus the interval being built, so its resident
/// bytes are bounded by the window, not by the stream. After Advance(i),
/// TopK() is what batch BFS returns on intervals [0, i].
class IntervalSweep {
 public:
  /// \param full_paths Section 4.2's l = m-1 special case: one heap per
  ///   node (paths from interval 0 only), "reducing the computation by a
  ///   factor of l". Exact only when l is the graph's last interval.
  IntervalSweep(size_t k, uint32_t l, bool full_paths = false)
      : k_(k), l_(l), full_paths_(full_paths), global_(k) {}

  /// Integrates interval `interval` of `graph`. Intervals must arrive in
  /// order from 0, over graphs with one gap; anything else is
  /// InvalidArgument.
  Status Advance(const ClusterGraph& graph, uint32_t interval);

  /// Current top-k paths of length exactly l, best first.
  const std::vector<StablePath>& TopK() const { return global_.paths(); }

  /// Accumulated cost: io (one window read per step, one read and one
  /// write per integrated node) and heap_offers.
  const StableFinderResult& cost() const { return cost_; }

  /// Bytes of each annotation the sweep holds, in interval then node
  /// order: the g+1-interval window the next Advance reads.
  std::vector<size_t> WindowAnnotationBytes() const;

  /// Bytes of the last integrated interval's annotations plus the global
  /// heap: the resident state besides the window.
  size_t FrontierBytes() const;

  size_t k() const { return k_; }
  uint32_t l() const { return l_; }
  /// The interval the next Advance must integrate.
  uint32_t next_interval() const { return next_interval_; }

 private:
  // heaps[x] holds the top-k paths of length x ending at the node
  // ([0] unused); full-path mode keeps one heap, for length == interval.
  struct Annotation {
    std::vector<TopKHeap<>> heaps;

    size_t MemoryBytes() const;
  };
  using IntervalAnnotations = std::vector<Annotation>;

  // The heap of `a` (a node of interval `interval`) for paths of
  // `length`, or null when the node keeps none.
  TopKHeap<>* HeapFor(Annotation& a, uint32_t interval,
                      uint32_t length) const;
  // The annotation of node `n`, which must lie in the window.
  Annotation& Of(const ClusterGraph& graph, NodeId n);

  size_t k_;
  uint32_t l_;
  bool full_paths_;
  uint32_t gap_ = 0;
  uint32_t next_interval_ = 0;
  // window_[j] annotates interval window_begin_ + j.
  std::deque<IntervalAnnotations> window_;
  uint32_t window_begin_ = 0;
  TopKHeap<> global_;
  StableFinderResult cost_;
};

/// Options for BfsStableFinder.
struct BfsFinderOptions {
  size_t k = 5;       ///< Paths sought.
  uint32_t l = 0;     ///< Path length; 0 means full paths (m-1).
  /// Bytes of window memory available. When the g+1-interval window does
  /// not fit, the finder falls back to block-nested-loop passes over the
  /// window exactly as Section 4.2 describes ("Mreq/M passes will be
  /// required. This situation is very similar to block-nested loops.").
  size_t memory_budget_bytes = MemoryTracker::kUnlimited;
};

/// \brief Breadth-first kl-stable-cluster finder (Section 4.2).
class BfsStableFinder {
 public:
  explicit BfsStableFinder(BfsFinderOptions options = {})
      : options_(options) {}

  /// Finds the top-k paths of length l (or full length when options.l==0).
  /// Single forward pass over intervals; I/O and memory are accounted in
  /// the result.
  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  BfsFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_BFS_FINDER_H_
