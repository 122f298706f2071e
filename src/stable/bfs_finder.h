// Algorithm 2: breadth-first (interval-sweep) solution to the kl-stable
// clusters problem. Each node cij is annotated with up to l heaps h^x_ij
// holding the top-k subpaths of length x ending at cij; intervals are
// processed left to right keeping a sliding window of g+1 interval's worth
// of annotations in memory; a global heap H accumulates the top-k paths of
// length exactly l.
//
// The per-interval step is IntervalSweep, and it serves both problems of
// the paper. Problem 1 (kl-stable) is Algorithm 2 as above. Problem 2
// (normalized, Section 4.5) is the same sweep with two changes: node heaps
// are bounded by path length only ("the algorithm seeking normalized
// stable clusters needs to maintain paths of all lengths"), and the global
// heap ranks every path of length >= lmin by stability. The per-(node,
// length) weight-optimal substructure keeps that ranking exact; Theorem 1
// pruning (stable/normalized.h) is an option.
//
// Storage follows the paths, not the annotation. A heap h^x_ij exists
// only once a path of length x ending at cij is admitted to it, so a node
// without parents holds none. Each interval's annotations are a flat
// index by (node rank, length) into a pool of heaps; the heaps of an
// interval that leaves the window go back to the pool with their path
// buffers, and candidates are built in one reused scratch path. The cost
// model still charges every node the heaps the paper's annotation has
// (empty ones where nothing is held), so io and the memory figures
// (window bytes, block-nested-loop passes, peak) are those of Algorithm 2
// as written. Window and frontier bytes are summed once per interval.
//
// It also serves both settings. Batch BFS (Section 4.2) advances a sweep
// over every interval of a finished graph. The online setting (Section
// 4.6) is the same sweep advanced as intervals arrive: a node's heaps are
// computed once, when its interval arrives, and never revisited, so
// appending interval m+1 costs exactly the last step of the batch run and
// no past work is redone. The global top-k grows monotonically. The
// network server's notifier keeps one kl-stable sweep per online
// subscription and advances it over each published epoch's graph.

#ifndef STABLETEXT_STABLE_BFS_FINDER_H_
#define STABLETEXT_STABLE_BFS_FINDER_H_

#include <cstdint>
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
/// from its parents' heaps, and new paths of a sought length (exactly l,
/// or >= lmin) are offered to the global top-k. Parents and the gap are read from the graph; the sweep
/// keeps no copy of nodes or edges. It holds annotations only for the
/// g+1-interval window plus the interval being built, so its resident
/// bytes are bounded by the window, not by the stream. After Advance(i),
/// TopK() is what batch BFS returns on intervals [0, i].
class IntervalSweep {
 public:
  /// Problem 1: the top-k paths of length exactly l, by weight.
  /// \param full_paths Section 4.2's l = m-1 special case: one heap per
  ///   node (paths from interval 0 only), "reducing the computation by a
  ///   factor of l". Exact only when l is the graph's last interval.
  IntervalSweep(size_t k, uint32_t l, bool full_paths = false)
      : IntervalSweep(k, l, l, /*normalized=*/false, false, full_paths) {}

  /// Problem 2: the top-k paths of length >= lmin, by stability. With
  /// `theorem1_pruning`, Theorem-1-reducible paths are not extended.
  static IntervalSweep Normalized(size_t k, uint32_t lmin,
                                  bool theorem1_pruning) {
    return IntervalSweep(k, lmin, UINT32_MAX, /*normalized=*/true,
                         theorem1_pruning, /*full_paths=*/false);
  }

  /// Integrates interval `interval` of `graph`. Intervals must arrive in
  /// order from 0, over graphs with one gap; anything else is
  /// InvalidArgument.
  Status Advance(const ClusterGraph& graph, uint32_t interval);

  /// Current top-k paths (length exactly l, or >= lmin), best first.
  const std::vector<StablePath>& TopK() const { return global_.paths(); }

  /// Accumulated cost: io (one window read per step, one read and one
  /// write per integrated node) and heap_offers.
  const StableFinderResult& cost() const { return cost_; }

  /// Bytes of each annotation the sweep holds, in interval then node
  /// order: the g+1-interval window the next Advance reads.
  std::vector<size_t> WindowAnnotationBytes() const;

  /// Bytes of the whole window: the sum of WindowAnnotationBytes().
  size_t WindowBytes() const;

  /// Bytes of the last integrated interval's annotations plus the global
  /// heap: the resident state besides the window.
  size_t FrontierBytes() const;

  size_t k() const { return k_; }
  uint32_t l() const { return l_; }
  /// The interval the next Advance must integrate.
  uint32_t next_interval() const { return next_interval_; }

 private:
  IntervalSweep(size_t k, uint32_t lmin, uint32_t l, bool normalized,
                bool theorem1_pruning, bool full_paths)
      : k_(k),
        lmin_(lmin),
        l_(l),
        theorem1_pruning_(theorem1_pruning),
        full_paths_(full_paths),
        global_(k, GlobalOrder{normalized}) {}

  static constexpr uint32_t kNoHeap = UINT32_MAX;

  // A held heap h^length of some node: an index into pool_.
  struct HeapRef {
    uint32_t length;
    uint32_t heap;
  };
  // The annotations of one interval's nodes. The node of rank r holds the
  // heaps refs[first[r], first[r + 1]), in length order: one for each
  // length that has a path ending there (in full-path mode, only length
  // == interval). A length without a path holds no heap, and a node
  // without parents holds none at all.
  struct IntervalAnnotations {
    std::vector<uint32_t> first;
    std::vector<HeapRef> refs;
    size_t bytes = 0;  // Modelled bytes of all the interval's annotations.

    size_t node_count() const { return first.empty() ? 0 : first.size() - 1; }
  };

  // Heaps in the paper's annotation of a node of `interval`.
  size_t HeapCount(uint32_t interval) const;
  // Modelled bytes of a node annotation of `interval` whose heaps hold
  // `path_bytes` of paths. The paper's annotation has HeapCount heaps
  // whether or not this node holds them.
  size_t AnnotationBytes(uint32_t interval, size_t path_bytes) const;
  // The annotations of `interval`, which must be in the window or being
  // built: one ring slot per interval of the g+1 window plus the next.
  IntervalAnnotations& Slot(uint32_t interval) {
    return window_[interval % window_.size()];
  }
  const IntervalAnnotations& Slot(uint32_t interval) const {
    return window_[interval % window_.size()];
  }
  // The first interval of the window the next Advance reads.
  uint32_t window_begin() const {
    return next_interval_ > gap_ + 1 ? next_interval_ - (gap_ + 1) : 0;
  }
  // Offers `path`, a path ending at the node being built, to the node's
  // heap for its length; the heap is taken from the pool when it admits
  // its first path.
  void OfferToNode(const StablePath& path, uint32_t interval);
  // Moves the node's heaps, in length order, into `built`.
  void CloseNode(IntervalAnnotations& built);

  size_t k_;
  // The global heap takes paths of length in [lmin_, l_]; node heaps keep
  // lengths up to l_ (unbounded in normalized mode).
  uint32_t lmin_;
  uint32_t l_;
  bool theorem1_pruning_;
  bool full_paths_;
  uint32_t gap_ = 0;
  uint32_t next_interval_ = 0;
  // Ring of g+2 interval annotations; see Slot.
  std::vector<IntervalAnnotations> window_;
  // Every heap the sweep has made; free_ lists those no annotation holds.
  // A deque, so a heap stays put while new ones are made.
  std::deque<TopKHeap<>> pool_;
  std::vector<uint32_t> free_;
  // The node being built: its heap per length (kNoHeap if none yet) and
  // the lengths that have one.
  std::vector<uint32_t> node_heap_;
  std::vector<uint32_t> node_lengths_;
  // The candidate path being offered.
  StablePath scratch_;
  TopKHeap<GlobalOrder> global_;
  StableFinderResult cost_;
};

/// Options for BfsStableFinder.
struct BfsFinderOptions {
  FinderMode mode = FinderMode::kKlStable;
  size_t k = 5;       ///< Paths sought.
  /// kKlStable: path length, 0 means full paths (m-1).
  /// kNormalized: minimum path length lmin.
  uint32_t l = 0;
  /// kNormalized: Theorem 1 prefix pruning (stable/normalized.h).
  bool theorem1_pruning = false;
  /// Bytes of window memory available. When the g+1-interval window does
  /// not fit, the finder falls back to block-nested-loop passes over the
  /// window exactly as Section 4.2 describes ("Mreq/M passes will be
  /// required. This situation is very similar to block-nested loops.").
  size_t memory_budget_bytes = MemoryTracker::kUnlimited;
};

/// \brief Breadth-first stable-cluster finder (Sections 4.2 and 4.5).
class BfsStableFinder {
 public:
  explicit BfsStableFinder(BfsFinderOptions options = {})
      : options_(options) {}

  /// Finds the top-k paths of length l (full length when options.l == 0),
  /// or of length >= lmin by stability in normalized mode. Single forward
  /// pass over intervals; I/O and memory are accounted in the result.
  Result<StableFinderResult> Find(const ClusterGraph& graph) const;

 private:
  BfsFinderOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_BFS_FINDER_H_
