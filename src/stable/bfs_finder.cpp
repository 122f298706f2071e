#include "stable/bfs_finder.h"

#include <algorithm>
#include <cassert>

#include "stable/normalized.h"

namespace stabletext {

size_t IntervalSweep::Annotation::MemoryBytes(size_t heap_count) const {
  // A node with no parents holds no heaps; it is charged the empty ones
  // the paper's annotation would have.
  if (heaps.empty()) return sizeof(*this) + heap_count * sizeof(TopKHeap<>);
  size_t bytes = sizeof(*this);
  for (const auto& h : heaps) bytes += h.MemoryBytes();
  return bytes;
}

size_t IntervalSweep::HeapCount(uint32_t interval) const {
  if (full_paths_) return interval >= 1 ? 1 : 0;
  return size_t{std::min(l_, interval)} + 1;
}

TopKHeap<>* IntervalSweep::HeapFor(Annotation& a, uint32_t interval,
                                   uint32_t length) const {
  if (full_paths_) {
    return length == interval && !a.heaps.empty() ? &a.heaps[0] : nullptr;
  }
  if (length == 0 || length >= a.heaps.size()) return nullptr;
  return &a.heaps[length];
}

IntervalSweep::Annotation& IntervalSweep::Of(const ClusterGraph& graph,
                                             NodeId n) {
  const uint32_t interval = graph.Interval(n);
  assert(interval >= window_begin_ &&
         interval - window_begin_ < window_.size());
  // Node ids are assigned in increasing order, so every interval's node
  // list is sorted and the annotation index is the node's rank in it.
  const std::vector<NodeId>& nodes = graph.IntervalNodes(interval);
  const auto it = std::lower_bound(nodes.begin(), nodes.end(), n);
  return window_[interval - window_begin_][it - nodes.begin()];
}

Status IntervalSweep::Advance(const ClusterGraph& graph, uint32_t interval) {
  if (interval != next_interval_) {
    return Status::InvalidArgument(
        "intervals must be swept in order from 0");
  }
  if (interval >= graph.interval_count()) {
    return Status::InvalidArgument("interval outside the graph");
  }
  if (interval == 0) {
    gap_ = graph.gap();
  } else if (graph.gap() != gap_) {
    return Status::InvalidArgument("graph gap changed mid-sweep");
  }
  const uint32_t i = interval;
  const std::vector<NodeId>& nodes = graph.IntervalNodes(i);
  if (i > 0) {
    // Read the g+1 window from disk (the only annotations ever needed).
    for (const IntervalAnnotations& w : window_) {
      cost_.io.page_reads += w.size();
    }
    cost_.io.page_reads += nodes.size();
  }

  // Paths reach a node's heaps only through a parent edge, so a node
  // without parents gets none.
  IntervalAnnotations& built = window_.emplace_back(nodes.size());
  for (size_t j = 0; j < nodes.size(); ++j) {
    if (!graph.Parents(nodes[j]).empty()) {
      built[j].heaps.assign(HeapCount(i), TopKHeap<>(k_));
    }
  }
  auto offer_global = [&](const StablePath& path) {
    if (path.length < lmin_ || path.length > l_) return;
    ++cost_.heap_offers;
    global_.Offer(path);
  };
  for (size_t j = 0; j < nodes.size(); ++j) {
    const NodeId c = nodes[j];
    for (const ClusterGraphEdge& pe : graph.Parents(c)) {
      const NodeId p = pe.target;
      const uint32_t parent_interval = graph.Interval(p);
      const uint32_t len = i - parent_interval;
      // Bare edge as a path of length len.
      {
        StablePath path;
        path.nodes = {p, c};
        path.weight = pe.weight;
        path.length = len;
        ++cost_.heap_offers;
        if (TopKHeap<>* h = HeapFor(built[j], i, len)) h->Offer(path);
        offer_global(path);
      }
      // An edge spanning l or more intervals ends no longer subpath.
      if (len >= l_) continue;
      // Extensions of subpaths ending at p. A path ending at p is at
      // most Interval(p) long, which bounds the loop however large l is.
      Annotation& parent = Of(graph, p);
      const uint32_t x_hi = std::min(l_ - len, parent_interval);
      for (uint32_t x = 1; x <= x_hi; ++x) {
        const TopKHeap<>* src = HeapFor(parent, parent_interval, x);
        if (src == nullptr) continue;
        for (const StablePath& pi : src->paths()) {
          if (theorem1_pruning_ && Theorem1Reducible(pi, graph, lmin_)) {
            continue;  // Extensions dominated by the reduced suffix's.
          }
          StablePath extended = pi;
          extended.nodes.push_back(c);
          extended.weight += pe.weight;
          extended.length += len;
          ++cost_.heap_offers;
          if (TopKHeap<>* h = HeapFor(built[j], i, extended.length)) {
            h->Offer(extended);
          }
          offer_global(extended);
        }
      }
    }
  }
  // Save the interval's annotations to disk (line 17 of Algorithm 2).
  if (i > 0) cost_.io.page_writes += nodes.size();

  ++next_interval_;
  // Interval i+1 reads [i-g, i]; older annotations are never read again.
  while (window_.size() > size_t{gap_} + 1) {
    window_.pop_front();
    ++window_begin_;
  }
  return Status::OK();
}

std::vector<size_t> IntervalSweep::WindowAnnotationBytes() const {
  std::vector<size_t> bytes;
  for (size_t j = 0; j < window_.size(); ++j) {
    const size_t heap_count = HeapCount(window_begin_ + j);
    for (const Annotation& a : window_[j]) {
      bytes.push_back(a.MemoryBytes(heap_count));
    }
  }
  return bytes;
}

size_t IntervalSweep::FrontierBytes() const {
  size_t bytes = global_.MemoryBytes();
  if (!window_.empty()) {
    const size_t heap_count = HeapCount(next_interval_ - 1);
    for (const Annotation& a : window_.back()) {
      bytes += a.MemoryBytes(heap_count);
    }
  }
  return bytes;
}

Result<StableFinderResult> BfsStableFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  ST_ASSIGN_OR_RETURN(const uint32_t l,
                      ResolvePathLength(options_.mode, options_.l, m));
  const bool normalized = options_.mode == FinderMode::kNormalized;
  IntervalSweep sweep =
      normalized ? IntervalSweep::Normalized(options_.k, l,
                                             options_.theorem1_pruning)
                 : IntervalSweep(options_.k, l, /*full_paths=*/l == m - 1);
  ST_RETURN_IF_ERROR(sweep.Advance(graph, 0));
  for (uint32_t i = 1; i < m; ++i) {
    // Block-nested-loop fallback of Section 4.2: partition the window
    // into chunks that fit the memory budget (one chunk when unlimited).
    // Each parent edge is extended exactly once, whichever chunk holds
    // its parent, and TopKHeap's strict total order makes the answer
    // independent of offer order. So the step runs once and the
    // partition decides only the accounting: the passes, one re-read of
    // interval i per extra pass, and the largest chunk resident at once.
    size_t chunks = 0;
    size_t acc = 0;
    size_t largest = 0;
    for (size_t bytes : sweep.WindowAnnotationBytes()) {
      if (chunks == 0 ||
          (acc + bytes > options_.memory_budget_bytes && acc > 0)) {
        ++chunks;
        acc = 0;
      }
      acc += bytes;
      largest = std::max(largest, acc);
    }
    chunks = std::max<size_t>(chunks, 1);  // Empty window.
    ST_RETURN_IF_ERROR(sweep.Advance(graph, i));
    result.passes = std::max(result.passes, chunks);
    result.io.page_reads += (chunks - 1) * graph.IntervalNodes(i).size();
    result.peak_memory_bytes =
        std::max(result.peak_memory_bytes, largest + sweep.FrontierBytes());
  }
  result.io += sweep.cost().io;
  result.heap_offers = sweep.cost().heap_offers;
  result.paths = sweep.TopK();
  return result;
}

}  // namespace stabletext
