#include "stable/bfs_finder.h"

#include <algorithm>

#include "stable/normalized.h"

namespace stabletext {

size_t IntervalSweep::HeapCount(uint32_t interval) const {
  if (full_paths_) return interval >= 1 ? 1 : 0;
  return size_t{std::min(l_, interval)} + 1;
}

size_t IntervalSweep::AnnotationBytes(uint32_t interval,
                                      size_t path_bytes) const {
  // The paper's annotation is a vector of HeapCount heaps.
  return sizeof(std::vector<TopKHeap<>>) +
         HeapCount(interval) * TopKHeap<>::kEmptyBytes + path_bytes;
}

void IntervalSweep::OfferToNode(const StablePath& path, uint32_t interval) {
  // Full-path mode keeps only paths from interval 0.
  if (full_paths_ ? path.length != interval : path.length > l_) return;
  if (path.length >= node_heap_.size()) {
    node_heap_.resize(size_t{path.length} + 1, kNoHeap);
  }
  uint32_t& heap = node_heap_[path.length];
  if (heap == kNoHeap) {
    if (k_ == 0) return;  // Would admit nothing.
    if (free_.empty()) {
      heap = static_cast<uint32_t>(pool_.size());
      pool_.emplace_back(k_);
    } else {
      heap = free_.back();
      free_.pop_back();
    }
    node_lengths_.push_back(path.length);
  }
  pool_[heap].Offer(path);
}

void IntervalSweep::CloseNode(IntervalAnnotations& built) {
  std::sort(node_lengths_.begin(), node_lengths_.end());
  for (uint32_t length : node_lengths_) {
    built.refs.push_back(HeapRef{length, node_heap_[length]});
    node_heap_[length] = kNoHeap;
  }
  node_lengths_.clear();
  built.first.push_back(static_cast<uint32_t>(built.refs.size()));
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
    window_.assign(size_t{gap_} + 2, IntervalAnnotations{});
  } else if (graph.gap() != gap_) {
    return Status::InvalidArgument("graph gap changed mid-sweep");
  }
  const uint32_t i = interval;
  const std::vector<NodeId>& nodes = graph.IntervalNodes(i);
  if (i > 0) {
    // Read the g+1 window from disk (the only annotations ever needed).
    for (uint32_t w = window_begin(); w < i; ++w) {
      cost_.io.page_reads += Slot(w).node_count();
    }
    cost_.io.page_reads += nodes.size();
  }

  // The slot last held interval i - g - 2, whose heaps are back in the
  // pool; its vectors keep their capacity.
  IntervalAnnotations& built = Slot(i);
  built.first.assign(1, 0);
  built.refs.clear();
  auto offer_global = [&](const StablePath& path) {
    if (path.length < lmin_ || path.length > l_) return;
    ++cost_.heap_offers;
    global_.Offer(path);
  };
  for (const NodeId c : nodes) {
    // Paths reach a node's heaps only through a parent edge, so a node
    // without parents gets none.
    for (const ClusterGraphEdge& pe : graph.Parents(c)) {
      const NodeId p = pe.target;
      const uint32_t parent_interval = graph.Interval(p);
      const uint32_t len = i - parent_interval;
      // Bare edge as a path of length len.
      scratch_.nodes.assign({p, c});
      scratch_.weight = pe.weight;
      scratch_.length = len;
      ++cost_.heap_offers;
      OfferToNode(scratch_, i);
      offer_global(scratch_);
      // An edge spanning l or more intervals ends no longer subpath.
      if (len >= l_) continue;
      // Extensions of subpaths ending at p. A path ending at p is at
      // most Interval(p) long, which bounds the loop however large l is.
      // Node ids are assigned in increasing order, so every interval's
      // node list is sorted and p's rank is its annotation's index.
      const IntervalAnnotations& parent = Slot(parent_interval);
      const std::vector<NodeId>& peers = graph.IntervalNodes(parent_interval);
      const size_t rank = static_cast<size_t>(
          std::lower_bound(peers.begin(), peers.end(), p) - peers.begin());
      const uint32_t x_hi = std::min(l_ - len, parent_interval);
      for (uint32_t r = parent.first[rank]; r < parent.first[rank + 1]; ++r) {
        if (parent.refs[r].length > x_hi) break;
        for (const StablePath& pi : pool_[parent.refs[r].heap].paths()) {
          if (theorem1_pruning_ && Theorem1Reducible(pi, graph, lmin_)) {
            continue;  // Extensions dominated by the reduced suffix's.
          }
          scratch_.nodes.assign(pi.nodes.begin(), pi.nodes.end());
          scratch_.nodes.push_back(c);
          scratch_.weight = pi.weight + pe.weight;
          scratch_.length = pi.length + len;
          ++cost_.heap_offers;
          OfferToNode(scratch_, i);
          offer_global(scratch_);
        }
      }
    }
    CloseNode(built);
  }
  // The interval's modelled bytes, summed once: it is final now.
  size_t path_bytes = 0;
  for (const HeapRef& ref : built.refs) {
    path_bytes += pool_[ref.heap].PathBytes();
  }
  built.bytes = nodes.size() * AnnotationBytes(i, 0) + path_bytes;
  // Save the interval's annotations to disk (line 17 of Algorithm 2).
  if (i > 0) cost_.io.page_writes += nodes.size();

  ++next_interval_;
  // Interval i+1 reads [i-g, i]; older annotations are never read again,
  // so their heaps go back to the pool.
  if (i >= gap_ + 1) {
    IntervalAnnotations& old = Slot(i - gap_ - 1);
    for (const HeapRef& ref : old.refs) {
      pool_[ref.heap].Clear();
      free_.push_back(ref.heap);
    }
    old.first.clear();
    old.refs.clear();
    old.bytes = 0;
  }
  return Status::OK();
}

std::vector<size_t> IntervalSweep::WindowAnnotationBytes() const {
  std::vector<size_t> bytes;
  for (uint32_t w = window_begin(); w < next_interval_; ++w) {
    const IntervalAnnotations& a = Slot(w);
    for (size_t rank = 0; rank < a.node_count(); ++rank) {
      size_t path_bytes = 0;
      for (uint32_t r = a.first[rank]; r < a.first[rank + 1]; ++r) {
        path_bytes += pool_[a.refs[r].heap].PathBytes();
      }
      bytes.push_back(AnnotationBytes(w, path_bytes));
    }
  }
  return bytes;
}

size_t IntervalSweep::WindowBytes() const {
  size_t bytes = 0;
  for (uint32_t w = window_begin(); w < next_interval_; ++w) {
    bytes += Slot(w).bytes;
  }
  return bytes;
}

size_t IntervalSweep::FrontierBytes() const {
  size_t bytes = global_.MemoryBytes();
  if (next_interval_ > 0) bytes += Slot(next_interval_ - 1).bytes;
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
    // A window that fits is one chunk, and only one that does not is
    // split annotation by annotation.
    size_t chunks = 1;
    size_t largest = sweep.WindowBytes();
    if (largest > options_.memory_budget_bytes) {
      chunks = 0;
      largest = 0;
      size_t acc = 0;
      for (size_t bytes : sweep.WindowAnnotationBytes()) {
        if (chunks == 0 ||
            (acc + bytes > options_.memory_budget_bytes && acc > 0)) {
          ++chunks;
          acc = 0;
        }
        acc += bytes;
        largest = std::max(largest, acc);
      }
    }
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
