#include "stable/dfs_finder.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "stable/normalized.h"

namespace stabletext {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr uint32_t kNone = UINT32_MAX;

// The node annotation the memory model charges, as Algorithm 3 keeps it
// on disk: a visited flag, a vector of bestpaths heaps and its size. The
// node's maxweight row and each of its heaps, held or not, are charged on
// top.
struct ModelledNodeState {
  bool visited;
  std::vector<TopKHeap<>> bestpaths;
  size_t bytes;
};

// The bestpaths heaps of this thread's queries, kept with their buffers
// from one query to the next.
HeapPool& ThreadPool() {
  thread_local HeapPool pool;
  return pool;
}

// DFS stack frame. entry_* describe the tree edge used to reach the node
// (needed to update the parent's bestpaths when this node retires).
struct Frame {
  NodeId node;            // kInvalidNode encodes the virtual source.
  size_t child_idx = 0;
  double entry_weight = 0;
  uint32_t entry_len = 0;
};

}  // namespace

size_t DfsStableFinder::PooledBytes() { return ThreadPool().RetainedBytes(); }

Result<StableFinderResult> DfsStableFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  ST_ASSIGN_OR_RETURN(const uint32_t l,
                      ResolvePathLength(options_.mode, options_.l, m));
  const bool normalized = options_.mode == FinderMode::kNormalized;
  // H takes paths of length in [lmin, lmax]; node heaps and extensions
  // stop at lmax (the horizon in normalized mode).
  const uint32_t lmin = l;
  const uint32_t lmax = normalized ? m - 1 : l;
  const bool theorem1 = normalized && options_.theorem1_pruning;
  const size_t k = options_.k;
  const size_t n = graph.node_count();

  // The graph keeps children sorted by descending weight (the Section 4.3
  // heuristic) and the walk reads them in place; only the ablation copies
  // them, re-sorted by target id.
  std::vector<std::vector<ClusterGraphEdge>> by_target;
  if (!options_.sort_children_by_weight) {
    by_target.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      by_target[v].assign(graph.Children(v).begin(),
                          graph.Children(v).end());
      std::sort(by_target[v].begin(), by_target[v].end(),
                [](const ClusterGraphEdge& a, const ClusterGraphEdge& b) {
                  return a.target < b.target;
                });
    }
  }
  // The virtual source (kInvalidNode) has a weight-0 edge to every node:
  // connecting it to all nodes guarantees complete exploration (full-path
  // mode restricts the answer through the maxweight feasibility below,
  // not reachability).
  auto degree = [&](NodeId v) -> size_t {
    if (v == kInvalidNode) return n;
    return by_target.empty() ? graph.Children(v).size()
                             : by_target[v].size();
  };
  auto child = [&](NodeId v, size_t idx) {
    if (v == kInvalidNode) {
      return ClusterGraphEdge{static_cast<NodeId>(idx), 0.0};
    }
    return by_target.empty() ? graph.Children(v)[idx] : by_target[v][idx];
  };

  // maxweight(v, x), kl-stable only, since only CanPrune reads it. A
  // length-l path through v of interval i has a prefix of length x in
  // [lo(i), min(l, i)], lo(i) = max(0, l + i - (m-1)): the prefix starts
  // at or after interval 0 and the rest fits before the horizon. Every
  // other entry stays -infinity for the whole query, so v's row keeps
  // only that range, maxweight(v, x) = maxweight[v * row + x - lo(i)]:
  // min(l, m-1-l) + 1 doubles, one for full paths. The cost model still
  // charges the paper's l + 1.
  const size_t row = normalized ? 0 : std::min(l, (m - 1) - l) + 1;
  const size_t modelled_row = normalized ? 0 : size_t{l} + 1;
  auto lo = [&](uint32_t i) { return l + i > m - 1 ? l + i - (m - 1) : 0u; };
  std::vector<double> maxweight(n * row, kNegInf);
  if (!normalized) {
    // A length-l path may *start* at v iff it fits before the horizon.
    for (NodeId v = 0; v < n; ++v) {
      if (lo(graph.Interval(v)) == 0) maxweight[v * row] = 0;
    }
  }
  // The paper's annotation has bestpaths(v, x) for the start lengths x
  // that fit before the horizon.
  auto heap_count = [&](NodeId v) -> size_t {
    return std::min<uint32_t>(lmax, (m - 1) - graph.Interval(v)) + 1;
  };
  // Node annotations, as flat arrays. A bestpaths heap is held only once
  // it has a path: v's heaps are pool[h] for h on the chain from
  // first_heap[v] through pool.Link(h), in length order, taken from the
  // thread's pool. Paths reach v's bestpaths only through a child edge,
  // so a childless node holds none. bytes[v] is the modelled size of v's
  // annotation: every heap the paper's annotation has, empty or not, and
  // the paths held.
  std::vector<uint8_t> visited(n, 0);
  std::vector<uint32_t> first_heap(n, kNone);
  std::vector<size_t> bytes(n);
  // A query that throws leaves its heaps taken; the next query's
  // GiveAll() gives them back with its own.
  HeapPool& pool = ThreadPool();
  // The length of the paths heap h holds; it holds one at least.
  auto length_of = [&](uint32_t h) { return pool[h].paths()[0].length; };
  for (NodeId v = 0; v < n; ++v) {
    bytes[v] = sizeof(ModelledNodeState) + sizeof(std::vector<double>) +
               modelled_row * sizeof(double) +
               heap_count(v) * TopKHeap<>::kEmptyBytes;
  }

  TopKHeap<GlobalOrder> global(k, GlobalOrder{normalized});

  // Memory model of Section 4.3: resident state = the stack, the states of
  // stacked nodes, and H. Everything else is on disk.
  size_t resident_state_bytes = 0;
  auto note_peak = [&](size_t frames) {
    const size_t live = frames * sizeof(Frame) + resident_state_bytes +
                        global.MemoryBytes();
    result.peak_memory_bytes = std::max(result.peak_memory_bytes, live);
  };

  auto offer_global = [&](const StablePath& path) {
    if (path.length < lmin || path.length > lmax) return;
    ++result.heap_offers;
    global.Offer(path);
  };
  // A place on v's chain of heaps: heap h, after heap prev (kNone for
  // the chain's start). Offers to v come in nondecreasing length, so each
  // resumes the walk where the last one left it.
  struct Cursor {
    NodeId v;
    uint32_t prev;
    uint32_t h;
  };
  // Offers a path starting at stacked node cursor.v to its heap for the
  // path's length (taking the heap when it admits its first path) and to
  // H when it has a sought length.
  auto offer = [&](Cursor& cursor, const StablePath& path) {
    ++result.heap_offers;
    const NodeId v = cursor.v;
    if (path.length < heap_count(v) && k > 0) {
      uint32_t& prev = cursor.prev;
      uint32_t& h = cursor.h;
      while (h != kNone && length_of(h) < path.length) {
        prev = h;
        h = pool.Link(h);
      }
      if (h == kNone || length_of(h) != path.length) {
        const uint32_t fresh = pool.Take(k);
        pool.Link(fresh) = h;
        (prev == kNone ? first_heap[v] : pool.Link(prev)) = fresh;
        h = fresh;
      }
      // v is stacked, so its annotation is resident.
      TopKHeap<>& heap = pool[h];
      bytes[v] -= heap.PathBytes();
      resident_state_bytes -= heap.PathBytes();
      heap.Offer(path);
      bytes[v] += heap.PathBytes();
      resident_state_bytes += heap.PathBytes();
    }
    offer_global(path);
  };

  // Folds a finished/visited child c2 into parent c1's bestpaths through
  // edge e (c1 -> c2). Covers the bare edge and all extendable suffixes.
  StablePath scratch;  // The candidate being offered.
  auto update_bestpaths = [&](NodeId c1, const ClusterGraphEdge& e) {
    const NodeId c2 = e.target;
    const uint32_t len = graph.EdgeLength(c1, c2);
    scratch.nodes.assign({c1, c2});
    scratch.weight = e.weight;
    scratch.length = len;
    Cursor cursor{c1, kNone, first_heap[c1]};
    offer(cursor, scratch);
    for (uint32_t h = first_heap[c2];
         h != kNone && length_of(h) + len <= lmax; h = pool.Link(h)) {
      for (const StablePath& pi : pool[h].paths()) {
        scratch.nodes.clear();
        scratch.nodes.push_back(c1);
        scratch.nodes.insert(scratch.nodes.end(), pi.nodes.begin(),
                             pi.nodes.end());
        scratch.weight = e.weight + pi.weight;
        scratch.length = len + pi.length;
        // Paths grow leftwards here, so Theorem 1 cuts the right end.
        if (theorem1 && Theorem1Reducible(scratch, graph, lmin,
                                          Theorem1Cut::kSuffix)) {
          // Still ranked itself; only kept out of the node heap, so it is
          // never extended further.
          offer_global(scratch);
          continue;
        }
        offer(cursor, scratch);
      }
    }
  };

  auto can_prune = [&](NodeId c2) {
    if (!global.full()) return false;
    const double min_k = global.MinWeight();
    const uint32_t i = graph.Interval(c2);
    // Feasible prefix lengths x for a length-l path passing through c2
    // (see maxweight). x == l (path ends here) needs no subtree and is
    // excluded, as in CanPrune.
    const uint32_t x_lo = lo(i);
    const uint32_t x_hi = std::min<uint32_t>(l - 1, i);
    const double* mw = &maxweight[c2 * row];
    for (uint32_t x = x_lo; x <= x_hi; ++x) {
      if (mw[x - x_lo] + static_cast<double>(l - x) >= min_k) {
        return false;
      }
    }
    return true;  // Also prunes nodes with no feasible role (empty range).
  };

  std::vector<Frame> stack;
  stack.push_back(Frame{kInvalidNode, 0, 0, 0});  // Virtual source.
  note_peak(stack.size());

  while (!stack.empty()) {
    Frame& top = stack.back();
    const bool at_source = (top.node == kInvalidNode);
    if (top.child_idx < degree(top.node)) {
      const ClusterGraphEdge e = child(top.node, top.child_idx++);
      const NodeId c2 = e.target;
      // Line 8: read the child's annotations from disk (random I/O).
      ++result.io.page_reads;
      ++result.io.random_seeks;

      if (visited[c2]) {
        if (!at_source) update_bestpaths(top.node, e);
        continue;
      }
      if (at_source && degree(c2) == 0 && graph.Parents(c2).empty()) {
        // An edge-less node: it has nothing to walk and nothing reaches it
        // later, so it is charged as pushed and at once retired (or
        // pruned) without either; its visited flag is never read again.
        ++result.nodes_pushed;
        resident_state_bytes += bytes[c2];
        note_peak(stack.size() + 1);
        resident_state_bytes -= bytes[c2];
        if (options_.enable_pruning && !normalized && can_prune(c2)) {
          ++result.prunes;
        }
        ++result.io.page_writes;
        ++result.io.random_seeks;
        continue;
      }
      // Push c2.
      visited[c2] = 1;
      ++result.nodes_pushed;
      const uint32_t len = at_source ? 0 : graph.EdgeLength(top.node, c2);
      // Update maxweight(c2, .) from the parent's maxweight (line 16).
      if (!at_source && !normalized) {
        // pmw[j] is maxweight(parent, p_lo + j), cmw[j] maxweight(c2,
        // c_lo + j); p_lo + len >= c_lo.
        const uint32_t p_lo = lo(graph.Interval(top.node));
        const uint32_t shift = p_lo + len - lo(graph.Interval(c2));
        const double* pmw = &maxweight[top.node * row];
        double* cmw = &maxweight[c2 * row];
        for (uint32_t j = 0; j < row && p_lo + j + len <= l; ++j) {
          if (pmw[j] == kNegInf) continue;
          cmw[j + shift] = std::max(cmw[j + shift], pmw[j] + e.weight);
        }
      }
      stack.push_back(Frame{c2, 0, e.weight, len});
      resident_state_bytes += bytes[c2];
      note_peak(stack.size());

      if (options_.enable_pruning && !normalized && can_prune(c2)) {
        ++result.prunes;
        // Unmark the visited flag of every stacked node including c2
        // (their subtrees are no longer guaranteed fully considered).
        for (const Frame& f : stack) {
          if (f.node != kInvalidNode) visited[f.node] = 0;
        }
        stack.pop_back();
        resident_state_bytes -= bytes[c2];
        // Save c2 back to disk (line 20).
        ++result.io.page_writes;
        ++result.io.random_seeks;
        // The bare edge (and any stale suffixes) still contribute.
        if (!at_source) {
          Frame& parent = stack.back();
          update_bestpaths(parent.node, e);
        }
      }
      continue;
    }

    // Children exhausted: retire the node (lines 24-29).
    const Frame finished = stack.back();
    stack.pop_back();
    if (finished.node != kInvalidNode) {
      resident_state_bytes -= bytes[finished.node];
      ++result.io.page_writes;
      ++result.io.random_seeks;
      if (!stack.empty() && stack.back().node != kInvalidNode) {
        update_bestpaths(
            stack.back().node,
            ClusterGraphEdge{finished.node, finished.entry_weight});
      }
    }
  }

  pool.GiveAll(kMaxPooledBytes);
  result.paths = global.paths();
  return result;
}

}  // namespace stabletext
