#include "stable/normalized_dfs_finder.h"

#include <algorithm>

namespace stabletext {

namespace {

struct Frame {
  NodeId node;  // kInvalidNode encodes the virtual source.
  size_t child_idx = 0;
  size_t charged_bytes = 0;  // Resident bytes charged for this node.
};

}  // namespace

Result<StableFinderResult> NormalizedDfsFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  const uint32_t lmin = options_.lmin;
  if (lmin < 1 || lmin > m - 1) {
    return Status::InvalidArgument("lmin out of range");
  }
  const size_t k = options_.k;
  const size_t n = graph.node_count();

  // bestpaths[v][x]: top-k-by-weight paths of length x starting at v.
  std::vector<std::vector<TopKHeap<>>> bestpaths(n);
  std::vector<bool> visited(n, false);
  for (NodeId v = 0; v < n; ++v) {
    const uint32_t horizon = (m - 1) - graph.Interval(v);
    bestpaths[v].assign(horizon + 1, TopKHeap<>(k));
  }
  auto node_bytes = [&](NodeId v) {
    size_t bytes = 0;
    for (const auto& h : bestpaths[v]) bytes += h.MemoryBytes();
    return bytes;
  };

  TopKHeap<PathMoreStable> global(k);

  // Folds child c2 (already fully explored) into c1's suffix heaps via the
  // edge (c1, c2) and offers every generated path of length >= lmin.
  auto update = [&](NodeId c1, const ClusterGraphEdge& e) {
    const NodeId c2 = e.target;
    const uint32_t len = graph.EdgeLength(c1, c2);
    auto offer = [&](const StablePath& p) {
      ++result.heap_offers;
      if (p.length < bestpaths[c1].size()) {
        bestpaths[c1][p.length].Offer(p);
      }
      if (p.length >= lmin) {
        ++result.heap_offers;
        global.Offer(p);
      }
    };
    StablePath bare;
    bare.nodes = {c1, c2};
    bare.weight = e.weight;
    bare.length = len;
    offer(bare);
    for (uint32_t x = 1; x < bestpaths[c2].size(); ++x) {
      for (const StablePath& pi : bestpaths[c2][x].paths()) {
        if (options_.theorem1_pruning) {
          // In suffix orientation Theorem 1 prunes from the *other* end;
          // reuse the prefix test on the would-be extended path instead.
          StablePath probe;
          probe.nodes.reserve(pi.nodes.size() + 1);
          probe.nodes.push_back(c1);
          probe.nodes.insert(probe.nodes.end(), pi.nodes.begin(),
                             pi.nodes.end());
          probe.weight = e.weight + pi.weight;
          probe.length = len + pi.length;
          if (Theorem1Reducible(probe, graph, lmin)) {
            // Still rank the path itself; only suppress keeping it for
            // further extension.
            if (probe.length >= lmin) {
              ++result.heap_offers;
              global.Offer(probe);
            }
            continue;
          }
          offer(probe);
          continue;
        }
        StablePath extended;
        extended.nodes.reserve(pi.nodes.size() + 1);
        extended.nodes.push_back(c1);
        extended.nodes.insert(extended.nodes.end(), pi.nodes.begin(),
                              pi.nodes.end());
        extended.weight = e.weight + pi.weight;
        extended.length = len + pi.length;
        offer(extended);
      }
    }
  };

  size_t resident = 0;
  auto note_peak = [&](size_t frames) {
    result.peak_memory_bytes =
        std::max(result.peak_memory_bytes,
                 frames * sizeof(Frame) + resident + global.MemoryBytes());
  };

  std::vector<Frame> stack;
  stack.push_back(Frame{kInvalidNode, 0});
  note_peak(1);

  while (!stack.empty()) {
    Frame& top = stack.back();
    const bool at_source = (top.node == kInvalidNode);
    const size_t degree =
        at_source ? n : graph.Children(top.node).size();
    if (top.child_idx < degree) {
      const size_t idx = top.child_idx++;
      const ClusterGraphEdge e =
          at_source ? ClusterGraphEdge{static_cast<NodeId>(idx), 0.0}
                    : graph.Children(top.node)[idx];
      const NodeId c2 = e.target;
      ++result.io.page_reads;
      ++result.io.random_seeks;
      if (visited[c2]) {
        if (!at_source) update(top.node, e);
        continue;
      }
      visited[c2] = true;
      ++result.nodes_pushed;
      const size_t charged = node_bytes(c2);
      stack.push_back(Frame{c2, 0, charged});
      resident += charged;
      note_peak(stack.size());
      continue;
    }
    const Frame finished = stack.back();
    stack.pop_back();
    if (finished.node == kInvalidNode) continue;
    // Account growth of this node's heaps during its tenure before
    // releasing it.
    resident += node_bytes(finished.node) - finished.charged_bytes;
    note_peak(stack.size() + 1);
    resident -= node_bytes(finished.node);
    ++result.io.page_writes;
    ++result.io.random_seeks;
    if (!stack.empty() && stack.back().node != kInvalidNode) {
      const NodeId parent = stack.back().node;
      update(parent, ClusterGraphEdge{
                         finished.node,
                         graph.EdgeWeight(parent, finished.node)});
    }
  }

  result.paths = global.paths();
  return result;
}

}  // namespace stabletext
