#include "cluster/cluster_extractor.h"

#include <algorithm>

namespace stabletext {

namespace {

Cluster MakeCluster(const std::vector<WeightedEdge>& edges) {
  Cluster c;
  c.edges = edges;
  c.keywords.reserve(edges.size() * 2);
  for (const WeightedEdge& e : edges) {
    c.keywords.push_back(e.u);
    c.keywords.push_back(e.v);
  }
  NormalizeCluster(&c);
  // The dedup leaves up to half the reserve unused; clusters live as long
  // as their interval, so keep them exact.
  c.keywords.shrink_to_fit();
  return c;
}

std::vector<Cluster> ExtractConnected(const KeywordGraph& graph) {
  const size_t n = graph.vertex_count();
  std::vector<bool> visited(n, false);
  std::vector<Cluster> out;
  std::vector<KeywordId> stack;
  for (size_t s = 0; s < n; ++s) {
    const KeywordId sv = static_cast<KeywordId>(s);
    if (visited[s] || graph.Degree(sv) == 0) continue;
    std::vector<WeightedEdge> edges;
    visited[s] = true;
    stack.push_back(sv);
    while (!stack.empty()) {
      const KeywordId u = stack.back();
      stack.pop_back();
      for (size_t i = 0; i < graph.Degree(u); ++i) {
        const KeywordId w = graph.Neighbors(u)[i];
        if (u < w) {
          edges.push_back(WeightedEdge{u, w, graph.Weights(u)[i]});
        }
        if (!visited[w]) {
          visited[w] = true;
          stack.push_back(w);
        }
      }
    }
    out.push_back(MakeCluster(edges));
  }
  return out;
}

}  // namespace

Result<std::vector<Cluster>> ClusterExtractor::Extract(
    const KeywordGraph& graph, uint32_t /*interval*/,
    BiconnectedStats* stats) {
  std::vector<Cluster> out;
  if (options_.mode == ClusterMode::kConnectedComponent) {
    out = ExtractConnected(graph);
  } else {
    BiconnectedFinder finder(options_.biconnected);
    Status s = finder.Run(
        graph,
        [&](const std::vector<WeightedEdge>& edges) {
          out.push_back(MakeCluster(edges));
        },
        stats);
    if (!s.ok()) return s;
  }
  if (options_.min_keywords > 2) {
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Cluster& c) {
                               return c.keywords.size() <
                                      options_.min_keywords;
                             }),
              out.end());
  }
  return out;
}

}  // namespace stabletext
