#include "stable/ta_finder.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace stabletext {

namespace {

struct ListEdge {
  NodeId from;
  NodeId to;
  double weight;
};

// A partial path with its aggregate weight (nodes in time order).
struct Partial {
  std::vector<NodeId> nodes;
  double weight;
};

}  // namespace

Result<StableFinderResult> TaStableFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  if (graph.gap() != 0) {
    return Status::NotSupported(
        "the TA adaptation is implemented for g = 0 (the paper's Table 3 "
        "configuration); gaps make the probe space combinatorial");
  }
  const size_t k = options_.k;
  const uint32_t l = m - 1;

  // One sorted edge list per pair of consecutive intervals.
  std::vector<std::vector<ListEdge>> lists(m - 1);
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    const uint32_t i = graph.Interval(v);
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      lists[i].push_back(ListEdge{v, e.target, e.weight});
    }
  }
  for (auto& list : lists) {
    std::sort(list.begin(), list.end(),
              [](const ListEdge& a, const ListEdge& b) {
                if (a.weight != b.weight) return a.weight > b.weight;
                if (a.from != b.from) return a.from < b.from;
                return a.to < b.to;
              });
    // Building the sorted lists costs one sequential pass.
    result.io.page_reads += list.size();
  }

  TopKHeap<> global(k);
  // startwts / endwts: aggregate weight of the heaviest full suffix /
  // prefix at a node, memoized after the first probe (Section 4.4's I/O
  // optimization).
  std::unordered_map<NodeId, double> startwts;  // v .. t_{m-1}
  std::unordered_map<NodeId, double> endwts;    // t_0 .. v

  uint64_t probes = 0;
  bool budget_exceeded = false;
  auto charge_probe = [&] {
    ++probes;
    ++result.random_probes;
    ++result.io.page_reads;
    ++result.io.random_seeks;
    if (options_.max_probes != 0 && probes > options_.max_probes) {
      budget_exceeded = true;
    }
  };

  // Enumerates all full prefixes ending at v (paths t_0 .. v). Each
  // adjacency expansion is one random probe.
  auto enumerate_prefixes = [&](NodeId v) {
    std::vector<Partial> done;
    std::vector<Partial> frontier;
    frontier.push_back(Partial{{v}, 0});
    while (!frontier.empty() && !budget_exceeded) {
      Partial cur = std::move(frontier.back());
      frontier.pop_back();
      const NodeId head = cur.nodes.front();
      if (graph.Interval(head) == 0) {
        done.push_back(std::move(cur));
        continue;
      }
      charge_probe();
      for (const ClusterGraphEdge& pe : graph.Parents(head)) {
        Partial ext;
        ext.nodes.reserve(cur.nodes.size() + 1);
        ext.nodes.push_back(pe.target);
        ext.nodes.insert(ext.nodes.end(), cur.nodes.begin(),
                         cur.nodes.end());
        ext.weight = cur.weight + pe.weight;
        frontier.push_back(std::move(ext));
      }
    }
    return done;
  };

  // Enumerates all full suffixes starting at v (paths v .. t_{m-1}).
  auto enumerate_suffixes = [&](NodeId v) {
    std::vector<Partial> done;
    std::vector<Partial> frontier;
    frontier.push_back(Partial{{v}, 0});
    while (!frontier.empty() && !budget_exceeded) {
      Partial cur = std::move(frontier.back());
      frontier.pop_back();
      const NodeId tail = cur.nodes.back();
      if (graph.Interval(tail) == m - 1) {
        done.push_back(std::move(cur));
        continue;
      }
      charge_probe();
      for (const ClusterGraphEdge& ce : graph.Children(tail)) {
        Partial ext = cur;
        ext.nodes.push_back(ce.target);
        ext.weight += ce.weight;
        frontier.push_back(std::move(ext));
      }
    }
    return done;
  };

  std::vector<size_t> pos(lists.size(), 0);
  bool exhausted = false;

  while (!exhausted && !budget_exceeded) {
    bool any_list_done = false;
    for (size_t r = 0; r < lists.size() && !budget_exceeded; ++r) {
      if (pos[r] >= lists[r].size()) {
        // All edges of this list seen: every full path contains one edge
        // per list, so every path has been assembled already.
        any_list_done = true;
        continue;
      }
      const ListEdge e = lists[r][pos[r]++];
      ++result.edges_scanned;
      if (pos[r] >= lists[r].size()) any_list_done = true;

      // Upper-bound pruning from the memoized tables.
      if (options_.use_bound_tables && global.full()) {
        auto it_end = endwts.find(e.from);
        auto it_start = startwts.find(e.to);
        if (it_end != endwts.end() && it_start != startwts.end() &&
            it_end->second + e.weight + it_start->second <
                global.MinWeight()) {
          continue;
        }
      }

      std::vector<Partial> prefixes = enumerate_prefixes(e.from);
      std::vector<Partial> suffixes = enumerate_suffixes(e.to);
      if (budget_exceeded) break;
      double best_prefix = -std::numeric_limits<double>::infinity();
      double best_suffix = -std::numeric_limits<double>::infinity();
      for (const Partial& p : prefixes) {
        best_prefix = std::max(best_prefix, p.weight);
      }
      for (const Partial& s : suffixes) {
        best_suffix = std::max(best_suffix, s.weight);
      }
      if (options_.use_bound_tables) {
        if (!prefixes.empty()) endwts[e.from] = best_prefix;
        if (!suffixes.empty()) startwts[e.to] = best_suffix;
      }
      for (const Partial& p : prefixes) {
        for (const Partial& s : suffixes) {
          StablePath path;
          path.nodes.reserve(p.nodes.size() + s.nodes.size());
          path.nodes = p.nodes;
          path.nodes.insert(path.nodes.end(), s.nodes.begin(),
                            s.nodes.end());
          path.weight = p.weight + e.weight + s.weight;
          path.length = l;
          ++result.heap_offers;
          global.Offer(path);
        }
      }

      // Stopping rule: the virtual tuple is the best conceivable path made
      // of one unseen edge per list; once the k-th best real path is at
      // least as heavy, no unseen path can displace it.
      if (global.full()) {
        double virtual_score = 0;
        bool all_lists_alive = true;
        for (size_t r2 = 0; r2 < lists.size(); ++r2) {
          if (pos[r2] >= lists[r2].size()) {
            all_lists_alive = false;
            break;
          }
          virtual_score += lists[r2][pos[r2]].weight;
        }
        // Strictly greater: an unseen path could tie the k-th weight and
        // still win on the deterministic tie-break order, so ties are not
        // sufficient to stop.
        if (!all_lists_alive || global.MinWeight() > virtual_score) {
          exhausted = true;
          break;
        }
      }
    }
    if (any_list_done) exhausted = true;
  }

  if (budget_exceeded) {
    return Status::ResourceExhausted("TA probe budget exceeded");
  }
  result.paths = global.paths();
  return result;
}

}  // namespace stabletext
