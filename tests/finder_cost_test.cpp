// Pins the answers and the paper's cost model of Algorithms 2 and 3 (BFS
// and DFS finders, both problems) on fixed graphs with gap 0-3, some of
// them sparse: most of their nodes have no edge. A change to how the
// finders store their per-node state must leave every counter and every
// byte of the modelled peak memory as it is. The byte constants assume a
// 64-bit libstdc++ layout (sizeof(StablePath) == 40,
// sizeof(TopKHeap<>) == 40).
//
// On a mismatch the test prints the actual row in the table's own syntax.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "stable/bfs_finder.h"
#include "stable/dfs_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

// MakeRandomGraph(m, n, d, g, seed) with `isolated` edge-less nodes placed
// before each of its nodes, in every interval: a fraction
// isolated / (isolated + 1) of the nodes has no parent and no child.
ClusterGraph MakeSparseGraph(uint32_t m, uint32_t n, uint32_t d, uint32_t g,
                             uint64_t seed, uint32_t isolated) {
  const ClusterGraph dense = MakeRandomGraph(m, n, d, g, seed);
  ClusterGraph graph(m, g);
  std::vector<NodeId> id_of(dense.node_count());
  for (uint32_t i = 0; i < m; ++i) {
    for (NodeId v : dense.IntervalNodes(i)) {
      for (uint32_t x = 0; x < isolated; ++x) graph.AddNode(i);
      id_of[v] = graph.AddNode(i);
    }
  }
  for (NodeId v = 0; v < dense.node_count(); ++v) {
    for (const ClusterGraphEdge& e : dense.Children(v)) {
      EXPECT_TRUE(graph.AddEdge(id_of[v], id_of[e.target], e.weight).ok());
    }
  }
  graph.SortTouched();
  return graph.SealedCopy();
}

// FNV-1a over every path's nodes, length and weight bits, in rank order.
uint64_t Fingerprint(const std::vector<StablePath>& paths) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const StablePath& p : paths) {
    mix(p.nodes.size());
    for (NodeId v : p.nodes) mix(v);
    mix(p.length);
    uint64_t bits;
    std::memcpy(&bits, &p.weight, sizeof(bits));
    mix(bits);
  }
  return h;
}

struct GraphSpec {
  uint32_t m, n, d, g;
  uint64_t seed;
  uint32_t isolated;  // Edge-less nodes per MakeRandomGraph node.
};

enum class Algo { kBfs, kDfs };

struct CostCase {
  const char* name;
  GraphSpec graph;
  Algo algo;
  FinderMode mode;
  size_t k;
  uint32_t l;
  bool theorem1;
  bool dfs_pruning;
  bool dfs_sort_children;
  size_t memory_budget_bytes;
  // Expected answer and cost.
  uint64_t fingerprint;
  size_t paths;
  uint64_t page_reads, page_writes, random_seeks;
  uint64_t heap_offers, nodes_pushed, prunes;
  size_t passes;
  size_t peak_memory_bytes;
};

constexpr size_t kUnlimited = MemoryTracker::kUnlimited;
constexpr FinderMode kKl = FinderMode::kKlStable;
constexpr FinderMode kNorm = FinderMode::kNormalized;

// Columns: name, graph {m, n, d, g, seed, isolated}, algo, mode, k, l,
// theorem1, dfs pruning, dfs sorted children, memory budget |
// fingerprint, paths, page reads, page writes, random seeks, heap offers,
// nodes pushed, prunes, passes, peak memory bytes.
const CostCase kCases[] = {
    {"bfs_kl_g0", {6, 8, 2, 0, 11, 0}, Algo::kBfs, kKl, 3, 2,
     false, true, true, kUnlimited,
     13917724476568963055ull, 3, 80, 40, 0, 510, 0, 0, 1, 6916},
    {"bfs_kl_g1", {6, 6, 2, 1, 12, 0}, Algo::kBfs, kKl, 3, 3,
     false, true, true, kUnlimited,
     17843547233142859379ull, 3, 84, 30, 0, 755, 0, 0, 1, 11196},
    {"bfs_kl_k1_g2", {7, 5, 1, 2, 13, 0}, Algo::kBfs, kKl, 1, 4,
     false, true, true, kUnlimited,
     17275355509812199194ull, 1, 105, 30, 0, 305, 0, 0, 1, 7848},
    {"bfs_full_g0", {6, 8, 2, 0, 11, 0}, Algo::kBfs, kKl, 4, 0,
     false, true, true, kUnlimited,
     12646776380678866356ull, 4, 80, 40, 0, 475, 0, 0, 1, 5288},
    {"bfs_full_g2", {7, 5, 1, 2, 13, 0}, Algo::kBfs, kKl, 3, 0,
     false, true, true, kUnlimited,
     10204447647404675709ull, 3, 105, 30, 0, 375, 0, 0, 1, 4756},
    {"bfs_norm_g0", {6, 8, 2, 0, 11, 0}, Algo::kBfs, kNorm, 3, 2,
     false, true, true, kUnlimited,
     13917724476568963055ull, 3, 80, 40, 0, 1194, 0, 0, 1, 15328},
    {"bfs_norm_t1_g1", {6, 6, 2, 1, 12, 0}, Algo::kBfs, kNorm, 3, 2,
     true, true, true, kUnlimited,
     8638928480447691264ull, 3, 84, 30, 0, 1398, 0, 0, 1, 15164},
    {"bfs_norm_t1_g3", {8, 4, 1, 3, 14, 0}, Algo::kBfs, kNorm, 2, 3,
     true, true, true, kUnlimited,
     17026642391347677556ull, 2, 116, 28, 0, 1228, 0, 0, 1, 15724},
    {"bfs_kl_budget_g1", {6, 6, 2, 1, 12, 0}, Algo::kBfs, kKl, 3, 3,
     false, true, true, 1024,
     17843547233142859379ull, 3, 222, 30, 0, 755, 0, 0, 11, 4912},
    {"bfs_kl_sparse_g0", {6, 6, 1, 0, 21, 3}, Algo::kBfs, kKl, 3, 2,
     false, true, true, kUnlimited,
     17885319627860482237ull, 3, 240, 120, 0, 174, 0, 0, 1, 9416},
    {"bfs_full_sparse_g3", {8, 4, 1, 3, 22, 4}, Algo::kBfs, kKl, 3, 0,
     false, true, true, kUnlimited,
     17729241469842818126ull, 3, 580, 140, 0, 447, 0, 0, 1, 10336},
    {"bfs_norm_sparse_g2", {7, 5, 1, 2, 23, 3}, Algo::kBfs, kNorm, 3, 2,
     false, true, true, kUnlimited,
     8489966978945615328ull, 3, 420, 120, 0, 1176, 0, 0, 1, 32204},
    {"bfs_norm_t1_sparse_g1", {6, 6, 2, 1, 24, 2}, Algo::kBfs, kNorm, 3, 1,
     true, true, true, kUnlimited,
     13668765157199332378ull, 3, 252, 90, 0, 1252, 0, 0, 1, 23028},
    {"dfs_kl_g0", {6, 8, 2, 0, 11, 0}, Algo::kDfs, kKl, 3, 2,
     false, true, true, kUnlimited,
     13917724476568963055ull, 3, 1292, 1020, 2312, 5512, 1020, 529, 1, 2844},
    {"dfs_kl_nopruning_g0", {6, 8, 2, 0, 11, 0}, Algo::kDfs, kKl, 3, 2,
     false, false, true, kUnlimited,
     13917724476568963055ull, 3, 152, 48, 200, 514, 48, 0, 1, 1992},
    {"dfs_kl_byid_g1", {6, 6, 2, 1, 12, 0}, Algo::kDfs, kKl, 3, 3,
     false, true, false, kUnlimited,
     17843547233142859379ull, 3, 1873, 1143, 3016, 6749, 1143, 715, 1, 3408},
    {"dfs_full_g2", {7, 5, 1, 2, 13, 0}, Algo::kDfs, kKl, 3, 0,
     false, true, true, kUnlimited,
     10204447647404675709ull, 3, 151, 45, 196, 729, 45, 10, 1, 3516},
    {"dfs_norm_g1", {6, 6, 2, 1, 12, 0}, Algo::kDfs, kNorm, 3, 2,
     false, true, true, kUnlimited,
     8638928480447691264ull, 3, 173, 36, 209, 1622, 36, 0, 1, 2864},
    {"dfs_norm_t1_g3", {8, 4, 1, 3, 14, 0}, Algo::kDfs, kNorm, 2, 3,
     true, true, true, kUnlimited,
     17026642391347677556ull, 2, 169, 32, 201, 1263, 32, 0, 1, 2816},
    {"dfs_kl_sparse_g0", {6, 6, 1, 0, 21, 3}, Algo::kDfs, kKl, 3, 2,
     false, true, true, kUnlimited,
     17885319627860482237ull, 3, 326, 300, 626, 674, 300, 124, 1, 2452},
    {"dfs_kl_nopruning_sparse_g2", {7, 5, 1, 2, 23, 3}, Algo::kDfs, kKl, 2, 3,
     false, false, true, kUnlimited,
     12149365527048211483ull, 2, 247, 140, 387, 372, 140, 0, 1, 2604},
    {"dfs_kl_byid_sparse_g3", {8, 4, 1, 3, 22, 4}, Algo::kDfs, kKl, 3, 0,
     false, true, false, kUnlimited,
     17729241469842818126ull, 3, 281, 160, 441, 902, 160, 113, 1, 3328},
    {"dfs_norm_sparse_g2", {7, 5, 1, 2, 23, 3}, Algo::kDfs, kNorm, 3, 2,
     false, true, true, kUnlimited,
     8489966978945615328ull, 3, 247, 140, 387, 1156, 140, 0, 1, 3104},
    {"dfs_norm_t1_sparse_g1", {6, 6, 2, 1, 24, 2}, Algo::kDfs, kNorm, 3, 1,
     true, true, true, kUnlimited,
     13668765157199332378ull, 3, 247, 108, 355, 1362, 108, 0, 1, 2344},
};

std::string Row(const CostCase& c, const StableFinderResult& r) {
  auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  auto n = [](uint64_t v) { return std::to_string(v); };
  const GraphSpec& g = c.graph;
  return "{\"" + std::string(c.name) + "\", {" + n(g.m) + ", " + n(g.n) +
         ", " + n(g.d) + ", " + n(g.g) + ", " + n(g.seed) + ", " +
         n(g.isolated) + "}, " +
         (c.algo == Algo::kBfs ? "Algo::kBfs" : "Algo::kDfs") + ", " +
         (c.mode == kKl ? "kKl" : "kNorm") + ", " + n(c.k) + ", " +
         n(c.l) + ",\n     " + b(c.theorem1) + ", " + b(c.dfs_pruning) +
         ", " + b(c.dfs_sort_children) + ", " +
         (c.memory_budget_bytes == kUnlimited ? "kUnlimited"
                                              : n(c.memory_budget_bytes)) +
         ",\n     " + n(Fingerprint(r.paths)) + "ull, " + n(r.paths.size()) +
         ", " + n(r.io.page_reads) + ", " + n(r.io.page_writes) + ", " +
         n(r.io.random_seeks) + ", " + n(r.heap_offers) + ", " +
         n(r.nodes_pushed) + ", " + n(r.prunes) + ", " + n(r.passes) + ", " +
         n(r.peak_memory_bytes) + "},";
}

Result<StableFinderResult> RunCase(const CostCase& c,
                                   const ClusterGraph& graph) {
  if (c.algo == Algo::kBfs) {
    BfsFinderOptions opt;
    opt.mode = c.mode;
    opt.k = c.k;
    opt.l = c.l;
    opt.theorem1_pruning = c.theorem1;
    opt.memory_budget_bytes = c.memory_budget_bytes;
    return BfsStableFinder(opt).Find(graph);
  }
  DfsFinderOptions opt;
  opt.mode = c.mode;
  opt.k = c.k;
  opt.l = c.l;
  opt.theorem1_pruning = c.theorem1;
  opt.enable_pruning = c.dfs_pruning;
  opt.sort_children_by_weight = c.dfs_sort_children;
  return DfsStableFinder(opt).Find(graph);
}

TEST(FinderCostTest, AnswersAndCostModelArePinned) {
  for (const CostCase& c : kCases) {
    const GraphSpec& g = c.graph;
    const ClusterGraph graph =
        MakeSparseGraph(g.m, g.n, g.d, g.g, g.seed, g.isolated);
    const auto found = RunCase(c, graph);
    ASSERT_TRUE(found.ok()) << c.name << ": " << found.status().ToString();
    const StableFinderResult& r = found.value();
    const bool pinned =
        Fingerprint(r.paths) == c.fingerprint && r.paths.size() == c.paths &&
        r.io.page_reads == c.page_reads &&
        r.io.page_writes == c.page_writes &&
        r.io.random_seeks == c.random_seeks &&
        r.heap_offers == c.heap_offers && r.nodes_pushed == c.nodes_pushed &&
        r.prunes == c.prunes && r.passes == c.passes &&
        r.peak_memory_bytes == c.peak_memory_bytes;
    EXPECT_TRUE(pinned) << c.name << " differs; actual row:\n    "
                        << Row(c, r);
  }
}

}  // namespace
}  // namespace stabletext
