// Golden answers and cost counters of the BFS and DFS finders over the
// full grid of their query knobs: kl-stable and normalized, Theorem 1
// pruning on and off, a finite and an unlimited memory budget, gap 0 and
// gap 1, k = 1 and k = 64. The graphs are generated and sparse (two of
// every three nodes have no edge), like the engine's.
//
// The table was recorded from the finders that kept one heap object per
// node and path length, before their state became sparse. Storage is an
// implementation choice; every path, every counter and every byte of the
// modelled peak memory is not, so a kernel change must reproduce each row.
// The byte counts assume a 64-bit libstdc++ layout.
//
// On a mismatch the test prints the actual row in the table's own syntax.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "gen/cluster_graph_generator.h"
#include "stable/bfs_finder.h"
#include "stable/dfs_finder.h"

namespace stabletext {
namespace {

constexpr size_t kBudgetBytes = 2048;  // The finite memory budget.

ClusterGraph GoldenGraph(uint32_t gap) {
  ClusterGraphGenOptions opt;
  opt.m = gap == 0 ? 16 : 14;
  opt.n = 6;
  opt.d = 1;
  opt.g = gap;
  opt.seed = 51 + gap;
  opt.weight_quantum = 1024;  // Exact sums: no order dependence.
  opt.isolated = 2;
  return ClusterGraphGenerator::Generate(opt);
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

enum class Algo { kBfs, kDfs };

constexpr Algo kBfs = Algo::kBfs;
constexpr Algo kDfs = Algo::kDfs;
constexpr FinderMode kKl = FinderMode::kKlStable;
constexpr FinderMode kNorm = FinderMode::kNormalized;

struct GoldenRow {
  // The cell. kl-stable seeks l = 3; normalized seeks lmin = 2.
  Algo algo;
  FinderMode mode;
  bool theorem1;
  bool budget;  // kBudgetBytes, else unlimited.
  uint32_t gap;
  size_t k;
  // The golden answer and cost.
  uint64_t fingerprint;
  size_t paths;
  uint64_t page_reads, page_writes, random_seeks;
  uint64_t heap_offers, nodes_pushed, prunes;
  size_t passes;
  size_t peak_memory_bytes;
};

// Columns: algo, mode, theorem1, finite budget, gap, k | fingerprint,
// paths, page reads, page writes, random seeks, heap offers, nodes
// pushed, prunes, passes, peak memory bytes.
const GoldenRow kGolden[] = {
    {kBfs, kKl, false, false, 0, 1,
     4212529872064864397ull, 1, 540, 270, 0, 405, 0, 0, 1, 8480},
    {kBfs, kKl, false, false, 0, 64,
     9263667932167791858ull, 64, 540, 270, 0, 870, 0, 0, 1, 16116},
    {kBfs, kKl, false, false, 1, 1,
     8053877397278323294ull, 1, 684, 234, 0, 683, 0, 0, 1, 12660},
    {kBfs, kKl, false, false, 1, 64,
     18081811100210947410ull, 64, 684, 234, 0, 1474, 0, 0, 1, 27552},
    {kBfs, kKl, false, true, 0, 1,
     4212529872064864397ull, 1, 918, 270, 0, 405, 0, 0, 3, 6356},
    {kBfs, kKl, false, true, 0, 64,
     9263667932167791858ull, 64, 1134, 270, 0, 870, 0, 0, 4, 11928},
    {kBfs, kKl, false, true, 1, 1,
     8053877397278323294ull, 1, 1440, 234, 0, 683, 0, 0, 5, 6324},
    {kBfs, kKl, false, true, 1, 64,
     18081811100210947410ull, 64, 2214, 234, 0, 1474, 0, 0, 10, 14288},
    {kBfs, kKl, true, false, 0, 1,
     4212529872064864397ull, 1, 540, 270, 0, 405, 0, 0, 1, 8480},
    {kBfs, kKl, true, false, 0, 64,
     9263667932167791858ull, 64, 540, 270, 0, 870, 0, 0, 1, 16116},
    {kBfs, kKl, true, false, 1, 1,
     8053877397278323294ull, 1, 684, 234, 0, 683, 0, 0, 1, 12660},
    {kBfs, kKl, true, false, 1, 64,
     18081811100210947410ull, 64, 684, 234, 0, 1474, 0, 0, 1, 27552},
    {kBfs, kKl, true, true, 0, 1,
     4212529872064864397ull, 1, 918, 270, 0, 405, 0, 0, 3, 6356},
    {kBfs, kKl, true, true, 0, 64,
     9263667932167791858ull, 64, 1134, 270, 0, 870, 0, 0, 4, 11928},
    {kBfs, kKl, true, true, 1, 1,
     8053877397278323294ull, 1, 1440, 234, 0, 683, 0, 0, 5, 6324},
    {kBfs, kKl, true, true, 1, 64,
     18081811100210947410ull, 64, 2214, 234, 0, 1474, 0, 0, 10, 14288},
    {kBfs, kNorm, false, false, 0, 1,
     15494402945028176413ull, 1, 540, 270, 0, 1383, 0, 0, 1, 32284},
    {kBfs, kNorm, false, false, 0, 64,
     15365767267757759910ull, 64, 540, 270, 0, 25075, 0, 0, 1, 359616},
    {kBfs, kNorm, false, false, 1, 1,
     8631163314327365791ull, 1, 684, 234, 0, 2836, 0, 0, 1, 44028},
    {kBfs, kNorm, false, false, 1, 64,
     9779218549419931295ull, 64, 684, 234, 0, 72198, 0, 0, 1, 702084},
    {kBfs, kNorm, false, true, 0, 1,
     15494402945028176413ull, 1, 1638, 270, 0, 1383, 0, 0, 10, 18732},
    {kBfs, kNorm, false, true, 0, 64,
     15365767267757759910ull, 64, 2106, 270, 0, 25075, 0, 0, 10, 244840},
    {kBfs, kNorm, false, true, 1, 1,
     8631163314327365791ull, 1, 2484, 234, 0, 2836, 0, 0, 18, 17868},
    {kBfs, kNorm, false, true, 1, 64,
     9779218549419931295ull, 64, 4086, 234, 0, 72198, 0, 0, 24, 306656},
    {kBfs, kNorm, true, false, 0, 1,
     15494402945028176413ull, 1, 540, 270, 0, 875, 0, 0, 1, 27488},
    {kBfs, kNorm, true, false, 0, 64,
     8855254658884243828ull, 64, 540, 270, 0, 2737, 0, 0, 1, 54248},
    {kBfs, kNorm, true, false, 1, 1,
     8631163314327365791ull, 1, 684, 234, 0, 2544, 0, 0, 1, 43404},
    {kBfs, kNorm, true, false, 1, 64,
     3439630673603067513ull, 64, 684, 234, 0, 38370, 0, 0, 1, 581232},
    {kBfs, kNorm, true, true, 0, 1,
     15494402945028176413ull, 1, 1494, 270, 0, 875, 0, 0, 8, 16204},
    {kBfs, kNorm, true, true, 0, 64,
     8855254658884243828ull, 64, 1962, 270, 0, 2737, 0, 0, 10, 37480},
    {kBfs, kNorm, true, true, 1, 1,
     8631163314327365791ull, 1, 2394, 234, 0, 2544, 0, 0, 18, 17692},
    {kBfs, kNorm, true, true, 1, 64,
     3439630673603067513ull, 64, 4050, 234, 0, 38370, 0, 0, 24, 264604},
    {kDfs, kKl, false, false, 0, 1,
     4212529872064864397ull, 1, 10817, 7824, 18641, 41329, 7824, 1492, 1, 6504},
    {kDfs, kKl, false, false, 0, 64,
     9263667932167791858ull, 64, 424, 294, 718, 868, 294, 44, 1, 6904},
    {kDfs, kKl, false, false, 1, 1,
     8053877397278323294ull, 1, 149725, 130264, 279989, 360176,
     130264, 78312, 1, 5728},
    {kDfs, kKl, false, false, 1, 64,
     18081811100210947410ull, 64, 478, 252, 730, 1474, 252, 36, 1, 7544},
    {kDfs, kKl, false, true, 0, 1,
     4212529872064864397ull, 1, 10817, 7824, 18641, 41329, 7824, 1492, 1, 6504},
    {kDfs, kKl, false, true, 0, 64,
     9263667932167791858ull, 64, 424, 294, 718, 868, 294, 44, 1, 6904},
    {kDfs, kKl, false, true, 1, 1,
     8053877397278323294ull, 1, 149725, 130264, 279989, 360176,
     130264, 78312, 1, 5728},
    {kDfs, kKl, false, true, 1, 64,
     18081811100210947410ull, 64, 478, 252, 730, 1474, 252, 36, 1, 7544},
    {kDfs, kKl, true, false, 0, 1,
     4212529872064864397ull, 1, 10817, 7824, 18641, 41329, 7824, 1492, 1, 6504},
    {kDfs, kKl, true, false, 0, 64,
     9263667932167791858ull, 64, 424, 294, 718, 868, 294, 44, 1, 6904},
    {kDfs, kKl, true, false, 1, 1,
     8053877397278323294ull, 1, 149725, 130264, 279989, 360176,
     130264, 78312, 1, 5728},
    {kDfs, kKl, true, false, 1, 64,
     18081811100210947410ull, 64, 478, 252, 730, 1474, 252, 36, 1, 7544},
    {kDfs, kKl, true, true, 0, 1,
     4212529872064864397ull, 1, 10817, 7824, 18641, 41329, 7824, 1492, 1, 6504},
    {kDfs, kKl, true, true, 0, 64,
     9263667932167791858ull, 64, 424, 294, 718, 868, 294, 44, 1, 6904},
    {kDfs, kKl, true, true, 1, 1,
     8053877397278323294ull, 1, 149725, 130264, 279989, 360176,
     130264, 78312, 1, 5728},
    {kDfs, kKl, true, true, 1, 64,
     18081811100210947410ull, 64, 478, 252, 730, 1474, 252, 36, 1, 7544},
    {kDfs, kNorm, false, false, 0, 1,
     15494402945028176413ull, 1, 425, 288, 713, 2053, 288, 0, 1, 7476},
    {kDfs, kNorm, false, false, 0, 64,
     15365767267757759910ull, 64, 425, 288, 713, 35057, 288, 0, 1, 71208},
    {kDfs, kNorm, false, false, 1, 1,
     8631163314327365791ull, 1, 478, 252, 730, 2914, 252, 0, 1, 6428},
    {kDfs, kNorm, false, false, 1, 64,
     9779218549419931295ull, 64, 478, 252, 730, 74486, 252, 0, 1, 127884},
    {kDfs, kNorm, false, true, 0, 1,
     15494402945028176413ull, 1, 425, 288, 713, 2053, 288, 0, 1, 7476},
    {kDfs, kNorm, false, true, 0, 64,
     15365767267757759910ull, 64, 425, 288, 713, 35057, 288, 0, 1, 71208},
    {kDfs, kNorm, false, true, 1, 1,
     8631163314327365791ull, 1, 478, 252, 730, 2914, 252, 0, 1, 6428},
    {kDfs, kNorm, false, true, 1, 64,
     9779218549419931295ull, 64, 478, 252, 730, 74486, 252, 0, 1, 127884},
    {kDfs, kNorm, true, false, 0, 1,
     15494402945028176413ull, 1, 425, 288, 713, 1112, 288, 0, 1, 7420},
    {kDfs, kNorm, true, false, 0, 64,
     14942049932954610500ull, 64, 425, 288, 713, 1925, 288, 0, 1, 10636},
    {kDfs, kNorm, true, false, 1, 1,
     8631163314327365791ull, 1, 478, 252, 730, 2724, 252, 0, 1, 5824},
    {kDfs, kNorm, true, false, 1, 64,
     11970294937880967273ull, 64, 478, 252, 730, 32756, 252, 0, 1, 61616},
    {kDfs, kNorm, true, true, 0, 1,
     15494402945028176413ull, 1, 425, 288, 713, 1112, 288, 0, 1, 7420},
    {kDfs, kNorm, true, true, 0, 64,
     14942049932954610500ull, 64, 425, 288, 713, 1925, 288, 0, 1, 10636},
    {kDfs, kNorm, true, true, 1, 1,
     8631163314327365791ull, 1, 478, 252, 730, 2724, 252, 0, 1, 5824},
    {kDfs, kNorm, true, true, 1, 64,
     11970294937880967273ull, 64, 478, 252, 730, 32756, 252, 0, 1, 61616},
};

Result<StableFinderResult> RunCell(const GoldenRow& c,
                                   const ClusterGraph& graph) {
  const uint32_t l = c.mode == kKl ? 3 : 2;
  const size_t budget = c.budget ? kBudgetBytes : MemoryTracker::kUnlimited;
  if (c.algo == kBfs) {
    BfsFinderOptions opt;
    opt.mode = c.mode;
    opt.k = c.k;
    opt.l = l;
    opt.theorem1_pruning = c.theorem1;
    opt.memory_budget_bytes = budget;
    return BfsStableFinder(opt).Find(graph);
  }
  // The DFS has no memory budget: both budget cells must read the same.
  DfsFinderOptions opt;
  opt.mode = c.mode;
  opt.k = c.k;
  opt.l = l;
  opt.theorem1_pruning = c.theorem1;
  return DfsStableFinder(opt).Find(graph);
}

std::string Row(const GoldenRow& c, const StableFinderResult& r) {
  auto b = [](bool v) { return std::string(v ? "true" : "false"); };
  auto n = [](uint64_t v) { return std::to_string(v); };
  return std::string("{") + (c.algo == kBfs ? "kBfs" : "kDfs") + ", " +
         (c.mode == kKl ? "kKl" : "kNorm") + ", " + b(c.theorem1) + ", " +
         b(c.budget) + ", " + n(c.gap) + ", " + n(c.k) + ",\n     " +
         n(Fingerprint(r.paths)) + "ull, " + n(r.paths.size()) + ", " +
         n(r.io.page_reads) + ", " + n(r.io.page_writes) + ", " +
         n(r.io.random_seeks) + ", " + n(r.heap_offers) + ", " +
         n(r.nodes_pushed) + ", " + n(r.prunes) + ", " + n(r.passes) + ", " +
         n(r.peak_memory_bytes) + "},";
}

TEST(FinderGoldenTest, TableCoversTheWholeGrid) {
  std::set<std::tuple<Algo, FinderMode, bool, bool, uint32_t, size_t>> cells;
  for (const GoldenRow& c : kGolden) {
    EXPECT_TRUE(c.gap <= 1 && (c.k == 1 || c.k == 64));
    cells.emplace(c.algo, c.mode, c.theorem1, c.budget, c.gap, c.k);
  }
  EXPECT_EQ(cells.size(), 64u);
  EXPECT_EQ(std::size(kGolden), 64u);
}

TEST(FinderGoldenTest, AnswersAndCountersMatchTheGoldenTable) {
  const ClusterGraph graphs[] = {GoldenGraph(0), GoldenGraph(1)};
  for (const GoldenRow& c : kGolden) {
    const auto found = RunCell(c, graphs[c.gap]);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    const StableFinderResult& r = found.value();
    const bool golden =
        Fingerprint(r.paths) == c.fingerprint && r.paths.size() == c.paths &&
        r.io.page_reads == c.page_reads &&
        r.io.page_writes == c.page_writes &&
        r.io.random_seeks == c.random_seeks &&
        r.heap_offers == c.heap_offers && r.nodes_pushed == c.nodes_pushed &&
        r.prunes == c.prunes && r.passes == c.passes &&
        r.peak_memory_bytes == c.peak_memory_bytes;
    EXPECT_TRUE(golden) << "differs; actual row:\n    " << Row(c, r);
  }
}

}  // namespace
}  // namespace stabletext
