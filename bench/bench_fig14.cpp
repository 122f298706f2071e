// Figure 14: BFS-based normalized stable clusters — running time for
// top-5 paths of length >= lmin, for lmin = 2, 4, 6, as m grows.
// n = 400, d = 3, g = 0. Shape: unlike the plain kl problem, paths of
// all lengths are maintained, so time rises with m; larger lmin also
// costs more (more paths survive per node). Theorem 1 pruning is on,
// matching the paper's algorithm.

#include "bench_common.h"
#include "stable/finder.h"
#include "stable/normalized_literal_finder.h"

namespace stabletext {
namespace {

void Run() {
  bench::Header(
      "Figure 14: normalized stable clusters (BFS) vs m and lmin",
      "Sections 4.5/5.2, Figure 14",
      "n=400, d=3, g=0, k=5, Theorem-1 pruning on");
  const uint32_t n = bench::Pick<uint32_t>(150, 400);
  const uint32_t m_max = bench::Pick<uint32_t>(12, 15);

  std::printf("%-6s %12s %12s %12s\n", "m", "lmin=2 (s)", "lmin=4 (s)",
              "lmin=6 (s)");
  for (uint32_t m = 7; m <= m_max; m += 2) {
    std::printf("%-6u", m);
    for (uint32_t lmin : {2u, 4u, 6u}) {
      ClusterGraph graph = bench::Generate(m, n, 3, 0);
      FinderQuery query;
      query.algorithm = FinderAlgorithm::kBfs;
      query.mode = FinderMode::kNormalized;
      query.k = 5;
      query.l = lmin;
      query.theorem1_pruning = true;
      const double s =
          bench::TimeSeconds([&] { RunFinder(graph, query).ok(); });
      std::printf(" %12.3f", s);
    }
    std::printf("\n");
  }
  std::printf(
      "\nshape check (paper Figure 14): running time increases with m. "
      "The paper also\nreports times positively correlated with lmin — "
      "that is a property of its\nliteral smallpaths/bestpaths algorithm "
      "(all sub-lmin paths kept untruncated),\nwhich the table below "
      "reproduces; the exact finder above is the\nwindowed interval "
      "sweep (per-length top-k heaps for the g+1-interval\nwindow), "
      "lmin-insensitive by design.\n\n");

  // The literal algorithm keeps every sub-lmin path untruncated, so its
  // cost explodes combinatorially; it runs at a smaller n to stay in
  // laptop budget (the trend, not the absolute value, is the point).
  const uint32_t n_lit = bench::Pick<uint32_t>(40, 100);
  const uint32_t m_lit = bench::Pick<uint32_t>(7, 11);
  std::printf("paper-literal algorithm (NormalizedLiteralFinder), n=%u:\n",
              n_lit);
  std::printf("%-6s %12s %12s %12s\n", "m", "lmin=2 (s)", "lmin=4 (s)",
              "lmin=6 (s)");
  for (uint32_t m = 7; m <= m_lit; m += 2) {
    std::printf("%-6u", m);
    for (uint32_t lmin : {2u, 4u, 6u}) {
      ClusterGraph graph = bench::Generate(m, n_lit, 3, 0);
      NormalizedFinderOptions opt;
      opt.k = 5;
      opt.lmin = lmin;
      const double s = bench::TimeSeconds(
          [&] { NormalizedLiteralFinder(opt).Find(graph).ok(); });
      std::printf(" %12.3f", s);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace stabletext

int main() {
  stabletext::Run();
  return 0;
}
