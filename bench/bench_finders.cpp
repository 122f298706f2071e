// The paper's Section 5.2 finder study from one table: Figures 7-14,
// Table 3, the k sweep and the BFS/DFS memory note. Every figure does the
// same thing: generate a cluster graph for some (m, n, d, g) with seed 42,
// run one finder through RunFinder for some (k, l), and report its cost.
// Each row of Figures() names the fixed parameters, a row axis and a
// column axis; the bench prints seconds per cell, then each cell's
// deterministic work counters (heap_offers, nodes_pushed,
// peak_memory_bytes), then the figure's claims checked on those counters.
//
//   bench_finders [FIGURE...]   e.g. bench_finders fig7 table3
//
// With no arguments every figure runs. Exits 1 when a finder call fails or
// an asserted claim does not hold; wall time is never asserted.

#include <functional>
#include <limits>

#include "bench_common.h"
#include "stable/normalized_literal_finder.h"

namespace stabletext {
namespace {

enum class Param { kM, kN, kD, kG, kK, kL, kAlgorithm };

struct Axis {
  Param param;
  std::vector<uint32_t> values;  // kAlgorithm: FinderAlgorithm values.
};

struct Cell {
  const char* skipped = nullptr;  // Why the finder did not run, if so.
  double seconds = 0;
  StableFinderResult result;
};
using Grid = std::vector<std::vector<Cell>>;

// A deterministic work counter of a finder run.
struct Counter {
  const char* name;
  uint64_t (*get)(const StableFinderResult&);
};
constexpr Counter kOffers = {
    "heap_offers", [](const StableFinderResult& r) { return r.heap_offers; }};
constexpr Counter kPushes = {
    "nodes_pushed", [](const StableFinderResult& r) { return r.nodes_pushed; }};
constexpr Counter kPeakMemory = {
    "peak_memory_bytes", [](const StableFinderResult& r) -> uint64_t {
      return r.peak_memory_bytes;
    }};

// How a claim's outcome counts toward the exit status.
enum class Kind {
  kPaper,      // The paper's claim; asserted.
  kDeviation,  // A named departure from the paper, asserted as observed.
  kNoise,      // The paper's claim, which generator noise breaks here:
               // printed with its outcome, not asserted.
};

struct Figure;
struct Claim {
  Kind kind;
  std::string text;
  // True when the claim holds; appends the cells or ratios it read.
  std::function<bool(const Figure&, const Grid&, std::string*)> holds;
};

using Finder = Result<StableFinderResult> (*)(const ClusterGraph&,
                                               const FinderQuery&);

struct Figure {
  const char* name;  // Command-line selector.
  const char* title;
  const char* paper_ref;
  const char* setting;  // The paper's setting.
  // The fixed parameters; each axis overwrites its own (written as 0).
  ClusterGraphGenOptions graph;
  Finder finder;
  FinderQuery query;
  Axis rows, cols;
  std::vector<Claim> claims;
};

// Figure 14's paper-literal algorithm, which the registry does not hold.
Result<StableFinderResult> RunLiteral(const ClusterGraph& graph,
                                      const FinderQuery& query) {
  NormalizedFinderOptions options;
  options.k = query.k;
  options.lmin = query.l;
  return NormalizedLiteralFinder(options).Find(graph);
}

// TA's probe count is exponential in m; the paper reports "> 10 hours"
// for m = 12. The probe budget stands in for the authors' patience.
constexpr uint64_t kTaProbeBudget = 300'000'000;
uint32_t TaMaxM() { return bench::Pick<uint32_t>(6, 9); }

const char* ParamName(const Figure& fig, Param param) {
  switch (param) {
    case Param::kM: return "m";
    case Param::kN: return "n";
    case Param::kD: return "d";
    case Param::kG: return "g";
    case Param::kK: return "k";
    case Param::kL:
      return fig.query.mode == FinderMode::kNormalized ? "lmin" : "l";
    case Param::kAlgorithm: return "finder";
  }
  return "";
}

std::string Label(const Figure& fig, Param param, uint32_t value) {
  if (param == Param::kAlgorithm) {
    return FinderAlgorithmName(static_cast<FinderAlgorithm>(value));
  }
  return StringPrintf("%s=%u", ParamName(fig, param), value);
}

std::string CellName(const Figure& fig, size_t r, size_t c) {
  return Label(fig, fig.rows.param, fig.rows.values[r]) + " " +
         Label(fig, fig.cols.param, fig.cols.values[c]);
}

void Set(Param param, uint32_t value, ClusterGraphGenOptions* graph,
         FinderQuery* query) {
  switch (param) {
    case Param::kM: graph->m = value; break;
    case Param::kN: graph->n = value; break;
    case Param::kD: graph->d = value; break;
    case Param::kG: graph->g = value; break;
    case Param::kK: query->k = value; break;
    case Param::kL: query->l = value; break;
    case Param::kAlgorithm:
      query->algorithm = static_cast<FinderAlgorithm>(value);
      break;
  }
}

// Heap offers strictly rise (or fall) along the row axis in every column,
// or along the column axis in every row.
Claim Trend(Kind kind, std::string text, bool along_rows, bool rises) {
  return {kind, std::move(text),
          [=](const Figure& fig, const Grid& grid, std::string* detail) {
            bool holds = true;
            const size_t lines = along_rows ? grid[0].size() : grid.size();
            const size_t steps = along_rows ? grid.size() : grid[0].size();
            for (size_t line = 0; line < lines; ++line) {
              for (size_t i = 1; i < steps; ++i) {
                const size_t r0 = along_rows ? i - 1 : line;
                const size_t c0 = along_rows ? line : i - 1;
                const size_t r1 = along_rows ? i : line;
                const size_t c1 = along_rows ? line : i;
                const Cell& a = grid[r0][c0];
                const Cell& b = grid[r1][c1];
                if (a.skipped != nullptr || b.skipped != nullptr) continue;
                const uint64_t x = a.result.heap_offers;
                const uint64_t y = b.result.heap_offers;
                if (rises ? y > x : y < x) continue;
                holds = false;
                *detail += StringPrintf(
                    " [%s: %llu -> %s: %llu]", CellName(fig, r0, c0).c_str(),
                    static_cast<unsigned long long>(x),
                    CellName(fig, r1, c1).c_str(),
                    static_cast<unsigned long long>(y));
              }
            }
            return holds;
          }};
}

struct CellRef {
  size_t row, col;
};

// Each pair's counter ratio, numerator over denominator, lies strictly
// between `above` and `below`.
Claim Ratio(Kind kind, std::string text, Counter counter,
            std::vector<std::pair<CellRef, CellRef>> pairs, double above,
            double below = std::numeric_limits<double>::infinity()) {
  return {kind, std::move(text),
          [=](const Figure&, const Grid& grid, std::string* detail) {
            bool holds = true;
            for (const auto& [num, den] : pairs) {
              const double ratio =
                  static_cast<double>(
                      counter.get(grid[num.row][num.col].result)) /
                  static_cast<double>(
                      counter.get(grid[den.row][den.col].result));
              holds = holds && ratio > above && ratio < below;
              *detail += StringPrintf(" %.2fx", ratio);
            }
            return holds;
          }};
}

std::vector<uint32_t> Scaled(std::vector<uint32_t> base, double scale) {
  for (uint32_t& v : base) v = static_cast<uint32_t>(v * scale);
  return base;
}

ClusterGraphGenOptions Graph(uint32_t m, uint32_t n, uint32_t d,
                             uint32_t g) {
  ClusterGraphGenOptions options;
  options.m = m;
  options.n = n;
  options.d = d;
  options.g = g;
  options.seed = 42;
  return options;
}

FinderQuery Query(FinderAlgorithm algorithm, size_t k, uint32_t l = 0) {
  FinderQuery query;
  query.algorithm = algorithm;
  query.k = k;
  query.l = l;
  return query;
}

constexpr uint32_t kBfs = static_cast<uint32_t>(FinderAlgorithm::kBfs);
constexpr uint32_t kDfs = static_cast<uint32_t>(FinderAlgorithm::kDfs);
constexpr uint32_t kTa = static_cast<uint32_t>(FinderAlgorithm::kTa);
constexpr bool kAlongRows = true;
constexpr bool kAlongCols = false;
constexpr bool kRises = true;
constexpr bool kFalls = false;

std::vector<Figure> Figures() {
  using bench::Pick;
  const FinderAlgorithm bfs = FinderAlgorithm::kBfs;
  const FinderAlgorithm dfs = FinderAlgorithm::kDfs;
  const std::vector<uint32_t> m_5_to_25 = {5, 10, 15, 20, 25};
  const std::vector<uint32_t> n_200_to_1000 =
      Scaled({200, 400, 600, 800, 1000}, Pick<double>(0.25, 1.0));

  FinderQuery normalized = Query(bfs, 5);
  normalized.mode = FinderMode::kNormalized;
  normalized.theorem1_pruning = true;
  FinderQuery table3 = Query(bfs, 5);
  table3.max_probes = kTaProbeBudget;

  std::vector<Figure> figures = {
      {"fig7", "Figure 7: BFS full paths vs gap size g",
       "Section 5.2, Figure 7", "n=1000, d=5, k=5, l=m-1",
       Graph(0, Pick<uint32_t>(300, 1000), 5, 0), RunFinder, Query(bfs, 5),
       {Param::kM, m_5_to_25}, {Param::kG, {0, 1, 2}},
       {Trend(Kind::kPaper, "BFS offers rise with m", kAlongRows, kRises),
        Trend(Kind::kPaper, "BFS offers rise with g", kAlongCols, kRises)}},
      {"fig8", "Figure 8: BFS full paths vs average out degree d",
       "Section 5.2, Figure 8", "n=1000, g=2, k=5, l=m-1",
       Graph(0, Pick<uint32_t>(300, 1000), 0, 2), RunFinder, Query(bfs, 5),
       {Param::kM, m_5_to_25}, {Param::kD, {3, 5, 7}},
       {Trend(Kind::kPaper, "BFS offers rise with m", kAlongRows, kRises),
        Trend(Kind::kPaper, "BFS offers rise with d", kAlongCols, kRises)}},
      {"fig9", "Figure 9: BFS scalability in n", "Section 5.2, Figure 9",
       "d=5, g=1, k=5, l=m-1", Graph(0, 0, 5, 1), RunFinder, Query(bfs, 5),
       {Param::kN,
        Scaled({2000, 6000, 10000, 14000}, Pick<double>(0.25, 1.0))},
       {Param::kM, {25, 50}},
       {Trend(Kind::kPaper, "BFS offers rise with n", kAlongRows, kRises),
        Trend(Kind::kPaper, "BFS offers rise with m", kAlongCols, kRises)}},
      {"fig10", "Figure 10: BFS subpaths of length l",
       "Section 5.2, Figure 10", "m=15, d=5, g=2, k=5", Graph(15, 0, 5, 2),
       RunFinder, Query(bfs, 5),
       {Param::kN,
        Scaled({500, 1000, 1500, 2000, 2500}, Pick<double>(0.4, 1.0))},
       {Param::kL, {4, 8, 12}},
       {Trend(Kind::kPaper, "BFS offers rise with n", kAlongRows, kRises),
        Trend(Kind::kPaper, "BFS offers rise with l", kAlongCols, kRises)}},
      {"fig11", "Figure 11: DFS full paths vs m and n",
       "Section 5.2, Figure 11", "g=1, d=5, k=5, l=m-1", Graph(0, 0, 5, 1),
       RunFinder, Query(dfs, 5), {Param::kN, n_200_to_1000},
       {Param::kM, {3, 6, 9}},
       {Trend(Kind::kPaper, "DFS offers rise with m", kAlongCols, kRises),
        Trend(Kind::kNoise, "DFS offers rise with n", kAlongRows, kRises)}},
      {"fig12", "Figure 12: DFS full paths vs d and g",
       "Section 5.2, Figure 12", "m=6, n=400, k=5, l=m-1",
       Graph(6, Pick<uint32_t>(150, 400), 0, 0), RunFinder, Query(dfs, 5),
       {Param::kD, {2, 4, 6, 8}}, {Param::kG, {0, 1, 2}},
       {Trend(Kind::kPaper, "DFS offers rise with d", kAlongRows, kRises),
        Ratio(Kind::kPaper, "DFS offers more than double from g=0 to g=2 "
              "at d=8", kOffers, {{{3, 2}, {3, 0}}}, 2.0),
        Trend(Kind::kNoise, "DFS offers rise with g", kAlongCols, kRises)}},
      {"fig13", "Figure 13: DFS subpaths of length l",
       "Section 5.2, Figure 13", "m=6, d=5, g=1, k=5", Graph(6, 0, 5, 1),
       RunFinder, Query(dfs, 5), {Param::kN, n_200_to_1000},
       {Param::kL, {2, 3, 4}},
       {Trend(Kind::kDeviation, "DFS offers fall with l (paper: rise; the "
              "corrected CanPrune's x=0 term weakens pruning at small l)",
              kAlongCols, kFalls),
        Trend(Kind::kNoise, "DFS offers rise with n", kAlongRows, kRises)}},
      {"fig14", "Figure 14: normalized stable clusters (BFS) vs m and lmin",
       "Sections 4.5/5.2, Figure 14",
       "n=400, d=3, g=0, k=5, Theorem-1 pruning on",
       Graph(0, Pick<uint32_t>(150, 400), 3, 0), RunFinder, normalized,
       {Param::kM, Pick<std::vector<uint32_t>>({7, 9, 11},
                                               {7, 9, 11, 13, 15})},
       {Param::kL, {2, 4, 6}},
       {Trend(Kind::kPaper, "BFS offers rise with m", kAlongRows, kRises),
        Trend(Kind::kDeviation, "BFS offers fall with lmin (paper: rise; "
              "the exact windowed sweep is lmin-insensitive by design)",
              kAlongCols, kFalls)}},
      // The literal algorithm keeps every sub-lmin path untruncated, so
      // its cost explodes combinatorially; it runs at a smaller n.
      {"fig14", "Figure 14: paper-literal normalized algorithm",
       "Sections 4.5/5.2, Figure 14 (NormalizedLiteralFinder)",
       "n=100, d=3, g=0, k=5", Graph(0, Pick<uint32_t>(40, 100), 3, 0),
       RunLiteral, normalized,
       {Param::kM, Pick<std::vector<uint32_t>>({7}, {7, 9, 11})},
       {Param::kL, {2, 4, 6}},
       {Trend(Kind::kPaper, "literal offers rise with lmin", kAlongCols,
              kRises)}},
      {"table3", "Table 3: BFS vs DFS vs TA, top-5 full paths",
       "Section 5.2, Table 3", "n=400, d=5, g=0, k=5, l=m-1",
       Graph(0, Pick<uint32_t>(100, 400), 5, 0), RunFinder, table3,
       {Param::kM, {3, 6, 9, 12, 15}},
       {Param::kAlgorithm, {kBfs, kDfs, kTa}},
       {Ratio(Kind::kPaper, "BFS offers are below DFS offers for m >= 6",
              kOffers,
              {{{1, 1}, {1, 0}}, {{2, 1}, {2, 0}}, {{3, 1}, {3, 0}},
               {{4, 1}, {4, 0}}},
              1.0),
        Ratio(Kind::kNoise, "BFS offers are below DFS offers at m = 3",
              kOffers, {{{0, 1}, {0, 0}}}, 1.0)}},
      {"ksweep", "k sensitivity of BFS and DFS",
       "Section 5.2 (text): impact of k is minimal",
       "m=9, n=400, d=5, g=0, l=m-1",
       Graph(9, Pick<uint32_t>(150, 400), 5, 0), RunFinder, Query(bfs, 0),
       {Param::kK, {1, 5, 10, 20, 50}}, {Param::kAlgorithm, {kBfs, kDfs}},
       {Ratio(Kind::kNoise, "offers at most double from k=1 to k=50",
              kOffers, {{{4, 0}, {0, 0}}, {{4, 1}, {0, 1}}}, 0.0, 2.0)}},
      {"memory", "Memory: BFS vs DFS peak resident state",
       "Section 5.2 (text): DFS <2MB vs BFS 35MB",
       "n=2000, m=9, g=0, k=3, l=6",
       Graph(9, Pick<uint32_t>(500, 2000), 5, 0), RunFinder, Query(bfs, 3, 6),
       {Param::kM, {9}}, {Param::kAlgorithm, {kBfs, kDfs}},
       {Ratio(Kind::kPaper, "BFS peak memory is above DFS peak memory",
              kPeakMemory, {{{0, 0}, {0, 1}}}, 1.0),
        Ratio(Kind::kDeviation, "the BFS/DFS peak memory ratio is above "
              "the paper's ~17x (35MB vs <2MB)",
              kPeakMemory, {{{0, 0}, {0, 1}}}, 17.0)}},
  };
  return figures;
}

// Runs one cell's finder on `graph`; exits 1 when the call fails.
Cell RunCell(const Figure& fig, const std::string& name,
             const ClusterGraph& graph, const FinderQuery& query) {
  Cell cell;
  const bool ta = query.algorithm == FinderAlgorithm::kTa;
  if (ta && graph.interval_count() > TaMaxM()) {
    cell.skipped = "(skipped)";  // Paper: "> 10 hours" past m = 9.
    return cell;
  }
  WallTimer timer;
  Result<StableFinderResult> r = fig.finder(graph, query);
  cell.seconds = timer.ElapsedSeconds();
  if (ta && r.status().code() == StatusCode::kResourceExhausted) {
    cell.skipped = "(> probe budget)";
    return cell;
  }
  bench::CheckOk(r.status(), (fig.title + (": " + name)).c_str());
  cell.result = std::move(r).value();
  return cell;
}

void PrintGrid(const Figure& fig, const Grid& grid, const char* what,
               const std::function<std::string(const Cell&)>& value) {
  std::printf("%s\n%-8s", what, ParamName(fig, fig.rows.param));
  for (const uint32_t col : fig.cols.values) {
    std::printf(" %12s", Label(fig, fig.cols.param, col).c_str());
  }
  std::printf("\n");
  for (size_t r = 0; r < grid.size(); ++r) {
    std::printf("%-8u", fig.rows.values[r]);
    for (const Cell& cell : grid[r]) {
      std::printf(" %12s",
                  cell.skipped != nullptr ? cell.skipped : value(cell).c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

// Runs, prints and checks one figure; false when an asserted claim fails.
bool RunFigure(const Figure& fig) {
  bench::Header(fig.title, fig.paper_ref, fig.setting);
  Grid grid(fig.rows.values.size());
  for (size_t r = 0; r < fig.rows.values.size(); ++r) {
    for (size_t c = 0; c < fig.cols.values.size(); ++c) {
      ClusterGraphGenOptions gen = fig.graph;
      FinderQuery query = fig.query;
      Set(fig.rows.param, fig.rows.values[r], &gen, &query);
      Set(fig.cols.param, fig.cols.values[c], &gen, &query);
      const ClusterGraph graph = ClusterGraphGenerator::Generate(gen);
      grid[r].push_back(RunCell(fig, CellName(fig, r, c), graph, query));
    }
  }

  PrintGrid(fig, grid, "seconds", [](const Cell& cell) {
    return StringPrintf("%.3f", cell.seconds);
  });
  for (const Counter& counter : {kOffers, kPushes, kPeakMemory}) {
    bool any = false;
    for (const auto& row : grid) {
      for (const Cell& cell : row) any = any || counter.get(cell.result) != 0;
    }
    if (!any) continue;
    PrintGrid(fig, grid, counter.name, [&](const Cell& cell) {
      return std::to_string(counter.get(cell.result));
    });
  }

  bool ok = true;
  for (const Claim& claim : fig.claims) {
    std::string detail;
    const bool holds = claim.holds(fig, grid, &detail);
    const char* kind = claim.kind == Kind::kPaper       ? "paper"
                       : claim.kind == Kind::kDeviation ? "deviation"
                                                        : "noise, not asserted";
    const char* outcome = holds                       ? "holds"
                          : claim.kind == Kind::kNoise ? "does not hold"
                                                       : "FAILS";
    std::printf("[%s] %s: %s%s\n", kind, claim.text.c_str(), outcome,
                detail.c_str());
    ok = ok && (holds || claim.kind == Kind::kNoise);
  }
  std::printf("\n");
  return ok;
}

}  // namespace
}  // namespace stabletext

int main(int argc, char** argv) {
  using stabletext::Figure;
  const std::vector<Figure> figures = stabletext::Figures();
  for (int i = 1; i < argc; ++i) {
    if (std::none_of(figures.begin(), figures.end(), [&](const Figure& f) {
          return std::strcmp(argv[i], f.name) == 0;
        })) {
      std::fprintf(stderr,
                   "unknown figure %s (known: fig7 fig8 fig9 fig10 fig11 "
                   "fig12 fig13 fig14 table3 ksweep memory)\n"
                   "usage: %s [FIGURE...]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  bool ok = true;
  for (const Figure& fig : figures) {
    const bool named =
        argc == 1 || std::any_of(argv + 1, argv + argc, [&](const char* a) {
          return std::strcmp(a, fig.name) == 0;
        });
    if (named) ok = stabletext::RunFigure(fig) && ok;
  }
  if (!ok) std::printf("FAILED: an asserted claim does not hold\n");
  return ok ? 0 : 1;
}
