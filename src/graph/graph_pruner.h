// GraphPruner: the two-stage edge filter of Section 3. Stage one drops
// edges that fail the chi-squared independence test; stage two drops edges
// whose correlation coefficient is below a threshold. "Let G' be the graph
// induced by G after pruning edges based on chi^2 and rho."

#ifndef STABLETEXT_GRAPH_GRAPH_PRUNER_H_
#define STABLETEXT_GRAPH_GRAPH_PRUNER_H_

#include <vector>

#include "cooccur/pair_aggregator.h"
#include "graph/chi_square.h"
#include "graph/correlation.h"
#include "graph/keyword_graph.h"

namespace stabletext {

/// Options controlling pruning.
struct GraphPrunerOptions {
  /// Chi-squared critical value; pairs with a statistic at or below it are
  /// treated as independent.
  double chi_square_critical = ChiSquare::kCritical95;
  /// Minimum correlation coefficient (exclusive bound: edges survive when
  /// rho > threshold, matching "focusing on edges with rho > 0.2").
  double rho_threshold = Correlation::kDefaultThreshold;
  /// When false, the chi-squared stage is skipped (ablation knob).
  bool apply_chi_square = true;
  /// When false, the rho stage is skipped (ablation knob).
  bool apply_rho = true;
  /// Minimum co-occurrence count A(u,v) for an edge to be considered.
  /// 0 keeps everything (the paper's formulation). At small corpus sizes
  /// a support floor suppresses chance co-occurrences of rare keywords,
  /// whose sample rho is spuriously high; at the paper's scale (hundreds
  /// of thousands of posts per interval) the statistical tests alone
  /// suffice.
  uint32_t min_pair_support = 0;
};

/// Per-stage pruning counters for reporting.
struct PruneStats {
  size_t input_edges = 0;
  size_t failed_support = 0;
  size_t failed_chi_square = 0;
  size_t failed_rho = 0;
  size_t surviving_edges = 0;
};

/// \brief Filters co-occurrence triplets into the weighted edge list of G'.
class GraphPruner {
 public:
  explicit GraphPruner(GraphPrunerOptions options = {})
      : options_(options) {}

  /// Filters `table`'s triplets. Surviving edges are weighted by rho.
  /// `stats` may be null.
  std::vector<WeightedEdge> Prune(const CooccurrenceTable& table,
                                  PruneStats* stats = nullptr) const;

  /// The support, chi^2 and rho tests for one pair with A(u) = `a_u`,
  /// A(v) = `a_v` and A(u,v) = `count` among `document_count` documents.
  /// Counts the pair in *stats (as input, and as failing a stage or
  /// surviving) and returns whether the edge survives, with its weight
  /// rho in *weight. Prune() and the one-pass graph build both use it.
  bool Keep(uint64_t a_u, uint64_t a_v, uint32_t count,
            uint64_t document_count, PruneStats* stats,
            double* weight) const;

  const GraphPrunerOptions& options() const { return options_; }

 private:
  GraphPrunerOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_GRAPH_GRAPH_PRUNER_H_
