#include "graph/graph_pruner.h"

namespace stabletext {

bool GraphPruner::Keep(uint64_t a_u, uint64_t a_v, uint32_t count,
                       uint64_t document_count, PruneStats* stats,
                       double* weight) const {
  ++stats->input_edges;
  if (count < options_.min_pair_support) {
    ++stats->failed_support;
    return false;
  }
  if (options_.apply_chi_square &&
      !ChiSquare::Significant(a_u, a_v, count, document_count,
                              options_.chi_square_critical)) {
    ++stats->failed_chi_square;
    return false;
  }
  const double rho = Correlation::Rho(a_u, a_v, count, document_count);
  if (options_.apply_rho && !(rho > options_.rho_threshold)) {
    ++stats->failed_rho;
    return false;
  }
  ++stats->surviving_edges;
  *weight = rho;
  return true;
}

std::vector<WeightedEdge> GraphPruner::Prune(const CooccurrenceTable& table,
                                             PruneStats* stats) const {
  std::vector<WeightedEdge> out;
  PruneStats local;
  for (const Triplet& t : table.triplets) {
    double rho = 0;
    if (Keep(table.unary[t.u], table.unary[t.v], t.count,
             table.document_count, &local, &rho)) {
      out.push_back(WeightedEdge{t.u, t.v, rho});
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace stabletext
