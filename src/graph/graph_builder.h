// GraphBuilder: assembly of the pruned keyword graph G', with the summary
// numbers Table 1 of the paper reports (keyword and edge counts before
// pruning). Two routes give the same graph and summary: Build() prunes the
// co-occurrence table that Section 3's sorted pair file aggregates into,
// and BuildFromDocuments() counts and prunes in one pass over an inverted
// index of the documents (the engine's route: no pair file, no sort).

#ifndef STABLETEXT_GRAPH_GRAPH_BUILDER_H_
#define STABLETEXT_GRAPH_GRAPH_BUILDER_H_

#include "graph/graph_pruner.h"

namespace stabletext {

/// Summary of one interval's keyword graph, before and after pruning.
struct KeywordGraphSummary {
  uint64_t document_count = 0;
  size_t keyword_count = 0;       ///< Distinct keywords with A(u) > 0.
  size_t raw_edge_count = 0;      ///< Triplets, i.e. edges of G (Table 1).
  PruneStats prune;               ///< chi^2 / rho stage counters.
};

/// \brief Builds G' from a CooccurrenceTable or straight from documents.
class GraphBuilder {
 public:
  explicit GraphBuilder(GraphPrunerOptions options = {})
      : pruner_(options) {}

  /// Builds the pruned graph. `summary` may be null.
  KeywordGraph Build(const CooccurrenceTable& table,
                     KeywordGraphSummary* summary = nullptr) const;

  /// Builds the graph and summary that counting `documents` with a
  /// CooccurrenceCounter and calling Build() would give, without pair
  /// records, the pair-file sort or a triplet table: an inverted index
  /// gives A(u), and for each keyword u in id order a dense counter over
  /// the later keywords of u's documents gives every A(u,v), which is
  /// pruned at once. Each document holds distinct ascending keyword ids below
  /// `keyword_count` (InvalidArgument otherwise). `summary` may be null.
  Result<KeywordGraph> BuildFromDocuments(
      const std::vector<std::vector<KeywordId>>& documents,
      size_t keyword_count, KeywordGraphSummary* summary = nullptr) const;

 private:
  GraphPruner pruner_;
};

}  // namespace stabletext

#endif  // STABLETEXT_GRAPH_GRAPH_BUILDER_H_
