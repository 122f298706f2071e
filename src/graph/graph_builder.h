// GraphBuilder: assembly of the pruned keyword graph G', with the summary
// numbers Table 1 of the paper reports (keyword and edge counts before
// pruning). Two routes give the same graph and summary: Build() prunes the
// co-occurrence table that Section 3's sorted pair file aggregates into,
// and BuildFromDocuments() counts and prunes in one pass over an inverted
// index of the documents (the engine's route: no pair file, no sort).
//
// The one pass indexes only keywords that can carry an edge. A(u,v) <=
// min(A(u), A(v)), so a pair with a keyword below the support floor
// (GraphPrunerOptions::min_pair_support) fails the support test whatever
// its count, and the pass leaves such keywords out of the index. The
// summary stays exactly the sorted route's because those pairs are still
// counted, as pre-prune edges that fail support: each is a distinct
// co-occurring pair, found from the distinct partners of its rare
// endpoint. A keyword with A(u) = 1 has one document, so its partners are
// the rest of that document (O(1) per posting, from the document's length
// and its count of A = 1 keywords); one with 2 <= A(u) < floor has at
// most floor - 1 documents, whose partners a stamped scan counts. A pair
// of two rare keywords is counted once. The kept edges are unchanged: the
// pairs left out could never pass.

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
  /// over the keywords with A(u) >= the support floor gives, for each such
  /// u in id order, a dense counter over the later indexed keywords of u's
  /// documents, hence every A(u,v) that can pass, which is pruned at once;
  /// the pairs with a rarer endpoint are counted without being indexed
  /// (see above). Each document holds distinct ascending keyword ids below
  /// `keyword_count` (InvalidArgument otherwise). `summary` may be null.
  Result<KeywordGraph> BuildFromDocuments(
      const std::vector<std::vector<KeywordId>>& documents,
      size_t keyword_count, KeywordGraphSummary* summary = nullptr) const;

 private:
  GraphPruner pruner_;
};

}  // namespace stabletext

#endif  // STABLETEXT_GRAPH_GRAPH_BUILDER_H_
