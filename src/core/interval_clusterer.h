// IntervalClusterer: the Section 3 pipeline for a single temporal interval
// — documents in, keyword clusters out (pair counting, chi-squared and rho
// pruning, biconnected decomposition).
//
// Counting and pruning run as one pass over an inverted index of the
// interval's documents (GraphBuilder::BuildFromDocuments): no pair record,
// sort buffer or triplet table exists, and nothing touches disk. It gives
// the graph and summary that Section 3's sorted pair file gives
// (CooccurrenceCounter + GraphBuilder::Build), which stays the reference
// the tests and the paper benches compare against.

#ifndef STABLETEXT_CORE_INTERVAL_CLUSTERER_H_
#define STABLETEXT_CORE_INTERVAL_CLUSTERER_H_

#include <vector>

#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "graph/graph_builder.h"

namespace stabletext {

/// Options for one interval's cluster generation.
struct IntervalClustererOptions {
  /// Section 3's sorted counting (CooccurrenceCounter), for callers that
  /// replay the paper's route; the one pass needs no sort budget.
  CooccurrenceCounterOptions counting;
  GraphPrunerOptions pruning;
  ClusterExtractorOptions extraction;
};

/// Everything produced for one interval (summary + clusters).
struct IntervalResult {
  uint32_t interval = 0;
  KeywordGraphSummary graph_summary;
  BiconnectedStats biconnected;
  std::vector<Cluster> clusters;
};

/// \brief Runs the Section 3 pipeline over one interval's documents.
class IntervalClusterer {
 public:
  /// \param dict shared dictionary (ids stable across intervals); must
  ///        outlive the clusterer and not grow while it runs.
  IntervalClusterer(KeywordDict* dict,
                    IntervalClustererOptions options = {},
                    IoStats* stats = nullptr)
      : dict_(dict), options_(options), stats_(stats) {}

  /// Clusters the documents of interval `interval`, already interned to
  /// sorted keyword-id sets through the shared dictionary (which sizes
  /// the unary table and is only read).
  Result<IntervalResult> RunInterned(
      uint32_t interval,
      const std::vector<std::vector<KeywordId>>& documents) const;

 private:
  KeywordDict* dict_;
  IntervalClustererOptions options_;
  IoStats* stats_;
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_INTERVAL_CLUSTERER_H_
