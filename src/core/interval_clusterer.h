// IntervalClusterer: the Section 3 pipeline for a single temporal interval
// — documents in, keyword clusters out (pair counting, chi-squared and rho
// pruning, biconnected decomposition).

#ifndef STABLETEXT_CORE_INTERVAL_CLUSTERER_H_
#define STABLETEXT_CORE_INTERVAL_CLUSTERER_H_

#include <vector>

#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "graph/graph_builder.h"

namespace stabletext {

/// Options for one interval's cluster generation.
struct IntervalClustererOptions {
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
  /// the unary table and is only read). `sort_pool` may be null.
  Result<IntervalResult> RunInterned(
      uint32_t interval,
      const std::vector<std::vector<KeywordId>>& documents,
      ThreadPool* sort_pool) const;

 private:
  KeywordDict* dict_;
  IntervalClustererOptions options_;
  IoStats* stats_;
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_INTERVAL_CLUSTERER_H_
