#include "core/interval_clusterer.h"

namespace stabletext {

Result<IntervalResult> IntervalClusterer::RunInterned(
    uint32_t interval,
    const std::vector<std::vector<KeywordId>>& documents) const {
  IntervalResult result;
  result.interval = interval;
  GraphBuilder builder(options_.pruning);
  auto graph = builder.BuildFromDocuments(documents, dict_->size(),
                                          &result.graph_summary);
  if (!graph.ok()) return graph.status();

  ClusterExtractorOptions extraction = options_.extraction;
  extraction.biconnected.io_stats = stats_;
  ClusterExtractor extractor(extraction);
  auto clusters =
      extractor.Extract(graph.value(), interval, &result.biconnected);
  if (!clusters.ok()) return clusters.status();
  result.clusters = std::move(clusters).value();
  result.clusters.shrink_to_fit();  // Kept for the interval's lifetime.
  return result;
}

}  // namespace stabletext
