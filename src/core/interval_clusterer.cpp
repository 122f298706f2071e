#include "core/interval_clusterer.h"

#include "util/thread_pool.h"

namespace stabletext {

Result<IntervalResult> IntervalClusterer::RunInterned(
    uint32_t interval,
    const std::vector<std::vector<KeywordId>>& documents,
    ThreadPool* sort_pool) const {
  CooccurrenceCounterOptions counting = options_.counting;
  counting.sort_pool = sort_pool;
  CooccurrenceCounter counter(dict_, counting, stats_);
  for (const std::vector<KeywordId>& ids : documents) {
    ST_RETURN_IF_ERROR(counter.AddInterned(ids));
  }
  CooccurrenceTable table;
  ST_RETURN_IF_ERROR(counter.Finish(&table));

  IntervalResult result;
  result.interval = interval;
  GraphBuilder builder(options_.pruning);
  KeywordGraph graph = builder.Build(table, &result.graph_summary);

  ClusterExtractorOptions extraction = options_.extraction;
  extraction.biconnected.io_stats = stats_;
  ClusterExtractor extractor(extraction);
  auto clusters = extractor.Extract(graph, interval, &result.biconnected);
  if (!clusters.ok()) return clusters.status();
  result.clusters = std::move(clusters).value();
  result.clusters.shrink_to_fit();  // Kept for the interval's lifetime.
  return result;
}

}  // namespace stabletext
