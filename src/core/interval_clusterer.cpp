#include "core/interval_clusterer.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace stabletext {

namespace {

Result<IntervalResult> BuildFromTable(
    const IntervalClustererOptions& options, IoStats* stats,
    uint32_t interval, const CooccurrenceTable& table) {
  IntervalResult result;
  result.interval = interval;

  GraphBuilder builder(options.pruning);
  KeywordGraph graph = builder.Build(table, &result.graph_summary);

  ClusterExtractorOptions extraction = options.extraction;
  extraction.biconnected.io_stats = stats;
  ClusterExtractor extractor(extraction);
  auto clusters = extractor.Extract(graph, interval, &result.biconnected);
  if (!clusters.ok()) return clusters.status();
  result.clusters = std::move(clusters).value();
  return result;
}

}  // namespace

Result<IntervalResult> IntervalClusterer::Run(
    uint32_t interval, const std::vector<Document>& documents) const {
  CooccurrenceCounter counter(dict_, options_.counting, stats_);
  for (const Document& doc : documents) {
    ST_RETURN_IF_ERROR(counter.Add(doc));
  }
  CooccurrenceTable table;
  ST_RETURN_IF_ERROR(counter.Finish(&table));
  return BuildFromTable(options_, stats_, interval, table);
}

Result<IntervalResult> IntervalClusterer::RunInterned(
    uint32_t interval,
    const std::vector<std::vector<KeywordId>>& documents,
    size_t vocab_size, ThreadPool* sort_pool) const {
  CooccurrenceCounterOptions counting = options_.counting;
  counting.sort_pool = sort_pool;
  CooccurrenceCounter counter(dict_, counting, stats_);
  for (const std::vector<KeywordId>& ids : documents) {
    ST_RETURN_IF_ERROR(counter.AddInterned(ids));
  }
  CooccurrenceTable table;
  ST_RETURN_IF_ERROR(counter.Finish(&table, vocab_size));
  return BuildFromTable(options_, stats_, interval, table);
}

}  // namespace stabletext
