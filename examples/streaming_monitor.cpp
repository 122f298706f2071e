// streaming_monitor: the Section 4.6 online scenario, end to end. Posts
// arrive one interval at a time (as from the BlogScope crawler); every
// tick is committed with Engine::IngestText, and the monitor advances its
// own BFS interval sweep (IntervalSweep) by the new interval over the
// published snapshot's sealed graph and re-reports the sweep's top-k
// stable clusters — no batch rebuild, no barrier. A step touches only the
// g+1-interval window (Section 4.6), so each report costs the marginal
// work of the newest interval. As a check, every tick's top-k must equal
// a batch BFS query at the same epoch; the example exits 1 otherwise.
//
// While the week streams in, a small fleet of concurrent readers keeps
// polling the same engine from other threads — the serving scenario.
// Snapshot isolation guarantees each of their answers is one committed
// epoch, so they run wait-free alongside every ingest.
//
// Build & run:  ./build/examples/streaming_monitor

#include <atomic>
#include <cstdio>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "stable/bfs_finder.h"
#include "util/thread_pool.h"

using namespace stabletext;

int main() {
  // A synthetic feed: a week of blog posts with planted events (the
  // Section 5.3 script), delivered day by day.
  CorpusGenOptions corpus_options;
  corpus_options.days = 7;
  corpus_options.posts_per_day = 600;
  corpus_options.vocabulary = 3000;
  corpus_options.min_words_per_post = 12;
  corpus_options.max_words_per_post = 28;
  corpus_options.micro_events = 60;
  corpus_options.script = EventScript::PaperWeek();
  CorpusGenerator generator(corpus_options);

  EngineOptions options;
  options.gap = 1;
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;
  Engine monitor(options);

  Query query;
  query.algorithm = FinderAlgorithm::kOnline;
  query.k = 3;
  query.l = 3;  // Watch for stories stable across 3 intervals.

  std::printf(
      "streaming %u days; reporting top-%zu stable chains of length %u "
      "after each arrival\n\n",
      corpus_options.days, query.k, query.l);

  // The concurrent reader fleet: polls one-shot online and bfs queries
  // against whatever epoch is currently published, the whole time ingest
  // runs.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reader_queries{0};
  std::atomic<uint64_t> reader_epochs_seen{0};
  std::atomic<bool> reader_ok{true};
  ReaderFleet fleet(2, [&](size_t reader) {
    Query poll = query;
    if (reader % 2 == 1) poll.algorithm = FinderAlgorithm::kBfs;
    uint64_t last_epoch = 0;
    uint64_t epochs = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto r = monitor.Query(poll);
      if (!r.ok()) {
        reader_ok.store(false, std::memory_order_relaxed);
        break;
      }
      if (r.value().epoch < last_epoch) {
        // Epochs are monotone per reader; seeing one go backwards would
        // mean a torn snapshot.
        reader_ok.store(false, std::memory_order_relaxed);
        break;
      }
      if (r.value().epoch > last_epoch) ++epochs;
      last_epoch = r.value().epoch;
      reader_queries.fetch_add(1, std::memory_order_relaxed);
    }
    reader_epochs_seen.fetch_add(epochs, std::memory_order_relaxed);
  });

  // Any failure must release the fleet before exiting, or the readers
  // would spin on !done forever while the destructor joins them.
  auto fail = [&](const char* what, const Status& status) {
    std::printf("%s failed: %s\n", what, status.ToString().c_str());
    done.store(true, std::memory_order_release);
    fleet.Join();
    return 1;
  };

  // The online sweep, advanced one interval per tick. Jaccard weights
  // never rescale; under the intersection measure a changed
  // weight_scale() would call for a fresh sweep.
  IntervalSweep sweep(query.k, query.l);
  Query bfs = query;
  bfs.algorithm = FinderAlgorithm::kBfs;
  std::shared_ptr<const GraphSnapshot> snap;
  for (uint32_t day = 0; day < corpus_options.days; ++day) {
    // A new batch arrives from the crawler; ingest commits it.
    auto tick = monitor.IngestText(generator.GenerateDay(day));
    if (!tick.ok()) return fail("ingest", tick.status());
    snap = monitor.snapshot();
    Status step = sweep.Advance(*snap->graph, tick.value());
    if (!step.ok()) return fail("sweep", step);
    const std::vector<StablePath>& top = sweep.TopK();

    // The same top-k, node for node and weight for weight, as a batch
    // BFS over the whole epoch.
    auto batch = monitor.QueryAt(snap, bfs);
    if (!batch.ok()) return fail("bfs query", batch.status());
    const std::vector<StablePath>& want = batch.value().finder.paths;
    bool same = top.size() == want.size();
    for (size_t i = 0; same && i < top.size(); ++i) {
      same = top[i] == want[i] && top[i].weight == want[i].weight;
    }
    if (!same) {
      return fail("online check",
                  Status::Internal("sweep top-k differs from batch BFS"));
    }

    std::printf("tick %2u: %3zu clusters",
                tick.value(),
                monitor.interval_result(day).clusters.size());
    if (top.empty()) {
      std::printf("  (no length-%u chains yet)\n", query.l);
      continue;
    }
    std::printf("  best");
    for (const StablePath& path : top) {
      std::printf(" %s", path.ToString().c_str());
    }
    std::printf("\n");
  }

  done.store(true, std::memory_order_release);
  fleet.Join();
  std::printf(
      "\nconcurrent readers: %llu snapshot-isolated queries during "
      "ingest, %llu epoch advances observed, %s\n",
      static_cast<unsigned long long>(reader_queries.load()),
      static_cast<unsigned long long>(reader_epochs_seen.load()),
      reader_ok.load() ? "all consistent" : "INCONSISTENT");
  if (!reader_ok.load()) return 1;

  // Show the best chain in full at end of week.
  auto final_top = snap->ToChains(sweep.TopK());
  if (final_top.ok() && !final_top.value().empty()) {
    std::printf("\nbest stable chain at end of week:\n%s",
                snap->RenderChain(final_top.value()[0]).c_str());
  }

  const EngineStats stats = monitor.stats();
  std::printf(
      "\n%u intervals, %zu cluster nodes, %zu edges, %zu keywords — each "
      "tick only\njoined against its g+1-interval frontier; no past work "
      "was redone (Section 4.6).\n",
      stats.intervals, stats.clusters, stats.edges, stats.keywords);
  std::printf(
      "last epoch published in %.1f us (%zu adjacency chunks shared with "
      "the\nprevious epoch, %zu copied); ~%zu KB resident for the "
      "published epoch.\n",
      stats.publish_ns / 1e3, stats.shared_chunk_count,
      stats.copied_chunk_count, stats.resident_bytes / 1024);
  return 0;
}
