// LayerReplay: the traced run's view inside a tick. It replays the ticks
// an engine committed, serially and from interval 0, through each layer's
// public calls — DocumentProcessor::Process, KeywordDict::Intern,
// CooccurrenceCounter::AddInterned/Finish, GraphBuilder::Build,
// ClusterExtractor::Extract, SimilarityJoin::Join over the gap window,
// ClusterGraph::AddInterval/AddNode/AddEdge/SortTouched/SealedCopy, and a
// WalWriter::Append + Sync of the tick's delta with a
// Durability::WriteCheckpoint every 16 ticks — one span per call. Matches()
// then checks that the replay's clusters and cluster-graph edges equal the
// engine's, so the per-layer times describe the work the engine did.

#ifndef STABLETEXT_BENCHMARK_REPLAY_H_
#define STABLETEXT_BENCHMARK_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/durability.h"
#include "core/engine.h"
#include "harness.h"
#include "storage/wal.h"
#include "trace.h"

namespace stbench {

class LayerReplay {
 public:
  /// Counts the replay observed in one tick.
  struct TickCounts {
    uint64_t posts = 0;
    uint64_t keywords = 0;       ///< Distinct keywords summed over posts.
    uint64_t pairs = 0;          ///< Pair records emitted.
    uint64_t spilled_runs = 0;   ///< External-sort runs written to disk.
    uint64_t bytes_written = 0;  ///< Sort and biconnected spill bytes.
    uint64_t raw_edges = 0;      ///< Keyword pairs before pruning.
    uint64_t kept_edges = 0;     ///< Keyword-graph edges after pruning.
    uint64_t clusters = 0;
    uint64_t join_candidates = 0;
    uint64_t join_matches = 0;
    uint64_t copied_chunks = 0;  ///< Chunks SealedCopy rebuilt.
    uint64_t wal_bytes = 0;      ///< Record bytes appended (with header).
  };

  /// `log_dir` receives the replay's WAL and checkpoints; `log` may be
  /// null (no spans).
  LayerReplay(const stabletext::EngineOptions& options, std::string log_dir,
              SpanLog* log);

  stabletext::Status Open();

  /// Replays the next tick.
  stabletext::Status Tick(const std::vector<std::string>& posts);

  /// True when replayed interval `interval` has the engine's clusters
  /// (keywords and member edges) and the engine's parent edges in `snap`.
  bool Matches(const stabletext::GraphSnapshot& snap,
               uint32_t interval) const;

  uint32_t ticks() const { return static_cast<uint32_t>(clusters_.size()); }
  const std::vector<TickCounts>& counts() const { return counts_; }

 private:
  std::string SerializeDelta(uint32_t interval, size_t vocab_before) const;

  stabletext::EngineOptions options_;
  std::string log_dir_;
  SpanLog* log_;
  stabletext::KeywordDict dict_;
  stabletext::ClusterGraph graph_;
  std::vector<std::vector<stabletext::Cluster>> clusters_;
  std::vector<std::vector<stabletext::NodeId>> node_of_;
  std::vector<std::string> blobs_;
  std::vector<TickCounts> counts_;
  stabletext::IoStats wal_io_;
  stabletext::WalWriter wal_;
  std::unique_ptr<stabletext::Durability> checkpoints_;
};

/// Replays every tick `snap` committed (ticks 0 .. epoch-1 of `corpus`)
/// under `config.scratch`, checks each against the engine, and adds the
/// ingest-layer metrics. `publish_us` are the engine's publish times of
/// the ticks the run timed.
void ReplayCommittedTicks(const Config& config, const Corpus& corpus,
                          const stabletext::EngineOptions& options,
                          const stabletext::GraphSnapshot& snap, SpanLog* log,
                          const std::vector<double>& publish_us,
                          RunResult* result);

/// Adds the ingest-layer metrics of a traced run: per-tick medians of the
/// replay spans, the replay's counts, and the engine's own tick spans
/// ("core.tick") and publish times (EngineStats::publish_ns, in us).
void AddIngestLayerMetrics(RunResult* result,
                           const std::vector<const SpanLog*>& logs,
                           const LayerReplay& replay,
                           const std::vector<double>& publish_us);

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_REPLAY_H_
