#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "bench_stats.h"
#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "graph/graph_builder.h"
#include "text/document.h"

namespace stbench {

using namespace stabletext;

namespace {

constexpr uint32_t kCheckpointInterval = 16;

void PutU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void PutF64(std::string* out, double v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

LayerReplay::LayerReplay(const EngineOptions& options, std::string log_dir,
                         SpanLog* log)
    : options_(options), log_dir_(std::move(log_dir)), log_(log),
      graph_(0, options.gap) {}

Status LayerReplay::Open() {
  if (options_.affinity.measure == AffinityMeasure::kIntersection) {
    return Status::NotSupported("replay mirrors normalized measures only");
  }
  std::error_code ec;
  std::filesystem::create_directories(log_dir_ + "/checkpoints", ec);
  if (ec) return Status::IOError("cannot create " + log_dir_);
  ST_RETURN_IF_ERROR(wal_.Create(log_dir_ + "/replay.wal", nullptr, &wal_io_));
  DurabilityOptions durability;
  durability.enabled = true;
  durability.dir = log_dir_ + "/checkpoints";
  durability.checkpoint_interval = kCheckpointInterval;
  Durability::RecoveredState recovered;
  auto opened = Durability::Open(durability, &recovered);
  if (!opened.ok()) return opened.status();
  checkpoints_ = std::move(opened).value();
  return Status::OK();
}

Status LayerReplay::Tick(const std::vector<std::string>& posts) {
  const uint32_t t = static_cast<uint32_t>(clusters_.size());
  TickCounts counts;
  counts.posts = posts.size();
  const size_t vocab_before = dict_.size();
  {
    ScopedSpan tick(log_, "replay.tick", -1, t);
    std::vector<Document> documents(posts.size());
    {
      ScopedSpan span(log_, "text.process", tick.id(), t);
      DocumentProcessor processor;
      for (size_t i = 0; i < posts.size(); ++i) {
        documents[i] = processor.Process(t, posts[i]);
      }
    }
    std::vector<std::vector<KeywordId>> interned(documents.size());
    {
      ScopedSpan span(log_, "cooccur.intern", tick.id(), t);
      for (size_t i = 0; i < documents.size(); ++i) {
        for (const std::string& w : documents[i].keywords) {
          interned[i].push_back(dict_.Intern(w));
        }
        std::sort(interned[i].begin(), interned[i].end());
      }
    }
    for (const auto& ids : interned) counts.keywords += ids.size();

    IoStats io;
    CooccurrenceCounter counter(&dict_, options_.clustering.counting, &io);
    {
      ScopedSpan span(log_, "cooccur.add_interned", tick.id(), t);
      for (const auto& ids : interned) {
        ST_RETURN_IF_ERROR(counter.AddInterned(ids));
      }
    }
    counts.pairs = counter.pair_count();
    CooccurrenceTable table;
    {
      ScopedSpan span(log_, "cooccur.finish", tick.id(), t);
      ST_RETURN_IF_ERROR(counter.Finish(&table, dict_.size()));
    }

    KeywordGraphSummary summary;
    KeywordGraph keyword_graph;
    {
      ScopedSpan span(log_, "graph.build", tick.id(), t);
      GraphBuilder builder(options_.clustering.pruning);
      keyword_graph = builder.Build(table, &summary);
    }
    counts.raw_edges = summary.raw_edge_count;
    counts.kept_edges = summary.prune.surviving_edges;

    std::vector<Cluster> clusters;
    {
      ScopedSpan span(log_, "cluster.extract", tick.id(), t);
      ClusterExtractorOptions extraction = options_.clustering.extraction;
      extraction.biconnected.io_stats = &io;
      ClusterExtractor extractor(extraction);
      BiconnectedStats biconnected;
      auto extracted = extractor.Extract(keyword_graph, t, &biconnected);
      if (!extracted.ok()) return extracted.status();
      clusters = std::move(extracted).value();
    }
    counts.clusters = clusters.size();
    counts.spilled_runs = io.sort_runs_spilled;
    counts.bytes_written = io.bytes_written;
    clusters_.push_back(std::move(clusters));

    struct Match {
      uint32_t iv;
      AffinityMatch match;
    };
    std::vector<Match> matches;
    {
      ScopedSpan span(log_, "affinity.join", tick.id(), t);
      const uint32_t window_begin =
          t > options_.gap + 1 ? t - options_.gap - 1 : 0;
      SimilarityJoin join(options_.affinity);
      for (uint32_t iv = window_begin; iv < t; ++iv) {
        SimilarityJoinStats stats;
        for (const AffinityMatch& m :
             join.Join(clusters_[iv], clusters_[t], &stats)) {
          matches.push_back(Match{iv, m});
        }
        counts.join_candidates += stats.candidate_pairs;
        counts.join_matches += stats.result_pairs;
      }
    }
    {
      ScopedSpan span(log_, "stable.add_nodes", tick.id(), t);
      graph_.AddInterval();
      node_of_.emplace_back();
      for (size_t j = 0; j < clusters_[t].size(); ++j) {
        node_of_[t].push_back(graph_.AddNode(t));
      }
    }
    {
      ScopedSpan span(log_, "stable.add_edges", tick.id(), t);
      for (const Match& m : matches) {
        ST_RETURN_IF_ERROR(graph_.AddEdge(node_of_[m.iv][m.match.left],
                                          node_of_[t][m.match.right],
                                          std::min(m.match.affinity, 1.0)));
      }
    }
    {
      ScopedSpan span(log_, "stable.sort_touched", tick.id(), t);
      graph_.SortTouched();
    }
    {
      ScopedSpan span(log_, "stable.sealed_copy", tick.id(), t);
      ClusterGraph::SealStats seal;
      ClusterGraph sealed = graph_.SealedCopy(false, &seal);
      counts.copied_chunks = seal.copied_chunks;
    }
  }

  blobs_.push_back(SerializeDelta(t, vocab_before));
  const std::string& blob = blobs_.back();
  counts.wal_bytes = blob.size() + 8;  // Record header: length + CRC.
  {
    ScopedSpan span(log_, "storage.wal_append", -1, t);
    ST_RETURN_IF_ERROR(wal_.Append(blob.data(), blob.size()));
  }
  {
    ScopedSpan span(log_, "storage.wal_sync", -1, t);
    ST_RETURN_IF_ERROR(wal_.Sync());
  }
  if ((t + 1) % kCheckpointInterval == 0) {
    ScopedSpan span(log_, "core.checkpoint", -1, t);
    ST_RETURN_IF_ERROR(checkpoints_->WriteCheckpoint(
        t + 1, [this](uint32_t i) { return blobs_[i]; }));
  }
  counts_.push_back(counts);
  return Status::OK();
}

std::string LayerReplay::SerializeDelta(uint32_t interval,
                                        size_t vocab_before) const {
  // The tick's delta in the shape a durable commit logs: new words,
  // clusters with member edges, and the cluster-graph edges the tick
  // added (every new edge ends in this interval).
  std::string out;
  PutU32(&out, interval);
  PutU32(&out, static_cast<uint32_t>(dict_.size() - vocab_before));
  for (size_t id = vocab_before; id < dict_.size(); ++id) {
    const std::string& w = dict_.Word(static_cast<KeywordId>(id));
    PutU32(&out, static_cast<uint32_t>(w.size()));
    out += w;
  }
  PutU32(&out, static_cast<uint32_t>(clusters_[interval].size()));
  for (const Cluster& c : clusters_[interval]) {
    PutU32(&out, static_cast<uint32_t>(c.keywords.size()));
    for (KeywordId k : c.keywords) PutU32(&out, k);
    PutU32(&out, static_cast<uint32_t>(c.edges.size()));
    for (const WeightedEdge& e : c.edges) {
      PutU32(&out, e.u);
      PutU32(&out, e.v);
      PutF64(&out, e.weight);
    }
  }
  for (NodeId node : node_of_[interval]) {
    for (const ClusterGraphEdge e : graph_.Parents(node)) {
      PutU32(&out, e.target);
      PutU32(&out, node);
      PutF64(&out, e.weight);
    }
  }
  return out;
}

bool LayerReplay::Matches(const GraphSnapshot& snap,
                          uint32_t interval) const {
  if (interval >= clusters_.size() || interval >= snap.intervals.size()) {
    return false;
  }
  const std::vector<Cluster>& mine = clusters_[interval];
  const std::vector<Cluster>& theirs =
      snap.intervals[interval]->result.clusters;
  if (mine.size() != theirs.size()) return false;
  for (size_t j = 0; j < mine.size(); ++j) {
    if (mine[j].keywords != theirs[j].keywords ||
        mine[j].edges != theirs[j].edges) {
      return false;
    }
  }
  const std::vector<NodeId>& engine_nodes =
      snap.graph->IntervalNodes(interval);
  if (engine_nodes != node_of_[interval]) return false;
  for (NodeId node : engine_nodes) {
    const EdgeSpan a = graph_.Parents(node);
    const EdgeSpan b = snap.graph->Parents(node);
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].target != b[i].target || a[i].weight != b[i].weight) {
        return false;
      }
    }
  }
  return true;
}

void ReplayCommittedTicks(const Config& config, const Corpus& corpus,
                          const EngineOptions& options,
                          const GraphSnapshot& snap, SpanLog* log,
                          const std::vector<double>& publish_us,
                          RunResult* result) {
  const std::string dir = config.scratch + "/replay";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  {
    LayerReplay replay(options, dir, log);
    Status status = replay.Open();
    bool matches = status.ok();
    for (uint32_t t = 0; status.ok() && t < snap.epoch; ++t) {
      status = replay.Tick(corpus.Tick(t));
      matches &= status.ok() && replay.Matches(snap, t);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "replay: %s\n", status.ToString().c_str());
    }
    result->Check("replay_matches_engine", matches && replay.ticks() > 0);
    result->attempted += replay.ticks();
    AddIngestLayerMetrics(result, {log}, replay, publish_us);
  }
  std::filesystem::remove_all(dir, ec);
}

namespace {

double MedianOf(const std::vector<const SpanLog*>& logs,
                const std::string& name, double scale = 1.0) {
  std::vector<double> ms = SpanMillis(logs, name);
  for (double& v : ms) v *= scale;
  return Median(std::move(ms));
}

}  // namespace

void AddIngestLayerMetrics(RunResult* result,
                           const std::vector<const SpanLog*>& logs,
                           const LayerReplay& replay,
                           const std::vector<double>& publish_us) {
  LayerReplay::TickCounts total;
  for (const LayerReplay::TickCounts& c : replay.counts()) {
    total.posts += c.posts;
    total.keywords += c.keywords;
    total.pairs += c.pairs;
    total.spilled_runs += c.spilled_runs;
    total.bytes_written += c.bytes_written;
    total.raw_edges += c.raw_edges;
    total.kept_edges += c.kept_edges;
    total.clusters += c.clusters;
    total.join_candidates += c.join_candidates;
    total.join_matches += c.join_matches;
    total.copied_chunks += c.copied_chunks;
    total.wal_bytes += c.wal_bytes;
  }
  const double ticks = std::max<double>(1, replay.counts().size());
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / den;
  };

  // The per-tick extend cost is the sum of the three graph-extension
  // spans of that tick.
  std::vector<double> extend_ms(replay.counts().size(), 0.0);
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if ((s.name == "stable.add_nodes" || s.name == "stable.add_edges" ||
           s.name == "stable.sort_touched") &&
          s.request < extend_ms.size()) {
        extend_ms[s.request] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      }
    }
  }
  const double tick_ms = MedianOf(logs, "core.tick");
  const double replay_ms = MedianOf(logs, "replay.tick");

  result->Add("text.tokenize_ms", MedianOf(logs, "text.process"), "ms");
  result->Add("text.keywords_per_post", ratio(total.keywords, total.posts),
              "count");
  result->Add("cooccur.intern_ms", MedianOf(logs, "cooccur.intern"), "ms");
  result->Add("cooccur.emit_ms", MedianOf(logs, "cooccur.add_interned"),
              "ms");
  result->Add("cooccur.finish_ms", MedianOf(logs, "cooccur.finish"), "ms");
  result->Add("cooccur.pairs_per_tick", total.pairs / ticks, "count");
  result->Add("storage.sort_spilled_runs", total.spilled_runs / ticks,
              "count");
  result->Add("storage.sort_bytes_written", total.bytes_written / ticks,
              "bytes");
  result->Add("graph.prune_ms", MedianOf(logs, "graph.build"), "ms");
  result->Add("graph.kept_edge_ratio", ratio(total.kept_edges, total.raw_edges),
              "ratio");
  result->Add("cluster.extract_ms", MedianOf(logs, "cluster.extract"), "ms");
  result->Add("cluster.clusters_per_tick", total.clusters / ticks, "count");
  result->Add("affinity.join_ms", MedianOf(logs, "affinity.join"), "ms");
  result->Add("affinity.match_ratio",
              ratio(total.join_matches, total.join_candidates), "ratio");
  result->Add("stable.extend_ms", Median(extend_ms), "ms");
  result->Add("stable.seal_us", MedianOf(logs, "stable.sealed_copy", 1e3),
              "us");
  result->Add("stable.copied_chunks", total.copied_chunks / ticks, "count");
  result->Add("storage.wal_append_us",
              MedianOf(logs, "storage.wal_append", 1e3), "us");
  result->Add("storage.wal_fsync_us", MedianOf(logs, "storage.wal_sync", 1e3),
              "us");
  result->Add("storage.wal_bytes_per_tick", total.wal_bytes / ticks, "bytes");
  result->Add("core.checkpoint_ms", MedianOf(logs, "core.checkpoint"), "ms");
  result->Add("core.tick_ms", tick_ms, "ms");
  result->Add("core.parallel_gain", tick_ms > 0 ? replay_ms / tick_ms : 0,
              "ratio");
  result->Add("core.publish_us", Median(publish_us), "us");
  result->Detail("replay.tick_ms", replay_ms, "ms");
  result->Detail("replay.ticks", ticks, "count");
}

}  // namespace stbench
