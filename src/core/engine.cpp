#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <map>

#include "text/corpus.h"
#include "util/timer.h"

namespace stabletext {

namespace {

// A reader's warm-online request, packed for the lock-free hint slot:
// k in the high 32 bits, l in the low 32. 0 = no hint (k is validated
// positive before packing).
uint64_t PackOnlineHint(size_t k, uint32_t l) {
  if (k == 0 || k > UINT32_MAX) return 0;
  return (static_cast<uint64_t>(k) << 32) | l;
}

// Interval-delta (de)serialization for the durability log. Host-endian,
// like every file the storage layer writes; doubles are copied bit-exact
// (replay must reproduce weights to the last bit).
class ByteWriter {
 public:
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::string& data) : data_(data) {}
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) { return Raw(v, sizeof(*v)); }
  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len)) return false;
    if (len > data_.size() - offset_) return false;
    s->assign(data_.data() + offset_, len);
    offset_ += len;
    return true;
  }
  bool Raw(void* p, size_t n) {
    if (n > data_.size() - offset_) return false;
    std::memcpy(p, data_.data() + offset_, n);
    offset_ += n;
    return true;
  }
  bool AtEnd() const { return offset_ == data_.size(); }
  size_t remaining() const { return data_.size() - offset_; }

 private:
  const std::string& data_;
  size_t offset_ = 0;
};

void WriteIoStats(ByteWriter* w, const IoStats& io) {
  w->U64(io.page_reads);
  w->U64(io.page_writes);
  w->U64(io.logical_reads);
  w->U64(io.random_seeks);
  w->U64(io.bytes_read);
  w->U64(io.bytes_written);
  w->U64(io.fsyncs);
  w->U64(io.sort_runs_spilled);
  w->U64(io.sort_merge_passes);
  w->U64(io.sort_in_memory_sorts);
  w->U64(io.sort_tail_records);
}

bool ReadIoStats(ByteReader* r, IoStats* io) {
  return r->U64(&io->page_reads) && r->U64(&io->page_writes) &&
         r->U64(&io->logical_reads) && r->U64(&io->random_seeks) &&
         r->U64(&io->bytes_read) && r->U64(&io->bytes_written) &&
         r->U64(&io->fsyncs) && r->U64(&io->sort_runs_spilled) &&
         r->U64(&io->sort_merge_passes) &&
         r->U64(&io->sort_in_memory_sorts) &&
         r->U64(&io->sort_tail_records);
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), graph_(0, options_.gap),
      cache_(std::make_unique<QueryCache>(options_.query_cache)) {
  // The constructing thread is the writer until the engine is handed off.
  AssumeRole role(writer_role_);
  if (options_.threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.threads);
  }
  if (options_.affinity.measure == AffinityMeasure::kIntersection) {
    // Raw intersection counts go into the graph unnormalized; reads
    // apply the running-max scale (lazy renormalization).
    graph_.EnableRawWeights();
  }
  Publish();  // Epoch 0: queries are valid before the first ingest.
}

Result<std::vector<PackedDocuments>> Engine::TokenizePosts(
    const std::vector<std::string>& posts) {
  // Tokenization is document-independent: chunks of consecutive posts fan
  // out and each fills its own buffers (order, and therefore downstream
  // keyword ids, never depend on scheduling). The buffers are reserved
  // here, on the writer, from the chunk's post bytes, which bound them:
  // the workers append without allocating, so a tick's keywords never
  // land in the pool threads' malloc arenas.
  const size_t chunks = pool_ != nullptr && posts.size() > 1
                            ? std::min(pool_->size() * 4, posts.size())
                            : 1;
  const size_t per_chunk = (posts.size() + chunks - 1) / chunks;
  std::vector<PackedDocuments> packed;
  packed.reserve(chunks);
  for (size_t begin = 0; begin < posts.size(); begin += per_chunk) {
    const size_t end = std::min(posts.size(), begin + per_chunk);
    size_t bytes = 0;
    for (size_t i = begin; i < end; ++i) bytes += posts[i].size();
    if (bytes >= UINT32_MAX) {
      // PackedDocuments offsets are 32-bit.
      return Status::InvalidArgument(
          "over 4 GiB of post text in one tokenizing chunk");
    }
    packed.emplace_back().Reserve(end - begin, bytes);
  }
  auto fill = [&](size_t chunk) {
    DocumentProcessor::Scratch scratch;
    const size_t end = std::min(posts.size(), (chunk + 1) * per_chunk);
    for (size_t i = chunk * per_chunk; i < end; ++i) {
      processor_.Append(posts[i], &packed[chunk], &scratch);
    }
  };
  if (packed.size() > 1) {
    std::vector<std::future<void>> futures;
    futures.reserve(packed.size());
    for (size_t chunk = 0; chunk < packed.size(); ++chunk) {
      futures.push_back(pool_->Submit([&fill, chunk] { fill(chunk); }));
    }
    pool_->WaitAll(futures);
  } else if (!packed.empty()) {
    fill(0);
  }
  return packed;
}

std::vector<std::vector<KeywordId>> Engine::InternDocuments(
    const std::vector<PackedDocuments>& chunks) {
  // Intern on the calling thread, in document order: keyword ids are
  // assigned exactly as a sequential run would assign them, no matter how
  // many workers the heavy phase uses.
  size_t documents = 0;
  for (const PackedDocuments& chunk : chunks) documents += chunk.size();
  std::vector<std::vector<KeywordId>> interned;
  interned.reserve(documents);
  for (const PackedDocuments& chunk : chunks) {
    size_t w = 0;
    for (const uint32_t end : chunk.doc_ends) {
      std::vector<KeywordId> ids;
      ids.reserve(end - w);
      for (; w < end; ++w) ids.push_back(dict_.Intern(chunk.Word(w)));
      std::sort(ids.begin(), ids.end());
      interned.push_back(std::move(ids));
    }
  }
  return interned;
}

Result<uint32_t> Engine::IngestText(const std::vector<std::string>& posts) {
  AssumeRole role(writer_role_);
  return IngestTextLocked(posts);
}

Result<uint32_t> Engine::IngestTextLocked(
    const std::vector<std::string>& posts) {
  auto packed = TokenizePosts(posts);
  if (!packed.ok()) return packed.status();
  return IngestDocumentsLocked(std::move(packed).value());
}

Result<uint32_t> Engine::IngestDocumentsLocked(
    std::vector<PackedDocuments> documents) {
  if (!broken_.ok()) return broken_;
  if (options_.durability.enabled && durability_ == nullptr) {
    return Status::InvalidArgument(
        "durability is enabled but the engine was not built by "
        "Engine::Recover; a plain constructor cannot report log recovery "
        "failures");
  }
  const uint32_t interval = static_cast<uint32_t>(slots_.size());
  const size_t vocab_before = dict_.size();
  std::vector<std::vector<KeywordId>> interned = InternDocuments(documents);
  // Each stage's input is freed once consumed, so the tick's transient
  // peak is one stage's working set, not all of them.
  documents.clear();
  auto slot = std::make_shared<SnapshotInterval>();
  slot->vocab_size = dict_.size();
  IntervalClusterer clusterer(&dict_, options_.clustering, &slot->io);
  auto result = clusterer.RunInterned(interval, interned);
  interned.clear();
  if (!result.ok()) {
    // Clustering failed before anything was adopted: roll the interning
    // back so a failed tick leaves no trace in keyword-id assignment (a
    // later successful ingest must be byte-identical to one on an engine
    // that never saw the failed tick).
    dict_.TruncateTo(vocab_before);
    return result.status();
  }
  slot->result = std::move(result).value();
  return CommitInterval(std::move(slot));
}

Result<uint32_t> Engine::CommitInterval(
    std::shared_ptr<SnapshotInterval> slot) {
  const uint32_t interval = static_cast<uint32_t>(slots_.size());
  io_ += slot->io;
  for (const Cluster& cluster : slot->result.clusters) {
    clusters_bytes_ +=
        sizeof(Cluster) + cluster.keywords.size() * sizeof(KeywordId);
  }
  slots_.push_back(std::move(slot));  // Immutable from here on.
  Status commit = ExtendGraph(interval);
  if (commit.ok()) commit = AdvanceWarmOnline(interval);
  if (commit.ok() && durability_ != nullptr) {
    // Log before publish: an epoch readers can observe is always
    // recoverable. The converse tail case — record synced, publish
    // preempted — is why recovery may land one epoch *ahead* of what
    // was published at the crash.
    commit = durability_->LogCommit(SerializeIntervalDelta(interval));
  }
  if (!commit.ok()) {
    // The interval is half-committed in writer state and cannot be
    // rolled back; refusing further ingest keeps the published epochs
    // honest — readers keep serving the last snapshot, which never saw
    // any of this interval.
    broken_ = Status::Internal(
        "a previous ingest failed mid-commit (" + commit.message() +
        "); the engine no longer accepts intervals");
    return commit;
  }
  // The commit point for readers: everything above mutated only private
  // writer state; the swap below makes the new epoch visible atomically.
  Publish();
  if (durability_ != nullptr &&
      durability_->ShouldCheckpoint(slots_.size())) {
    Status ck = durability_->WriteCheckpoint(
        slots_.size(), [this](uint32_t i) {
          // Runs synchronously on this (writer) thread inside
          // WriteCheckpoint; the analysis sees the lambda as a separate
          // function, so restate the role it inherits.
          AssumeRole role(writer_role_);
          return SerializeIntervalDelta(i);
        });
    if (!ck.ok()) {
      // The interval itself is committed, published and WAL-durable;
      // only the checkpoint failed. The directory still recovers to
      // this epoch (from the old generation, or from the new checkpoint
      // once its rename landed), but this writer's next checkpoint
      // boundary would silently drift, so refuse further ingest and
      // surface the failure.
      broken_ = Status::Internal(
          "checkpoint failed (" + ck.message() +
          "); the engine no longer accepts intervals");
      return ck;
    }
  }
  return interval;
}

Result<std::unique_ptr<Engine>> Engine::Recover(EngineOptions options) {
  if (!options.durability.enabled || options.durability.dir.empty()) {
    return Status::InvalidArgument(
        "Engine::Recover requires durability.enabled and a data "
        "directory");
  }
  auto engine = std::make_unique<Engine>(std::move(options));
  Durability::RecoveredState state;
  auto durability = Durability::Open(engine->options_.durability, &state);
  if (!durability.ok()) return durability.status();
  engine->durability_ = std::move(durability).value();
  // The recovering thread is the writer until the engine is handed off.
  AssumeRole role(engine->writer_role_);
  for (const std::string& blob : state.blobs) {
    ST_RETURN_IF_ERROR(engine->ReplayInterval(blob));
  }
  engine->recovered_epoch_ = engine->slots_.size();
  engine->Publish();
  return engine;
}

std::string Engine::SerializeIntervalDelta(uint32_t interval) const {
  ByteWriter w;
  w.U32(interval);
  const uint64_t vocab_before =
      interval == 0 ? 0 : slots_[interval - 1]->vocab_size;
  const uint64_t vocab_after = slots_[interval]->vocab_size;
  w.U64(vocab_before);
  w.U64(vocab_after);
  // Words this interval interned. Replay re-interns them in id order, so
  // a recovered dictionary assigns every id exactly as the original run.
  for (uint64_t id = vocab_before; id < vocab_after; ++id) {
    w.Str(dict_.Word(static_cast<KeywordId>(id)));
  }
  const IntervalResult& res = slots_[interval]->result;
  w.U64(res.graph_summary.document_count);
  w.U64(res.graph_summary.keyword_count);
  w.U64(res.graph_summary.raw_edge_count);
  w.U64(res.graph_summary.prune.input_edges);
  w.U64(res.graph_summary.prune.failed_support);
  w.U64(res.graph_summary.prune.failed_chi_square);
  w.U64(res.graph_summary.prune.failed_rho);
  w.U64(res.graph_summary.prune.surviving_edges);
  w.U64(res.biconnected.components);
  w.U64(res.biconnected.articulation_points);
  w.U64(res.biconnected.max_stack_entries);
  w.U64(res.biconnected.spilled_entries);
  w.U64(res.clusters.size());
  for (const Cluster& cluster : res.clusters) {
    w.U32(static_cast<uint32_t>(cluster.keywords.size()));
    for (KeywordId kw : cluster.keywords) w.U32(kw);
    w.U32(static_cast<uint32_t>(cluster.edges.size()));
    for (const WeightedEdge& e : cluster.edges) {
      w.U32(e.u);
      w.U32(e.v);
      w.F64(e.weight);
    }
  }
  WriteIoStats(&w, slots_[interval]->io);
  // The tick's adjacency delta: every edge added by this interval's
  // commit has its head here (edges only point forward in time), so the
  // parents of this interval's nodes are exactly the delta. Stored
  // (raw) weights — replaying AddEdge with them reproduces the graph
  // bits and the running-max normalizer without rerunning the joins.
  uint64_t edge_count = 0;
  for (NodeId c : graph_.IntervalNodes(interval)) {
    edge_count += graph_.StoredParents(c).size();
  }
  w.U64(edge_count);
  for (NodeId c : graph_.IntervalNodes(interval)) {
    for (const ClusterGraphEdge e : graph_.StoredParents(c)) {
      w.U32(e.target);  // from
      w.U32(c);         // to
      w.F64(e.weight);
    }
  }
  return w.Take();
}

Status Engine::ReplayInterval(const std::string& blob) {
  auto corrupt = [](const char* what) {
    return Status::Corruption(std::string("interval delta: ") + what);
  };
  ByteReader r(blob);
  // Every count below is checked against the bytes left before it sizes
  // anything: a CRC-valid record with an absurd count is Corruption, not
  // a length_error or an allocation of the count.
  auto fits = [&r](uint64_t count, size_t min_encoded_bytes) {
    return count <= r.remaining() / min_encoded_bytes;
  };
  uint32_t interval = 0;
  if (!r.U32(&interval)) return corrupt("truncated header");
  if (interval != slots_.size()) {
    return corrupt("interval out of order");
  }
  uint64_t vocab_before = 0;
  uint64_t vocab_after = 0;
  if (!r.U64(&vocab_before) || !r.U64(&vocab_after) ||
      vocab_after < vocab_before) {
    return corrupt("bad vocabulary watermarks");
  }
  if (!fits(vocab_after - vocab_before, sizeof(uint32_t))) {
    return corrupt("keyword count exceeds the record");
  }
  if (vocab_before != dict_.size()) {
    return corrupt("vocabulary watermark mismatch");
  }
  for (uint64_t id = vocab_before; id < vocab_after; ++id) {
    std::string word;
    if (!r.Str(&word)) return corrupt("truncated keyword");
    if (dict_.Intern(word) != id) {
      return corrupt("keyword id diverged during replay");
    }
  }
  auto slot = std::make_shared<SnapshotInterval>();
  slot->vocab_size = vocab_after;
  IntervalResult& res = slot->result;
  res.interval = interval;
  uint64_t cluster_count = 0;
  if (!r.U64(&res.graph_summary.document_count) ||
      !r.U64(&res.graph_summary.keyword_count) ||
      !r.U64(&res.graph_summary.raw_edge_count) ||
      !r.U64(&res.graph_summary.prune.input_edges) ||
      !r.U64(&res.graph_summary.prune.failed_support) ||
      !r.U64(&res.graph_summary.prune.failed_chi_square) ||
      !r.U64(&res.graph_summary.prune.failed_rho) ||
      !r.U64(&res.graph_summary.prune.surviving_edges) ||
      !r.U64(&res.biconnected.components) ||
      !r.U64(&res.biconnected.articulation_points) ||
      !r.U64(&res.biconnected.max_stack_entries) ||
      !r.U64(&res.biconnected.spilled_entries) || !r.U64(&cluster_count)) {
    return corrupt("truncated interval summary");
  }
  // A cluster encodes at least its two u32 counts; a keyword is a u32;
  // an edge (member or adjacency) is two u32 ids and an f64 weight.
  constexpr size_t kEdgeBytes = 2 * sizeof(uint32_t) + sizeof(double);
  if (!fits(cluster_count, 2 * sizeof(uint32_t))) {
    return corrupt("cluster count exceeds the record");
  }
  res.clusters.reserve(cluster_count);
  for (uint64_t j = 0; j < cluster_count; ++j) {
    Cluster cluster;
    uint32_t kw_count = 0;
    if (!r.U32(&kw_count)) return corrupt("truncated cluster");
    if (!fits(kw_count, sizeof(uint32_t))) {
      return corrupt("cluster keyword count exceeds the record");
    }
    cluster.keywords.resize(kw_count);
    for (uint32_t i = 0; i < kw_count; ++i) {
      if (!r.U32(&cluster.keywords[i])) return corrupt("truncated cluster");
      if (cluster.keywords[i] >= vocab_after) {
        return corrupt("cluster keyword beyond watermark");
      }
    }
    uint32_t member_edges = 0;
    if (!r.U32(&member_edges)) return corrupt("truncated cluster");
    if (!fits(member_edges, kEdgeBytes)) {
      return corrupt("cluster edge count exceeds the record");
    }
    cluster.edges.resize(member_edges);
    for (uint32_t i = 0; i < member_edges; ++i) {
      if (!r.U32(&cluster.edges[i].u) || !r.U32(&cluster.edges[i].v) ||
          !r.F64(&cluster.edges[i].weight)) {
        return corrupt("truncated cluster edge");
      }
    }
    res.clusters.push_back(std::move(cluster));
  }
  if (!ReadIoStats(&r, &slot->io)) return corrupt("truncated io stats");
  uint64_t edge_count = 0;
  if (!r.U64(&edge_count)) return corrupt("truncated edge count");
  if (!fits(edge_count, kEdgeBytes)) {
    return corrupt("adjacency edge count exceeds the record");
  }
  std::vector<IntervalEdge> edges(edge_count);
  for (IntervalEdge& e : edges) {
    if (!r.U32(&e.from) || !r.U32(&e.to) || !r.F64(&e.weight)) {
      return corrupt("truncated adjacency edge");
    }
  }
  if (!r.AtEnd()) return corrupt("trailing bytes");

  // Adopt — the mirror of CommitInterval, with the logged deltas
  // standing in for clustering and the affinity joins. Warm online state
  // is deliberately not rebuilt (it is reader-visible cache, recreated
  // on demand).
  io_ += slot->io;
  for (const Cluster& cluster : res.clusters) {
    clusters_bytes_ +=
        sizeof(Cluster) + cluster.keywords.size() * sizeof(KeywordId);
  }
  slots_.push_back(std::move(slot));
  return GrowGraph(interval, cluster_count, edges);
}

Result<uint32_t> Engine::IngestTicks(
    const std::vector<std::vector<std::string>>& ticks,
    const TickCallback& on_tick) {
  AssumeRole role(writer_role_);
  return IngestTicksLocked(ticks, on_tick);
}

Result<uint32_t> Engine::IngestTicksLocked(
    const std::vector<std::vector<std::string>>& ticks,
    const TickCallback& on_tick) {
  uint32_t ingested = 0;
  for (const auto& posts : ticks) {
    auto r = IngestTextLocked(posts);
    if (!r.ok()) return r.status();
    ++ingested;
    if (on_tick != nullptr) {
      ST_RETURN_IF_ERROR(on_tick(r.value(), posts));
    }
  }
  return ingested;
}

Result<uint32_t> Engine::IngestCorpusFile(const std::filesystem::path& path,
                                          const TickCallback& on_tick) {
  AssumeRole role(writer_role_);
  CorpusReader reader;
  ST_RETURN_IF_ERROR(reader.Open(path.string()));
  // Group posts by interval; intervals must be contiguous from the
  // engine's next interval.
  std::map<uint32_t, std::vector<std::string>> by_interval;
  uint32_t interval;
  std::string text;
  while (reader.Next(&interval, &text)) {
    by_interval[interval].push_back(text);
  }
  ST_RETURN_IF_ERROR(reader.status());
  uint32_t expected = static_cast<uint32_t>(slots_.size());
  std::vector<std::vector<std::string>> ticks;
  ticks.reserve(by_interval.size());
  for (auto& [iv, posts] : by_interval) {
    if (iv != expected) {
      return Status::InvalidArgument(
          "corpus intervals must be contiguous from the engine's next "
          "interval");
    }
    ++expected;
    ticks.push_back(std::move(posts));
  }
  return IngestTicksLocked(ticks, on_tick);
}

Status Engine::ExtendGraph(uint32_t interval) {
  const auto& clusters = slots_[interval]->result.clusters;
  // Affinity joins between the new interval and the gap-window frontier.
  // Window intervals are independent, so they fan out; per-interval match
  // lists land in fixed slots and are stitched in ascending interval
  // order, keeping edge insertion deterministic.
  const uint32_t window_begin =
      interval > options_.gap + 1 ? interval - options_.gap - 1 : 0;
  struct JoinJob {
    uint32_t iv;
    std::vector<AffinityMatch> matches;
  };
  std::vector<JoinJob> jobs;
  for (uint32_t iv = window_begin; iv < interval; ++iv) {
    jobs.push_back(JoinJob{iv, {}});
  }
  // Per-window-slot scratch, reused tick over tick (allocation-free once
  // warm); slot i is touched only by job i, so pool workers never share.
  while (join_scratch_.size() < jobs.size()) {
    join_scratch_.push_back(std::make_unique<JoinScratch>());
  }
  if (pool_ != nullptr && jobs.size() > 1) {
    // Workers read only immutable slot payloads: alias the guarded
    // vector once, under the role, and capture the alias — a captured
    // `this` would put the reads outside the analysis's view of the
    // held role.
    const auto& slots = slots_;
    const AffinityOptions& affinity = options_.affinity;
    std::vector<std::future<void>> futures;
    futures.reserve(jobs.size());
    for (size_t jidx = 0; jidx < jobs.size(); ++jidx) {
      JoinJob* job = &jobs[jidx];
      JoinScratch* scratch = join_scratch_[jidx].get();
      futures.push_back(
          pool_->Submit([job, scratch, &clusters, &slots, &affinity] {
            SimilarityJoin join(affinity);
            job->matches = join.Join(slots[job->iv]->result.clusters,
                                     clusters, nullptr, scratch);
          }));
    }
    pool_->WaitAll(futures);
  } else {
    SimilarityJoin join(options_.affinity);
    for (size_t jidx = 0; jidx < jobs.size(); ++jidx) {
      JoinJob& job = jobs[jidx];
      job.matches = join.Join(slots_[job.iv]->result.clusters, clusters,
                              nullptr, join_scratch_[jidx].get());
    }
  }

  // The new interval's nodes are created by GrowGraph, dense and in
  // cluster order from the current node count; a window interval's node
  // list is in cluster order too.
  const NodeId first_new = static_cast<NodeId>(graph_.node_count());
  std::vector<IntervalEdge> edges;
  for (const JoinJob& job : jobs) {
    const std::vector<NodeId>& left = graph_.IntervalNodes(job.iv);
    for (const AffinityMatch& match : job.matches) {
      edges.push_back(IntervalEdge{left[match.left], first_new + match.right,
                                   match.affinity});
    }
  }
  return GrowGraph(interval, clusters.size(), edges);
}

Status Engine::GrowGraph(uint32_t interval, size_t cluster_count,
                         const std::vector<IntervalEdge>& edges) {
  const uint32_t added = graph_.AddInterval();
  assert(added == interval);
  (void)added;
  for (size_t j = 0; j < cluster_count; ++j) graph_.AddNode(interval);

  // Measures without a (0, 1] range (raw intersection counts) are
  // normalized by the running maximum, per the paper's footnote on
  // affinity functions — lazily: edges keep their raw weight and every
  // read applies the shared scale 1/max, so a growing maximum updates one
  // double instead of rewriting O(E) edges. At any point every edge is
  // normalized by the same constant, so path rankings are unaffected.
  const bool raw_weights =
      options_.affinity.measure == AffinityMeasure::kIntersection;
  if (raw_weights) {
    double tick_max = 0;
    for (const IntervalEdge& e : edges) {
      tick_max = std::max(tick_max, e.weight);
    }
    if (tick_max > running_max_affinity_) {
      if (running_max_affinity_ > 0) {
        // The warm online sweep holds paths built from the old scale;
        // rebuild it at the new scale before the next publish.
        online_rescale_needed_ = true;
      }
      running_max_affinity_ = tick_max;
      graph_.set_weight_scale(1.0 / running_max_affinity_);
    }
  }
  for (const IntervalEdge& e : edges) {
    ST_RETURN_IF_ERROR(graph_.AddEdge(
        e.from, e.to, raw_weights ? e.weight : std::min(e.weight, 1.0)));
  }
  graph_.SortTouched();
  return Status::OK();
}

Status Engine::AdvanceWarmOnline(uint32_t interval) {
  if (online_ != nullptr && online_rescale_needed_) {
    // Weights were rescaled: the warm paths are at the old scale. Rebuild
    // from interval 0 at the current scale (one full sweep, then marginal
    // cost again).
    online_ = std::make_unique<IntervalSweep>(online_->k(), online_->l());
  }
  online_rescale_needed_ = false;
  // Adopt a reader's requested configuration (set when an online query
  // missed the published warm state).
  const uint64_t hint =
      online_hint_.exchange(0, std::memory_order_relaxed);
  if (hint != 0) {
    const size_t k = static_cast<size_t>(hint >> 32);
    const uint32_t l = static_cast<uint32_t>(hint & 0xffffffffULL);
    if (online_ == nullptr || online_->k() != k || online_->l() != l) {
      online_ = std::make_unique<IntervalSweep>(k, l);
    }
  }
  if (online_ == nullptr) return Status::OK();
  for (uint32_t iv = online_->next_interval(); iv <= interval; ++iv) {
    ST_RETURN_IF_ERROR(online_->Advance(graph_, iv));
  }
  return Status::OK();
}

void Engine::Publish() {
  WallTimer publish_timer;
  auto snap = std::make_shared<GraphSnapshot>();
  snap->epoch = slots_.size();
  // Seal the adjacency delta: only chunks this tick touched are rebuilt;
  // every other chunk pointer is shared with the previous epoch's graph.
  ClusterGraph::SealStats seal;
  snap->graph = std::make_shared<const ClusterGraph>(
      graph_.SealedCopy(/*materialize_scale=*/false, &seal));
  if (snap->epoch > options_.gap + 1) {
    // The next interval's edges start no earlier than epoch - gap - 1:
    // older nodes are final, and the seal just taken holds their stored
    // weights, so their writer-side lists can go. A refused release
    // (never expected here) only keeps the lists.
    graph_.ReleaseSettled(
        static_cast<uint32_t>(snap->epoch - options_.gap - 1))
        .IgnoreError();
  }
  snap->intervals = slots_;
  // The keyword table is the dictionary's own chunks, shared: the writer
  // only ever appends past this epoch's words (see SnapshotWords). Every
  // tick interns and commits in one call, so the dictionary is exactly
  // the last committed interval's vocabulary.
  const size_t vocab = dict_.size();
  assert(slots_.empty() || slots_.back()->vocab_size == vocab);
  snap->words.chunks = dict_.ShareChunks();
  snap->words.total = vocab;
  for (; words_counted_ < vocab; ++words_counted_) {
    words_bytes_ += sizeof(std::string) +
                    dict_.Word(static_cast<KeywordId>(words_counted_)).size();
  }
  if (online_ != nullptr && online_->next_interval() == snap->epoch) {
    snap->has_online = true;
    snap->online_k = online_->k();
    snap->online_l = online_->l();
    snap->online_topk = online_->TopK();
  }
  snap->stats.intervals = static_cast<uint32_t>(snap->epoch);
  snap->stats.clusters = graph_.node_count();
  snap->stats.edges = graph_.edge_count();
  snap->stats.keywords = vocab;
  snap->stats.graph_bytes = graph_.MemoryBytes();
  snap->stats.io = io_;
  if (durability_ != nullptr) {
    // WAL + checkpoint traffic (fsyncs included). Kept out of io_ so the
    // ingest-side counters a recovered engine replays stay exact.
    snap->stats.io += durability_->io();
    snap->stats.wal_bytes = durability_->wal_bytes();
    snap->stats.checkpoint_ns = durability_->checkpoint_ns();
  }
  snap->stats.recovered_epoch = recovered_epoch_;
  snap->stats.shared_chunk_count = seal.shared_chunks;
  snap->stats.copied_chunk_count = seal.copied_chunks;
  snap->stats.resident_bytes =
      snap->graph->MemoryBytes() + words_bytes_ + clusters_bytes_;
  // Answers computed at superseded epochs can never be served again
  // (keys carry the epoch); drop them so the cache holds only live
  // entries.
  cache_->EvictBefore(snap->epoch);
  snap->stats.publish_ns =
      static_cast<uint64_t>(publish_timer.ElapsedNanos());
  std::shared_ptr<const GraphSnapshot> published = std::move(snap);
  // The epoch counter moves before the swap, never after. Were it to lag
  // the snapshot, a reader whose pin had just seen epoch e could next
  // hit a leftover entry of e-1, and its answers would go back in time.
  // Leading is safe: entries of e exist only once the swap made e
  // pinnable.
  published_epoch_.store(published->epoch, std::memory_order_release);
  std::atomic_store_explicit(&snapshot_, published,
                             std::memory_order_release);
  if (on_publish_) on_publish_(published);
}

std::shared_ptr<const GraphSnapshot> Engine::snapshot() const {
  return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
}

Result<QueryResult> Engine::Query(const stabletext::Query& query) const {
  if (query.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  // A hit needs no pin: a cached answer holds only its chains' borrowed
  // Cluster pointers, which outlive every epoch.
  const uint64_t epoch = published_epoch_.load(std::memory_order_acquire);
  QueryResult hit;
  if (cache_->Lookup(QueryCacheKey{epoch, query}, &hit)) return hit;
  const std::shared_ptr<const GraphSnapshot> snap = snapshot();
  // The pin is the latest epoch by construction. When a publish landed
  // since the lookup, the finder answers at the newer epoch without a
  // second lookup, so the call still counts exactly one miss.
  return AnswerMiss(*snap, query, /*snap_is_latest=*/true);
}

Result<QueryResult> Engine::QueryAt(
    const std::shared_ptr<const GraphSnapshot>& snap,
    const stabletext::Query& query) const {
  if (snap == nullptr) {
    return Status::InvalidArgument("QueryAt requires a snapshot");
  }
  if (query.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  QueryResult hit;
  if (cache_->Lookup(QueryCacheKey{snap->epoch, query}, &hit)) return hit;
  // Whether `snap` is the live epoch is decided *before* the finder
  // runs: a publish racing a long cold query must not make the warm-up
  // hint un-storable, or the warm path could never engage under
  // continuous ingest.
  return AnswerMiss(*snap, query, snap == snapshot());
}

Result<QueryResult> Engine::AnswerMiss(const GraphSnapshot& snap,
                                       const stabletext::Query& query,
                                       bool snap_is_latest) const {
  auto r = QuerySnapshot(snap, query);
  if (!r.ok()) return r.status();
  QueryResult out = std::move(r).value();
  const bool diversify =
      query.diversify_prefix > 0 || query.diversify_suffix > 0;
  if (query.algorithm == FinderAlgorithm::kOnline &&
      query.mode == FinderMode::kKlStable && !diversify &&
      !out.warm_online && query.l != 0 && query.l < snap.epoch &&
      snap_is_latest) {
    // Cold online query: ask the writer to keep this configuration warm
    // from the next tick on (lock-free; last writer wins). Not for
    // l = 0 ("full length") queries — their effective l changes every
    // epoch, so warming one value would force a full replay per tick —
    // not for l >= epoch, which answers empty, and not from stale pinned
    // snapshots, which must not evict the configuration serving live
    // readers.
    const uint64_t hint = PackOnlineHint(query.k, query.l);
    if (hint != 0) {
      online_hint_.store(hint, std::memory_order_relaxed);
    }
  }
  if (cache_->enabled()) {
    cache_->Insert(QueryCacheKey{snap.epoch, query}, out);
  }
  return out;
}

EngineStats Engine::stats() const {
  EngineStats stats = snapshot()->stats;
  stats.query_cache_hits = cache_->hits();
  stats.query_cache_misses = cache_->misses();
  if (durability_ != nullptr) {
    // Live atomics, like the cache counters: a checkpoint runs *after*
    // its epoch's publish, so the published point-in-time copy would
    // otherwise lag one boundary behind.
    stats.wal_bytes = durability_->wal_bytes();
    stats.checkpoint_ns = durability_->checkpoint_ns();
  }
  return stats;
}

std::string Engine::RenderChain(const StableClusterChain& chain,
                                size_t max_keywords) const {
  // Rendering resolves keywords through the published word table, not
  // the growing writer-side dictionary, so it is reader-safe. Append-
  // only ids make any snapshot at or after the chain's epoch correct.
  return snapshot()->RenderChain(chain, max_keywords);
}

}  // namespace stabletext
