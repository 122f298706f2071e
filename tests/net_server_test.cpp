// Network serving layer: protocol codec round-trips and hostile-input
// bounds, byte-identical answers through the TCP path, exact per-epoch
// subscription deltas against a serial replay, deterministic
// admission-control shedding, and graceful-shutdown flushing. Built to
// run under ThreadSanitizer (the CI tsan job): the server's
// loop/worker/notifier threads, the engine's writer and the test's client
// threads all overlap here.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/temp_dir.h"

namespace stabletext {
namespace net {
namespace {

constexpr uint32_t kDays = 5;

CorpusGenOptions TestCorpus() {
  CorpusGenOptions opt;
  opt.days = kDays;
  opt.posts_per_day = 100;
  opt.vocabulary = 800;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 24;
  opt.micro_events = 15;
  opt.seed = 13;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions TestOptions() {
  EngineOptions opt;
  opt.gap = 0;  // TA answers full-path queries only on gap-0 graphs.
  opt.threads = 1;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

// One generation for the whole suite; every test ingests the same days.
const std::vector<std::vector<std::string>>& Days() {
  static const std::vector<std::vector<std::string>>* days = [] {
    CorpusGenerator gen(TestCorpus());
    auto* d = new std::vector<std::vector<std::string>>();
    for (uint32_t day = 0; day < kDays; ++day) {
      d->push_back(gen.GenerateDay(day));
    }
    return d;
  }();
  return *days;
}

Query MakeQuery(FinderAlgorithm algorithm, size_t k, uint32_t l) {
  Query q;
  q.algorithm = algorithm;
  q.k = k;
  q.l = l;
  return q;
}

// The wire rendering of a QueryResult: paths, weights, lengths, plus
// snapshot-rendered chain text under kFlagRender.
std::vector<WireChain> ToWireChains(const GraphSnapshot& snapshot,
                                    const QueryResult& result,
                                    uint8_t flags) {
  std::vector<WireChain> out;
  for (const StableClusterChain& chain : result.chains) {
    WireChain wire;
    wire.nodes = chain.path.nodes;
    wire.weight = chain.path.weight;
    wire.length = chain.path.length;
    if (flags & kFlagRender) wire.rendered = snapshot.RenderChain(chain);
    out.push_back(std::move(wire));
  }
  return out;
}

// A direct Engine::QueryAt answer rendered for the wire — the reference
// the TCP path must match byte for byte.
WireResult DirectAnswer(const Engine& engine,
                        const std::shared_ptr<const GraphSnapshot>& snap,
                        const Query& query, uint8_t flags) {
  auto result = engine.QueryAt(snap, query);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  WireResult wire;
  wire.epoch = result.value().epoch;
  wire.chains = ToWireChains(*snap, result.value(), flags);
  return wire;
}

bool SameChains(const std::vector<WireChain>& a,
                const std::vector<WireChain>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// Holds every query worker (ServerOptions::worker_test_hook) until
// released.
struct Latch {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;

  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return released; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

// Releases a latch on scope exit. Declared after the server, it runs
// before ~Server joins the latched workers, so a failed assertion
// cannot hang the test.
struct ReleaseOnExit {
  Latch* latch;
  ~ReleaseOnExit() { latch->Release(); }
};

// Writes all of `bytes` to a blocking test socket.
void SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const IoOutcome io =
        WriteSome(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_TRUE(io.ok);
    off += static_cast<size_t>(io.n);
  }
}

// Reads from a blocking test socket until `reader` yields one frame; a
// torn stream or a hang-up is a fatal failure.
void ReadFrame(int fd, FrameReader* reader, Frame* frame) {
  for (;;) {
    const Status s = reader->Next(frame);
    if (s.ok()) return;
    ASSERT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
    ASSERT_TRUE(WaitReadable(fd, 30000).ok());
    char buf[4096];
    const IoOutcome io = ReadSome(fd, buf, sizeof(buf));
    ASSERT_TRUE(io.ok);
    ASSERT_NE(io.n, 0) << "server hung up";
    reader->Feed(buf, static_cast<size_t>(io.n));
  }
}

// Closes `fd` with SO_LINGER {1, 0}: the peer sees a reset, not a FIN.
void ResetClose(int fd) {
  const linger abort_close{1, 0};
  EXPECT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close,
                         sizeof(abort_close)),
            0);
  ::close(fd);
}

// The server's live serving counters, as STATS reports them.
EngineStats ServingStats(const Server& server) {
  EngineStats stats;
  server.FillServingStats(&stats);
  return stats;
}

// Every u64 (or size_t) counter of an EngineStats, in declaration order
// — all of its fields except `intervals`.
std::vector<uint64_t*> StatsCounters(EngineStats* s) {
  return {&s->clusters,
          &s->edges,
          &s->keywords,
          &s->graph_bytes,
          &s->io.page_reads,
          &s->io.page_writes,
          &s->io.logical_reads,
          &s->io.random_seeks,
          &s->io.bytes_read,
          &s->io.bytes_written,
          &s->io.fsyncs,
          &s->io.sort_runs_spilled,
          &s->io.sort_merge_passes,
          &s->io.sort_in_memory_sorts,
          &s->io.sort_tail_records,
          &s->query_cache_hits,
          &s->query_cache_misses,
          &s->publish_ns,
          &s->shared_chunk_count,
          &s->copied_chunk_count,
          &s->resident_bytes,
          &s->wal_bytes,
          &s->checkpoint_ns,
          &s->recovered_epoch,
          &s->subscriptions_active,
          &s->pushes_sent,
          &s->queries_rejected,
          &s->queries_served,
          &s->queries_failed};
}

// Field-by-field equality of two EngineStats.
void ExpectSameStats(EngineStats got, EngineStats want) {
  EXPECT_EQ(got.intervals, want.intervals);
  const std::vector<uint64_t*> g = StatsCounters(&got);
  const std::vector<uint64_t*> w = StatsCounters(&want);
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(*g[i], *w[i]) << "counter " << i;
  }
}

// --------------------------------------------------------------- codec

TEST(NetProtocolTest, FrameRoundTripsOneByteAtATime) {
  const std::string stream =
      EncodeFrame(MsgType::kPing, 7, "") +
      EncodeFrame(MsgType::kQuery, 8, std::string("abc\0def", 7)) +
      EncodeFrame(MsgType::kBye, 0, "tail");

  FrameReader reader;
  std::vector<Frame> frames;
  Frame frame;
  for (char byte : stream) {
    reader.Feed(&byte, 1);  // Worst-case partial reads.
    for (;;) {
      Status s = reader.Next(&frame);
      if (s.code() == StatusCode::kNotFound) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, MsgType::kPing);
  EXPECT_EQ(frames[0].request_id, 7u);
  EXPECT_EQ(frames[1].type, MsgType::kQuery);
  EXPECT_EQ(frames[1].body, std::string("abc\0def", 7));
  EXPECT_EQ(frames[2].type, MsgType::kBye);
  EXPECT_EQ(frames[2].body, "tail");
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(NetProtocolTest, CorruptChecksumTearsTheStream) {
  std::string stream = EncodeFrame(MsgType::kQuery, 1, "payload");
  stream[kFrameHeaderBytes + 3] ^= 0x40;  // Flip one payload bit.
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame).code(), StatusCode::kCorruption);
}

TEST(NetProtocolTest, OversizedLengthIsCorruption) {
  const uint32_t huge = kMaxFramePayload + 1;
  std::string stream(reinterpret_cast<const char*>(&huge), sizeof(huge));
  stream.resize(kFrameHeaderBytes, '\0');
  FrameReader reader;
  reader.Feed(stream.data(), stream.size());
  Frame frame;
  EXPECT_EQ(reader.Next(&frame).code(), StatusCode::kCorruption);
}

TEST(NetProtocolTest, BodyCodecsRoundTrip) {
  Query query = MakeQuery(FinderAlgorithm::kTa, 7, 0);
  query.mode = FinderMode::kNormalized;
  query.diversify_prefix = 2;
  query.diversify_suffix = 3;
  std::string body = EncodeQueryBody(query, kFlagRender);
  Query decoded_query;
  uint8_t flags = 0;
  ASSERT_TRUE(DecodeQueryBody(body, &decoded_query, &flags).ok());
  EXPECT_TRUE(decoded_query == query);
  EXPECT_EQ(flags, kFlagRender);

  WireResult result;
  result.epoch = 42;
  WireChain chain;
  chain.nodes = {3, 1, 4};
  chain.weight = 0.25;
  chain.length = 2;
  chain.rendered = "interval 0: {a}";
  result.chains = {chain, WireChain{}};
  WireResult decoded_result;
  ASSERT_TRUE(
      DecodeResultBody(EncodeResultBody(result), &decoded_result).ok());
  EXPECT_EQ(decoded_result.epoch, 42u);
  EXPECT_TRUE(SameChains(decoded_result.chains, result.chains));

  // Every field distinct, so a swapped pair in the codec shows.
  EngineStats stats;
  uint64_t next = 1;
  for (uint64_t* field : StatsCounters(&stats)) *field = next++;
  stats.intervals = 9;
  EngineStats decoded_stats;
  ASSERT_TRUE(
      DecodeStatsBody(EncodeStatsBody(stats), &decoded_stats).ok());
  ExpectSameStats(decoded_stats, stats);

  WireRetry retry{17, 5};
  WireRetry decoded_retry;
  ASSERT_TRUE(
      DecodeRetryBody(EncodeRetryBody(retry), &decoded_retry).ok());
  EXPECT_EQ(decoded_retry.inflight, 17u);
  EXPECT_EQ(decoded_retry.queued, 5u);

  Status remote = Status::NotFound("no such subscription");
  Status decoded_status = Status::OK();
  ASSERT_TRUE(
      DecodeErrorBody(EncodeErrorBody(remote), &decoded_status).ok());
  EXPECT_EQ(decoded_status, remote);
  // The newest code decodes; the first value past it is malformed.
  remote = Status::ResourceExhausted("TA probe budget exceeded");
  ASSERT_TRUE(
      DecodeErrorBody(EncodeErrorBody(remote), &decoded_status).ok());
  EXPECT_EQ(decoded_status, remote);
  std::string past_last = EncodeErrorBody(remote);
  past_last[0] = static_cast<char>(
      static_cast<uint8_t>(StatusCode::kResourceExhausted) + 1);
  EXPECT_EQ(DecodeErrorBody(past_last, &decoded_status).code(),
            StatusCode::kCorruption);

  uint64_t value = 0;
  ASSERT_TRUE(DecodeU64Body(EncodeU64Body(77), &value).ok());
  EXPECT_EQ(value, 77u);

  // A truncated body must be corruption, not a garbage decode.
  EXPECT_EQ(DecodeResultBody(body.substr(0, 3), &decoded_result).code(),
            StatusCode::kCorruption);
}

TEST(NetProtocolTest, DiffTopKThenApplyDeltaReproducesTarget) {
  auto entry = [](NodeId a, NodeId b, double w) {
    WireChain c;
    c.nodes = {a, b};
    c.weight = w;
    c.length = 1;
    return c;
  };
  const std::vector<WireChain> empty;
  const std::vector<WireChain> first = {entry(1, 2, 0.5), entry(3, 4, 0.4)};
  // Rank 0 unchanged, rank 1 replaced, rank 2 appended.
  const std::vector<WireChain> second = {entry(1, 2, 0.5), entry(5, 6, 0.45),
                                         entry(3, 4, 0.4)};
  // Shrink: ranks beyond new_size drop without explicit changes.
  const std::vector<WireChain> third = {entry(5, 6, 0.45)};

  WireDelta d1 = DiffTopK(empty, first);
  EXPECT_EQ(d1.changes.size(), 2u);  // Everything is new.
  WireDelta d2 = DiffTopK(first, second);
  EXPECT_EQ(d2.changes.size(), 2u);  // Ranks 1 and 2 only.
  EXPECT_EQ(d2.changes[0].first, 1u);
  WireDelta d3 = DiffTopK(second, third);
  EXPECT_EQ(d3.new_size, 1u);
  EXPECT_EQ(d3.changes.size(), 1u);  // Rank 0; 1 and 2 die by resize.

  // Deltas survive the wire and replay to the exact target states.
  const std::vector<std::pair<const WireDelta*, const std::vector<WireChain>*>>
      steps = {{&d1, &first}, {&d2, &second}, {&d3, &third}};
  std::vector<WireChain> replayed;
  for (const auto& step : steps) {
    WireDelta wired;
    ASSERT_TRUE(
        DecodeDeltaBody(EncodeDeltaBody(*step.first), &wired).ok());
    ASSERT_TRUE(ApplyDelta(&replayed, wired).ok());
    EXPECT_TRUE(SameChains(replayed, *step.second));
  }

  // A rank past new_size is corruption.
  WireDelta bad;
  bad.new_size = 1;
  bad.changes = {{5, entry(1, 2, 0.1)}};
  std::vector<WireChain> state;
  EXPECT_EQ(ApplyDelta(&state, bad).code(), StatusCode::kCorruption);
}

// A RESULT or DELTA body announcing ~4G chains in a few bytes is
// corruption, not a 4G-element allocation: a count larger than the
// remaining bytes could hold is rejected before anything is sized.
TEST(NetProtocolTest, InflatedChainCountIsCorruption) {
  std::string result_body;
  AppendPod<uint64_t>(&result_body, 1);  // epoch
  AppendPod<uint32_t>(&result_body, 0xFFFFFFFFu);
  ASSERT_EQ(result_body.size(), 12u);
  WireResult result;
  EXPECT_EQ(DecodeResultBody(result_body, &result).code(),
            StatusCode::kCorruption);

  std::string delta_body;
  AppendPod<uint64_t>(&delta_body, 1);  // subscription_id
  AppendPod<uint64_t>(&delta_body, 2);  // epoch
  AppendPod<uint32_t>(&delta_body, 1);  // new_size
  AppendPod<uint32_t>(&delta_body, 0xFFFFFFFFu);
  WireDelta delta;
  EXPECT_EQ(DecodeDeltaBody(delta_body, &delta).code(),
            StatusCode::kCorruption);

  // The bound is exact: as many empty chains as the bytes hold decode.
  WireResult two_empty;
  two_empty.chains = {WireChain{}, WireChain{}};
  ASSERT_TRUE(DecodeResultBody(EncodeResultBody(two_empty), &result).ok());
  EXPECT_EQ(result.chains.size(), 2u);
}

// ApplyDelta validates before it resizes: DiffTopK lists every rank at
// or beyond the old size, so new_size can exceed the old size by at most
// the number of changes. A hostile new_size leaves the top-k untouched.
TEST(NetProtocolTest, ApplyDeltaRejectsGrowthBeyondItsChanges) {
  WireChain chain;
  chain.nodes = {1, 2};
  chain.weight = 0.5;
  chain.length = 1;
  std::vector<WireChain> topk(2, chain);

  WireDelta hostile;
  hostile.new_size = 0xFFFFFFFFu;
  EXPECT_EQ(ApplyDelta(&topk, hostile).code(), StatusCode::kCorruption);
  EXPECT_EQ(topk.size(), 2u);

  WireDelta grow;
  grow.changes = {{2, chain}};
  grow.new_size = 4;  // One past old size + changes.
  EXPECT_EQ(ApplyDelta(&topk, grow).code(), StatusCode::kCorruption);
  EXPECT_EQ(topk.size(), 2u);
  grow.new_size = 3;
  ASSERT_TRUE(ApplyDelta(&topk, grow).ok());
  EXPECT_EQ(topk.size(), 3u);
}

// ------------------------------------------------------- query serving

// (a) Answers through the TCP path are byte-identical to direct
// Engine::QueryAt at the same epoch — static graph, several concurrent
// clients, every algorithm family.
TEST(NetServerTest, ConcurrentClientsMatchDirectQueries) {
  Engine engine(TestOptions());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  for (const auto& day : Days()) {
    ASSERT_TRUE(engine.IngestText(day).ok());
  }

  const std::vector<Query> mix = {
      MakeQuery(FinderAlgorithm::kBfs, 3, 2),
      MakeQuery(FinderAlgorithm::kTa, 3, 0),
      MakeQuery(FinderAlgorithm::kOnline, 3, 2),
  };
  const auto snap = engine.snapshot();

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 3; ++t) {
    clients.emplace_back([&, t] {
      Client client;
      ASSERT_TRUE(
          client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
      for (int round = 0; round < 4; ++round) {
        const Query& query = mix[(t + round) % mix.size()];
        const bool render = (round % 2) == 0;
        auto got = client.QueryWithRetry(query, render);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const WireResult expect = DirectAnswer(
            engine, snap, query, render ? kFlagRender : uint8_t{0});
        if (got.value().epoch != expect.epoch ||
            !SameChains(got.value().chains, expect.chains)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(ServingStats(server).queries_served, 12u);
  server.Shutdown();
}

// Same property while ingest publishes live: every concurrently observed
// answer equals the direct answer at that answer's epoch, replayed after
// the run from the pinned snapshots.
TEST(NetServerTest, LiveIngestAnswersAreEpochConsistent) {
  Engine engine(TestOptions());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Pin every published epoch so the replay can re-ask at exactly the
  // epoch a client observed.
  std::mutex mu;
  std::map<uint64_t, std::shared_ptr<const GraphSnapshot>> epochs;
  {
    std::lock_guard<std::mutex> lock(mu);
    auto snap = engine.snapshot();
    epochs[snap->epoch] = snap;
  }

  const Query query = MakeQuery(FinderAlgorithm::kBfs, 3, 2);
  std::atomic<bool> done{false};
  std::vector<std::pair<uint64_t, WireResult>> observed;
  std::mutex observed_mu;
  std::thread reader([&] {
    Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
    // At least one answer, even when ingest outruns the connect.
    do {
      auto got = client.QueryWithRetry(query, /*render=*/false);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::lock_guard<std::mutex> lock(observed_mu);
      observed.emplace_back(got.value().epoch, std::move(got).value());
    } while (!done.load(std::memory_order_acquire));
  });

  for (const auto& day : Days()) {
    ASSERT_TRUE(engine.IngestText(day).ok());
    std::lock_guard<std::mutex> lock(mu);
    auto snap = engine.snapshot();
    epochs[snap->epoch] = snap;
  }
  done.store(true, std::memory_order_release);
  reader.join();

  ASSERT_FALSE(observed.empty());
  for (const auto& [epoch, wire] : observed) {
    auto it = epochs.find(epoch);
    ASSERT_NE(it, epochs.end()) << "answer at never-published epoch "
                                << epoch;
    const WireResult expect = DirectAnswer(engine, it->second, query, 0);
    EXPECT_EQ(wire.epoch, expect.epoch);
    EXPECT_TRUE(SameChains(wire.chains, expect.chains))
        << "epoch " << epoch << " answer diverged from direct query";
  }
  server.Shutdown();
}

// --------------------------------------------------------- subscriptions

// Reads `count` pushes from `client`, grouped by subscription id (one
// connection's subscriptions interleave their pushes).
std::map<uint64_t, std::vector<WireDelta>> ReadPushes(Client* client,
                                                      size_t count) {
  std::map<uint64_t, std::vector<WireDelta>> pushes;
  for (size_t i = 0; i < count; ++i) {
    bool is_bye = false;
    auto push = client->NextPush(/*timeout_ms=*/30000, &is_bye);
    EXPECT_TRUE(push.ok()) << push.status().ToString();
    EXPECT_FALSE(is_bye);
    if (!push.ok() || is_bye) break;
    pushes[push.value().subscription_id].push_back(std::move(push).value());
  }
  return pushes;
}

// The subscription oracle: `received` holds one delta per `published`
// epoch, in order, and each is DiffTopK of a cold Engine::QueryAt at its
// epoch against the previous epoch's answer. Applying the stream
// reproduces each epoch's exact top-k.
void ExpectSerialReplay(
    const Engine& engine,
    const std::vector<std::shared_ptr<const GraphSnapshot>>& published,
    const Query& query, uint8_t flags, uint64_t subscription_id,
    const std::vector<WireDelta>& received) {
  ASSERT_EQ(received.size(), published.size())
      << "one frame per published epoch, never coalesced";
  std::vector<WireChain> last;
  std::vector<WireChain> applied;
  for (size_t i = 0; i < published.size(); ++i) {
    const auto& snap = published[i];
    auto direct = engine.QueryAt(snap, query);
    ASSERT_TRUE(direct.ok());
    const std::vector<WireChain> now =
        ToWireChains(*snap, direct.value(), flags);
    const WireDelta expect = DiffTopK(last, now);

    EXPECT_EQ(received[i].subscription_id, subscription_id);
    EXPECT_EQ(received[i].epoch, snap->epoch) << "delta " << i;
    EXPECT_EQ(received[i].new_size, expect.new_size);
    ASSERT_EQ(received[i].changes.size(), expect.changes.size())
        << "delta " << i << " is not the serial-replay delta";
    for (size_t c = 0; c < expect.changes.size(); ++c) {
      EXPECT_EQ(received[i].changes[c].first, expect.changes[c].first);
      EXPECT_TRUE(
          received[i].changes[c].second == expect.changes[c].second)
          << "delta " << i << " change " << c;
    }

    ASSERT_TRUE(ApplyDelta(&applied, received[i]).ok());
    EXPECT_TRUE(SameChains(applied, now)) << "replay diverged at " << i;
    last = now;
  }
}

// (b) A subscriber observing epochs e..e+n receives exactly the
// per-epoch top-k deltas a serial replay of the same snapshots computes.
TEST(NetServerTest, SubscriptionDeltasMatchSerialReplay) {
  Engine engine(TestOptions());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Query query = MakeQuery(FinderAlgorithm::kBfs, 3, 2);
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
  auto sub = client.Subscribe(query, /*render=*/false);
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(ServingStats(server).subscriptions_active, 1u);

  std::vector<std::shared_ptr<const GraphSnapshot>> published;
  for (const auto& day : Days()) {
    ASSERT_TRUE(engine.IngestText(day).ok());
    published.push_back(engine.snapshot());
  }

  auto pushes = ReadPushes(&client, kDays);
  ExpectSerialReplay(engine, published, query, 0, sub.value(),
                     pushes[sub.value()]);

  ASSERT_TRUE(client.Unsubscribe(sub.value()).ok());
  EXPECT_EQ(ServingStats(server).subscriptions_active, 0u);
  EXPECT_GE(ServingStats(server).pushes_sent, kDays);
  server.Shutdown();
}

// An online subscription of fixed l is Section 4.6's setting: the
// notifier advances the subscription's own interval sweep by each new
// epoch instead of running a batch finder. Its deltas must still be the
// serial replay of cold QueryAt answers. Covered: two online
// configurations on one server, l = 1 on a gap-1 graph (edges longer
// than l), an l that answers empty for the first epochs, one that never
// fits the stream, and the intersection measure, whose growing running
// maximum rescales every weight and so restarts the sweeps.
TEST(NetServerTest, OnlineSubscriptionSweepsMatchColdQueries) {
  for (const AffinityMeasure measure :
       {AffinityMeasure::kJaccard, AffinityMeasure::kIntersection}) {
    SCOPED_TRACE(AffinityMeasureName(measure));
    EngineOptions options = TestOptions();
    options.gap = 1;
    options.affinity.measure = measure;
    CorpusGenOptions corpus = TestCorpus();
    if (measure == AffinityMeasure::kIntersection) {
      options.affinity.theta = 0.5;  // Raw counts: "share a keyword".
      // A smaller vocabulary makes clusters overlap in more keywords, so
      // the running maximum grows after the sweeps hold paths (at epoch
      // 4 with this seed).
      corpus.vocabulary = 600;
    }
    CorpusGenerator gen(corpus);
    Engine engine(options);
    net::Server server(&engine, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());

    const std::vector<Query> queries = {
        MakeQuery(FinderAlgorithm::kOnline, 3, 2),
        MakeQuery(FinderAlgorithm::kOnline, 4, 1),
        MakeQuery(FinderAlgorithm::kOnline, 3, 3),
        MakeQuery(FinderAlgorithm::kOnline, 3, UINT32_MAX),
    };
    Client client;
    ASSERT_TRUE(
        client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
    std::vector<uint64_t> ids;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto sub = client.Subscribe(queries[q], /*render=*/q == 0);
      ASSERT_TRUE(sub.ok()) << sub.status().ToString();
      ids.push_back(sub.value());
    }

    std::vector<std::shared_ptr<const GraphSnapshot>> published;
    size_t rescales = 0;  // Scale changes while the sweeps hold paths.
    for (uint32_t day = 0; day < kDays; ++day) {
      ASSERT_TRUE(engine.IngestText(gen.GenerateDay(day)).ok());
      published.push_back(engine.snapshot());
      if (published.size() > 2 &&
          published.back()->graph->weight_scale() !=
              published[published.size() - 2]->graph->weight_scale()) {
        ++rescales;
      }
    }
    if (measure == AffinityMeasure::kIntersection) {
      EXPECT_GT(rescales, 0u) << "no sweep restart was exercised";
    }
    // l = 3 answers empty before epoch 4, and not at the end.
    auto first = engine.QueryAt(published.front(), queries[2]);
    auto final = engine.QueryAt(published.back(), queries[2]);
    ASSERT_TRUE(first.ok() && final.ok());
    EXPECT_TRUE(first.value().chains.empty());
    EXPECT_FALSE(final.value().chains.empty());

    auto pushes = ReadPushes(&client, queries.size() * kDays);
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE("subscription " + std::to_string(q));
      ExpectSerialReplay(engine, published, queries[q],
                         q == 0 ? kFlagRender : uint8_t{0}, ids[q],
                         pushes[ids[q]]);
    }
    server.Shutdown();
  }
}

TEST(NetServerTest, SubscribeValidatesAndUnsubscribeUnknownFails) {
  Engine engine(TestOptions());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());

  auto bad = client.Subscribe(MakeQuery(FinderAlgorithm::kBfs, 0, 2),
                              /*render=*/false);
  EXPECT_FALSE(bad.ok());  // k = 0 is not a standing query.

  // TA answers only l = m-1, a length that moves every epoch: a standing
  // TA query with a fixed l would fail at every later epoch and never
  // push. l = 0 (full paths) on a gap-0 engine is a valid one.
  bad = client.Subscribe(MakeQuery(FinderAlgorithm::kTa, 3, 2),
                         /*render=*/false);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
  auto ta = client.Subscribe(MakeQuery(FinderAlgorithm::kTa, 3, 0),
                             /*render=*/false);
  EXPECT_TRUE(ta.ok()) << ta.status().ToString();

  // TA refuses gapped graphs outright.
  EngineOptions gapped_options = TestOptions();
  gapped_options.gap = 1;
  Engine gapped(gapped_options);
  net::Server gapped_server(&gapped, ServerOptions{});
  ASSERT_TRUE(gapped_server.Start().ok());
  Client gapped_client;
  ASSERT_TRUE(gapped_client
                  .Connect("127.0.0.1", gapped_server.port(),
                           /*attempts=*/5)
                  .ok());
  bad = gapped_client.Subscribe(MakeQuery(FinderAlgorithm::kTa, 3, 0),
                                /*render=*/false);
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
  gapped_server.Shutdown();

  Status unsub = client.Unsubscribe(12345);
  EXPECT_EQ(unsub.code(), StatusCode::kNotFound);
  server.Shutdown();
}

// ----------------------------------------------------- admission control

// (c) Overload past max_inflight yields RETRY frames — never a hung
// connection or a torn frame. Workers are parked on a latch, so the
// outcome is deterministic: exactly max_inflight RESULTs, the rest RETRY.
TEST(NetServerTest, OverloadShedsDeterministically) {
  Engine engine(TestOptions());
  ASSERT_TRUE(engine.IngestText(Days()[0]).ok());

  auto latch = std::make_shared<Latch>();
  ServerOptions options;
  options.workers = 2;
  options.max_inflight = 4;
  options.queue_depth = 64;
  options.worker_test_hook = [latch] { latch->Wait(); };
  net::Server server(&engine, options);
  ReleaseOnExit release_on_exit{latch.get()};
  ASSERT_TRUE(server.Start().ok());

  auto fd = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(fd.ok());

  // Pipeline 20 queries before reading anything. The loop admits 4
  // (2 executing + 2 queued) and must shed the other 16 immediately.
  constexpr int kTotal = 20;
  const std::string body =
      EncodeQueryBody(MakeQuery(FinderAlgorithm::kBfs, 3, 2), 0);
  std::string burst;
  for (int i = 0; i < kTotal; ++i) {
    burst += EncodeFrame(MsgType::kQuery, 100 + i, body);
  }
  ASSERT_NO_FATAL_FAILURE(SendAll(fd.value(), burst));

  // Collect the 16 RETRYs while the workers are still parked, then
  // release them for the 4 RESULTs.
  FrameReader reader;
  int results = 0;
  int retries = 0;
  std::map<uint64_t, int> seen_ids;
  for (int received = 0; received < kTotal; ++received) {
    Frame frame;
    ASSERT_NO_FATAL_FAILURE(ReadFrame(fd.value(), &reader, &frame));
    ++seen_ids[frame.request_id];
    if (frame.type == MsgType::kResult) {
      ++results;
    } else if (frame.type == MsgType::kRetry) {
      WireRetry retry;
      ASSERT_TRUE(DecodeRetryBody(frame.body, &retry).ok());
      EXPECT_GE(retry.inflight + retry.queued, options.max_inflight);
      ++retries;
    } else {
      FAIL() << "unexpected frame type";
    }
    if (retries == kTotal - static_cast<int>(options.max_inflight)) {
      latch->Release();
    }
  }
  EXPECT_EQ(results, static_cast<int>(options.max_inflight));
  EXPECT_EQ(retries, kTotal - static_cast<int>(options.max_inflight));
  // Every request id answered exactly once — nothing dropped or doubled.
  EXPECT_EQ(seen_ids.size(), static_cast<size_t>(kTotal));
  for (const auto& [id, count] : seen_ids) EXPECT_EQ(count, 1) << id;

  EXPECT_EQ(ServingStats(server).queries_rejected,
            static_cast<uint64_t>(kTotal) - options.max_inflight);
  EXPECT_EQ(ServingStats(server).queries_served, options.max_inflight);

  ::close(fd.value());
  server.Shutdown();
}

// ------------------------------------------------------------- shutdown

// Graceful shutdown flushes the final subscription deltas, says BYE on
// every connection, and only then closes.
TEST(NetServerTest, GracefulShutdownFlushesDeltasThenByes) {
  Engine engine(TestOptions());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const Query query = MakeQuery(FinderAlgorithm::kBfs, 3, 2);
  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
  auto sub = client.Subscribe(query, /*render=*/false);
  ASSERT_TRUE(sub.ok());

  constexpr uint32_t kTicks = 3;
  for (uint32_t i = 0; i < kTicks; ++i) {
    ASSERT_TRUE(engine.IngestText(Days()[i]).ok());
  }

  // Shut down concurrently with the client still reading: the deltas of
  // every published epoch must land before the BYE.
  std::thread closer([&] { server.Shutdown(); });
  std::vector<uint64_t> epochs;
  for (;;) {
    bool is_bye = false;
    auto push = client.NextPush(/*timeout_ms=*/30000, &is_bye);
    ASSERT_TRUE(push.ok()) << push.status().ToString();
    if (is_bye) break;
    epochs.push_back(push.value().epoch);
  }
  closer.join();

  ASSERT_EQ(epochs.size(), kTicks);
  for (uint32_t i = 0; i < kTicks; ++i) {
    EXPECT_EQ(epochs[i], i + 1) << "delta order broken at " << i;
  }
  // After BYE the server closes; the next read is a clean EOF error,
  // not a hang or a torn frame.
  bool is_bye = false;
  auto after = client.NextPush(/*timeout_ms=*/5000, &is_bye);
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(is_bye);
}

// Graceful shutdown while clients reset their sockets (SO_LINGER {1, 0}
// then close) under a drain held open by latched workers: a connection
// that dies during the farewell BYE pass is closed — and erased —
// mid-pass, which must not disturb the pass. The healthy client still
// gets its BYE and every admitted query is accounted for.
TEST(NetServerTest, ShutdownSurvivesResetClients) {
  Engine engine(TestOptions());
  ASSERT_TRUE(engine.IngestText(Days()[0]).ok());

  auto latch = std::make_shared<Latch>();
  ServerOptions options;
  options.workers = 2;
  options.worker_test_hook = [latch] { latch->Wait(); };
  net::Server server(&engine, options);
  ReleaseOnExit release_on_exit{latch.get()};
  ASSERT_TRUE(server.Start().ok());

  Client healthy;
  ASSERT_TRUE(
      healthy.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
  ASSERT_TRUE(healthy.Ping().ok());

  // Each raw client sends a QUERY (admitted, then parked on the latch)
  // followed by a PING; frames of one connection are handled in order,
  // so the PONG proves the query was admitted, not shed.
  constexpr int kResetClients = 6;
  const std::string query = EncodeFrame(
      MsgType::kQuery, 1,
      EncodeQueryBody(MakeQuery(FinderAlgorithm::kBfs, 3, 2), 0));
  const std::string ping = EncodeFrame(MsgType::kPing, 2, "");
  std::vector<int> fds;
  for (int i = 0; i < kResetClients; ++i) {
    auto fd = ConnectTcp("127.0.0.1", server.port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    fds.push_back(fd.value());
    ASSERT_NO_FATAL_FAILURE(SendAll(fd.value(), query + ping));
    FrameReader reader;
    Frame frame;
    ASSERT_NO_FATAL_FAILURE(ReadFrame(fd.value(), &reader, &frame));
    ASSERT_EQ(frame.type, MsgType::kPong);
  }

  // Shut down with the drain held open, reset every raw client, then
  // let the workers finish so the drain completes into the farewell.
  std::thread closer([&] { server.Shutdown(); });
  for (const int fd : fds) ResetClose(fd);
  latch->Release();

  bool is_bye = false;
  auto push = healthy.NextPush(/*timeout_ms=*/30000, &is_bye);
  EXPECT_TRUE(push.ok()) << push.status().ToString();
  EXPECT_TRUE(is_bye);
  closer.join();
  EXPECT_FALSE(server.running());
  const EngineStats serving = ServingStats(server);
  EXPECT_EQ(serving.queries_served + serving.queries_failed,
            static_cast<uint64_t>(kResetClients));
}

// PING and STATS stay responsive and consistent through the serving
// layer (the counters net::Server folds into EngineStats).
TEST(NetServerTest, PingAndStatsRoundTrip) {
  Engine engine(TestOptions());
  ASSERT_TRUE(engine.IngestText(Days()[0]).ok());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
  auto epoch = client.Ping();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.value(), 1u);

  auto sub = client.Subscribe(MakeQuery(FinderAlgorithm::kBfs, 3, 2),
                              /*render=*/false);
  ASSERT_TRUE(sub.ok());
  auto got =
      client.QueryWithRetry(MakeQuery(FinderAlgorithm::kBfs, 3, 2), false);
  ASSERT_TRUE(got.ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().intervals, 1u);
  EXPECT_EQ(stats.value().subscriptions_active, 1u);
  EXPECT_GE(stats.value().queries_served, 1u);
  EXPECT_GT(stats.value().clusters, 0u);

  // The same counters surface through EngineStats for in-process
  // monitoring (CLI stats).
  EngineStats merged = engine.stats();
  server.FillServingStats(&merged);
  EXPECT_EQ(merged.subscriptions_active, 1u);
  EXPECT_GE(merged.queries_rejected, 0u);
  server.Shutdown();
}

// On a quiescent server (no ingest, no query in flight) a STATS reply is
// exactly the engine's stats() plus the serving counters, field by field.
// A durable engine, reopened and checkpointed, makes the durability
// counters nonzero too.
TEST(NetServerTest, StatsReplyIsEngineStatsPlusServingCounters) {
  TempDir dir("stats");
  EngineOptions opt = TestOptions();
  opt.durability.enabled = true;
  opt.durability.dir = dir.path();
  opt.durability.checkpoint_interval = 1;
  opt.durability.fsync = false;
  {
    auto first = Engine::Recover(opt);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    ASSERT_TRUE(first.value()->IngestText(Days()[0]).ok());
  }
  auto reopened = Engine::Recover(opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Engine& engine = *reopened.value();
  ASSERT_TRUE(engine.IngestText(Days()[1]).ok());
  net::Server server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(
      client.Connect("127.0.0.1", server.port(), /*attempts=*/5).ok());
  ASSERT_TRUE(client
                  .Subscribe(MakeQuery(FinderAlgorithm::kBfs, 3, 1),
                             /*render=*/false)
                  .ok());
  for (int i = 0; i < 2; ++i) {  // A miss, then a cache hit.
    ASSERT_TRUE(
        client.QueryWithRetry(MakeQuery(FinderAlgorithm::kBfs, 3, 1), false)
            .ok());
  }
  bool retry = false;
  EXPECT_FALSE(
      client.Query(MakeQuery(FinderAlgorithm::kBfs, 0, 1), false, &retry)
          .ok());

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EngineStats expected = engine.stats();
  server.FillServingStats(&expected);
  ExpectSameStats(stats.value(), expected);
  EXPECT_EQ(stats.value().intervals, 2u);
  EXPECT_EQ(stats.value().recovered_epoch, 1u);
  EXPECT_GT(stats.value().wal_bytes, 0u);
  EXPECT_GT(stats.value().checkpoint_ns, 0u);
  EXPECT_EQ(stats.value().query_cache_hits, 1u);
  EXPECT_EQ(stats.value().subscriptions_active, 1u);
  EXPECT_EQ(stats.value().queries_served, 2u);
  EXPECT_EQ(stats.value().queries_failed, 1u);
  server.Shutdown();
}

}  // namespace
}  // namespace net
}  // namespace stabletext
