// Deterministic mutation driver over every decoder of shipped-out bytes:
// the wire frame reader, each wire body decoder, and the WAL interval
// delta that Engine::Recover replays. Each valid encoding is truncated at
// every length, has each byte flipped, and has every u32/u64 window that
// holds a small value (where counts and lengths live) inflated. Oracle:
// every call returns OK or a Status, never crashes or trips a sanitizer,
// and no single allocation grows past what the input's own size warrants
// — a decoder that sizes an allocation by an unchecked count shows up as
// an oversized request, counted by replacing operator new in this binary.
//
// The whole sweep is a fixed set of inputs, about 2 s in Release.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "net/protocol.h"
#include "storage/temp_dir.h"
#include "storage/wal.h"

namespace {
// Largest single operator new request since the last ResetLargest().
std::atomic<size_t> g_largest{0};
// A request this large is an unchecked count, not a real allocation:
// refuse it instead of letting the machine try.
constexpr size_t kAbsurdRequest = size_t{1} << 30;
}  // namespace

// Out of line, so that GCC does not inline a free() into code it has seen
// take the pointer from operator new (-Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(size_t size) {
  size_t seen = g_largest.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest.compare_exchange_weak(seen, size,
                                          std::memory_order_relaxed)) {
  }
  if (size > kAbsurdRequest) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace stabletext {
namespace {

void ResetLargest() { g_largest.store(0); }
size_t Largest() { return g_largest.load(); }

// Calls `fn` with every mutation of `valid`.
void ForEachMutation(const std::string& valid,
                     const std::function<void(const std::string&)>& fn) {
  for (size_t len = 0; len < valid.size(); ++len) fn(valid.substr(0, len));
  std::string m = valid;
  for (size_t i = 0; i < valid.size(); ++i) {
    m[i] = static_cast<char>(valid[i] ^ 0xff);
    fn(m);
    m[i] = valid[i];
  }
  auto inflate = [&](size_t offset, const void* value, size_t width) {
    std::memcpy(&m[offset], value, width);
    fn(m);
    std::memcpy(&m[offset], valid.data() + offset, width);
  };
  for (size_t i = 0; i + sizeof(uint32_t) <= valid.size(); ++i) {
    uint32_t v = 0;
    std::memcpy(&v, valid.data() + i, sizeof(v));
    if (v >= (1u << 16)) continue;
    for (const uint32_t big : {v + 1, 1u << 20, UINT32_MAX}) {
      inflate(i, &big, sizeof(big));
    }
  }
  for (size_t i = 0; i + sizeof(uint64_t) <= valid.size(); ++i) {
    uint64_t v = 0;
    std::memcpy(&v, valid.data() + i, sizeof(v));
    if (v >= (uint64_t{1} << 32)) continue;
    for (const uint64_t big : {(uint64_t{1} << 32) | v, UINT64_MAX}) {
      inflate(i, &big, sizeof(big));
    }
  }
}

// Runs `decode` on every mutation of `valid`. A decoder may accept a
// mutation (a flipped weight byte is still a weight) or refuse it with
// kCorruption; no single allocation may exceed `slack` plus `per_byte`
// times the input size.
void Sweep(const char* name, const std::string& valid,
           const std::function<Status(const std::string&)>& decode,
           size_t slack = 4096, size_t per_byte = 8) {
  SCOPED_TRACE(name);
  ASSERT_TRUE(decode(valid).ok()) << name << " rejects its valid input";
  size_t cases = 0;
  size_t refused = 0;
  ForEachMutation(valid, [&](const std::string& input) {
    ++cases;
    ResetLargest();
    Status s;
    try {
      s = decode(input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " threw " << e.what() << " on case "
                    << cases;
      return;
    }
    if (!s.ok()) {
      ++refused;
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
    EXPECT_LE(Largest(), slack + per_byte * input.size())
        << name << " case " << cases << " (" << input.size() << " bytes)";
  });
  EXPECT_GT(refused, 0u);
  std::printf("%-8s %4zu bytes: %5zu mutations, %5zu refused\n", name,
              valid.size(), cases, refused);
}

net::WireChain Chain(std::vector<NodeId> nodes, double weight,
                     uint32_t length, std::string rendered) {
  net::WireChain chain;
  chain.nodes = std::move(nodes);
  chain.weight = weight;
  chain.length = length;
  chain.rendered = std::move(rendered);
  return chain;
}

TEST(CodecMutationTest, WireBodyDecoders) {
  FinderQuery query;
  query.algorithm = FinderAlgorithm::kDfs;
  query.k = 4;
  query.l = 2;
  Sweep("query", net::EncodeQueryBody(query, net::kFlagRender),
        [](const std::string& body) {
          FinderQuery q;
          uint8_t flags = 0;
          return net::DecodeQueryBody(body, &q, &flags);
        });

  net::WireResult result;
  result.epoch = 12;
  result.chains = {Chain({1, 5, 9}, 0.75, 2, "interval 3: {storm}"),
                   Chain({2, 6}, 0.5, 1, ""), Chain({}, 0, 0, "x")};
  Sweep("result", net::EncodeResultBody(result),
        [](const std::string& body) {
          net::WireResult r;
          return net::DecodeResultBody(body, &r);
        });

  net::WireDelta delta;
  delta.subscription_id = 3;
  delta.epoch = 12;
  delta.new_size = 3;
  delta.changes = {{0, Chain({4, 8}, 1.25, 1, "a")},
                   {2, Chain({7}, 0.25, 0, "")}};
  Sweep("delta", net::EncodeDeltaBody(delta), [](const std::string& body) {
    net::WireDelta d;
    return net::DecodeDeltaBody(body, &d);
  });

  EngineStats stats;
  stats.intervals = 12;
  stats.clusters = 40;
  stats.queries_served = 7;
  Sweep("stats", net::EncodeStatsBody(stats), [](const std::string& body) {
    EngineStats s;
    return net::DecodeStatsBody(body, &s);
  });

  Sweep("retry", net::EncodeRetryBody(net::WireRetry{3, 1}),
        [](const std::string& body) {
          net::WireRetry r;
          return net::DecodeRetryBody(body, &r);
        });

  Sweep("error",
        net::EncodeErrorBody(Status::InvalidArgument("k must be positive")),
        [](const std::string& body) {
          Status s;
          return net::DecodeErrorBody(body, &s);
        });

  Sweep("u64", net::EncodeU64Body(12), [](const std::string& body) {
    uint64_t v = 0;
    return net::DecodeU64Body(body, &v);
  });
}

// The frame reader sees the mutated stream in one piece: it yields the
// frames it can verify, then stops at a torn one (kCorruption) or at a
// short tail (kNotFound, which is not a decode error).
TEST(CodecMutationTest, FrameReader) {
  const std::string stream =
      net::EncodeFrame(net::MsgType::kPing, 7, "") +
      net::EncodeFrame(net::MsgType::kQuery, 8,
                       net::EncodeQueryBody(FinderQuery(), 0));
  Sweep("frames", stream, [](const std::string& bytes) {
    net::FrameReader reader;
    reader.Feed(bytes.data(), bytes.size());
    net::Frame frame;
    for (;;) {
      Status s = reader.Next(&frame);
      if (s.code() == StatusCode::kNotFound) return Status::OK();
      if (!s.ok()) return s;
    }
  });
}

EngineOptions DurableOptions(const std::string& dir) {
  EngineOptions opt;
  opt.gap = 1;
  opt.clustering.pruning.rho_threshold = 0.15;
  opt.clustering.pruning.min_pair_support = 2;
  opt.affinity.theta = 0.05;
  opt.durability.enabled = true;
  opt.durability.dir = dir;
  opt.durability.checkpoint_interval = 0;
  opt.durability.fsync = false;
  return opt;
}

// The WAL records of a two-tick durable ingest: interval 1's delta has
// every section (new keywords, clusters with member edges, io stats and
// adjacency edges to interval 0).
std::vector<std::string> TwoTickRecords(const std::string& dir) {
  CorpusGenOptions gen_opt;
  gen_opt.days = 2;
  gen_opt.posts_per_day = 24;
  gen_opt.vocabulary = 120;
  gen_opt.min_words_per_post = 6;
  gen_opt.max_words_per_post = 12;
  gen_opt.micro_events = 6;
  gen_opt.seed = 5;
  gen_opt.script = EventScript::PaperWeek();
  CorpusGenerator gen(gen_opt);
  {
    auto engine = Engine::Recover(DurableOptions(dir));
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return {};
    for (uint32_t day = 0; day < 2; ++day) {
      EXPECT_TRUE(engine.value()->IngestText(gen.GenerateDay(day)).ok());
    }
  }
  std::vector<std::string> records;
  WalScanEnd end;
  EXPECT_TRUE(WalScan(dir + "/wal-0", &records, &end, nullptr).ok());
  return records;
}

// Each mutated delta is re-framed with a valid CRC (WalWriter), so it
// reaches ReplayInterval instead of being cut off as a torn tail. Cluster
// keywords are checked against the dictionary by the decoder itself;
// member edges are checked here.
TEST(CodecMutationTest, IntervalDeltaThroughRecover) {
  TempDir source("mutation-src");
  const std::vector<std::string> records = TwoTickRecords(source.path());
  ASSERT_EQ(records.size(), 2u);
  ASSERT_GT(records[1].size(), 200u);

  TempDir dir("mutation");
  const std::string wal = dir.FilePath("wal-0");
  auto recover = [&](const std::string& delta) {
    WalWriter writer;
    Status s = writer.Create(wal, nullptr, nullptr);
    if (s.ok()) s = writer.Append(records[0].data(), records[0].size());
    if (s.ok()) s = writer.Append(delta.data(), delta.size());
    if (s.ok()) s = writer.Close();
    if (!s.ok()) return Status::Internal("rewriting the log: " + s.ToString());
    auto engine = Engine::Recover(DurableOptions(dir.path()));
    if (!engine.ok()) return engine.status();
    // An accepted record must leave only keyword ids the dictionary
    // holds: readers such as the query refiner look every one up.
    const Engine& e = *engine.value();
    for (uint32_t i = 0; i < e.interval_count(); ++i) {
      for (const Cluster& cluster : e.interval_result(i).clusters) {
        for (const WeightedEdge& edge : cluster.edges) {
          if (edge.u >= e.dict().size() || edge.v >= e.dict().size()) {
            return Status::Internal("member edge beyond the dictionary");
          }
        }
      }
    }
    return Status::OK();
  };
  // The engine's own largest request (query cache, dictionary chunk)
  // does not depend on the record; a count-sized one would exceed it.
  ResetLargest();
  ASSERT_TRUE(recover(records[1]).ok());
  const size_t engine_largest = Largest();
  Sweep("delta", records[1], recover, engine_largest, /*per_byte=*/16);
}

}  // namespace
}  // namespace stabletext
