// Golden bytes for everything the engine ships out: the WAL records of a
// fixed durable ingest and the encoded wire bodies of fixed messages.
// The expected values were recorded from a build that predates the
// shared byte codec (util/bytes.h); the codec may change how bytes are
// produced, never which bytes. A record or body that changes here breaks
// every existing data directory or every deployed peer.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "net/protocol.h"
#include "storage/temp_dir.h"
#include "storage/wal.h"
#include "util/strings.h"

namespace stabletext {
namespace {

// FNV-1a, 64-bit: a fixed hash that does not depend on any code under
// test.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string Hex(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    out += StringPrintf("%02x", static_cast<unsigned char>(c));
  }
  return out;
}

// 24 ticks, gap 1, no checkpoint (the log keeps every record), no fsync.
std::vector<std::string> DurableIngestRecords() {
  constexpr uint32_t kTicks = 24;
  CorpusGenOptions gen_opt;
  gen_opt.days = 8;
  gen_opt.posts_per_day = 24;
  gen_opt.vocabulary = 240;
  gen_opt.min_words_per_post = 6;
  gen_opt.max_words_per_post = 14;
  gen_opt.micro_events = 8;
  gen_opt.seed = 7;
  gen_opt.script = EventScript::PaperWeek();
  CorpusGenerator gen(gen_opt);

  TempDir dir("golden");
  EngineOptions opt;
  opt.gap = 1;
  opt.clustering.pruning.rho_threshold = 0.15;
  opt.clustering.pruning.min_pair_support = 2;
  opt.affinity.theta = 0.05;
  opt.durability.enabled = true;
  opt.durability.dir = dir.path();
  opt.durability.checkpoint_interval = 0;
  opt.durability.fsync = false;
  {
    auto engine = Engine::Recover(opt);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    if (!engine.ok()) return {};
    for (uint32_t t = 0; t < kTicks; ++t) {
      auto r =
          engine.value()->IngestText(gen.GenerateDay(t % gen_opt.days));
      EXPECT_TRUE(r.ok()) << r.status().ToString();
    }
  }
  std::vector<std::string> records;
  WalScanEnd end;
  EXPECT_TRUE(
      WalScan(dir.FilePath("wal-0"), &records, &end, nullptr).ok());
  EXPECT_EQ(end.valid_bytes, end.file_bytes);
  return records;
}

TEST(CodecGoldenTest, WalRecordsOfAFixedDurableIngest) {
  const std::vector<std::string> records = DurableIngestRecords();
  const std::vector<std::pair<size_t, uint64_t>> expected = {
      // (record bytes, FNV-1a of the record), one per tick.
      {1258, 0xb0888e103bb884eaull}, {796, 0xcb735d564010de36ull},
      {1495, 0x70de9664a4f39ab2ull}, {1551, 0x650d769336d969efull},
      {1150, 0x6faa2871eb4e8a4cull}, {920, 0x0245208d4ca010bbull},
      {1159, 0xd37b5bda30e5ddf1ull}, {764, 0x4ded7c88c895e689ull},
      {624, 0x7d899f5b38b21dfeull},  {732, 0xeeb645b1c54c3cd5ull},
      {1192, 0x6978e9646e44a8efull}, {1336, 0xc2db926c7ba7411full},
      {988, 0xe6db8ee87e623176ull},  {784, 0x23f82944ba9d2d4full},
      {1060, 0xb31c432061a3baacull}, {716, 0xb3c50820929cd34aull},
      {624, 0x7ed93100e0df5cfeull},  {732, 0x965b893a79d26465ull},
      {1192, 0x6a7e7fde20cde92full}, {1336, 0x80a967f5fdf682e7ull},
      {988, 0x0eaef051cf2e6766ull},  {784, 0x965f205ed1d78957ull},
      {1060, 0x65d91a129c0489e4ull}, {716, 0x0281f9c356849f4aull},
  };
  ASSERT_EQ(records.size(), 24u);
  ASSERT_EQ(records.size(), expected.size());
  for (size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE(StringPrintf("record %zu", i));
    EXPECT_EQ(records[i].size(), expected[i].first);
    EXPECT_EQ(Fnv1a(records[i]), expected[i].second);
  }
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

TEST(CodecGoldenTest, WireBodies) {
  FinderQuery query;
  query.algorithm = FinderAlgorithm::kTa;
  query.mode = FinderMode::kNormalized;
  query.k = 7;
  query.l = 3;
  query.diversify_prefix = 2;
  query.diversify_suffix = 1;
  query.diversify_candidates = 4;
  query.memory_budget_bytes = 1u << 20;
  query.theorem1_pruning = true;
  query.max_probes = 1000;

  net::WireResult result;
  result.epoch = 42;
  result.chains = {Chain({3, 1, 4}, 0.25, 2, "interval 0: {a}"),
                   Chain({}, 0, 0, "")};

  net::WireDelta delta;
  delta.subscription_id = 5;
  delta.epoch = 9;
  delta.new_size = 2;
  delta.changes = {{1, Chain({7, 8}, 1.5, 1, "x")}};

  struct Case {
    const char* name;
    std::string bytes;
    const char* hex;
  };
  const Case cases[] = {
      {"query", net::EncodeQueryBody(query, net::kFlagRender),
       "0201070000000000000003000000020000000100000004000000"
       "00000000000010000000000001e80300000000000001"},
      {"result", net::EncodeResultBody(result),
       "2a000000000000000200000003000000030000000100000004"
       "000000000000000000d03f020000000f000000696e74657276"
       "616c20303a207b617d00000000000000000000000000000000"
       "00000000"},
      {"delta", net::EncodeDeltaBody(delta),
       "0500000000000000090000000000000002000000010000000100"
       "0000020000000700000008000000000000000000f83f0100"
       "00000100000078"},
      {"retry", net::EncodeRetryBody(net::WireRetry{17, 5}),
       "1100000005000000"},
      {"error", net::EncodeErrorBody(Status::NotFound("no such sub")),
       "020b0000006e6f207375636820737562"},
      {"u64", net::EncodeU64Body(0x0123456789abcdefull),
       "efcdab8967452301"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(Hex(c.bytes), c.hex) << c.name;
  }
}

}  // namespace
}  // namespace stabletext
