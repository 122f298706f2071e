// Fault-injected crash recovery. The claim under test: a durable engine
// killed at ANY physical-op boundary (WAL chunk write, WAL fsync,
// checkpoint 4 KiB write/fsync/rename, log rotation) recovers to the epoch
// that was published at the crash — or one later, when the crash hit
// after the WAL fsync but before the publish — and the recovered state is
// byte-identical to an uninterrupted run at that epoch: same graph bits,
// same query answers. The sweep advances the injected fault budget one
// physical op at a time over a 64-tick ingest until a run completes
// cleanly, so every boundary the workload crosses is a kill point. Plus
// WAL torn-tail/corrupt-record/batched-append unit tests, the durability
// lifecycle contract (Recover-only construction, DataLoss on vanished
// checkpoints, durable log directory entries, one generation on disk),
// the checkpoint
// format (records equal to the logged ones, bit rot is DataLoss, a short
// or torn checkpoint is Corruption, the retired paged layout is named)
// and hostile counts (WAL records, checkpoint record lengths) that must
// come back as Corruption instead of sizing an allocation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "storage/temp_dir.h"
#include "storage/wal.h"
#include "util/strings.h"

namespace stabletext {
namespace {

namespace fs = std::filesystem;

// Small, fast ticks: the sweep ingests tens of thousands of them.
constexpr uint32_t kTicks = 64;
constexpr uint32_t kCheckpointInterval = 8;

std::vector<std::vector<std::string>> GenerateTicks() {
  CorpusGenOptions opt;
  opt.days = 8;
  opt.posts_per_day = 24;
  opt.vocabulary = 240;
  opt.min_words_per_post = 6;
  opt.max_words_per_post = 14;
  opt.micro_events = 8;
  opt.seed = 7;
  opt.script = EventScript::PaperWeek();
  CorpusGenerator gen(opt);
  std::vector<std::vector<std::string>> ticks;
  ticks.reserve(kTicks);
  for (uint32_t t = 0; t < kTicks; ++t) {
    ticks.push_back(gen.GenerateDay(t % opt.days));
  }
  return ticks;
}

EngineOptions BaseOptions() {
  EngineOptions opt;
  opt.gap = 1;
  opt.clustering.pruning.rho_threshold = 0.15;
  opt.clustering.pruning.min_pair_support = 2;
  opt.affinity.theta = 0.05;
  return opt;
}

EngineOptions DurableOptions(const std::string& dir,
                             uint64_t fail_after_physical_ops) {
  EngineOptions opt = BaseOptions();
  opt.durability.enabled = true;
  opt.durability.dir = dir;
  opt.durability.checkpoint_interval = kCheckpointInterval;
  opt.durability.fail_after_physical_ops = fail_after_physical_ops;
  return opt;
}

std::string GraphFingerprint(const ClusterGraph& graph) {
  std::string out = StringPrintf("nodes=%zu edges=%zu intervals=%u\n",
                                 graph.node_count(), graph.edge_count(),
                                 graph.interval_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      out += StringPrintf("%u->%u %.17g\n", v, e.target, e.weight);
    }
  }
  return out;
}

std::string QueryFingerprint(const Engine& engine) {
  Query q;
  q.algorithm = FinderAlgorithm::kBfs;
  q.k = 4;
  q.l = 2;
  auto r = engine.Query(q);
  if (!r.ok()) return "query failed: " + r.status().ToString();
  std::string out;
  for (const StableClusterChain& chain : r.value().chains) {
    for (NodeId n : chain.path.nodes) out += StringPrintf("%u-", n);
    out += StringPrintf(" w=%.17g len=%u\n", chain.path.weight,
                        chain.path.length);
  }
  return out;
}

// Per-epoch reference state from an uninterrupted, non-durable run:
// recovery at epoch e must reproduce these bytes exactly.
struct Reference {
  std::vector<std::string> graphs;   // [0..kTicks]
  std::vector<std::string> queries;  // [0..kTicks]
};

Reference BuildReference(const std::vector<std::vector<std::string>>& ticks) {
  Reference ref;
  Engine engine(BaseOptions());
  ref.graphs.push_back(GraphFingerprint(engine.graph()));
  ref.queries.push_back(QueryFingerprint(engine));
  for (const auto& posts : ticks) {
    auto r = engine.IngestText(posts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    ref.graphs.push_back(GraphFingerprint(engine.graph()));
    ref.queries.push_back(QueryFingerprint(engine));
  }
  return ref;
}

TEST(WalTest, TornTailIsTruncatedNotReplayed) {
  TempDir dir("wal");
  const std::string path = dir.FilePath("wal-0");
  const std::string rec1 = "first record payload";
  const std::string rec2 = "second, longer record payload with more bytes";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Create(path, nullptr, nullptr).ok());
    ASSERT_TRUE(writer.Append(rec1.data(), rec1.size()).ok());
    ASSERT_TRUE(writer.Append(rec2.data(), rec2.size()).ok());
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  // Simulate a torn third record: header promising more bytes than exist.
  const auto intact_size = fs::file_size(path);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    const uint32_t crc = 0;
    f.write(reinterpret_cast<const char*>(&len), 4);
    f.write(reinterpret_cast<const char*>(&crc), 4);
    f.write("partial", 7);
  }
  const auto torn_size = fs::file_size(path);
  std::vector<std::string> records;
  // The plain scan reports where the intact prefix ends and leaves the
  // file alone.
  WalScanEnd end;
  ASSERT_TRUE(WalScan(path, &records, &end, nullptr).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(end.valid_bytes, intact_size);
  EXPECT_EQ(end.file_bytes, torn_size);
  EXPECT_FALSE(end.checksum_mismatch);
  EXPECT_EQ(fs::file_size(path), torn_size);
  records.clear();
  ASSERT_TRUE(WalScanAndTruncate(path, &records, nullptr).ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], rec1);
  EXPECT_EQ(records[1], rec2);
  // The torn tail was physically truncated.
  EXPECT_EQ(fs::file_size(path), intact_size);
  // A second scan sees a clean file.
  records.clear();
  ASSERT_TRUE(WalScanAndTruncate(path, &records, nullptr).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST(WalTest, CorruptRecordEndsTheScan) {
  TempDir dir("wal");
  const std::string path = dir.FilePath("wal-0");
  const std::string rec1 = "good record";
  const std::string rec2 = "record that will rot";
  const std::string rec3 = "record after the rot";
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Create(path, nullptr, nullptr).ok());
    for (const std::string* r : {&rec1, &rec2, &rec3}) {
      ASSERT_TRUE(writer.Append(r->data(), r->size()).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
  }
  // Flip one payload byte of the second record. Layout: 8 magic, then
  // per record 8-byte header + payload.
  const size_t offset = 8 + 8 + rec1.size() + 8 + 3;
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0x40));
  }
  std::vector<std::string> records;
  WalScanEnd end;
  ASSERT_TRUE(WalScan(path, &records, &end, nullptr).ok());
  EXPECT_TRUE(end.checksum_mismatch);
  records.clear();
  ASSERT_TRUE(WalScanAndTruncate(path, &records, nullptr).ok());
  // Only the prefix before the corruption survives — the corrupt record
  // and everything after it (even though intact) is discarded, never
  // replayed.
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], rec1);
}

// A batched log holds the bytes Append writes, in whole 4 KiB writes:
// one charged op per piece, the partial last piece at Sync, then the
// fsync. An Append after batched records writes them out first.
TEST(WalTest, BatchedAppendWritesAppendBytesInWholePieces) {
  TempDir dir("wal");
  std::vector<std::string> records;
  size_t framed = 0;
  for (const size_t size : {10, 3000, 9000, 1, 4088, 700}) {
    records.push_back(std::string(size, static_cast<char>('a' + size % 26)));
    framed += 8 + size;
  }
  // A budget no run reaches: the injector only counts ops.
  auto write = [&](const std::string& path, size_t batched,
                   uint64_t* ops) {
    FaultInjector faults;
    faults.fail_after_physical_ops = 1000000;
    WalWriter writer;
    ASSERT_TRUE(writer.Create(path, &faults, nullptr).ok());
    for (size_t i = 0; i < records.size(); ++i) {
      const std::string& r = records[i];
      ASSERT_TRUE((i < batched ? writer.AppendBatched(r.data(), r.size())
                               : writer.Append(r.data(), r.size()))
                      .ok());
    }
    ASSERT_TRUE(writer.Sync().ok());
    ASSERT_TRUE(writer.Close().ok());
    *ops = faults.ops;
  };
  auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  uint64_t plain_ops = 0;
  uint64_t batched_ops = 0;
  uint64_t mixed_ops = 0;
  write(dir.FilePath("plain"), 0, &plain_ops);
  write(dir.FilePath("batched"), records.size(), &batched_ops);
  write(dir.FilePath("mixed"), records.size() - 1, &mixed_ops);
  const std::string expected = bytes(dir.FilePath("plain"));
  ASSERT_EQ(expected.size(), 8 + framed);
  EXPECT_EQ(bytes(dir.FilePath("batched")), expected);
  EXPECT_EQ(bytes(dir.FilePath("mixed")), expected);
  // Magic, ceil(framed / 4 KiB) pieces, fsync.
  EXPECT_EQ(batched_ops, 1 + (framed + 4095) / 4096 + 1);
  EXPECT_LT(batched_ops, plain_ops);
}

TEST(WalTest, TornHeaderReportsNotFound) {
  TempDir dir("wal");
  const std::string path = dir.FilePath("wal-0");
  {
    std::ofstream f(path, std::ios::binary);
    f.write("STW", 3);  // Crash mid-magic.
  }
  std::vector<std::string> records;
  Status s = WalScanAndTruncate(path, &records, nullptr);
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(fs::file_size(path), 0u);  // Truncated for recreation.
}

TEST(CrashRecoveryTest, DurableConstructionContract) {
  TempDir dir("durable");
  // Durability on, but built with the plain constructor: ingest refuses.
  Engine wrong(DurableOptions(dir.path(), 0));
  auto r = wrong.IngestText({"alpha beta gamma"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Recover without durability enabled: invalid.
  EXPECT_FALSE(Engine::Recover(BaseOptions()).ok());
}

TEST(CrashRecoveryTest, RoundTripRestoresStateByteIdentically) {
  const auto ticks = GenerateTicks();
  TempDir dir("durable");
  std::string expected_graph;
  std::string expected_query;
  uint64_t wal_bytes = 0;
  {
    auto created = Engine::Recover(DurableOptions(dir.path(), 0));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    Engine& engine = *created.value();
    for (uint32_t t = 0; t < 2 * kCheckpointInterval + 3; ++t) {
      auto r = engine.IngestText(ticks[t]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    expected_graph = GraphFingerprint(engine.graph());
    expected_query = QueryFingerprint(engine);
    const EngineStats stats = engine.stats();
    EXPECT_GT(stats.wal_bytes, 0u);
    EXPECT_GT(stats.checkpoint_ns, 0u);
    EXPECT_GT(stats.io.fsyncs, 0u);
    EXPECT_EQ(stats.recovered_epoch, 0u);
    wal_bytes = stats.wal_bytes;
  }
  auto recovered = Engine::Recover(DurableOptions(dir.path(), 0));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Engine& engine = *recovered.value();
  EXPECT_EQ(engine.snapshot()->epoch, 2 * kCheckpointInterval + 3);
  EXPECT_EQ(engine.stats().recovered_epoch, 2 * kCheckpointInterval + 3);
  EXPECT_EQ(GraphFingerprint(engine.graph()), expected_graph);
  EXPECT_EQ(QueryFingerprint(engine), expected_query);
  // A fresh process starts its WAL byte counter at zero.
  EXPECT_LT(engine.stats().wal_bytes, wal_bytes);
  // And the non-durable engine reproduces the same state: durability is
  // observationally free.
  Engine plain(BaseOptions());
  for (uint32_t t = 0; t < 2 * kCheckpointInterval + 3; ++t) {
    ASSERT_TRUE(plain.IngestText(ticks[t]).ok());
  }
  EXPECT_EQ(GraphFingerprint(plain.graph()), expected_graph);
  EXPECT_EQ(plain.stats().wal_bytes, 0u);
  EXPECT_EQ(plain.stats().io.fsyncs, 0u);
}

TEST(CrashRecoveryTest, VanishedCheckpointIsDataLossNotSilentTruncation) {
  const auto ticks = GenerateTicks();
  TempDir dir("durable");
  {
    auto created = Engine::Recover(DurableOptions(dir.path(), 0));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    for (uint32_t t = 0; t < kCheckpointInterval + 2; ++t) {
      ASSERT_TRUE(created.value()->IngestText(ticks[t]).ok());
    }
  }
  // The checkpoint fsync promised durability; deleting it must surface
  // as DataLoss (the surviving log has no base to replay onto), never as
  // a quietly empty engine.
  const std::string checkpoint =
      (fs::path(dir.path()) /
       ("checkpoint-" + std::to_string(kCheckpointInterval)))
          .string();
  ASSERT_TRUE(fs::remove(checkpoint));
  auto recovered = Engine::Recover(DurableOptions(dir.path(), 0));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
}

// An interval delta for interval 0 with no keywords whose cluster count
// (or, with no clusters, adjacency edge count) promises far more entries
// than the record holds.
std::string OvercountedDelta(uint64_t cluster_count, uint64_t edge_count) {
  std::string blob;
  auto put = [&blob](auto v) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(uint32_t{0});                                // interval
  put(uint64_t{0});                                // vocab watermark before
  put(uint64_t{0});                                // vocab watermark after
  for (int i = 0; i < 12; ++i) put(uint64_t{0});  // graph/biconnected stats
  put(cluster_count);
  if (cluster_count == 0) {
    for (int i = 0; i < 11; ++i) put(uint64_t{0});  // IoStats
    put(edge_count);
  }
  return blob;
}

// Recovery must treat a checksum-valid record with an absurd count as
// corruption, never size an allocation by it.
TEST(CrashRecoveryTest, OvercountedWalRecordIsCorruption) {
  constexpr uint64_t kHuge = uint64_t{1} << 62;
  for (const auto& [clusters, edges] :
       {std::pair<uint64_t, uint64_t>{kHuge, 0}, {0, kHuge}}) {
    SCOPED_TRACE(StringPrintf("clusters=%llu edges=%llu",
                              static_cast<unsigned long long>(clusters),
                              static_cast<unsigned long long>(edges)));
    TempDir dir("durable");
    {
      WalWriter writer;
      ASSERT_TRUE(
          writer.Create(dir.FilePath("wal-0"), nullptr, nullptr).ok());
      const std::string blob = OvercountedDelta(clusters, edges);
      ASSERT_TRUE(writer.Append(blob.data(), blob.size()).ok());
      ASSERT_TRUE(writer.Close().ok());
    }
    auto recovered = Engine::Recover(DurableOptions(dir.path(), 0));
    ASSERT_FALSE(recovered.ok());
    EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
  }
}

// Ingests the first `ticks` intervals through a fresh durable engine.
void IngestDurably(const EngineOptions& opt, uint32_t ticks) {
  const auto corpus = GenerateTicks();
  auto created = Engine::Recover(opt);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  for (uint32_t t = 0; t < ticks; ++t) {
    ASSERT_TRUE(created.value()->IngestText(corpus[t]).ok());
  }
}

std::vector<std::string> ReadRecords(const std::string& path) {
  std::vector<std::string> records;
  WalScanEnd end;
  EXPECT_TRUE(WalScan(path, &records, &end, nullptr).ok()) << path;
  EXPECT_EQ(end.valid_bytes, end.file_bytes) << path;
  return records;
}

void FlipByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(offset);
  char c = 0;
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x40));
}

// A fresh data directory makes its log and the log's directory entry
// durable: one fsync for the log header, one for the directory.
TEST(CrashRecoveryTest, NewLogDirectoryEntryIsFsynced) {
  TempDir dir("durable");
  auto created = Engine::Recover(DurableOptions(dir.path(), 0));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_EQ(created.value()->stats().io.fsyncs, 2u);
}

// Open loads only the newest checkpoint, so once it is durable nothing
// older stays on disk.
TEST(CrashRecoveryTest, OneGenerationStaysOnDisk) {
  constexpr uint32_t kInterval = 16;
  TempDir dir("durable");
  EngineOptions opt = DurableOptions(dir.path(), 0);
  opt.durability.checkpoint_interval = kInterval;
  IngestDurably(opt, 2 * kInterval + 3);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir.path())) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names,
            (std::vector<std::string>{"checkpoint-32", "wal-32"}));
}

// A checkpoint is the log re-sealed: record i is byte-for-byte the
// record the WAL logged when interval i committed. At gaps 0 and 2 the
// writer has released settled nodes by then, so their records are read
// back from the seal; raw intersection weights go through the running-max
// scale.
TEST(CrashRecoveryTest, CheckpointRecordsEqualTheLoggedRecords) {
  constexpr uint32_t kInterval = 16;
  const auto ticks = GenerateTicks();
  for (const uint32_t gap : {0u, 2u}) {
    for (const AffinityMeasure measure :
         {AffinityMeasure::kJaccard, AffinityMeasure::kIntersection}) {
      SCOPED_TRACE(StringPrintf("gap %u measure %d", gap,
                                static_cast<int>(measure)));
      TempDir dir("durable");
      TempDir saved("saved");
      EngineOptions opt = DurableOptions(dir.path(), 0);
      opt.gap = gap;
      opt.affinity.measure = measure;
      opt.durability.checkpoint_interval = kInterval;
      {
        auto created = Engine::Recover(opt);
        ASSERT_TRUE(created.ok()) << created.status().ToString();
        for (uint32_t t = 0; t < kInterval; ++t) {
          if (t == kInterval - 1) {
            // A second name for wal-0 that the checkpoint's prune does
            // not remove; the last interval's record still lands in it.
            fs::create_hard_link(dir.FilePath("wal-0"),
                                 saved.FilePath("wal-0"));
          }
          ASSERT_TRUE(created.value()->IngestText(ticks[t]).ok());
        }
        EXPECT_GT(created.value()->graph().settled_intervals(), 0u);
      }
      ASSERT_FALSE(fs::exists(dir.FilePath("wal-0")));
      const std::vector<std::string> logged =
          ReadRecords(saved.FilePath("wal-0"));
      const std::vector<std::string> checkpoint =
          ReadRecords(dir.FilePath("checkpoint-16"));
      ASSERT_EQ(logged.size(), kInterval);
      EXPECT_EQ(checkpoint, logged);
    }
  }
}

// A record's length field precedes its CRC check; a length the file
// cannot hold must be refused before anything is allocated for it.
TEST(CrashRecoveryTest, OversizedCheckpointPayloadIsCorruption) {
  TempDir dir("durable");
  EngineOptions opt = DurableOptions(dir.path(), 0);
  opt.durability.checkpoint_interval = 2;
  IngestDurably(opt, 2);
  // Layout: 8-byte magic, then per record u32 length, u32 crc, payload.
  {
    std::fstream f(dir.FilePath("checkpoint-2"),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    const uint32_t huge = 0xffffffffu;
    f.seekp(8);
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  Status status = Status::OK();
  ASSERT_NO_THROW(status = Engine::Recover(opt).status());
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
}

// Bit rot inside a fsynced checkpoint is lost data, as a torn WAL tail
// is not: recovery refuses instead of replaying a prefix.
TEST(CrashRecoveryTest, FlippedCheckpointByteIsDataLoss) {
  TempDir dir("durable");
  EngineOptions opt = DurableOptions(dir.path(), 0);
  IngestDurably(opt, kCheckpointInterval + 1);
  FlipByte(dir.FilePath("checkpoint-" + std::to_string(kCheckpointInterval)),
           8 + 8 + 5);  // Fifth payload byte of the first record.
  const Status status = Engine::Recover(opt).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();
}

// A checkpoint must parse to its end and hold one record per interval.
// The log after it is empty, so a short checkpoint would otherwise
// replay cleanly to an earlier epoch.
TEST(CrashRecoveryTest, ShortOrTornCheckpointIsCorruption) {
  TempDir dir("durable");
  EngineOptions opt = DurableOptions(dir.path(), 0);
  IngestDurably(opt, kCheckpointInterval);
  const std::string path =
      dir.FilePath("checkpoint-" + std::to_string(kCheckpointInterval));
  const std::vector<std::string> records = ReadRecords(path);
  ASSERT_EQ(records.size(), kCheckpointInterval);
  const auto full_size = fs::file_size(path);

  fs::resize_file(path, full_size - 3);  // Torn last record.
  Status status = Engine::Recover(opt).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();

  auto rewrite = [&](size_t count, const std::string& trailer) {
    WalWriter writer;
    ASSERT_TRUE(writer.Create(path, nullptr, nullptr).ok());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(writer.Append(records[i].data(), records[i].size()).ok());
    }
    ASSERT_TRUE(writer.Close().ok());
    std::ofstream(path, std::ios::binary | std::ios::app) << trailer;
  };
  rewrite(records.size(), "stray");  // Every record, then stray bytes.
  status = Engine::Recover(opt).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();

  rewrite(records.size() - 1, "");  // Intact, but one interval short.
  status = Engine::Recover(opt).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();

  rewrite(records.size(), "");  // The original bytes recover.
  EXPECT_TRUE(Engine::Recover(opt).ok());
}

// A data directory from before the record-log checkpoint gets a named
// error, not a generic bad-magic corruption.
TEST(CrashRecoveryTest, RetiredPagedCheckpointIsNamed) {
  TempDir dir("durable");
  {
    std::ofstream f(dir.FilePath("checkpoint-8"), std::ios::binary);
    std::string page(4096, '\0');
    page.replace(0, 7, "STCKPT1");
    f.write(page.data(), static_cast<std::streamsize>(page.size()));
  }
  const Status status =
      Engine::Recover(DurableOptions(dir.path(), 0)).status();
  EXPECT_EQ(status.code(), StatusCode::kNotSupported) << status.ToString();
  EXPECT_NE(status.message().find("retired paged checkpoint"),
            std::string::npos)
      << status.ToString();
}

// The sweep. For every fault budget B = 1, 2, 3, ... the writer is
// recreated against a fresh directory and killed by I/O-op exhaustion
// somewhere in a 64-tick ingest; recovery (no injection) must then land
// on the epoch published at the kill — or one later — with byte-exact
// state. The sweep ends at the first budget that survives the whole
// ingest, so every physical-op boundary the workload crosses has been a
// kill point exactly once.
TEST(CrashRecoveryTest, KillAtEveryPhysicalOpBoundary) {
  const auto ticks = GenerateTicks();
  const Reference ref = BuildReference(ticks);
  // Safety bound: the workload takes a few hundred physical ops end to
  // end; far more means runaway I/O (itself a regression).
  constexpr uint64_t kMaxBudget = 50000;
  uint64_t completed_at = 0;
  for (uint64_t budget = 1; budget <= kMaxBudget; ++budget) {
    SCOPED_TRACE(StringPrintf("fault budget=%llu",
                              static_cast<unsigned long long>(budget)));
    TempDir dir("crash");
    uint64_t published = 0;
    bool crashed = false;
    {
      auto writer = Engine::Recover(DurableOptions(dir.path(), budget));
      if (!writer.ok()) {
        crashed = true;  // Killed during directory/WAL creation.
      } else {
        Engine& engine = *writer.value();
        for (uint32_t t = 0; t < kTicks; ++t) {
          auto r = engine.IngestText(ticks[t]);
          if (!r.ok()) {
            ASSERT_TRUE(r.status().code() == StatusCode::kIOError ||
                        r.status().code() == StatusCode::kInternal)
                << r.status().ToString();
            crashed = true;
            break;
          }
        }
        published = engine.snapshot()->epoch;
      }
    }  // The "crash": the writer is destroyed with no clean shutdown.

    auto recovered = Engine::Recover(DurableOptions(dir.path(), 0));
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Engine& engine = *recovered.value();
    const uint64_t epoch = engine.snapshot()->epoch;
    if (!crashed) {
      EXPECT_EQ(epoch, kTicks);
      EXPECT_EQ(GraphFingerprint(engine.graph()), ref.graphs[kTicks]);
      EXPECT_EQ(QueryFingerprint(engine), ref.queries[kTicks]);
      completed_at = budget;
      break;
    }
    // Published epochs are always recoverable; one more only when the
    // crash split a WAL fsync from its publish.
    ASSERT_TRUE(epoch == published || epoch == published + 1)
        << "published=" << published << " recovered=" << epoch;
    ASSERT_EQ(GraphFingerprint(engine.graph()), ref.graphs[epoch]);
    ASSERT_EQ(QueryFingerprint(engine), ref.queries[epoch]);
    EXPECT_EQ(engine.stats().recovered_epoch, epoch);
    // Sampled: the recovered writer resumes ingest to completion and
    // converges on the uninterrupted run's final bytes.
    if (budget % 13 == 0) {
      for (uint32_t t = static_cast<uint32_t>(epoch); t < kTicks; ++t) {
        auto r = engine.IngestText(ticks[t]);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
      ASSERT_EQ(GraphFingerprint(engine.graph()), ref.graphs[kTicks]);
      ASSERT_EQ(QueryFingerprint(engine), ref.queries[kTicks]);
    }
  }
  ASSERT_GT(completed_at, 0u) << "no budget survived the whole ingest";
  std::printf("sweep covered %llu fault budgets\n",
              static_cast<unsigned long long>(completed_at));
}

}  // namespace
}  // namespace stabletext
