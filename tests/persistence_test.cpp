// Storage persistence (record-file checksums, temp dirs, dictionary
// rollback vs durable recovery) and fault-injection error-propagation
// tests.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cooccur/keyword_dict.h"
#include "core/engine.h"
#include "storage/external_sorter.h"
#include "storage/record_file.h"
#include "storage/spillable_stack.h"
#include "storage/temp_dir.h"

namespace stabletext {
namespace {

// Fault injection: failures in the (simulated) disk must surface as
// IOError through every layer, never crash or silently corrupt.
TEST(FaultInjectionTest, PagedFileFailsAfterBudget) {
  TempDir dir;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.truncate = true;
  opt.fail_after_physical_ops = 3;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, nullptr).ok());
  std::vector<uint8_t> page(64, 1);
  EXPECT_TRUE(file.WritePage(0, page.data()).ok());
  EXPECT_TRUE(file.WritePage(1, page.data()).ok());
  EXPECT_TRUE(file.WritePage(2, page.data()).ok());
  Status s = file.WritePage(3, page.data());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  std::vector<uint8_t> out;
  EXPECT_EQ(file.ReadPage(0, &out).code(), StatusCode::kIOError);
}

TEST(FaultInjectionTest, SpillableStackPropagatesFaults) {
  SpillableStackOptions opt;
  opt.memory_entries = 8;
  opt.block_entries = 4;
  opt.fail_after_physical_ops = 2;
  SpillableStack<uint64_t> stack(opt);
  Status status = Status::OK();
  for (uint64_t i = 0; i < 1000 && status.ok(); ++i) {
    status = stack.Push(i);
  }
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

struct FaultRec {
  uint64_t v;
  friend bool operator<(const FaultRec& a, const FaultRec& b) {
    return a.v < b.v;
  }
};

TEST(FaultInjectionTest, ExternalSorterPropagatesFaults) {
  using Rec = FaultRec;
  ExternalSorterOptions opt;
  opt.memory_budget_bytes = 8 * sizeof(Rec);
  opt.fail_after_physical_ops = 1;
  ExternalSorter<Rec> sorter(opt);
  Status status = Status::OK();
  for (uint64_t i = 0; i < 100 && status.ok(); ++i) {
    status = sorter.Add(Rec{i});
  }
  if (status.ok()) status = sorter.Sort();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// ---- record-file page checksums ----

struct CrcRec {
  uint32_t a;
  uint64_t b;
};

void FlipByte(const std::string& path, size_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x01));
}

TEST(RecordFileChecksumTest, CleanFileRoundTrips) {
  TempDir dir;
  const std::string path = dir.FilePath("recs");
  RecordWriter<CrcRec> writer;
  ASSERT_TRUE(writer.Open(path, nullptr, /*page_size=*/128).ok());
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Append(CrcRec{i, uint64_t{i} * 3}).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  RecordReader<CrcRec> reader;
  ASSERT_TRUE(reader.Open(path, nullptr, /*page_size=*/128).ok());
  CrcRec r{};
  uint32_t n = 0;
  while (reader.Next(&r)) {
    EXPECT_EQ(r.a, n);
    ++n;
  }
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(n, 50u);
}

TEST(RecordFileChecksumTest, BitRotInADataPageIsDataLoss) {
  TempDir dir;
  const std::string path = dir.FilePath("recs");
  RecordWriter<CrcRec> writer;
  // page_size 128 holds (128-4)/16 = 7 records per page.
  ASSERT_TRUE(writer.Open(path, nullptr, /*page_size=*/128).ok());
  for (uint32_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(writer.Append(CrcRec{i, uint64_t{i}}).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  // Rot one byte in the second data page (page 2): records 7..13.
  FlipByte(path, 2 * 128 + 5);
  RecordReader<CrcRec> reader;
  ASSERT_TRUE(reader.Open(path, nullptr, /*page_size=*/128).ok());
  CrcRec r{};
  uint32_t read = 0;
  while (reader.Next(&r)) ++read;
  EXPECT_EQ(read, 7u);  // The first page's records survive.
  EXPECT_EQ(reader.status().code(), StatusCode::kDataLoss);
}

TEST(RecordFileChecksumTest, BitRotInTheHeaderIsDataLoss) {
  TempDir dir;
  const std::string path = dir.FilePath("recs");
  RecordWriter<CrcRec> writer;
  ASSERT_TRUE(writer.Open(path, nullptr, /*page_size=*/128).ok());
  ASSERT_TRUE(writer.Append(CrcRec{1, 2}).ok());
  ASSERT_TRUE(writer.Finish().ok());
  FlipByte(path, 3);  // Header page: the record count itself.
  RecordReader<CrcRec> reader;
  EXPECT_EQ(reader.Open(path, nullptr, /*page_size=*/128).code(),
            StatusCode::kDataLoss);
}

// ---- TempDir cleanup reporting ----

TEST(TempDirTest, CleanupReportsAndIsIdempotent) {
  TempDir dir;
  const std::string path = dir.path();
  {
    std::ofstream f(dir.FilePath("scratch"));
    f << "x";
  }
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_TRUE(dir.Cleanup().ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(dir.Cleanup().ok());  // Second call is a no-op.
}

// ---- KeywordDict::TruncateTo vs. durable recovery ----

TEST(KeywordDictTest, TruncateToRestoresIdAssignment) {
  KeywordDict dict;
  EXPECT_EQ(dict.Intern("alpha"), 0u);
  EXPECT_EQ(dict.Intern("beta"), 1u);
  EXPECT_EQ(dict.Intern("gamma"), 2u);
  const size_t watermark = dict.size();
  EXPECT_EQ(dict.Intern("delta"), 3u);
  EXPECT_EQ(dict.Intern("epsilon"), 4u);
  dict.TruncateTo(watermark);
  EXPECT_EQ(dict.size(), watermark);
  EXPECT_EQ(dict.Lookup("delta"), kInvalidKeyword);
  EXPECT_EQ(dict.Lookup("epsilon"), kInvalidKeyword);
  EXPECT_EQ(dict.Lookup("beta"), 1u);
  // Ids after the rollback are assigned as if the dropped words never
  // existed — in the new arrival order.
  EXPECT_EQ(dict.Intern("epsilon"), 3u);
  EXPECT_EQ(dict.Intern("delta"), 4u);
}

// An aborted batch leaves keyword-id assignment exactly where its last
// committed tick left it (interning that never committed is rolled back
// with TruncateTo); the WAL watermarks must line up so a later commit —
// and a recovery replay of it — reproduces keyword ids exactly.
TEST(KeywordDictTest, TruncateToRollbackSurvivesDurableRecovery) {
  auto posts = [](std::initializer_list<const char*> texts) {
    std::vector<std::string> out;
    for (const char* t : texts) {
      for (int i = 0; i < 4; ++i) out.push_back(t);  // Clear pair support.
    }
    return out;
  };
  const std::vector<std::vector<std::string>> ticks = {
      posts({"red blue green", "red blue yellow"}),
      posts({"red blue green", "blue green cyan"}),
      posts({"red blue green", "green cyan magenta"}),
  };
  TempDir dir("durable");
  EngineOptions opt;
  opt.gap = 1;
  opt.threads = 2;
  opt.clustering.pruning.min_pair_support = 2;
  opt.clustering.pruning.rho_threshold = 0.05;
  opt.affinity.theta = 0.05;
  opt.durability.enabled = true;
  opt.durability.dir = dir.path();
  opt.durability.checkpoint_interval = 2;

  std::string expected;
  size_t vocab = 0;
  {
    auto created = Engine::Recover(opt);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    Engine& engine = *created.value();
    // Abort the batch after tick 1 commits: none of tick 2's words may
    // reach the dictionary or the log.
    auto r = engine.IngestTicks(ticks, [](uint32_t interval,
                                          const std::vector<std::string>&) {
      return interval >= 1 ? Status::Internal("abort batch")
                           : Status::OK();
    });
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(engine.snapshot()->epoch, 2u);
    // The engine is not broken — re-ingest the rolled-back tick.
    auto committed = engine.IngestText(ticks[2]);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    vocab = engine.dict().size();
    for (KeywordId id = 0; id < vocab; ++id) {
      expected += engine.dict().Word(id);
      expected += '\n';
    }
  }
  auto recovered = Engine::Recover(opt);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Engine& engine = *recovered.value();
  EXPECT_EQ(engine.snapshot()->epoch, 3u);
  ASSERT_EQ(engine.dict().size(), vocab);
  std::string replayed;
  for (KeywordId id = 0; id < vocab; ++id) {
    replayed += engine.dict().Word(id);
    replayed += '\n';
  }
  EXPECT_EQ(replayed, expected);
}

}  // namespace
}  // namespace stabletext
