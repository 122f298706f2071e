// Unit tests for storage/: TempDir (including an unusable TMPDIR, which
// only a spill may notice), PagedFile (caching, accounting, persistence,
// error paths), RecordWriter/RecordReader.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <functional>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "storage/external_sorter.h"
#include "storage/paged_file.h"
#include "storage/record_file.h"
#include "storage/spillable_stack.h"
#include "storage/temp_dir.h"

namespace stabletext {
namespace {

std::vector<uint8_t> FilledPage(size_t page_size, uint8_t fill) {
  return std::vector<uint8_t>(page_size, fill);
}

TEST(TempDirTest, CreatesAndRemovesDirectory) {
  std::string path;
  {
    TempDir dir("st_test");
    EXPECT_TRUE(dir.status().ok()) << dir.status().ToString();
    path = dir.path();
    EXPECT_TRUE(std::filesystem::is_directory(path));
    EXPECT_EQ(dir.FilePath("x"), path + "/x");
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, DistinctInstancesGetDistinctPaths) {
  TempDir a("st_test"), b("st_test");
  EXPECT_NE(a.path(), b.path());
}

// Points TMPDIR at `value` for the scope (the test binary is its own
// process, so nothing else observes it).
class ScopedTmpdir {
 public:
  explicit ScopedTmpdir(const std::string& value) {
    const char* old = std::getenv("TMPDIR");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv("TMPDIR", value.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (had_old_) {
      ::setenv("TMPDIR", old_.c_str(), 1);
    } else {
      ::unsetenv("TMPDIR");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// Sorts and stacks that stay in memory, plus a whole engine tick. `check`
// runs while the sorter and the stack are alive.
void RunInMemoryWork(const std::function<void()>& check) {
  ExternalSorter<uint64_t> sorter;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sorter.Add((i * 7919) % 1000).ok());
  }
  ASSERT_TRUE(sorter.Sort().ok());
  uint64_t value = 0;
  ASSERT_TRUE(sorter.Next(&value));
  EXPECT_EQ(value, 0u);
  SpillableStack<uint64_t> stack;
  for (uint64_t i = 0; i < 1000; ++i) ASSERT_TRUE(stack.Push(i).ok());
  ASSERT_TRUE(stack.Pop(&value).ok());
  EXPECT_EQ(value, 999u);
  CorpusGenOptions corpus;
  corpus.days = 1;
  corpus.posts_per_day = 60;
  corpus.vocabulary = 200;
  corpus.seed = 3;
  Engine engine{EngineOptions{}};
  auto tick = engine.IngestText(CorpusGenerator(corpus).GenerateDay(0));
  ASSERT_TRUE(tick.ok()) << tick.status().ToString();
  check();
}

TEST(TempDirTest, WorkThatStaysInMemoryCreatesNoDirectory) {
  TempDir root("st_test");
  ScopedTmpdir scoped(root.path());
  RunInMemoryWork(
      [&] { EXPECT_TRUE(std::filesystem::is_empty(root.path())); });
  {
    // The first spill creates the sorter's directory; the sorter removes
    // it again.
    ExternalSorterOptions tiny;
    tiny.memory_budget_bytes = 64;
    ExternalSorter<uint64_t> spilling(tiny);
    for (uint64_t i = 0; i < 100; ++i) ASSERT_TRUE(spilling.Add(i).ok());
    EXPECT_FALSE(std::filesystem::is_empty(root.path()));
  }
  EXPECT_TRUE(std::filesystem::is_empty(root.path()));
}

// Either a TMPDIR that does not exist, or an existing one so deep that a
// scratch directory's name pushes the path past PATH_MAX.
class UnusableTmpdirTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (!GetParam()) {
      tmpdir_ = "/nonexistent/stabletext_tmpdir";
      return;
    }
    deep_root_ = std::filesystem::temp_directory_path() /
                 ("st_deep." + std::to_string(::getpid()));
    // PATH_MAX is 4096 with the terminator: no "/st_test.<pid>..." fits.
    constexpr size_t kDepth = 4085;
    std::filesystem::path deep = deep_root_;
    while (deep.string().size() < kDepth) {
      deep /= std::string(
          std::min<size_t>(200, kDepth - deep.string().size()), 'd');
    }
    std::filesystem::create_directories(deep);
    ASSERT_TRUE(std::filesystem::is_directory(deep));
    tmpdir_ = deep.string();
  }
  void TearDown() override {
    std::error_code ec;
    if (!deep_root_.empty()) std::filesystem::remove_all(deep_root_, ec);
  }

  std::string tmpdir_;
  std::filesystem::path deep_root_;
};

TEST_P(UnusableTmpdirTest, OnlyASpillNoticesIt) {
  ScopedTmpdir scoped(tmpdir_);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();

  TempDir dir("st_test");
  EXPECT_EQ(dir.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(dir.path().empty());

  RunInMemoryWork([] {});

  // A forced spill reports the directory failure as a Status.
  ExternalSorterOptions tiny;
  tiny.memory_budget_bytes = 64;
  ExternalSorter<uint64_t> spilling(tiny);
  Status spill;
  for (uint64_t i = 0; i < 100 && spill.ok(); ++i) spill = spilling.Add(i);
  EXPECT_EQ(spill.code(), StatusCode::kIOError) << spill.ToString();
  SpillableStackOptions small;
  small.memory_entries = 8;
  small.block_entries = 4;
  SpillableStack<uint64_t> spilling_stack(small);
  Status push;
  for (uint64_t i = 0; i < 100 && push.ok(); ++i) {
    push = spilling_stack.Push(i);
  }
  EXPECT_EQ(push.code(), StatusCode::kIOError) << push.ToString();

  EXPECT_LT(Clock::now() - start, std::chrono::seconds(5));
}

INSTANTIATE_TEST_SUITE_P(Tmpdir, UnusableTmpdirTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "OverLong" : "Missing";
                         });

TEST(PagedFileTest, WriteReadRoundTrip) {
  TempDir dir;
  IoStats stats;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 256;
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, &stats).ok());
  for (uint8_t i = 0; i < 10; ++i) {
    auto page = FilledPage(256, i);
    ASSERT_TRUE(file.WritePage(i, page.data()).ok());
  }
  EXPECT_EQ(file.PageCount(), 10u);
  std::vector<uint8_t> out;
  for (uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(file.ReadPage(i, &out).ok());
    EXPECT_EQ(out, FilledPage(256, i));
  }
}

TEST(PagedFileTest, PersistsAcrossReopen) {
  TempDir dir;
  const std::string path = dir.FilePath("f");
  {
    PagedFile file;
    PagedFileOptions opt;
    opt.page_size = 128;
    opt.truncate = true;
    ASSERT_TRUE(file.Open(path, opt, nullptr).ok());
    auto page = FilledPage(128, 0xAB);
    ASSERT_TRUE(file.WritePage(0, page.data()).ok());
    ASSERT_TRUE(file.Close().ok());
  }
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 128;
  ASSERT_TRUE(file.Open(path, opt, nullptr).ok());
  EXPECT_EQ(file.PageCount(), 1u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(file.ReadPage(0, &out).ok());
  EXPECT_EQ(out, FilledPage(128, 0xAB));
}

TEST(PagedFileTest, CacheDisabledChargesEveryAccess) {
  TempDir dir;
  IoStats stats;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.cache_pages = 0;  // The paper's "page cache disabled" environment.
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, &stats).ok());
  auto page = FilledPage(64, 1);
  ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  std::vector<uint8_t> out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(file.ReadPage(0, &out).ok());
  EXPECT_EQ(stats.page_writes, 1u);
  EXPECT_EQ(stats.page_reads, 5u);
  EXPECT_EQ(stats.logical_reads, 0u);
}

TEST(PagedFileTest, CacheAbsorbsRepeatedReads) {
  TempDir dir;
  IoStats stats;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.cache_pages = 4;
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, &stats).ok());
  auto page = FilledPage(64, 1);
  ASSERT_TRUE(file.WritePage(0, page.data()).ok());
  std::vector<uint8_t> out;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(file.ReadPage(0, &out).ok());
  // The write stays cached; all five reads hit the dirty frame.
  EXPECT_EQ(stats.page_reads, 0u);
  EXPECT_EQ(stats.logical_reads, 5u);
  ASSERT_TRUE(file.Flush().ok());
  EXPECT_EQ(stats.page_writes, 1u);
}

TEST(PagedFileTest, LruEvictsColdestPage) {
  TempDir dir;
  IoStats stats;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.cache_pages = 2;
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, &stats).ok());
  for (uint8_t i = 0; i < 3; ++i) {
    auto page = FilledPage(64, i);
    ASSERT_TRUE(file.WritePage(i, page.data()).ok());
  }
  // Pages 0 was evicted (written); 1 and 2 cached.
  EXPECT_EQ(stats.page_writes, 1u);
  std::vector<uint8_t> out;
  ASSERT_TRUE(file.ReadPage(2, &out).ok());
  EXPECT_EQ(stats.page_reads, 0u);
  ASSERT_TRUE(file.ReadPage(0, &out).ok());  // Miss: physical read.
  EXPECT_EQ(stats.page_reads, 1u);
  EXPECT_EQ(out, FilledPage(64, 0));
}

TEST(PagedFileTest, RandomSeeksCounted) {
  TempDir dir;
  IoStats stats;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.cache_pages = 0;
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, &stats).ok());
  auto page = FilledPage(64, 0);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(file.WritePage(i, page.data()).ok());
  }
  EXPECT_EQ(stats.random_seeks, 0u);  // Sequential appends.
  std::vector<uint8_t> out;
  ASSERT_TRUE(file.ReadPage(0, &out).ok());  // Jump back: one seek.
  ASSERT_TRUE(file.ReadPage(1, &out).ok());  // Sequential.
  ASSERT_TRUE(file.ReadPage(5, &out).ok());  // Jump: another seek.
  EXPECT_EQ(stats.random_seeks, 2u);
}

TEST(PagedFileTest, ErrorsOnBadAccesses) {
  TempDir dir;
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  opt.truncate = true;
  ASSERT_TRUE(file.Open(dir.FilePath("f"), opt, nullptr).ok());
  std::vector<uint8_t> out;
  EXPECT_FALSE(file.ReadPage(0, &out).ok());  // Empty file.
  auto page = FilledPage(64, 1);
  EXPECT_FALSE(file.WritePage(5, page.data()).ok());  // Gap.
  PagedFile second;
  PagedFileOptions bad;
  bad.page_size = 0;
  EXPECT_EQ(second.Open(dir.FilePath("g"), bad, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST(PagedFileTest, RejectsMisalignedExistingFile) {
  TempDir dir;
  const std::string path = dir.FilePath("odd");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("123", f);
    std::fclose(f);
  }
  PagedFile file;
  PagedFileOptions opt;
  opt.page_size = 64;
  EXPECT_EQ(file.Open(path, opt, nullptr).code(), StatusCode::kCorruption);
}

struct Rec {
  uint32_t a;
  uint64_t b;
  friend bool operator==(const Rec& x, const Rec& y) {
    return x.a == y.a && x.b == y.b;
  }
};

TEST(RecordFileTest, RoundTripsRecords) {
  TempDir dir;
  IoStats stats;
  RecordWriter<Rec> writer;
  ASSERT_TRUE(writer.Open(dir.FilePath("r"), &stats, 128).ok());
  std::vector<Rec> expected;
  for (uint32_t i = 0; i < 100; ++i) {
    Rec r{i, uint64_t{i} * 7};
    expected.push_back(r);
    ASSERT_TRUE(writer.Append(r).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.count(), 100u);

  RecordReader<Rec> reader;
  ASSERT_TRUE(reader.Open(dir.FilePath("r"), &stats, 128).ok());
  EXPECT_EQ(reader.count(), 100u);
  std::vector<Rec> got;
  Rec r;
  while (reader.Next(&r)) got.push_back(r);
  EXPECT_TRUE(reader.status().ok());
  EXPECT_EQ(got, expected);
}

TEST(RecordFileTest, EmptyFile) {
  TempDir dir;
  RecordWriter<Rec> writer;
  ASSERT_TRUE(writer.Open(dir.FilePath("r"), nullptr).ok());
  ASSERT_TRUE(writer.Finish().ok());
  RecordReader<Rec> reader;
  ASSERT_TRUE(reader.Open(dir.FilePath("r"), nullptr).ok());
  Rec r;
  EXPECT_FALSE(reader.Next(&r));
  EXPECT_EQ(reader.count(), 0u);
}

TEST(RecordFileTest, RejectsPageSmallerThanRecord) {
  TempDir dir;
  RecordWriter<Rec> writer;
  EXPECT_FALSE(writer.Open(dir.FilePath("r"), nullptr, 8).ok());
}

TEST(IoStatsTest, AccumulatesAndPrints) {
  IoStats a, b;
  a.page_reads = 3;
  a.bytes_read = 300;
  b.page_writes = 2;
  b.random_seeks = 1;
  a += b;
  EXPECT_EQ(a.page_reads, 3u);
  EXPECT_EQ(a.page_writes, 2u);
  EXPECT_EQ(a.random_seeks, 1u);
  EXPECT_NE(a.ToString().find("reads=3"), std::string::npos);
  a.Reset();
  EXPECT_EQ(a.page_reads, 0u);
}

}  // namespace
}  // namespace stabletext
