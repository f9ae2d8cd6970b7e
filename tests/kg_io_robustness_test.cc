// Fuzz-style robustness tests for the TSV loaders: truncated, over-field,
// non-UTF8, and empty inputs must never crash — they either load leniently
// (bad lines skipped and counted) or fail with a precise Status in strict
// mode. See ISSUE/DESIGN.md §7 "Failure model".
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/kg/dataset.h"
#include "src/kg/kg_io.h"

namespace largeea {
namespace {

class KgIoRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() / "largeea_io_fuzz")
               .string();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string WriteFile(const std::string& name,
                        const std::string& content) {
    const std::string path = dir_ + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out << content;
    return path;
  }

  static TsvReadOptions Strict() {
    TsvReadOptions o;
    o.strict = true;
    return o;
  }

  std::string dir_;
};

TEST_F(KgIoRobustnessTest, EmptyTriplesFileLoadsAsEmptyGraph) {
  const std::string path = WriteFile("empty.tsv", "");
  const auto lenient = LoadTriples(path);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->num_entities(), 0);
  EXPECT_EQ(lenient->num_triples(), 0);
  // An empty file has no malformed lines, so strict agrees.
  EXPECT_TRUE(LoadTriples(path, Strict()).ok());
}

TEST_F(KgIoRobustnessTest, TruncatedLastLineIsSkippedAndCounted) {
  // A download cut off mid-line: final record is missing its tail field.
  const std::string path = WriteFile(
      "truncated.tsv", "a\tknows\tb\nb\tknows\tc\nc\tkno");
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 2);
  EXPECT_EQ(stats.lines_read, 3);
  EXPECT_EQ(stats.lines_skipped, 1);
  ASSERT_EQ(stats.skipped_line_numbers.size(), 1u);
  EXPECT_EQ(stats.skipped_line_numbers[0], 3);

  const auto strict = LoadTriples(path, Strict());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  // The error names the file and the 1-based line number.
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);
  EXPECT_NE(strict.status().message().find(path), std::string::npos);
}

TEST_F(KgIoRobustnessTest, OverFieldLinesAreSkipped) {
  const std::string path = WriteFile(
      "wide.tsv", "a\tr\tb\textra\tfields\na\tr\tb\n");
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 1);
  EXPECT_EQ(stats.lines_skipped, 1);
  EXPECT_EQ(LoadTriples(path, Strict()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(KgIoRobustnessTest, EmptyFieldsAreSkipped) {
  const std::string path =
      WriteFile("holes.tsv", "\tr\tb\na\t\tb\na\tr\t\na\tr\tb\n");
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 1);
  EXPECT_EQ(stats.lines_skipped, 3);
}

TEST_F(KgIoRobustnessTest, NonUtf8BytesDoNotCrash) {
  // Raw Latin-1 / random high bytes inside names: the loader treats names
  // as opaque byte strings, so these lines are *valid* — they load, round
  // nothing, crash nothing.
  std::string content = "caf\xe9\tkennt\tM\xfcnchen\n";
  content += "\x80\x81\x82\tr\t\xff\xfe\n";
  content += "plain\tr\talso_plain\n";
  const std::string path = WriteFile("latin1.tsv", content);
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 3);
  EXPECT_EQ(stats.lines_skipped, 0);
  EXPECT_TRUE(kg->FindEntity("caf\xe9").has_value());
}

TEST_F(KgIoRobustnessTest, EmbeddedNulAndControlBytesDoNotCrash) {
  std::string content = "a\tr\tb\n";
  content += std::string("x\0y", 3) + "\tr\tz\n";  // NUL inside a name
  content += "\x01\x02\tr\t\x03\n";
  const std::string path = WriteFile("control.tsv", content);
  const auto kg = LoadTriples(path);
  ASSERT_TRUE(kg.ok());  // opaque bytes: all lines have 3 fields
  EXPECT_GE(kg->num_triples(), 1);
}

// A line of 64 KiB or more is one malformed line: skipped to its
// newline and counted once, or INVALID_ARGUMENT in strict mode. One
// byte shorter, it loads.
TEST_F(KgIoRobustnessTest, LinesOfSixtyFourKiBAreMalformed) {
  constexpr size_t kCap = size_t{64} << 10;
  const std::string longest_name(kCap - 1 - 4, 'x');  // + "\tr\ty"
  const std::string content = "a\tr\tb\n" + longest_name + "\tr\ty\n" +
                              std::string(kCap, 'z') + "\tr\ty\n" +
                              "b\tr\tc\n" + std::string(3 * kCap, 'w');
  const std::string path = WriteFile("long.tsv", content);
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 3);
  EXPECT_TRUE(kg->FindEntity(longest_name).has_value());
  EXPECT_EQ(stats.lines_read, 5);
  EXPECT_EQ(stats.lines_skipped, 2);
  EXPECT_EQ(stats.skipped_line_numbers, (std::vector<int64_t>{3, 5}));
  const auto strict = LoadTriples(path, Strict());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos);
}

// A pipe reports no size, so its lines stream through a buffer that
// grows while one line fills it; the load matches the same bytes read
// from a file.
TEST_F(KgIoRobustnessTest, PipesLoadLikeFiles) {
  std::string content;
  for (int i = 0; i < 400; ++i) {
    content += "e" + std::to_string(i) + "\tr\te" + std::to_string(i + 1) +
               "\n";
  }
  content += std::string(20000, 'n') + "\tr\te0\n";  // past 4 KiB
  const std::string fifo = dir_ + "/pipe.tsv";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out << content;
  });
  TsvReadStats stats;
  const auto piped = LoadTriples(fifo, {}, &stats);
  writer.join();
  const auto filed = LoadTriples(WriteFile("file.tsv", content));
  ASSERT_TRUE(piped.ok());
  ASSERT_TRUE(filed.ok());
  EXPECT_EQ(stats.lines_skipped, 0);
  EXPECT_EQ(piped->num_triples(), 401);
  EXPECT_EQ(piped->num_entities(), filed->num_entities());
  for (EntityId e = 0; e < piped->num_entities(); ++e) {
    EXPECT_EQ(piped->EntityName(e), filed->EntityName(e));
  }
}

TEST_F(KgIoRobustnessTest, CrlfLineEndingsAreHandled) {
  const std::string path =
      WriteFile("crlf.tsv", "a\tr\tb\r\nb\tr\tc\r\n");
  const auto kg = LoadTriples(path);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 2);
  EXPECT_TRUE(kg->FindEntity("c").has_value());  // no trailing \r in names
}

TEST_F(KgIoRobustnessTest, BlankLinesAreIgnoredNotCounted) {
  const std::string path =
      WriteFile("blank.tsv", "\na\tr\tb\n\n\nb\tr\tc\n\n");
  TsvReadStats stats;
  const auto kg = LoadTriples(path, {}, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_triples(), 2);
  EXPECT_EQ(stats.lines_skipped, 0);
  EXPECT_TRUE(LoadTriples(path, Strict()).ok());
}

TEST_F(KgIoRobustnessTest, SkipReportingIsCappedButCountIsExact) {
  std::string content;
  for (int i = 0; i < 20; ++i) content += "only_one_field\n";
  content += "a\tr\tb\n";
  const std::string path = WriteFile("many_bad.tsv", content);
  TsvReadOptions options;
  options.max_reported_lines = 3;
  TsvReadStats stats;
  const auto kg = LoadTriples(path, options, &stats);
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(stats.lines_skipped, 20);
  EXPECT_EQ(stats.skipped_line_numbers.size(), 3u);
}

TEST_F(KgIoRobustnessTest, AlignmentRobustness) {
  KnowledgeGraph source, target;
  source.AddEntity("a");
  source.AddEntity("b");
  target.AddEntity("x");
  target.AddEntity("y");
  source.BuildAdjacency();
  target.BuildAdjacency();

  const std::string path = WriteFile(
      "align.tsv",
      "a\tx\n"
      "a\n"                  // too few fields
      "b\ty\tz\n"            // too many fields
      "missing\tx\n"         // unknown source entity
      "b\tmissing\n"         // unknown target entity
      "b\ty\n");
  TsvReadStats stats;
  const auto lenient = LoadAlignment(path, source, target, {}, &stats);
  ASSERT_TRUE(lenient.ok());
  EXPECT_EQ(lenient->size(), 2u);
  EXPECT_EQ(stats.lines_skipped, 4);

  const auto strict = LoadAlignment(path, source, target, Strict());
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(strict.status().message().find("line 2"), std::string::npos);
}

TEST_F(KgIoRobustnessTest, EmptyAlignmentFileIsOk) {
  KnowledgeGraph source, target;
  source.AddEntity("a");
  target.AddEntity("x");
  source.BuildAdjacency();
  target.BuildAdjacency();
  const std::string path = WriteFile("empty_align.tsv", "");
  const auto pairs = LoadAlignment(path, source, target);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
}

TEST_F(KgIoRobustnessTest, LoadEaDatasetPropagatesContextfulErrors) {
  const std::string good =
      WriteFile("good.tsv", "a\tr\tb\nb\tr\tc\n");
  EaDatasetPaths paths;
  paths.source_triples = good;
  paths.target_triples = dir_ + "/does_not_exist.tsv";
  const auto missing = LoadEaDataset(paths);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  // The context names which side failed.
  EXPECT_NE(missing.status().message().find("target"), std::string::npos);
}

TEST_F(KgIoRobustnessTest, LoadEaDatasetLoadsCompleteSets) {
  const std::string src = WriteFile("s.tsv", "a\tr\tb\n");
  const std::string tgt = WriteFile("t.tsv", "x\tr\ty\n");
  const std::string train = WriteFile("train.tsv", "a\tx\n");
  EaDatasetPaths paths;
  paths.source_triples = src;
  paths.target_triples = tgt;
  paths.train_pairs = train;
  const auto dataset = LoadEaDataset(paths, {}, "fuzz");
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->name, "fuzz");
  EXPECT_EQ(dataset->source.num_entities(), 2);
  EXPECT_EQ(dataset->target.num_entities(), 2);
  ASSERT_EQ(dataset->split.train.size(), 1u);
  EXPECT_TRUE(dataset->split.test.empty());
}

}  // namespace
}  // namespace largeea
