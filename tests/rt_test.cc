// Unit tests for the fault-tolerant runtime layer (src/rt/): Status
// propagation, atomic file IO, binary payloads, the fault injector, the
// artifact container (versioning, checksums, kinds, fingerprints) and
// checkpoints on top of it.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "src/rt/artifact.h"
#include "src/rt/binary_io.h"
#include "src/rt/checkpoint.h"
#include "src/rt/fault_injection.h"
#include "src/rt/io_util.h"
#include "src/rt/status.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorsCarryCodeAndMessage) {
  const Status s = DataLossError("checksum mismatch");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DATA_LOSS: checksum mismatch");
}

TEST(StatusTest, WithContextChainsLikeACallPath) {
  const Status inner = UnavailableError("disk full");
  const Status outer =
      inner.WithContext("batch 3").WithContext("structure channel");
  EXPECT_EQ(outer.code(), StatusCode::kUnavailable);
  EXPECT_EQ(outer.message(), "structure channel: batch 3: disk full");
  // Context on OK is a no-op, so it can be applied unconditionally.
  EXPECT_EQ(OkStatus().WithContext("ignored"), OkStatus());
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return InvalidArgumentError("not positive");
  return x;
}

StatusOr<int> DoublePositive(int x) {
  LARGEEA_ASSIGN_OR_RETURN(const int parsed, ParsePositive(x));
  return parsed * 2;
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  const auto good = DoublePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  const auto bad = DoublePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, ValueOnErrorAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const StatusOr<int> error{NotFoundError("nope")};
  EXPECT_DEATH((void)error.value(), "");
}

TEST(IoUtilTest, AtomicWriteRoundTripsAndLeavesNoTemp) {
  const std::string dir = TempDir("largeea_rt_io");
  fs::create_directories(dir);
  const std::string path = dir + "/file.txt";
  ASSERT_TRUE(rt::AtomicallyWriteFile(path, "hello\nworld").ok());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const auto read = rt::ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello\nworld");
  // Overwrite is atomic too: new content fully replaces old.
  ASSERT_TRUE(rt::AtomicallyWriteFile(path, "v2").ok());
  EXPECT_EQ(*rt::ReadFileToString(path), "v2");
  fs::remove_all(dir);
}

TEST(IoUtilTest, WriteToMissingDirectoryFailsCleanly) {
  const Status s =
      rt::AtomicallyWriteFile("/nonexistent-dir/sub/file.txt", "x");
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(rt::ReadFileToString("/nonexistent-dir/sub/file.txt")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(IoUtilTest, Fnv1a64MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(rt::Fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(rt::Fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_NE(rt::Fnv1a64("payload"), rt::Fnv1a64("payloae"));
}

// Empty arrays read into empty vectors, whose data() may be null: the
// reader must not hand that pointer to memcpy (UBSan aborts on it).
TEST(BinaryIoTest, EmptyArraysRoundTrip) {
  rt::BinaryWriter w;
  w.Array(std::vector<int32_t>{});
  w.Array(std::vector<uint64_t>{});
  w.Raw(static_cast<const float*>(nullptr), 0);
  w.Array(std::vector<float>{});
  w.I32(7);
  rt::BinaryReader r(w.bytes());
  std::vector<int32_t> i32;
  std::vector<uint64_t> u64;
  std::vector<float> f32;
  ASSERT_TRUE(r.Array(&i32).ok());
  ASSERT_TRUE(r.Array(&u64).ok());
  ASSERT_TRUE(r.Raw(f32.data(), 0).ok());
  ASSERT_TRUE(r.Array(&f32).ok());
  EXPECT_TRUE(i32.empty());
  EXPECT_TRUE(u64.empty());
  EXPECT_TRUE(f32.empty());
  int32_t tail = 0;
  ASSERT_TRUE(r.I32(&tail).ok());
  EXPECT_EQ(tail, 7);
  EXPECT_TRUE(r.exhausted());
}

// A count the remaining bytes cannot hold is refused before anything is
// sized from it, for arrays and for string arrays alike.
TEST(BinaryIoTest, InflatedCountsAreDataLossBeforeAllocating) {
  rt::BinaryWriter w;
  w.U64(uint64_t{1} << 60);
  w.I32(1);
  {
    rt::BinaryReader r(w.bytes());
    std::vector<int32_t> v;
    EXPECT_EQ(r.Array(&v).code(), StatusCode::kDataLoss);
    EXPECT_TRUE(v.empty());
  }
  // Four strings would fit the 33 bytes after the count by size alone
  // (8 bytes each at least), but only two are there: the walk finds out
  // before the vector is sized.
  rt::BinaryWriter strings;
  strings.StrArray({"abcdefghijklmnop", "q"});
  std::string bytes = strings.TakeBytes();
  const uint64_t inflated = 4;
  std::memcpy(bytes.data(), &inflated, sizeof(inflated));
  rt::BinaryReader r(bytes);
  std::vector<std::string> v;
  EXPECT_EQ(r.StrArray(&v).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(v.empty());
}

TEST(ArtifactTest, Hex64RoundTripsAndParsesOnlyWholeValues) {
  EXPECT_EQ(rt::Hex64(0), "0000000000000000");
  EXPECT_EQ(rt::Hex64(0xbe6b49c28e06172cULL), "be6b49c28e06172c");
  EXPECT_EQ(rt::ParseHex64("be6b49c28e06172c"), 0xbe6b49c28e06172cULL);
  EXPECT_EQ(rt::ParseHex64("BE6B49C28E06172C"), 0xbe6b49c28e06172cULL);
  EXPECT_EQ(rt::ParseHex64("1"), 1u);
  for (const char* bad : {"", "be6b49c28e06172czz", "be6b49c28e06172c0",
                          "0x12", "-1", "+1", " 1", "1 ", "g"}) {
    EXPECT_FALSE(rt::ParseHex64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ArtifactTest, HeaderCarriesFamilyVersionKindFingerprintLengthAndHash) {
  EXPECT_EQ(rt::ArtifactHeader("largeea-ckpt", "seeds", 0xabc, "payload"),
            "largeea-ckpt v2 seeds 0000000000000abc 7 " +
                rt::Hex64(rt::Fnv1a64("payload")) + "\n");
}

class ArtifactFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("largeea_rt_artifact");
    fs::create_directories(dir_);
    path_ = dir_ + "/a.bin";
  }
  void TearDown() override { fs::remove_all(dir_); }

  void WriteRaw(const std::string& content) const {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << content;
  }
  StatusCode Read(std::optional<uint64_t> fingerprint = 7) const {
    return rt::ReadArtifact(path_, rt::kCheckpointFamily, "k", fingerprint)
        .status()
        .code();
  }

  std::string dir_;
  std::string path_;
};

TEST_F(ArtifactFileTest, RoundTripReturnsPayloadAndFingerprint) {
  int64_t written = 0;
  ASSERT_TRUE(rt::WriteArtifact(path_, rt::kCheckpointFamily, "k", 7,
                                std::string("a\0b\n", 4), &written)
                  .ok());
  EXPECT_EQ(written, static_cast<int64_t>(fs::file_size(path_)));
  const auto read =
      rt::ReadArtifact(path_, rt::kCheckpointFamily, "k", std::nullopt);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->fingerprint, 7u);
  EXPECT_EQ(read->payload(), std::string_view("a\0b\n", 4));
}

TEST_F(ArtifactFileTest, Taxonomy) {
  const std::string payload = "xyz";
  const std::string hash = rt::Hex64(rt::Fnv1a64(payload));
  const std::string fp = rt::Hex64(7);
  const auto with_header = [&](const std::string& header) {
    WriteRaw(header + "\n" + payload);
    return Read();
  };
  EXPECT_EQ(with_header("largeea-ckpt v2 k " + fp + " 3 " + hash),
            StatusCode::kOk);
  // Another version of a well-formed header, the v1 layout included.
  EXPECT_EQ(with_header("largeea-ckpt v1 k " + fp + " 3 " + hash),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(with_header("largeea-ckpt v3 k " + fp + " 3 " + hash),
            StatusCode::kFailedPrecondition);
  // Another fingerprint.
  EXPECT_EQ(with_header("largeea-ckpt v2 k " + rt::Hex64(8) + " 3 " + hash),
            StatusCode::kFailedPrecondition);
  // Damage: family, version spelling, field count, number spellings,
  // length, checksum, kind.
  for (const std::string& header :
       {"largeea-index v2 k " + fp + " 3 " + hash,
        "largeea-ckpt 2 k " + fp + " 3 " + hash,
        "largeea-ckpt vx k " + fp + " 3 " + hash,
        "largeea-ckpt v2 k " + fp + " 3",
        "largeea-ckpt v2 k " + fp + " 3 " + hash + " extra",
        "largeea-ckpt v2 k " + fp + "  3 " + hash,
        "largeea-ckpt v2 k zz " + std::string("3 ") + hash,
        "largeea-ckpt v2 k " + fp + " 3x " + hash,
        "largeea-ckpt v2 k " + fp + " 4 " + hash,
        "largeea-ckpt v2 k " + fp + " 2 " + hash,
        "largeea-ckpt v2 k " + fp + " 3 " + rt::Hex64(1),
        "largeea-ckpt v2 other " + fp + " 3 " + hash}) {
    EXPECT_EQ(with_header(header), StatusCode::kDataLoss) << header;
  }
  // No header line at all, or none within the header bound.
  WriteRaw("largeea-ckpt v2");
  EXPECT_EQ(Read(), StatusCode::kDataLoss);
  WriteRaw(std::string(300, 'x') + "\n");
  EXPECT_EQ(Read(), StatusCode::kDataLoss);
  fs::remove(path_);
  EXPECT_EQ(Read(), StatusCode::kNotFound);
}

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::FaultInjector::Get().Reset(); }
  void TearDown() override { rt::FaultInjector::Get().Reset(); }
};

TEST_F(FaultInjectorTest, UnarmedPointIsANoOp) {
  auto& injector = rt::FaultInjector::Get();
  EXPECT_TRUE(injector.Check("some.point").ok());
  EXPECT_TRUE(injector.Check("some.point").ok());
  EXPECT_EQ(injector.HitCount("some.point"), 2);
  EXPECT_EQ(injector.TriggerCount("some.point"), 0);
}

TEST_F(FaultInjectorTest, FiresDeterministicallyOnTheNthHit) {
  auto& injector = rt::FaultInjector::Get();
  rt::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.trigger_on_hit = 2;
  spec.max_triggers = 2;
  injector.Arm("p", spec);
  EXPECT_TRUE(injector.Check("p").ok());           // hit 1
  EXPECT_EQ(injector.Check("p").code(), StatusCode::kUnavailable);  // 2
  EXPECT_EQ(injector.Check("p").code(), StatusCode::kUnavailable);  // 3
  EXPECT_TRUE(injector.Check("p").ok());           // exhausted
  EXPECT_EQ(injector.TriggerCount("p"), 2);
}

TEST_F(FaultInjectorTest, UnlimitedTriggersAndDisarm) {
  auto& injector = rt::FaultInjector::Get();
  rt::FaultSpec spec;
  spec.max_triggers = -1;
  injector.Arm("p", spec);
  EXPECT_FALSE(injector.Check("p").ok());
  EXPECT_FALSE(injector.Check("p").ok());
  injector.Disarm("p");
  EXPECT_TRUE(injector.Check("p").ok());
}

TEST_F(FaultInjectorTest, ErrorNamesTheFaultPoint) {
  auto& injector = rt::FaultInjector::Get();
  injector.Arm("io.load_triples", {});
  const Status s = injector.Check("io.load_triples");
  EXPECT_NE(s.message().find("io.load_triples"), std::string::npos);
}

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("largeea_rt_ckpt");
    rt::FaultInjector::Get().Reset();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static SparseSimMatrix SampleMatrix() {
    SparseSimMatrix m(3, 4, 2);
    m.Accumulate(0, 1, 0.5f);
    m.Accumulate(0, 2, -0.25f);
    m.Accumulate(2, 3, 1.0f);
    return m;
  }

  std::string dir_;
};

TEST_F(CheckpointTest, DisabledManagerNoOps) {
  rt::CheckpointManager ckpt("", 1, true);
  EXPECT_FALSE(ckpt.enabled());
  EXPECT_FALSE(ckpt.should_load());
  EXPECT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointTest, MatrixRoundTripIsExact) {
  rt::CheckpointManager writer(dir_, 42, /*resume=*/false);
  const SparseSimMatrix m = SampleMatrix();
  ASSERT_TRUE(writer.SaveMatrix("m", m).ok());

  rt::CheckpointManager reader(dir_, 42, /*resume=*/true);
  const auto loaded = reader.LoadMatrix("m");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->num_rows(), m.num_rows());
  ASSERT_EQ(loaded->num_cols(), m.num_cols());
  for (int32_t r = 0; r < m.num_rows(); ++r) {
    const auto a = m.Row(r);
    const auto b = loaded->Row(r);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].column, b[i].column);
      // Bit-exact, not approximately equal: resume must reproduce the
      // uninterrupted run down to the last float.
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }
}

TEST_F(CheckpointTest, PairsAndBatchesRoundTrip) {
  rt::CheckpointManager ckpt(dir_, 7, /*resume=*/true);
  const EntityPairList pairs{{0, 3}, {2, 1}, {5, 5}};
  ASSERT_TRUE(ckpt.SavePairs("seeds", pairs).ok());
  const auto loaded_pairs = ckpt.LoadPairs("seeds");
  ASSERT_TRUE(loaded_pairs.ok());
  EXPECT_EQ(*loaded_pairs, pairs);

  MiniBatchSet batches(2);
  batches[0].source_entities = {0, 1, 2};
  batches[0].target_entities = {0, 1};
  batches[0].seeds = {{0, 0}};
  batches[1].source_entities = {3};
  batches[1].target_entities = {2, 3};
  ASSERT_TRUE(ckpt.SaveBatches("partition", batches).ok());
  const auto loaded = ckpt.LoadBatches("partition");
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[0].source_entities, batches[0].source_entities);
  EXPECT_EQ((*loaded)[0].target_entities, batches[0].target_entities);
  EXPECT_EQ((*loaded)[0].seeds, batches[0].seeds);
  EXPECT_EQ((*loaded)[1].source_entities, batches[1].source_entities);
}

TEST_F(CheckpointTest, MissingArtifactIsNotFound) {
  rt::CheckpointManager ckpt(dir_, 7, /*resume=*/true);
  EXPECT_EQ(ckpt.LoadMatrix("never_saved").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CheckpointTest, FingerprintMismatchIsFailedPrecondition) {
  rt::CheckpointManager writer(dir_, 1, false);
  ASSERT_TRUE(writer.SavePairs("seeds", {{1, 1}}).ok());
  // Same directory, different run configuration: never silently reused.
  rt::CheckpointManager reader(dir_, 2, true);
  EXPECT_EQ(reader.LoadPairs("seeds").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointTest, TruncationIsDataLoss) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  const std::string path = ckpt.PathFor("m");
  const auto content = rt::ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  // Drop the last 5 bytes, simulating a torn write outside our control.
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content->substr(0, content->size() - 5);
  out.close();
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, BitFlipIsDataLoss) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  const std::string path = ckpt.PathFor("m");
  auto content = *rt::ReadFileToString(path);
  content[content.size() - 2] ^= 0x20;  // flip one payload bit
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  out.close();
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, GarbageFileIsDataLoss) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  std::ofstream out(ckpt.PathFor("m"));
  out << "this is not a checkpoint\n";
  out.close();
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointTest, CorruptArtifactIsQuarantinedNotReread) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  const std::string path = ckpt.PathFor("m");
  auto content = *rt::ReadFileToString(path);
  content[content.size() - 2] ^= 0x20;
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << content;
  out.close();

  // First load: DATA_LOSS, and the artifact is moved aside so the next
  // attempt recomputes instead of tripping over the same bytes.
  const auto first = ckpt.LoadMatrix("m");
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".corrupt"));
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kNotFound);

  // Recompute-and-save proceeds normally over the quarantined name.
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  EXPECT_TRUE(ckpt.LoadMatrix("m").ok());
  EXPECT_TRUE(fs::exists(path + ".corrupt"));  // kept for forensics
}

TEST_F(CheckpointTest, FingerprintMismatchIsNotQuarantined) {
  rt::CheckpointManager writer(dir_, 1, false);
  ASSERT_TRUE(writer.SaveMatrix("m", SampleMatrix()).ok());
  rt::CheckpointManager reader(dir_, 2, true);
  EXPECT_EQ(reader.LoadMatrix("m").status().code(),
            StatusCode::kFailedPrecondition);
  // The artifact belongs to a *different* configuration — it is healthy,
  // just not ours, and the original run must still be able to resume it.
  EXPECT_TRUE(fs::exists(writer.PathFor("m")));
  EXPECT_TRUE(writer.LoadMatrix("m").ok());
}

TEST_F(CheckpointTest, KindMismatchIsDataLoss) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  ASSERT_TRUE(ckpt.SavePairs("seeds", {{1, 1}}).ok());
  // Copy the seeds artifact under another kind's filename.
  fs::copy_file(ckpt.PathFor("seeds"), ckpt.PathFor("fused"));
  EXPECT_EQ(ckpt.LoadPairs("fused").status().code(),
            StatusCode::kDataLoss);
}

#if LARGEEA_FAULT_INJECTION
TEST_F(CheckpointTest, InjectedWriteFailureIsBestEffort) {
  rt::FaultInjector::Get().Arm("checkpoint.write", {});
  rt::CheckpointManager ckpt(dir_, 9, true);
  // The save reports the failure but the contract is best-effort: the
  // pipeline ignores it and the artifact is simply absent.
  EXPECT_FALSE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kNotFound);
  rt::FaultInjector::Get().Reset();
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  EXPECT_TRUE(ckpt.LoadMatrix("m").ok());
}
#endif

// A checkpoint of an older container version is a clean refusal: the
// node recomputes and overwrites it, and the file is not quarantined.
TEST_F(CheckpointTest, VersionOneArtifactIsFailedPreconditionNotQuarantined) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  fs::create_directories(dir_);
  const std::string path = ckpt.PathFor("m");
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    const std::string payload = "largeea-sim v1 1 1 1\n0\t0\t0.5\n";
    out << "largeea-ckpt v1 m " << rt::Hex64(9) << ' ' << payload.size()
        << ' ' << rt::Hex64(rt::Fnv1a64(payload)) << '\n'
        << payload;
  }
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".corrupt"));
  ASSERT_TRUE(ckpt.SaveMatrix("m", SampleMatrix()).ok());
  EXPECT_TRUE(ckpt.LoadMatrix("m").ok());
}

// A payload that passes the checksum but does not decode — here a
// resealed payload whose counts disagree with its bytes — is DATA_LOSS
// and quarantined, for every codec.
TEST_F(CheckpointTest, UndecodablePayloadsAreDataLoss) {
  rt::CheckpointManager ckpt(dir_, 9, true);
  fs::create_directories(dir_);
  const auto reseal = [&](const std::string& kind,
                          const std::string& payload) {
    ASSERT_TRUE(rt::WriteArtifact(ckpt.PathFor(kind), rt::kCheckpointFamily,
                                  kind, 9, payload)
                    .ok());
  };
  rt::BinaryWriter pairs;
  pairs.U64(3);  // three pairs promised, one present
  pairs.I32(1);
  pairs.I32(2);
  reseal("seeds", pairs.bytes());
  EXPECT_EQ(ckpt.LoadPairs("seeds").status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fs::exists(ckpt.PathFor("seeds") + ".corrupt"));

  rt::BinaryWriter batches;
  batches.U64(1);
  batches.Array(std::vector<int32_t>{0, 1});
  batches.U64(5);  // five target ids promised, none present
  reseal("partition", batches.bytes());
  EXPECT_EQ(ckpt.LoadBatches("partition").status().code(),
            StatusCode::kDataLoss);

  // A matrix followed by trailing bytes.
  rt::BinaryWriter matrix;
  SampleMatrix().Serialize(matrix);
  matrix.U32(0);
  reseal("m", matrix.bytes());
  EXPECT_EQ(ckpt.LoadMatrix("m").status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace largeea
