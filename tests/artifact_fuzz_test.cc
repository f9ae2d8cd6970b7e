// Seeded fuzzing, with no corpus, of the one artifact reader
// (src/rt/artifact.h) and every payload decoder behind it: checkpoints
// of a matrix, a pair list and a mini-batch set, a serve index, and a
// spilled matrix. Each valid artifact is damaged by bit flips (left
// unsealed, or resealed with a fresh header so the decoders see them),
// truncation at every header field and inside the payload, inflated
// length prefixes and kind swaps. Every load must return a Status —
// never crash — and no single allocation made while loading may exceed
// the file's size (a length field is checked against the bytes present
// before anything is sized from it); the file read into one string is
// the largest allocation, its bytes plus the terminating NUL.
//
// The allocation bound is measured by the test binary's allocation probe
// (tests/allocation_probe.h), which records the largest request while a
// load is being tracked. Files smaller than kSmallAllocation get that
// much headroom for error messages.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/obs/log.h"
#include "src/rt/artifact.h"
#include "src/rt/checkpoint.h"
#include "src/rt/io_util.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/stream/spill.h"
#include "tests/allocation_probe.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

constexpr size_t kSmallAllocation = 4096;
constexpr uint64_t kFingerprint = 0x5eed;

/// One artifact under test: its header fields, where its loader reads,
/// the loader, and the bytes of a valid file.
struct Target {
  std::string name;
  std::string family;
  std::string kind;
  uint64_t fingerprint = 0;
  std::string path;
  std::function<StatusCode()> load;
  std::string valid;
};

/// Splits a file into its header (the line and its NUL padding) and its
/// payload, which starts at the first aligned offset past the newline.
std::pair<std::string, std::string> Split(const std::string& file) {
  const size_t newline = file.find('\n');
  const size_t payload = (newline + 1 + rt::kPayloadAlignment - 1) /
                         rt::kPayloadAlignment * rt::kPayloadAlignment;
  return {file.substr(0, payload), file.substr(payload)};
}

std::string Reseal(const Target& t, const std::string& payload,
                   const std::string& kind) {
  return rt::ArtifactHeader(t.family, kind, t.fingerprint, payload) + payload;
}

class ArtifactFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("largeea_artifact_fuzz_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // Every quarantined checkpoint logs a warning; thousands are noise.
    saved_log_level_ = obs::GetLogLevel();
    obs::SetLogLevel(obs::LogLevel::kError);
  }
  void TearDown() override {
    obs::SetLogLevel(saved_log_level_);
    fs::remove_all(dir_);
  }

  /// Writes `bytes` where `t` loads from, loads it, and checks the
  /// outcome: a code in `allowed`, and no allocation beyond the file.
  void Check(const Target& t, const std::string& bytes,
             std::initializer_list<StatusCode> allowed,
             const std::string& what) {
    {
      // A fresh file rather than a truncated one: ext4 flushes a file
      // rewritten after truncation at close, which is ~6x slower.
      std::error_code ec;
      fs::remove(t.path, ec);
      std::ofstream out(t.path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    StartAllocationProbe();
    const StatusCode code = t.load();
    const size_t largest = StopAllocationProbe();
    ++loads_;
    const bool code_ok =
        std::find(allowed.begin(), allowed.end(), code) != allowed.end();
    const size_t bound = std::max(bytes.size() + 1, kSmallAllocation);
    if ((!code_ok || largest > bound) && ++failures_ <= 10) {
      ADD_FAILURE() << t.name << ", " << what << ": code "
                    << StatusCodeName(code) << ", largest allocation "
                    << largest << " bytes for a " << bytes.size()
                    << "-byte file";
    }
  }

  void Fuzz(const Target& t, uint64_t seed, int rounds) {
    const auto [header, payload] = Split(t.valid);
    ASSERT_FALSE(payload.empty());
    Check(t, t.valid, {StatusCode::kOk}, "valid file");
    Rng rng(seed);
    const auto flip = [&rng](std::string bytes, size_t begin) {
      const int flips = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < flips; ++i) {
        const size_t at = begin + rng.Uniform(bytes.size() - begin);
        bytes[at] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      return bytes;
    };

    // Bit flips left unsealed: in the payload only the checksum can
    // catch them; in the header any field may change meaning.
    for (int i = 0; i < rounds; ++i) {
      Check(t, flip(t.valid, header.size()), {StatusCode::kDataLoss},
            "payload bit flip");
      Check(t, flip(t.valid, 0),
            {StatusCode::kOk, StatusCode::kDataLoss,
             StatusCode::kFailedPrecondition},
            "bit flip");
    }
    // Bit flips resealed, so the payload decoder sees them.
    for (int i = 0; i < rounds; ++i) {
      Check(t, Reseal(t, flip(payload, 0), t.kind),
            {StatusCode::kOk, StatusCode::kDataLoss}, "resealed bit flip");
    }
    // Truncation at and inside every header field, and in the payload
    // (unsealed, then resealed).
    for (size_t cut = 0; cut < header.size(); ++cut) {
      Check(t, t.valid.substr(0, cut), {StatusCode::kDataLoss},
            "header cut at " + std::to_string(cut));
    }
    for (int i = 0; i < rounds; ++i) {
      const size_t cut = rng.Uniform(payload.size());
      Check(t, t.valid.substr(0, header.size() + cut),
            {StatusCode::kDataLoss}, "payload cut at " + std::to_string(cut));
      Check(t, Reseal(t, payload.substr(0, cut), t.kind),
            {StatusCode::kDataLoss},
            "resealed payload cut at " + std::to_string(cut));
    }
    // Inflated length prefixes: a large 4- or 8-byte value written over
    // the payload, resealed. The first 96 bytes (the shapes and counts
    // up front) get every offset, the rest random ones.
    const uint64_t inflated[] = {
        ~uint64_t{0},      uint64_t{1} << 63,      uint64_t{1} << 31,
        0xffffffffu,       payload.size() / 8 + 1, uint64_t{1} << 40,
        0x7fffffffu,       payload.size(),         payload.size() / 4 + 1};
    const auto inflate = [&](size_t at, size_t num_values) {
      for (size_t v = 0; v < num_values; ++v) {
        for (const size_t width : {size_t{4}, size_t{8}}) {
          if (at + width > payload.size()) continue;
          std::string damaged = payload;
          std::memcpy(damaged.data() + at, &inflated[v], width);
          Check(t, Reseal(t, damaged, t.kind),
                {StatusCode::kOk, StatusCode::kDataLoss},
                "value " + std::to_string(inflated[v]) + " over " +
                    std::to_string(width) + " bytes at " +
                    std::to_string(at));
        }
      }
    };
    for (size_t at = 0; at < std::min<size_t>(payload.size(), 96); ++at) {
      inflate(at, 5);
    }
    for (int i = 0; i < rounds / 2; ++i) {
      inflate(rng.Uniform(payload.size()), std::size(inflated));
    }
  }

  std::string dir_;
  obs::LogLevel saved_log_level_ = obs::LogLevel::kInfo;
  int64_t loads_ = 0;
  int64_t failures_ = 0;
};

SparseSimMatrix SampleMatrix(int32_t rows, int32_t cols, uint64_t seed) {
  SparseSimMatrix m(rows, cols, 6);
  Rng rng(seed);
  for (int32_t r = 0; r < rows; ++r) {
    for (int i = 0; i < 6; ++i) {
      m.Accumulate(r, static_cast<EntityId>(rng.Uniform(cols)),
                   static_cast<float>(rng.UniformDouble()) - 0.25f);
    }
  }
  return m;
}

std::vector<std::string> Names(int32_t n, uint64_t seed) {
  static const char* const kWords[] = {"alda", "brin", "ceto", "doral",
                                       "evik", "fenor", "gil", "hasem"};
  Rng rng(seed);
  std::vector<std::string> names;
  for (int32_t i = 0; i < n; ++i) {
    names.push_back(std::string(kWords[rng.Uniform(8)]) + ' ' +
                    kWords[rng.Uniform(8)] + ' ' + std::to_string(i));
  }
  return names;
}

/// The three checkpoint codecs, saved by a CheckpointManager and loaded
/// back through it.
std::vector<Target> CheckpointTargets(rt::CheckpointManager& ckpt) {
  EXPECT_TRUE(ckpt.SaveMatrix("fused", SampleMatrix(120, 90, 3)).ok());
  EntityPairList pairs;
  for (int32_t i = 0; i < 600; ++i) pairs.push_back({i, (i * 7) % 600});
  EXPECT_TRUE(ckpt.SavePairs("seeds", pairs).ok());
  MiniBatchSet batches(3);
  for (int32_t b = 0; b < 3; ++b) {
    for (int32_t i = 0; i < 200; ++i) {
      batches[b].source_entities.push_back(b * 200 + i);
      batches[b].target_entities.push_back(b * 200 + (i * 3) % 200);
      if (i % 4 == 0) batches[b].seeds.push_back({b * 200 + i, b * 200 + i});
    }
  }
  EXPECT_TRUE(ckpt.SaveBatches("partition", batches).ok());

  const auto target = [&ckpt](std::string kind,
                              std::function<StatusCode()> load) {
    const std::string path = ckpt.PathFor(kind);
    auto valid = rt::ReadFileToString(path);
    EXPECT_TRUE(valid.ok());
    return Target{"checkpoint " + kind,
                  std::string(rt::kCheckpointFamily),
                  kind,
                  kFingerprint,
                  path,
                  std::move(load),
                  std::move(valid).value()};
  };
  return {
      target("fused",
             [&ckpt] { return ckpt.LoadMatrix("fused").status().code(); }),
      target("seeds",
             [&ckpt] { return ckpt.LoadPairs("seeds").status().code(); }),
      target("partition", [&ckpt] {
        return ckpt.LoadBatches("partition").status().code();
      })};
}

TEST_F(ArtifactFuzzTest, CheckpointReadersReturnAStatusAndStayWithinTheFile) {
  rt::CheckpointManager ckpt(dir_, kFingerprint, /*resume=*/true);
  uint64_t seed = 101;
  for (const Target& t : CheckpointTargets(ckpt)) Fuzz(t, seed++, 150);
  EXPECT_GT(loads_, 8000);
}

// Every codec's payload resealed under every other kind's name: the
// decoder of the wrong type must refuse it. And a file of another family
// is refused by magic.
TEST_F(ArtifactFuzzTest, KindSwapsAreDataLoss) {
  rt::CheckpointManager ckpt(dir_, kFingerprint, /*resume=*/true);
  const std::vector<Target> targets = CheckpointTargets(ckpt);
  for (const Target& from : targets) {
    const std::string payload = Split(from.valid).second;
    for (const Target& to : targets) {
      if (&from == &to) continue;
      Check(to, Reseal(to, payload, to.kind), {StatusCode::kDataLoss},
            "payload of " + from.name);
      // The right payload under the wrong kind field.
      Check(to, Reseal(to, Split(to.valid).second, from.kind),
            {StatusCode::kDataLoss}, "kind field " + from.kind);
    }
    Check(from,
          rt::ArtifactHeader(rt::kIndexFamily, from.kind, kFingerprint,
                             payload) +
              payload,
          {StatusCode::kDataLoss}, "index family");
  }
}

/// Loads the index at `path` and, when it loads, asks it every kind of
/// question, so an image that passes the checks is also safe to read.
StatusCode LoadAndQueryIndex(const std::string& path) {
  auto loaded = serve::ServeIndex::Load(path);
  if (!loaded.ok()) return loaded.status().code();
  const serve::IndexManager manager(std::move(loaded).value());
  const serve::QueryEngine engine(&manager);
  const auto index = manager.Current();
  serve::QueryRequest request;
  request.k = 4;
  for (EntityId s = 0; s < index->num_source_entities(); ++s) {
    request.entity = s;
    (void)engine.Execute(request);
  }
  request.kind = serve::QueryRequest::Kind::kName;
  for (const char* name : {"alda brin 3", "gil", ""}) {
    request.name = name;
    for (const bool exact : {false, true}) {
      request.exact = exact;
      (void)engine.Execute(request);
    }
  }
  for (EntityId t = 0; t < index->num_target_entities(); ++t) {
    (void)index->TargetName(t);
  }
  return StatusCode::kOk;
}

class IndexFuzzTest : public ArtifactFuzzTest {
 protected:
  void SetUp() override {
    ArtifactFuzzTest::SetUp();
    serve::ServeIndexOptions options;
    options.encoder.dim = 16;
    auto built = serve::ServeIndex::Build(SampleMatrix(40, 60, 5),
                                          Names(40, 6), Names(60, 7),
                                          kFingerprint, options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const std::string path = dir_ + "/serve.idx";
    ASSERT_TRUE((*built)->Save(path).ok());
    auto valid = rt::ReadFileToString(path);
    ASSERT_TRUE(valid.ok());
    index_ = Target{"index",
                    std::string(rt::kIndexFamily),
                    "serve",
                    kFingerprint,
                    path,
                    [path] { return LoadAndQueryIndex(path); },
                    *valid};
    image_ = Split(*valid).second;
  }

  /// Where section `s` sits in the image, and its length.
  std::pair<uint64_t, uint64_t> Section(serve::IndexSection s) const {
    uint64_t at[2];
    std::memcpy(at, image_.data() + 8 + 16 * static_cast<size_t>(s),
                sizeof(at));
    return {at[0], at[1]};
  }
  /// Element `i` of section `s` read as T.
  template <typename T>
  T Get(serve::IndexSection s, size_t i) const {
    T value;
    std::memcpy(&value, image_.data() + Section(s).first + i * sizeof(T),
                sizeof(T));
    return value;
  }
  /// The image with element `i` of section `s` set to `value`, resealed.
  template <typename T>
  std::string With(serve::IndexSection s, size_t i, T value) const {
    std::string image = image_;
    std::memcpy(image.data() + Section(s).first + i * sizeof(T), &value,
                sizeof(T));
    return Reseal(index_, image, "serve");
  }
  /// The image with table entry `field` (0 offset, 1 bytes) of section
  /// `s` set to `value`, resealed.
  std::string WithTable(serve::IndexSection s, int field,
                        uint64_t value) const {
    std::string image = image_;
    std::memcpy(image.data() + 8 + 16 * static_cast<size_t>(s) + 8 * field,
                &value, sizeof(value));
    return Reseal(index_, image, "serve");
  }
  template <typename T>
  size_t Count(serve::IndexSection s) const {
    return Section(s).second / sizeof(T);
  }

  Target index_;
  std::string image_;
};

TEST_F(IndexFuzzTest, ReaderReturnsAStatusAndStaysWithinTheFile) {
  Fuzz(index_, 201, 120);
  // A spill is not an index, and neither is an index payload under the
  // spill's kind.
  Check(index_,
        rt::ArtifactHeader(rt::kTileFamily, "serve", kFingerprint, image_) +
            image_,
        {StatusCode::kDataLoss}, "spill family");
  Check(index_, Reseal(index_, image_, "dense"), {StatusCode::kDataLoss},
        "kind dense");
  EXPECT_GT(loads_, 2500);
}

// Each section offset or length inflated, pointing past the file, or
// misaligned, and the section count changed: the table check refuses
// them before any section is read.
TEST_F(IndexFuzzTest, DamagedSectionTableIsDataLoss) {
  using S = serve::IndexSection;
  for (uint32_t i = 0; i < static_cast<uint32_t>(S::kCount); ++i) {
    const S s = static_cast<S>(i);
    const auto [offset, bytes] = Section(s);
    const std::string name = "section " + std::to_string(i);
    for (const uint64_t bad :
         {uint64_t{image_.size()}, uint64_t{image_.size()} + 64,
          ~uint64_t{63}, offset + 8, offset + 1}) {
      Check(index_, WithTable(s, 0, bad), {StatusCode::kDataLoss},
            name + " offset " + std::to_string(bad));
    }
    for (const uint64_t bad : {bytes + 1, bytes + 64, uint64_t{image_.size()},
                               ~uint64_t{0}}) {
      Check(index_, WithTable(s, 1, bad), {StatusCode::kDataLoss},
            name + " length " + std::to_string(bad));
    }
    if (bytes >= 8) {
      Check(index_, WithTable(s, 1, bytes - 8), {StatusCode::kDataLoss},
            name + " shortened");
    }
  }
  std::string image = image_;
  image[0] ^= 1;
  Check(index_, Reseal(index_, image, "serve"), {StatusCode::kDataLoss},
        "section count");
  // The same image with one more zero byte at its end.
  Check(index_, Reseal(index_, image_ + std::string(1, '\0'), "serve"),
        {StatusCode::kDataLoss}, "trailing byte");
}

// Offsets that do not ascend, ids out of range, an entry point below the
// top layer, and unsorted or misdirected band and IDF tables.
TEST_F(IndexFuzzTest, DamagedSectionsAreDataLoss) {
  using S = serve::IndexSection;
  // CSR offsets: a middle entry raised past its successor, and the last
  // one moved off the end of what it indexes.
  for (const S s : {S::kSourceNameOffsets, S::kTargetNameOffsets,
                    S::kFusedRowOffsets, S::kGraphNodeSlots,
                    S::kGraphListOffsets}) {
    const size_t n = Count<uint64_t>(s);
    ASSERT_GE(n, 3u);
    const std::string name = "offsets of section " +
                             std::to_string(static_cast<uint32_t>(s));
    Check(index_, With<uint64_t>(s, n / 2, Get<uint64_t>(s, n - 1) + 1),
          {StatusCode::kDataLoss}, name + " not ascending");
    Check(index_, With<uint64_t>(s, n - 1, Get<uint64_t>(s, n - 1) + 1),
          {StatusCode::kDataLoss}, name + " past the end");
    Check(index_, With<uint64_t>(s, 0, 1), {StatusCode::kDataLoss},
          name + " not from 0");
  }
  // Fused columns, neighbor ids and band items out of range.
  for (const int32_t bad : {-1, 60, std::numeric_limits<int32_t>::max()}) {
    Check(index_,
          With<SimEntry>(S::kFusedEntries, Count<SimEntry>(S::kFusedEntries) / 2,
                         SimEntry{bad, 0.5f}),
          {StatusCode::kDataLoss}, "fused column " + std::to_string(bad));
    Check(index_,
          With<int32_t>(S::kGraphLinks, Count<int32_t>(S::kGraphLinks) / 2,
                        bad),
          {StatusCode::kDataLoss}, "neighbor " + std::to_string(bad));
    Check(index_,
          With<int32_t>(S::kBandItems, Count<int32_t>(S::kBandItems) / 3, bad),
          {StatusCode::kDataLoss}, "band item " + std::to_string(bad));
  }
  // The entry point moved to a node below the top layer: the meta
  // section ends with the entry point and the top level (i32 each).
  int32_t low_node = -1;
  for (size_t v = 0; v + 1 < Count<uint64_t>(S::kGraphNodeSlots); ++v) {
    if (Get<uint64_t>(S::kGraphNodeSlots, v + 1) -
            Get<uint64_t>(S::kGraphNodeSlots, v) == 1) {
      low_node = static_cast<int32_t>(v);
      break;
    }
  }
  ASSERT_GE(low_node, 0);
  const size_t entry_at = Section(S::kMeta).second / 4 - 2;
  ASSERT_GT(Get<int32_t>(S::kMeta, entry_at + 1), 0) << "a one-layer graph";
  Check(index_, With<int32_t>(S::kMeta, entry_at, low_node),
        {StatusCode::kDataLoss}, "entry point below the top layer");
  // Unsorted tables: two neighbouring keys of band 0 and of the IDF
  // table swapped where they differ, and a directory start moved.
  for (const S s : {S::kBandKeys, S::kIdfHashes}) {
    size_t i = 1;
    while (Get<uint64_t>(s, i - 1) == Get<uint64_t>(s, i)) ++i;
    std::string image = image_;
    const uint64_t lo = Get<uint64_t>(s, i - 1), hi = Get<uint64_t>(s, i);
    std::memcpy(image.data() + Section(s).first + (i - 1) * 8, &hi, 8);
    std::memcpy(image.data() + Section(s).first + i * 8, &lo, 8);
    Check(index_, Reseal(index_, image, "serve"), {StatusCode::kDataLoss},
          "unsorted section " + std::to_string(static_cast<uint32_t>(s)));
  }
  for (const S s : {S::kBandStarts, S::kIdfStarts}) {
    const size_t n = Count<uint32_t>(s);
    Check(index_, With<uint32_t>(s, n / 2, Get<uint32_t>(s, n / 2) + 1),
          {StatusCode::kDataLoss},
          "directory of section " + std::to_string(static_cast<uint32_t>(s)));
  }
  // Items of one band key out of order: the first key shared by two
  // items gets them swapped.
  for (size_t i = 1; i < Count<uint64_t>(S::kBandKeys); ++i) {
    if (Get<uint64_t>(S::kBandKeys, i - 1) != Get<uint64_t>(S::kBandKeys, i)) {
      continue;
    }
    std::string image = image_;
    const int32_t a = Get<int32_t>(S::kBandItems, i - 1);
    const int32_t b = Get<int32_t>(S::kBandItems, i);
    std::memcpy(image.data() + Section(S::kBandItems).first + (i - 1) * 4, &b,
                4);
    std::memcpy(image.data() + Section(S::kBandItems).first + i * 4, &a, 4);
    Check(index_, Reseal(index_, image, "serve"), {StatusCode::kDataLoss},
          "band items out of order");
    break;
  }
  EXPECT_GE(loads_, 29);
}

// The spill reader verifies and maps the file; a file that maps is read
// row by row, so every float of an accepted spill is touched.
TEST_F(ArtifactFuzzTest, SpillReaderReturnsAStatusAndStaysWithinTheFile) {
  Rng rng(9);
  Matrix rows(24, 20);
  rows.GlorotInit(rng);
  const std::string path = dir_ + "/spill.bin";
  ASSERT_TRUE(stream::WriteSpill(path, 24, 20, 5,
                                 [&rows](int64_t begin, int64_t end) {
                                   Matrix chunk(end - begin, rows.cols());
                                   std::memcpy(chunk.data(), rows.Row(begin),
                                               static_cast<size_t>(
                                                   chunk.size()) *
                                                   sizeof(float));
                                   return chunk;
                                 })
                  .ok());
  auto valid = rt::ReadFileToString(path);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  const auto load_as = [path](int64_t num_rows, int64_t num_cols) {
    return [path, num_rows, num_cols] {
      const StatusOr<stream::SpilledMatrix> spilled =
          stream::MapSpill(path, num_rows, num_cols);
      if (spilled.ok()) {
        float sum = 0.0f;
        const MatrixRowRange view = spilled->rows();
        for (int64_t r = 0; r < view.rows(); ++r) {
          for (int64_t c = 0; c < view.cols(); ++c) sum += view.Row(r)[c];
        }
        volatile float sink = sum;
        (void)sink;
      }
      return spilled.status().code();
    };
  };
  const Target spill{"spill",
                     std::string(rt::kTileFamily),
                     "dense",
                     /*fingerprint=*/0,
                     path,
                     load_as(24, 20),
                     std::move(valid).value()};
  Fuzz(spill, 301, 150);
  // The right bytes read as another shape.
  Target other_shape = spill;
  other_shape.name = "spill as 20 x 24";
  other_shape.load = load_as(20, 24);
  Check(other_shape, spill.valid, {StatusCode::kDataLoss}, "other shape");
  // An inflated shape, resealed, so only the shape check can refuse it.
  const auto [header, payload] = Split(spill.valid);
  for (const int64_t inflated : {int64_t{25}, int64_t{1} << 31,
                                 int64_t{1} << 40, int64_t{-1}}) {
    for (const size_t at : {size_t{0}, sizeof(int64_t)}) {
      std::string damaged = payload;
      std::memcpy(damaged.data() + at, &inflated, sizeof(inflated));
      Check(spill, Reseal(spill, damaged, "dense"), {StatusCode::kDataLoss},
            "shape field at " + std::to_string(at) + " inflated to " +
                std::to_string(inflated));
    }
  }
  EXPECT_GT(loads_, 2500);
}

}  // namespace
}  // namespace largeea
