// Tests for src/serve: index artifact round-trip and damage handling,
// ANN-vs-exact equivalence, atomic version swap under load (the TSan
// target), and the stdin/stdout serve protocol.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/la/matrix.h"
#include "src/par/thread_pool.h"
#include "src/rt/artifact.h"
#include "src/rt/binary_io.h"
#include "src/rt/io_util.h"
#include "src/serve/index_artifact.h"
#include "src/serve/index_manager.h"
#include "src/serve/query_engine.h"
#include "src/serve/serve_loop.h"
#include "src/sim/hnsw.h"
#include "src/sim/topk_search.h"
#include "src/sim/topk_util.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

namespace fs = std::filesystem;

// Deterministic pseudo names with shared word structure, so the
// tokenizer/MinHash layers see realistic overlap.
std::vector<std::string> MakeNames(int32_t n, uint64_t seed) {
  static const char* const kWords[] = {"alda", "brin",  "ceto", "doral",
                                       "evik", "fenor", "gil",  "hasem",
                                       "irol", "jun"};
  Rng rng(seed);
  std::vector<std::string> names;
  names.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    std::string name = kWords[rng.Uniform(10)];
    name += ' ';
    name += kWords[rng.Uniform(10)];
    name += ' ';
    name += std::to_string(i);
    names.push_back(std::move(name));
  }
  return names;
}

SparseSimMatrix MakeFused(int32_t num_source, int32_t num_target,
                          uint64_t seed) {
  SparseSimMatrix fused(num_source, num_target, 8);
  Rng rng(seed);
  for (int32_t s = 0; s < num_source; ++s) {
    for (int32_t j = 0; j < 6; ++j) {
      fused.Accumulate(s, static_cast<EntityId>(rng.Uniform(num_target)),
                       static_cast<float>(rng.UniformDouble()));
    }
  }
  return fused;
}

serve::ServeIndexOptions SmallIndexOptions() {
  serve::ServeIndexOptions options;
  options.encoder.dim = 32;
  return options;
}

std::shared_ptr<const serve::ServeIndex> BuildIndexOrDie(
    int32_t num_source, int32_t num_target, uint64_t seed,
    uint64_t fingerprint) {
  auto index = serve::ServeIndex::Build(
      MakeFused(num_source, num_target, seed), MakeNames(num_source, seed + 1),
      MakeNames(num_target, seed + 2), fingerprint, SmallIndexOptions());
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return std::move(index).value();
}

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

TEST(ServeIndexTest, BuildValidatesShape) {
  auto bad = serve::ServeIndex::Build(MakeFused(4, 4, 1), MakeNames(3, 2),
                                      MakeNames(4, 3), 1, SmallIndexOptions());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeIndexTest, SaveLoadRoundTripsQueries) {
  const auto built = BuildIndexOrDie(30, 40, 11, 0xabcdef01);
  const std::string path = TempPath("serve_roundtrip.idx");
  ASSERT_TRUE(built->Save(path).ok());
  auto loaded_or = serve::ServeIndex::Load(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const auto loaded = std::move(loaded_or).value();

  EXPECT_EQ(loaded->fingerprint(), built->fingerprint());
  EXPECT_EQ(loaded->num_source_entities(), 30);
  EXPECT_EQ(loaded->num_target_entities(), 40);

  // Entity-path answers: identical fused rows.
  for (int32_t s = 0; s < 30; ++s) {
    const auto a = built->FusedRow(s);
    const auto b = loaded->FusedRow(s);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].column, b[i].column);
      EXPECT_EQ(a[i].score, b[i].score);
    }
  }

  // Name-path answers: the mapped encoder (the stored IDF table) and the
  // mapped graph must reproduce the built index's answers bit-identically.
  for (int32_t q = 0; q < 30; ++q) {
    const std::string name(built->SourceName(q));
    std::vector<float> va(built->encoder().dim());
    std::vector<float> vb(loaded->encoder().dim());
    built->encoder().EncodeName(name, va.data());
    loaded->encoder().EncodeName(name, vb.data());
    ASSERT_EQ(va, vb);
    std::vector<SimEntry> ra, rb;
    built->AnnTopK(va, 5, ra);
    loaded->AnnTopK(vb, 5, rb);
    ASSERT_EQ(ra.size(), rb.size());
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].column, rb[i].column);
      EXPECT_EQ(ra[i].score, rb[i].score);
    }
    // A cap of the target count compares the whole collision set.
    EXPECT_EQ(built->StringShortlist(name, 40),
              loaded->StringShortlist(name, 40));
  }
  fs::remove(path);
}

// Build encodes, signs and links the targets on the pool; the artifact
// must be the same bytes at any thread count. 5,000 targets span many
// encode chunks and take the graph past 4,096 nodes, where its batches
// reach their cap of 256.
TEST(ServeIndexTest, BuildIsIdenticalAcrossThreads) {
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  std::string reference;
  for (const int32_t threads : {1, 4}) {
    par::ThreadPool::Get().SetNumThreads(threads);
    const auto built = BuildIndexOrDie(50, 5000, 41, 9);
    const std::string path = TempPath("serve_threads.idx");
    ASSERT_TRUE(built->Save(path).ok());
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    fs::remove(path);
    if (reference.empty()) {
      reference = bytes.str();
    } else {
      EXPECT_TRUE(bytes.str() == reference) << "threads=" << threads;
    }
  }
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

TEST(ServeIndexTest, TamperedPayloadIsDataLoss) {
  const auto built = BuildIndexOrDie(10, 12, 21, 42);
  const std::string path = TempPath("serve_tamper.idx");
  ASSERT_TRUE(built->Save(path).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  // Flip one payload byte (past the header line).
  std::string tampered = bytes;
  tampered[bytes.find('\n') + 10] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << tampered;
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);

  // Truncation is also data loss, not a parse crash.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes.substr(0, bytes.size() / 2);
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);

  // A damaged header too.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not-an-index v9 zz\n";
  }
  EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
            StatusCode::kDataLoss);
  fs::remove(path);
}

TEST(ServeIndexTest, FingerprintMismatchIsFailedPrecondition) {
  const auto built = BuildIndexOrDie(10, 12, 31, 0x1111);
  const std::string path = TempPath("serve_fpr.idx");
  ASSERT_TRUE(built->Save(path).ok());
  EXPECT_EQ(serve::ServeIndex::Load(path, 0x2222).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(serve::ServeIndex::Load(path, 0x1111).ok());
  fs::remove(path);
}

// An index of an older container version is refused, not converted: the
// v1 header layout (no kind field), and a v2 index — the copied, decoded
// layout — with an intact checksum.
TEST(ServeIndexTest, OlderIndexVersionsAreFailedPrecondition) {
  const std::string path = TempPath("serve_old.idx");
  const std::string payload = "older payload bytes";
  const std::string checksummed = std::to_string(payload.size()) + ' ' +
                                  rt::Hex64(rt::Fnv1a64(payload)) + '\n';
  for (const std::string& header :
       {"largeea-index v1 " + rt::Hex64(42) + ' ' + checksummed,
        "largeea-index v2 serve " + rt::Hex64(42) + ' ' + checksummed}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << header << payload;
    }
    EXPECT_EQ(serve::ServeIndex::Load(path).status().code(),
              StatusCode::kFailedPrecondition)
        << header;
    EXPECT_EQ(serve::ServeIndex::Load(path, 42).status().code(),
              StatusCode::kFailedPrecondition)
        << header;
  }
  fs::remove(path);
}

/// A response as text: status, version-free identity and every
/// candidate with its score's bits, so two responses compare whole.
std::string Describe(const serve::QueryResponse& response) {
  std::string out = response.status.ToString() + ' ' +
                    rt::Hex64(response.index_fingerprint) + ':';
  for (const serve::Candidate& c : response.candidates) {
    uint32_t bits = 0;
    std::memcpy(&bits, &c.score, sizeof(bits));
    out += ' ' + std::to_string(c.target) + '/' + c.name + '/' +
           std::to_string(bits);
  }
  return out + '\n';
}

// A mapped index answers exactly as the in-memory index Build made: a
// fixed set of entity, ANN-name and exact-name requests, compared whole,
// at 1 and 4 threads under every SIMD backend, and the answers are the
// same in every one of those configurations.
TEST(ServeIndexTest, MappedIndexAnswersAsTheBuiltOne) {
  const simd::Backend saved = simd::ActiveBackend();
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  const std::vector<std::string> names = MakeNames(20, 63);
  std::vector<serve::QueryRequest> requests;
  for (int32_t s = 0; s < 30; ++s) {
    serve::QueryRequest& request = requests.emplace_back();
    request.entity = s;
    request.k = 1 + s % 8;
  }
  for (const std::string& name : names) {
    for (const bool exact : {false, true}) {
      serve::QueryRequest& request = requests.emplace_back();
      request.kind = serve::QueryRequest::Kind::kName;
      request.name = name;
      request.k = 5;
      request.exact = exact;
    }
  }
  const std::string path = TempPath("serve_mapped_golden.idx");
  std::string reference;
  for (const int32_t threads : {1, 4}) {
    par::ThreadPool::Get().SetNumThreads(threads);
    for (const simd::Backend backend : simd::AvailableBackends()) {
      simd::SetBackend(backend);
      const auto built = BuildIndexOrDie(30, 600, 61, 0x5151);
      ASSERT_TRUE(built->Save(path).ok());
      auto loaded = serve::ServeIndex::Load(path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const serve::IndexManager built_manager(built);
      const serve::IndexManager loaded_manager(std::move(loaded).value());
      const serve::QueryEngine from_build(&built_manager);
      const serve::QueryEngine from_map(&loaded_manager);
      std::string answers;
      for (const serve::QueryRequest& request : requests) {
        const std::string built_answer =
            Describe(from_build.Execute(request));
        ASSERT_EQ(Describe(from_map.Execute(request)), built_answer)
            << simd::BackendName(backend) << " threads=" << threads;
        answers += built_answer;
      }
      if (reference.empty()) {
        reference = answers;
      } else {
        EXPECT_EQ(answers, reference)
            << simd::BackendName(backend) << " threads=" << threads;
      }
    }
  }
  // Two '/' per candidate: the requests are answered, not empty.
  EXPECT_GT(std::count(reference.begin(), reference.end(), '/'),
            static_cast<std::ptrdiff_t>(2 * requests.size()));
  fs::remove(path);
  simd::SetBackend(saved);
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

// A k past the target count answers as k = the target count does. Every
// size the engine derives from k is bounded by the targets and computed
// in 64 bits: 4 * 600000000 overflowed int32 in the shortlist cap.
TEST(QueryEngineTest, HugeKAnswersAsTheTargetCount) {
  const auto index = BuildIndexOrDie(12, 40, 97, 0xF1);
  const serve::IndexManager manager(index);
  const serve::QueryEngine engine(&manager);
  for (const bool exact : {false, true}) {
    serve::QueryRequest request;
    request.kind = serve::QueryRequest::Kind::kName;
    request.name = std::string(index->TargetName(5));
    request.k = 40;
    request.exact = exact;
    const serve::QueryResponse all = engine.Execute(request);
    ASSERT_TRUE(all.status.ok());
    EXPECT_EQ(all.candidates.size(), 40u);
    for (const int32_t k : {41, 600000000, std::numeric_limits<int32_t>::max()}) {
      request.k = k;
      EXPECT_EQ(Describe(engine.Execute(request)), Describe(all))
          << "k=" << k << " exact=" << exact;
    }
  }
}

TEST(ServeIndexTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(serve::ServeIndex::Load(TempPath("serve_nope.idx"))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// ANN (HNSW) vs exact scan.
// ---------------------------------------------------------------------------

Matrix RandomEmbeddings(int32_t rows, int32_t dim, uint64_t seed) {
  Matrix m(rows, dim);
  Rng rng(seed);
  for (int32_t r = 0; r < rows; ++r) {
    float* row = m.Row(r);
    for (int32_t c = 0; c < dim; ++c) {
      row[c] = static_cast<float>(rng.UniformDouble()) - 0.5f;
    }
  }
  return m;
}

TEST(HnswTest, BuildIsDeterministic) {
  const Matrix data = RandomEmbeddings(200, 16, 5);
  const HnswIndex a(data, SimMetric::kManhattan, HnswOptions{});
  const HnswIndex b(data, SimMetric::kManhattan, HnswOptions{});
  EXPECT_EQ(a.max_level(), b.max_level());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  std::vector<std::pair<float, int32_t>> ra, rb;
  for (int32_t q = 0; q < 200; q += 7) {
    a.QueryTopK(data.Row(q), 10, ra);
    b.QueryTopK(data.Row(q), 10, rb);
    EXPECT_EQ(ra, rb);
  }
}

/// FNV-1a of the adjacency in (node, layer, list) order: per list, its
/// length as a u64, then its ids.
uint64_t AdjacencyHash(const HnswIndex& index) {
  std::string bytes;
  for (int32_t node = 0; node < index.size(); ++node) {
    const uint64_t layers =
        index.node_slots()[node + 1] - index.node_slots()[node];
    for (int32_t lc = 0; lc < static_cast<int32_t>(layers); ++lc) {
      const std::span<const int32_t> list = index.Neighbors(node, lc);
      const uint64_t length = list.size();
      bytes.append(reinterpret_cast<const char*>(&length), sizeof(length));
      bytes.append(reinterpret_cast<const char*>(list.data()),
                   list.size_bytes());
    }
  }
  return rt::Fnv1a64(bytes);
}

// The build scores in fours, and every score keeps its bits, and its
// batches are sized by the graph alone, so the graph cannot depend on
// the backend or the thread count: the adjacency is equal under every
// backend at 1, 2, 4 and 8 threads, and its hash equals the golden
// values recorded from the batched build's nested lists, before the
// build froze them into CSR. Dim 20 leaves a kernel tail; M = 3 keeps
// the kept sets of SelectNeighbors below, at and above four.
TEST(HnswTest, AdjacencyIdenticalAcrossBackendsAndToGolden) {
  const Matrix data = RandomEmbeddings(400, 20, 13);
  const simd::Backend saved = simd::ActiveBackend();
  const int32_t saved_threads = par::ThreadPool::Get().num_threads();
  struct Case {
    SimMetric metric;
    HnswOptions options;
    uint64_t golden_adjacency;
    int32_t golden_max_level;
  };
  const Case cases[] = {
      {SimMetric::kManhattan, HnswOptions{}, 0x319b7114141f9c16ULL, 2},
      {SimMetric::kDot, HnswOptions{}, 0xdfcc956335289e5cULL, 2},
      {SimMetric::kManhattan,
       HnswOptions{.max_neighbors = 3, .ef_construction = 16},
       0xae9727e9846485b7ULL, 5},
  };
  for (const Case& c : cases) {
    for (const int32_t threads : {1, 2, 4, 8}) {
      par::ThreadPool::Get().SetNumThreads(threads);
      for (const simd::Backend backend : simd::AvailableBackends()) {
        simd::SetBackend(backend);
        const HnswIndex index(data, c.metric, c.options);
        EXPECT_EQ(AdjacencyHash(index), c.golden_adjacency)
            << simd::BackendName(backend) << " threads=" << threads
            << " metric=" << static_cast<int>(c.metric)
            << " M=" << c.options.max_neighbors;
        EXPECT_EQ(index.entry_point(), 42);
        EXPECT_EQ(index.max_level(), c.golden_max_level);
      }
    }
  }
  simd::SetBackend(saved);
  par::ThreadPool::Get().SetNumThreads(saved_threads);
}

// Recall@10 and top-1 agreement of the graph walk against a full scan
// through the shared scorer, with identical tie-breaks, over every
// third row as a query.
void ExpectRecallAgainstExactScan(int32_t n) {
  const int32_t dim = 24, k = 10;
  const Matrix data = RandomEmbeddings(n, dim, 9);
  const HnswIndex ann(data, SimMetric::kManhattan, HnswOptions{});
  const auto& kt = simd::Kernels();

  int64_t hits = 0, total = 0, queries = 0, top1_match = 0;
  std::vector<std::pair<float, int32_t>> approx;
  for (int32_t q = 0; q < n; q += 3, ++queries) {
    TopKHeap heap(k);
    for (int32_t t = 0; t < n; ++t) {
      heap.Offer(t, ScorePair(kt, data.Row(q), data.Row(t), dim,
                              SimMetric::kManhattan));
    }
    std::vector<std::pair<float, int32_t>> exact;
    heap.Drain(exact);

    ann.QueryTopK(data.Row(q), k, approx);
    ASSERT_FALSE(approx.empty());
    // Same scorer on both sides: a recalled id has an identical entry.
    for (const auto& e : exact) {
      for (const auto& a : approx) {
        if (a.second == e.second) {
          EXPECT_EQ(a.first, e.first);
          ++hits;
          break;
        }
      }
    }
    total += static_cast<int64_t>(exact.size());
    if (approx[0] == exact[0]) ++top1_match;
  }
  const double recall = static_cast<double>(hits) / total;
  EXPECT_GE(recall, 0.9) << "recall@" << k << " = " << recall;
  // Re-ranked top-1 matches the exact scan's top-1 on nearly every
  // query (ANN can only miss candidates, never mis-rank them).
  EXPECT_GE(top1_match, queries * 9 / 10);
}

TEST(HnswTest, RecallAgainstExactScan) { ExpectRecallAgainstExactScan(500); }

// Past 4,096 nodes every batch holds 256 nodes that search a graph
// knowing none of them; recall must hold there too.
TEST(HnswTest, RecallAgainstExactScanAtTheBatchCap) {
  ExpectRecallAgainstExactScan(8192);
}

// A built graph's CSR arrays, copied so a test can damage one field and
// hand the rest to FromCsr as they were.
struct GraphCsr {
  int32_t entry_point = 0, max_level = 0;
  std::vector<uint64_t> node_slots, list_offsets;
  std::vector<int32_t> links;

  static GraphCsr Of(const HnswIndex& index) {
    return {index.entry_point(), index.max_level(),
            std::vector<uint64_t>(index.node_slots().begin(),
                                  index.node_slots().end()),
            std::vector<uint64_t>(index.list_offsets().begin(),
                                  index.list_offsets().end()),
            std::vector<int32_t>(index.links().begin(), index.links().end())};
  }

  StatusCode FromCsr(const Matrix& data) const {
    return HnswIndex::FromCsr(data, SimMetric::kManhattan, HnswOptions{},
                              entry_point, max_level,
                              FlatArray<uint64_t>::Borrow(node_slots),
                              FlatArray<uint64_t>::Borrow(list_offsets),
                              FlatArray<int32_t>::Borrow(links))
        .status()
        .code();
  }

  int32_t Level(int32_t node) const {
    return static_cast<int32_t>(node_slots[node + 1] - node_slots[node]) - 1;
  }
  int32_t NodeAtLevel(int32_t level) const {
    for (size_t node = 0; node + 1 < node_slots.size(); ++node) {
      if (Level(static_cast<int32_t>(node)) == level) {
        return static_cast<int32_t>(node);
      }
    }
    ADD_FAILURE() << "no node at level " << level;
    return 0;
  }
};

// QueryTopK walks the entry point's top layer and a neighbor's layer-lc
// list through the CSR offsets; a graph that breaks any of them would
// send it out of bounds, so FromCsr refuses it. Each test damages one
// field. tests/artifact_fuzz_test.cc damages the same fields in a whole
// index image.
class HnswCsrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The graph loads before a test damages it.
    ASSERT_GE(graph_.max_level, 1);
    ASSERT_EQ(graph_.FromCsr(data_), StatusCode::kOk);
  }

  const Matrix data_ = RandomEmbeddings(200, 16, 5);
  const HnswIndex index_{data_, SimMetric::kManhattan, HnswOptions{}};
  GraphCsr graph_ = GraphCsr::Of(index_);
};

TEST_F(HnswCsrTest, EntryPointBelowTheTopLayerIsDataLoss) {
  graph_.entry_point = graph_.NodeAtLevel(0);
  EXPECT_EQ(graph_.FromCsr(data_), StatusCode::kDataLoss);
}

TEST_F(HnswCsrTest, EntryPointOfAnEmptyGraphIsDataLoss) {
  const Matrix empty(0, 16);
  GraphCsr graph =
      GraphCsr::Of(HnswIndex(empty, SimMetric::kManhattan, HnswOptions{}));
  EXPECT_EQ(graph.FromCsr(empty), StatusCode::kOk);
  graph.entry_point = 0;
  EXPECT_EQ(graph.FromCsr(empty), StatusCode::kDataLoss);
}

TEST_F(HnswCsrTest, NeighborBelowItsLayerIsDataLoss) {
  // The first non-empty layer-1 list gets a node that has no layer 1.
  for (size_t node = 0; node + 1 < graph_.node_slots.size(); ++node) {
    const uint64_t slot = graph_.node_slots[node] + 1;
    if (graph_.Level(static_cast<int32_t>(node)) >= 1 &&
        graph_.list_offsets[slot + 1] > graph_.list_offsets[slot]) {
      graph_.links[graph_.list_offsets[slot]] = graph_.NodeAtLevel(0);
      EXPECT_EQ(graph_.FromCsr(data_), StatusCode::kDataLoss);
      return;
    }
  }
  FAIL() << "no layer-1 list";
}

TEST_F(HnswCsrTest, NeighborOutOfRangeIsDataLoss) {
  for (const int32_t bad : {-1, 200, std::numeric_limits<int32_t>::max()}) {
    GraphCsr graph = graph_;
    graph.links[graph.links.size() / 2] = bad;
    EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss) << bad;
  }
}

TEST_F(HnswCsrTest, OffsetsThatDoNotAscendOrSpanAreDataLoss) {
  GraphCsr graph = graph_;
  std::swap(graph.list_offsets[10], graph.list_offsets[11]);
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
  graph = graph_;
  graph.list_offsets.back() += 1;
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
  graph = graph_;
  graph.node_slots.pop_back();
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
  // A node with no layer at all.
  graph = graph_;
  graph.node_slots[1] = graph.node_slots[0];
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
}

TEST_F(HnswCsrTest, LevelAboveTheCapIsDataLoss) {
  // Lift the last node to level 33 with the (empty) lists that level
  // needs, and make it the entry point, so the cap is the only thing
  // wrong.
  GraphCsr graph = graph_;
  const int32_t last = static_cast<int32_t>(graph.node_slots.size()) - 2;
  const int32_t added = 33 - graph.Level(last);
  graph.node_slots.back() += added;
  graph.list_offsets.insert(graph.list_offsets.end(), added,
                            graph.list_offsets.back());
  graph.entry_point = last;
  graph.max_level = 33;
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
  // A slot count that wraps the offset arithmetic is refused before any
  // list is read.
  graph = graph_;
  graph.node_slots.back() = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(graph.FromCsr(data_), StatusCode::kDataLoss);
}

TEST(ServeIndexTest, ExactTopKMatchesTopKInto) {
  // The serve index's single-query scan keeps the batch kernel's
  // entries, in the same order, with the same scores.
  const int32_t ns = 40, nt = 60, k = 7;
  const auto index = BuildIndexOrDie(ns, nt, 13, 7);
  const int64_t dim = index->encoder().dim();
  Matrix source(ns, dim);
  for (int32_t s = 0; s < ns; ++s) {
    index->encoder().EncodeName(index->SourceName(s), source.Row(s));
  }
  std::vector<EntityId> row_ids(ns);
  std::iota(row_ids.begin(), row_ids.end(), 0);
  std::vector<EntityId> col_ids(nt);
  std::iota(col_ids.begin(), col_ids.end(), 0);
  Matrix target(nt, dim);
  for (int32_t t = 0; t < nt; ++t) {
    std::copy_n(index->TargetEmbedding(t), dim, target.Row(t));
  }
  SparseSimMatrix batch(ns, nt, k);
  TopKInto(source, row_ids, target, col_ids,
           /*index=*/nullptr,
           TopKOptions{.k = k, .metric = index->options().metric}, batch);

  std::vector<SimEntry> single;
  for (int32_t s = 0; s < ns; ++s) {
    index->ExactTopK(std::span<const float>(source.Row(s), dim), k, single);
    const auto row = batch.Row(s);
    ASSERT_EQ(single.size(), row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(single[i].column, row[i].column);
      EXPECT_EQ(single[i].score, row[i].score);
    }
  }
}

// ---------------------------------------------------------------------------
// Atomic version swap (run under TSan via run_sanitized_tests.sh).
// ---------------------------------------------------------------------------

TEST(IndexManagerTest, CurrentIsNullBeforeFirstSwap) {
  serve::IndexManager manager;
  EXPECT_EQ(manager.Current(), nullptr);
  EXPECT_EQ(manager.version(), 0);
  serve::QueryEngine engine(&manager);
  serve::QueryRequest request;
  request.kind = serve::QueryRequest::Kind::kEntity;
  request.entity = 0;
  EXPECT_EQ(engine.Execute(request).status.code(), StatusCode::kUnavailable);
}

TEST(IndexManagerTest, SwapUnderLoadNeverTearsAnswers) {
  // Two versions with disjoint fingerprints and different fused
  // contents; hammer queries from readers while a writer swaps. Every
  // response must be internally consistent: the answer for entity 0
  // matches exactly the version whose fingerprint it reports.
  const auto v1 = BuildIndexOrDie(16, 16, 71, 0xA);
  const auto v2 = BuildIndexOrDie(16, 16, 72, 0xB);
  const auto expect_a = v1->FusedRow(0);
  const auto expect_b = v2->FusedRow(0);

  serve::IndexManager manager;
  manager.Swap(v1);
  serve::QueryEngine engine(&manager);

  std::atomic<bool> stop{false};
  std::atomic<int32_t> querying{0};
  std::atomic<int64_t> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      serve::QueryRequest request;
      request.kind = serve::QueryRequest::Kind::kEntity;
      request.entity = 0;
      request.k = 16;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const serve::QueryResponse response = engine.Execute(request);
        if (first) {
          querying.fetch_add(1);
          first = false;
        }
        ASSERT_TRUE(response.status.ok());
        const auto& expect =
            response.index_fingerprint == 0xA ? expect_a : expect_b;
        ASSERT_TRUE(response.index_fingerprint == 0xA ||
                    response.index_fingerprint == 0xB);
        ASSERT_EQ(response.candidates.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(response.candidates[i].target, expect[i].column);
          ASSERT_EQ(response.candidates[i].score, expect[i].score);
        }
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Swap only once every reader is querying. Reader threads can start
  // late (sanitizer builds, a loaded host), and then all 200 swaps could
  // finish before the first query, checking nothing.
  while (querying.load() < 4) std::this_thread::yield();
  for (int i = 0; i < 200; ++i) {
    manager.Swap(i % 2 == 0 ? v2 : v1);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(checked.load(), 0);
  EXPECT_EQ(manager.version(), 201);
}

// ---------------------------------------------------------------------------
// Serve loop protocol.
// ---------------------------------------------------------------------------

TEST(ServeLoopTest, ParseFlatObject) {
  auto fields = serve::ParseFlatObject(
      R"({"op":"query","name":"a \"b\"\nc","k":5,"exact":true})");
  ASSERT_TRUE(fields.ok()) << fields.status().ToString();
  EXPECT_EQ(fields->at("op"), "query");
  EXPECT_EQ(fields->at("name"), "a \"b\"\nc");
  EXPECT_EQ(fields->at("k"), "5");
  EXPECT_EQ(fields->at("exact"), "true");

  EXPECT_TRUE(serve::ParseFlatObject("{}").ok());
  EXPECT_TRUE(serve::ParseFlatObject(R"( { "a" : "b" } )").ok());
  EXPECT_EQ(serve::ParseFlatObject(R"({"u":"A"})")->at("u"), "A");
  EXPECT_FALSE(serve::ParseFlatObject("").ok());
  EXPECT_FALSE(serve::ParseFlatObject("[1,2]").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":{"b":1}})").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":1} trailing)").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a")").ok());
  EXPECT_FALSE(serve::ParseFlatObject(R"({"a":})").ok());
}

TEST(ServeLoopTest, ProtocolAnswersInOrderAndSwapsMidStream) {
  const auto v1 = BuildIndexOrDie(8, 8, 81, 0xC1);
  const auto v2 = BuildIndexOrDie(8, 8, 82, 0xC2);
  const std::string v2_path = TempPath("serve_loop_v2.idx");
  ASSERT_TRUE(v2->Save(v2_path).ok());

  serve::IndexManager manager;
  manager.Swap(v1);
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});

  std::istringstream in(
      "{\"op\":\"query\",\"entity\":0,\"k\":2}\n"
      "{\"op\":\"swap\",\"index\":\"" + v2_path + "\"}\n"
      "{\"op\":\"query\",\"entity\":0,\"k\":2}\n"
      "{\"op\":\"query\",\"entity\":-3}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"quit\"}\n"
      "{\"op\":\"query\",\"entity\":1}\n");  // after quit: never answered
  std::ostringstream out;
  const serve::ServeLoopStats stats = loop.Run(in, out);

  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.failed, 1);  // the out-of-range entity
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_TRUE(stats.saw_quit);

  std::vector<std::string> lines;
  std::istringstream reread(out.str());
  for (std::string line; std::getline(reread, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);
  // Query before the swap answers from v1, after from v2 — the control
  // op is a barrier, so the ordering is exact, not racy.
  EXPECT_NE(lines[0].find("\"fingerprint\":\"00000000000000c1\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"version\":2"), std::string::npos);
  EXPECT_NE(lines[2].find("\"fingerprint\":\"00000000000000c2\""),
            std::string::npos);
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(lines[4].find("\"version_swaps\":1"), std::string::npos);
  EXPECT_NE(lines[5].find("\"bye\":true"), std::string::npos);
  fs::remove(v2_path);
}

TEST(ServeLoopTest, StopFlagDrainsPendingBatch) {
  const auto v1 = BuildIndexOrDie(8, 8, 91, 0xD1);
  serve::IndexManager manager;
  manager.Swap(v1);
  // A stop flag raised before Run: the loop must not read anything, but
  // still exits cleanly through the drain path.
  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  std::istringstream in("{\"op\":\"query\",\"entity\":0}\n");
  std::ostringstream out;
  std::atomic<int> stop{SIGTERM};
  const serve::ServeLoopStats stats = loop.Run(in, out, &stop);
  EXPECT_TRUE(stats.saw_stop);
  EXPECT_EQ(stats.queries, 0);
}

TEST(ServeLoopTest, NameQueryMatchesEngine) {
  const auto v1 = BuildIndexOrDie(12, 12, 95, 0xE1);
  serve::IndexManager manager;
  manager.Swap(v1);
  serve::QueryEngine engine(&manager);

  serve::QueryRequest request;
  request.kind = serve::QueryRequest::Kind::kName;
  request.name = std::string(v1->TargetName(3));
  request.k = 3;
  const serve::QueryResponse direct = engine.Execute(request);
  ASSERT_TRUE(direct.status.ok());
  ASSERT_FALSE(direct.candidates.empty());
  // Querying a target's own name must put that target on top: its
  // embedding similarity to itself is maximal and the string channel
  // shortlists it.
  EXPECT_EQ(direct.candidates[0].target, 3);

  serve::ServeLoop loop(&manager, serve::ServeLoopOptions{});
  std::istringstream in("{\"op\":\"query\",\"name\":\"" + request.name +
                        "\",\"k\":3}\n");
  std::ostringstream out;
  loop.Run(in, out);
  EXPECT_NE(out.str().find("\"target\":3"), std::string::npos);
  const std::string expected_first =
      "\"candidates\":[{\"target\":" + std::to_string(direct.candidates[0].target);
  EXPECT_NE(out.str().find(expected_first), std::string::npos);
}

}  // namespace
}  // namespace largeea
