#include "src/nn/gcn_align.h"

#include "src/common/macros.h"
#include "src/la/ops.h"
#include "src/nn/adam.h"
#include "src/nn/aggregation.h"
#include "src/nn/loss.h"
#include "src/nn/negative_sampler.h"
#include "src/obs/profiler.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

// Forward/backward workspace for one KG's GCN pass.
struct GcnSide {
  explicit GcnSide(const LocalGraph& graph, int32_t dim, Rng& rng)
      : adjacency(graph),
        x(graph.num_vertices(), dim),
        p1(graph.num_vertices(), dim),
        q1(graph.num_vertices(), dim),
        h1(graph.num_vertices(), dim),
        p2(graph.num_vertices(), dim),
        z(graph.num_vertices(), dim),
        dx(graph.num_vertices(), dim),
        dz(graph.num_vertices(), dim),
        scratch(graph.num_vertices(), dim) {
    x.GlorotInit(rng);
  }

  // Declared traffic of `applies` Apply calls and of `gemms` products
  // of an n x d by a d x d matrix, for the phase scopes.
  void DeclareApplies(obs::ProfileScope& prof, int64_t applies) const {
    const int64_t n = x.rows(), d = x.cols(), m = adjacency.num_entries();
    prof.AddBytes(applies * kF * (n + 2 * m) * d, applies * kF * (n + m) * d);
    prof.AddFlops(applies * (n + 2 * m) * d);
  }
  void DeclareGemms(obs::ProfileScope& prof, int64_t gemms) const {
    const int64_t n = x.rows(), d = x.cols();
    prof.AddBytes(gemms * kF * (n * d + d * d), gemms * kF * n * d);
    prof.AddFlops(gemms * 2 * n * d * d);
  }

  // Z = Â · relu(Â X W1) · W2, intermediates retained for backward.
  void Forward(const Matrix& w1, const Matrix& w2) {
    obs::ProfileScope prof("nn.forward");
    DeclareApplies(prof, 2);
    DeclareGemms(prof, 2);
    adjacency.Apply(x, p1);
    Gemm(p1, w1, q1);
    h1 = q1;
    ReluInPlace(h1);
    adjacency.Apply(h1, p2);
    Gemm(p2, w2, z);
  }

  // Backward from dz; accumulates into dw1/dw2, overwrites dx.
  void Backward(const Matrix& w1, const Matrix& w2, Matrix& dw1,
                Matrix& dw2) {
    obs::ProfileScope prof("nn.backward");
    DeclareApplies(prof, 2);
    DeclareGemms(prof, 4);
    // dW2 += P2^T dZ ; dP2 = dZ W2^T
    GemmTransposeA(p2, dz, scratch_w2_);
    Axpy(1.0f, scratch_w2_, dw2);
    Matrix dp2(z.rows(), w2.rows());
    GemmTransposeB(dz, w2, dp2);
    // dH1 = Â dP2 (Â symmetric)
    adjacency.Apply(dp2, scratch);
    // dQ1 = relu'(Q1) ⊙ dH1
    ReluBackwardInPlace(q1, scratch);
    // dW1 += P1^T dQ1 ; dP1 = dQ1 W1^T
    GemmTransposeA(p1, scratch, scratch_w1_);
    Axpy(1.0f, scratch_w1_, dw1);
    Matrix dp1(z.rows(), w1.rows());
    GemmTransposeB(scratch, w1, dp1);
    // dX = Â dP1
    adjacency.Apply(dp1, dx);
  }

  void InitScratch(int32_t dim) {
    scratch_w1_ = Matrix(dim, dim);
    scratch_w2_ = Matrix(dim, dim);
  }

  NormalizedAdjacency adjacency;
  Matrix x, p1, q1, h1, p2, z;
  Matrix dx, dz, scratch;
  Matrix scratch_w1_, scratch_w2_;
};

}  // namespace

TrainedEmbeddings GcnAlignModel::Train(
    const LocalGraph& source, const LocalGraph& target,
    const std::vector<std::pair<int32_t, int32_t>>& seeds,
    const TrainOptions& options) {
  LARGEEA_CHECK_GT(source.num_vertices(), 1);
  LARGEEA_CHECK_GT(target.num_vertices(), 1);
  Rng rng(options.seed);
  const int32_t dim = options.dim;

  GcnSide src_side(source, dim, rng);
  GcnSide tgt_side(target, dim, rng);
  src_side.InitScratch(dim);
  tgt_side.InitScratch(dim);
  if (options.source_init != nullptr) {
    LARGEEA_CHECK_EQ(options.source_init->rows(), src_side.x.rows());
    LARGEEA_CHECK_EQ(options.source_init->cols(), dim);
    src_side.x = *options.source_init;
  }
  if (options.target_init != nullptr) {
    LARGEEA_CHECK_EQ(options.target_init->rows(), tgt_side.x.rows());
    LARGEEA_CHECK_EQ(options.target_init->cols(), dim);
    tgt_side.x = *options.target_init;
  }

  Matrix w1(dim, dim), w2(dim, dim);
  w1.GlorotInit(rng);
  w2.GlorotInit(rng);
  Matrix dw1(dim, dim), dw2(dim, dim);

  const AdamOptions adam_options{.learning_rate = options.learning_rate};
  AdamState adam_xs(src_side.x.rows(), dim, adam_options);
  AdamState adam_xt(tgt_side.x.rows(), dim, adam_options);
  AdamState adam_w1(dim, dim, adam_options);
  AdamState adam_w2(dim, dim, adam_options);

  NegativeSamples negatives;
  double last_loss = 0.0;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    src_side.Forward(w1, w2);
    tgt_side.Forward(w1, w2);

    const bool refresh =
        options.hard_negative_refresh > 0
            ? (epoch % options.hard_negative_refresh == 0)
            : (epoch == 0);
    if (refresh) {
      if (options.hard_negative_refresh > 0 && epoch > 0) {
        negatives = SampleNearestNegatives(
            seeds, src_side.z, tgt_side.z, options.negatives_per_seed,
            options.hard_negative_pool, rng);
      } else {
        negatives = SampleRandomNegatives(
            seeds, source.num_vertices(), target.num_vertices(),
            options.negatives_per_seed, rng);
      }
    }

    src_side.dz.Fill(0.0f);
    tgt_side.dz.Fill(0.0f);
    const MarginLossResult loss =
        MarginLossAndGrad(src_side.z, tgt_side.z, seeds, negatives,
                          options.margin, src_side.dz, tgt_side.dz);
    last_loss = loss.loss;

    dw1.Fill(0.0f);
    dw2.Fill(0.0f);
    src_side.Backward(w1, w2, dw1, dw2);
    tgt_side.Backward(w1, w2, dw1, dw2);

    adam_xs.Step(src_side.x, src_side.dx);
    adam_xt.Step(tgt_side.x, tgt_side.dx);
    adam_w1.Step(w1, dw1);
    adam_w2.Step(w2, dw2);
  }

  src_side.Forward(w1, w2);
  tgt_side.Forward(w1, w2);
  TrainedEmbeddings result;
  result.source = src_side.z;
  result.target = tgt_side.z;
  L2NormalizeRows(result.source);
  L2NormalizeRows(result.target);
  result.final_loss = last_loss;
  return result;
}

}  // namespace largeea
