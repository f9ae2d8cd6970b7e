#include "src/nn/rrea.h"

#include <vector>

#include "src/common/macros.h"
#include "src/la/ops.h"
#include "src/nn/adam.h"
#include "src/nn/gcn_align.h"
#include "src/nn/transe.h"
#include "src/nn/loss.h"
#include "src/nn/negative_sampler.h"
#include "src/obs/profiler.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

// One KG's state: embeddings, per-relation unit normals, layer buffers.
//
// A layer sends every edge a message in each direction: the source
// row's reflection through the edge relation's hyperplane. The forward
// keeps each direction's n·h (column 0: n·src[head] for the message to
// the tail, column 1: n·src[tail] for the message to the head), and the
// backward reuses it: neither the normals nor the layer inputs change
// between the two, so the value is the one the backward would compute.
struct RreaSide {
  RreaSide(const LocalGraph& graph_in, int32_t dim, Rng& rng)
      : graph(&graph_in),
        x(graph_in.num_vertices(), dim),
        normals(std::max(graph_in.num_relations, 1), dim),
        h1(graph_in.num_vertices(), dim),
        h2(graph_in.num_vertices(), dim),
        dx(graph_in.num_vertices(), dim),
        dh1(graph_in.num_vertices(), dim),
        dh2(graph_in.num_vertices(), dim),
        dn(std::max(graph_in.num_relations, 1), dim),
        nh1(static_cast<int64_t>(graph_in.edges.size()), 2),
        nh2(static_cast<int64_t>(graph_in.edges.size()), 2),
        coeff(graph_in.num_vertices()) {
    x.GlorotInit(rng);
    normals.GaussianInit(rng, 1.0f);
    L2NormalizeRows(normals);
    for (int32_t v = 0; v < graph_in.num_vertices(); ++v) {
      coeff[v] = 1.0f / static_cast<float>(graph_in.degree[v] + 1);
    }
  }

  // dst = layer(src): dst[i] = c_i (src[i] + Σ reflections of
  // neighbours). `nh` receives each edge direction's n·src row.
  void ForwardLayer(const simd::KernelTable& kt, const Matrix& src,
                    Matrix& dst, Matrix& nh) const {
    const int64_t dim = src.cols();
    dst.Fill(0.0f);
    float* dots = nh.data();
    for (const LocalEdge& e : graph->edges) {
      const float* n = normals.Row(e.relation);
      const float* head = src.Row(e.head);
      const float* tail = src.Row(e.tail);
      dots[0] = kt.dot(n, head, dim);
      kt.reflect_add(n, head, dots[0], coeff[e.tail], dst.Row(e.tail), dim);
      dots[1] = kt.dot(n, tail, dim);
      kt.reflect_add(n, tail, dots[1], coeff[e.head], dst.Row(e.head), dim);
      dots += 2;
    }
    for (int32_t v = 0; v < graph->num_vertices(); ++v) {
      kt.axpy(coeff[v], src.Row(v), dst.Row(v), dim);
    }
  }

  // Backward of one layer: given d(out), the layer input `src` and the
  // forward's n·src values, writes d(src) into dsrc and accumulates
  // dL/dn into dn. The message's gradient is g = c * dout (c of the
  // receiving vertex); one n·g serves both the reflected gradient and
  // the normal's.
  void BackwardLayer(const simd::KernelTable& kt, const Matrix& src,
                     const Matrix& dout, const Matrix& nh, Matrix& dsrc) {
    const int64_t dim = src.cols();
    dsrc.Fill(0.0f);
    for (int32_t v = 0; v < graph->num_vertices(); ++v) {
      kt.axpy(coeff[v], dout.Row(v), dsrc.Row(v), dim);
    }
    const float* dots = nh.data();
    for (const LocalEdge& e : graph->edges) {
      const float* n = normals.Row(e.relation);
      float* dnr = dn.Row(e.relation);
      // Direction tail <- head.
      const float c_tail = coeff[e.tail];
      const float* g_tail = dout.Row(e.tail);
      kt.reflect_backward(n, src.Row(e.head), g_tail, c_tail,
                          kt.scaled_dot(n, g_tail, c_tail, dim), dots[0],
                          dsrc.Row(e.head), dnr, dim);
      // Direction head <- tail.
      const float c_head = coeff[e.head];
      const float* g_head = dout.Row(e.head);
      kt.reflect_backward(n, src.Row(e.tail), g_head, c_head,
                          kt.scaled_dot(n, g_head, c_head, dim), dots[1],
                          dsrc.Row(e.tail), dnr, dim);
      dots += 2;
    }
  }

  void Forward() {
    const int64_t directions = 2 * static_cast<int64_t>(graph->edges.size());
    const int64_t cells = x.size();
    obs::ProfileScope prof("nn.forward");
    // Per layer and edge direction: read n, h and the destination row,
    // write it; a dot (2 flops per element) and the message (4). Then
    // the self term: read src and dst, write dst (2).
    prof.AddBytes(2 * kF * (3 * directions * x.cols() + 2 * cells),
                  2 * kF * (directions * x.cols() + cells));
    prof.AddFlops(2 * (6 * directions * x.cols() + 2 * cells));
    const simd::KernelTable& kt = simd::Kernels();
    ForwardLayer(kt, x, h1, nh1);
    ForwardLayer(kt, h1, h2, nh2);
  }

  // Backward from dh2 into dx and dn (dn zeroed here).
  void Backward() {
    const int64_t directions = 2 * static_cast<int64_t>(graph->edges.size());
    const int64_t cells = x.size();
    obs::ProfileScope prof("nn.backward");
    // Per layer and edge direction: read n and dout for n·g (3 flops
    // per element), then n, h, dout, dsrc and dn, writing dsrc and dn
    // (9). The self term reads dout and writes dsrc (2).
    prof.AddBytes(2 * kF * (7 * directions * x.cols() + cells),
                  2 * kF * (2 * directions * x.cols() + cells));
    prof.AddFlops(2 * (12 * directions * x.cols() + 2 * cells));
    const simd::KernelTable& kt = simd::Kernels();
    dn.Fill(0.0f);
    BackwardLayer(kt, h1, dh2, nh2, dh1);
    BackwardLayer(kt, x, dh1, nh1, dx);
  }

  const LocalGraph* graph;
  Matrix x;
  Matrix normals;
  Matrix h1, h2;
  Matrix dx, dh1, dh2, dn;
  Matrix nh1, nh2;  // n·h per (edge, direction), layers 1 and 2
  std::vector<float> coeff;
};

}  // namespace

TrainedEmbeddings RreaModel::Train(
    const LocalGraph& source, const LocalGraph& target,
    const std::vector<std::pair<int32_t, int32_t>>& seeds,
    const TrainOptions& options) {
  LARGEEA_CHECK_GT(source.num_vertices(), 1);
  LARGEEA_CHECK_GT(target.num_vertices(), 1);
  Rng rng(options.seed);

  RreaSide src_side(source, options.dim, rng);
  RreaSide tgt_side(target, options.dim, rng);
  if (options.source_init != nullptr) {
    LARGEEA_CHECK_EQ(options.source_init->rows(), src_side.x.rows());
    LARGEEA_CHECK_EQ(options.source_init->cols(), options.dim);
    src_side.x = *options.source_init;
  }
  if (options.target_init != nullptr) {
    LARGEEA_CHECK_EQ(options.target_init->rows(), tgt_side.x.rows());
    LARGEEA_CHECK_EQ(options.target_init->cols(), options.dim);
    tgt_side.x = *options.target_init;
  }

  const AdamOptions adam_options{.learning_rate = options.learning_rate};
  AdamState adam_xs(src_side.x.rows(), options.dim, adam_options);
  AdamState adam_xt(tgt_side.x.rows(), options.dim, adam_options);
  AdamState adam_ns(src_side.normals.rows(), options.dim, adam_options);
  AdamState adam_nt(tgt_side.normals.rows(), options.dim, adam_options);

  NegativeSamples negatives;
  double last_loss = 0.0;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    src_side.Forward();
    tgt_side.Forward();

    const bool refresh =
        options.hard_negative_refresh > 0
            ? (epoch % options.hard_negative_refresh == 0)
            : (epoch == 0);
    if (refresh) {
      if (options.hard_negative_refresh > 0 && epoch > 0) {
        negatives = SampleNearestNegatives(
            seeds, src_side.h2, tgt_side.h2, options.negatives_per_seed,
            options.hard_negative_pool, rng);
      } else {
        negatives = SampleRandomNegatives(
            seeds, source.num_vertices(), target.num_vertices(),
            options.negatives_per_seed, rng);
      }
    }

    src_side.dh2.Fill(0.0f);
    tgt_side.dh2.Fill(0.0f);
    const MarginLossResult loss =
        MarginLossAndGrad(src_side.h2, tgt_side.h2, seeds, negatives,
                          options.margin, src_side.dh2, tgt_side.dh2);
    last_loss = loss.loss;

    src_side.Backward();
    tgt_side.Backward();

    adam_xs.Step(src_side.x, src_side.dx);
    adam_xt.Step(tgt_side.x, tgt_side.dx);
    adam_ns.Step(src_side.normals, src_side.dn);
    adam_nt.Step(tgt_side.normals, tgt_side.dn);
    // Keep the reflections orthogonal: project normals back to unit norm.
    L2NormalizeRows(src_side.normals);
    L2NormalizeRows(tgt_side.normals);
  }

  src_side.Forward();
  tgt_side.Forward();
  TrainedEmbeddings result;
  result.source = src_side.h2;
  result.target = tgt_side.h2;
  L2NormalizeRows(result.source);
  L2NormalizeRows(result.target);
  result.final_loss = last_loss;
  return result;
}

std::unique_ptr<EaModel> MakeModel(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcnAlign:
      return std::make_unique<GcnAlignModel>();
    case ModelKind::kRrea:
      return std::make_unique<RreaModel>();
    case ModelKind::kTransE:
      return std::make_unique<TransEModel>();
  }
  return nullptr;  // unreachable
}

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kGcnAlign:
      return "GCN-Align";
    case ModelKind::kRrea:
      return "RREA";
    case ModelKind::kTransE:
      return "TransE";
  }
  return "?";
}

}  // namespace largeea
