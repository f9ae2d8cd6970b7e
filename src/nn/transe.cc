#include "src/nn/transe.h"

#include <cmath>

#include "src/common/macros.h"
#include "src/la/ops.h"
#include "src/nn/adam.h"
#include "src/nn/loss.h"
#include "src/nn/negative_sampler.h"
#include "src/obs/profiler.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

float Sign(float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); }

// One KG's TransE state: entity embeddings + relation translations.
struct TransESide {
  TransESide(const LocalGraph& graph_in, int32_t dim, Rng& rng)
      : graph(&graph_in),
        x(graph_in.num_vertices(), dim),
        r(std::max(graph_in.num_relations, 1), dim),
        dx(graph_in.num_vertices(), dim),
        dr(std::max(graph_in.num_relations, 1), dim) {
    x.GlorotInit(rng);
    r.GlorotInit(rng);
    L2NormalizeRows(x);
  }

  // Margin ranking over triples: [ d(h+r, t) + margin − d(h'+r, t') ]₊
  // with L1 distance and a uniformly corrupted head or tail. Gradients
  // are accumulated into dx / dr (caller zeroes them).
  double TripleLossAndGrad(float margin, Rng& rng) {
    const int64_t dim = x.cols();
    if (graph->edges.empty()) return 0.0;
    obs::ProfileScope prof("nn.loss");
    // Per triple: read five rows for two distances and their signs (6
    // flops per element); an active one updates five gradient rows (10).
    const int64_t triples = static_cast<int64_t>(graph->edges.size());
    prof.AddBytes(kF * 5 * triples * dim, 0);
    prof.AddFlops(6 * triples * dim);
    const float scale = 1.0f / static_cast<float>(graph->edges.size());
    double loss = 0.0;
    std::vector<float> pos_sign(dim), neg_sign(dim);
    for (const LocalEdge& e : graph->edges) {
      const bool corrupt_tail = rng.Bernoulli(0.5);
      int32_t ch = e.head, ct = e.tail;
      const auto random_vertex = [&] {
        return static_cast<int32_t>(rng.Uniform(graph->num_vertices()));
      };
      if (corrupt_tail) {
        ct = random_vertex();
        if (ct == e.tail) ct = (ct + 1) % graph->num_vertices();
      } else {
        ch = random_vertex();
        if (ch == e.head) ch = (ch + 1) % graph->num_vertices();
      }
      const float* h = x.Row(e.head);
      const float* t = x.Row(e.tail);
      const float* hn = x.Row(ch);
      const float* tn = x.Row(ct);
      const float* rel = this->r.Row(e.relation);
      float d_pos = 0.0f, d_neg = 0.0f;
      for (int64_t k = 0; k < dim; ++k) {
        const float pd = h[k] + rel[k] - t[k];
        const float nd = hn[k] + rel[k] - tn[k];
        d_pos += std::fabs(pd);
        d_neg += std::fabs(nd);
        pos_sign[k] = Sign(pd);
        neg_sign[k] = Sign(nd);
      }
      const float v = d_pos + margin - d_neg;
      if (v <= 0.0f) continue;
      loss += static_cast<double>(v) * scale;
      prof.AddBytes(kF * 5 * dim, kF * 5 * dim);
      prof.AddFlops(10 * dim);
      float* gh = dx.Row(e.head);
      float* gt = dx.Row(e.tail);
      float* ghn = dx.Row(ch);
      float* gtn = dx.Row(ct);
      float* gr = dr.Row(e.relation);
      for (int64_t k = 0; k < dim; ++k) {
        gh[k] += scale * pos_sign[k];
        gt[k] -= scale * pos_sign[k];
        gr[k] += scale * (pos_sign[k] - neg_sign[k]);
        ghn[k] -= scale * neg_sign[k];
        gtn[k] += scale * neg_sign[k];
      }
    }
    return loss;
  }

  const LocalGraph* graph;
  Matrix x, r;
  Matrix dx, dr;
};

}  // namespace

TrainedEmbeddings TransEModel::Train(
    const LocalGraph& source, const LocalGraph& target,
    const std::vector<std::pair<int32_t, int32_t>>& seeds,
    const TrainOptions& options) {
  LARGEEA_CHECK_GT(source.num_vertices(), 1);
  LARGEEA_CHECK_GT(target.num_vertices(), 1);
  Rng rng(options.seed);

  TransESide src_side(source, options.dim, rng);
  TransESide tgt_side(target, options.dim, rng);
  if (options.source_init != nullptr) {
    LARGEEA_CHECK_EQ(options.source_init->rows(), src_side.x.rows());
    src_side.x = *options.source_init;
  }
  if (options.target_init != nullptr) {
    LARGEEA_CHECK_EQ(options.target_init->rows(), tgt_side.x.rows());
    tgt_side.x = *options.target_init;
  }

  const AdamOptions adam_options{.learning_rate = options.learning_rate};
  AdamState adam_xs(src_side.x.rows(), options.dim, adam_options);
  AdamState adam_xt(tgt_side.x.rows(), options.dim, adam_options);
  AdamState adam_rs(src_side.r.rows(), options.dim, adam_options);
  AdamState adam_rt(tgt_side.r.rows(), options.dim, adam_options);

  // TransE's triple margin is conventionally smaller than the alignment
  // margin; keep the classic 1.0.
  constexpr float kTripleMargin = 1.0f;

  NegativeSamples negatives;
  double last_loss = 0.0;
  for (int32_t epoch = 0; epoch < options.epochs; ++epoch) {
    src_side.dx.Fill(0.0f);
    src_side.dr.Fill(0.0f);
    tgt_side.dx.Fill(0.0f);
    tgt_side.dr.Fill(0.0f);

    double loss = src_side.TripleLossAndGrad(kTripleMargin, rng);
    loss += tgt_side.TripleLossAndGrad(kTripleMargin, rng);

    const bool refresh =
        options.hard_negative_refresh > 0
            ? (epoch % options.hard_negative_refresh == 0)
            : (epoch == 0);
    if (refresh) {
      if (options.hard_negative_refresh > 0 && epoch > 0) {
        negatives = SampleNearestNegatives(
            seeds, src_side.x, tgt_side.x, options.negatives_per_seed,
            options.hard_negative_pool, rng);
      } else {
        negatives = SampleRandomNegatives(
            seeds, source.num_vertices(), target.num_vertices(),
            options.negatives_per_seed, rng);
      }
    }
    const MarginLossResult align =
        MarginLossAndGrad(src_side.x, tgt_side.x, seeds, negatives,
                          options.margin, src_side.dx, tgt_side.dx);
    last_loss = loss + align.loss;

    adam_xs.Step(src_side.x, src_side.dx);
    adam_xt.Step(tgt_side.x, tgt_side.dx);
    adam_rs.Step(src_side.r, src_side.dr);
    adam_rt.Step(tgt_side.r, tgt_side.dr);
    // Classic TransE constraint: entities stay on the unit ball.
    L2NormalizeRows(src_side.x);
    L2NormalizeRows(tgt_side.x);
  }

  TrainedEmbeddings result;
  result.source = src_side.x;
  result.target = tgt_side.x;
  result.final_loss = last_loss;
  return result;
}

}  // namespace largeea
