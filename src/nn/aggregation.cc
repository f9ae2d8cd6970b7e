#include "src/nn/aggregation.h"

#include <cmath>

#include "src/common/macros.h"
#include "src/simd/simd.h"

namespace largeea {

NormalizedAdjacency::NormalizedAdjacency(const LocalGraph& graph) {
  const int32_t n = graph.num_vertices();
  self_coeff_.resize(n);
  for (int32_t v = 0; v < n; ++v) {
    self_coeff_[v] = 1.0f / static_cast<float>(graph.degree[v] + 1);
  }
  entries_.reserve(graph.edges.size() * 2);
  for (const LocalEdge& e : graph.edges) {
    if (e.head == e.tail) continue;
    const float coeff =
        1.0f / std::sqrt(static_cast<float>(graph.degree[e.head] + 1) *
                         static_cast<float>(graph.degree[e.tail] + 1));
    entries_.push_back(Entry{e.head, e.tail, coeff});
    entries_.push_back(Entry{e.tail, e.head, coeff});
  }
}

void NormalizedAdjacency::Apply(const Matrix& in, Matrix& out) const {
  LARGEEA_CHECK_EQ(in.rows(), num_vertices());
  LARGEEA_CHECK_EQ(out.rows(), in.rows());
  LARGEEA_CHECK_EQ(out.cols(), in.cols());
  const int64_t dim = in.cols();
  for (int32_t v = 0; v < num_vertices(); ++v) {
    const float c = self_coeff_[v];
    const float* src = in.Row(v);
    float* dst = out.Row(v);
    for (int64_t k = 0; k < dim; ++k) dst[k] = c * src[k];
  }
  const simd::KernelTable& kt = simd::Kernels();
  for (const Entry& e : entries_) {
    kt.axpy(e.coeff, in.Row(e.j), out.Row(e.i), dim);
  }
}

}  // namespace largeea
