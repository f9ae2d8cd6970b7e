// Sparse neighbourhood aggregation operators for the GNN models.
#ifndef LARGEEA_NN_AGGREGATION_H_
#define LARGEEA_NN_AGGREGATION_H_

#include <cstdint>
#include <vector>

#include "src/la/matrix.h"
#include "src/nn/batch_graph.h"

namespace largeea {

/// Symmetric-normalised adjacency with self-loops,
/// Â = D^{-1/2} (A + I) D^{-1/2}, applied as a sparse-dense product.
/// Â is symmetric, so the same Apply() serves forward and backward.
class NormalizedAdjacency {
 public:
  explicit NormalizedAdjacency(const LocalGraph& graph);

  /// out = Â · in. `out` is overwritten; shapes must match.
  void Apply(const Matrix& in, Matrix& out) const;

  int32_t num_vertices() const {
    return static_cast<int32_t>(self_coeff_.size());
  }

  /// Off-diagonal entries, both directions of every non-loop edge.
  int64_t num_entries() const {
    return static_cast<int64_t>(entries_.size());
  }

 private:
  struct Entry {
    int32_t i;
    int32_t j;
    float coeff;
  };
  std::vector<Entry> entries_;      // off-diagonal, both directions
  std::vector<float> self_coeff_;   // diagonal
};

}  // namespace largeea

#endif  // LARGEEA_NN_AGGREGATION_H_
