#include "src/nn/adam.h"

#include <cmath>

#include "src/common/macros.h"
#include "src/obs/profiler.h"
#include "src/simd/simd.h"

namespace largeea {
namespace {

constexpr int64_t kF = sizeof(float);

}  // namespace

AdamState::AdamState(int64_t rows, int64_t cols, const AdamOptions& options)
    : options_(options), m_(rows, cols), v_(rows, cols) {}

void AdamState::Step(Matrix& param, const Matrix& grad) {
  LARGEEA_CHECK_EQ(param.rows(), m_.rows());
  LARGEEA_CHECK_EQ(param.cols(), m_.cols());
  LARGEEA_CHECK_EQ(grad.rows(), m_.rows());
  LARGEEA_CHECK_EQ(grad.cols(), m_.cols());
  ++step_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const simd::AdamScalars scalars{
      .beta1 = b1,
      .one_minus_beta1 = 1.0f - b1,
      .beta2 = b2,
      .one_minus_beta2 = 1.0f - b2,
      .bias1 = 1.0f - std::pow(b1, static_cast<float>(step_)),
      .bias2 = 1.0f - std::pow(b2, static_cast<float>(step_)),
      .learning_rate = options_.learning_rate,
      .epsilon = options_.epsilon};
  const int64_t size = param.size();
  obs::ProfileScope prof("nn.adam");
  // Reads p, g, m, v; writes p, m, v. Per element: 5 mul and 2 add for
  // the moments; 3 div, a mul, a sqrt, an add and a sub for the update.
  prof.AddBytes(kF * 4 * size, kF * 3 * size);
  prof.AddFlops(14 * size);
  simd::Kernels().adam_step(param.data(), grad.data(), m_.data(), v_.data(),
                            size, scalars);
}

}  // namespace largeea
