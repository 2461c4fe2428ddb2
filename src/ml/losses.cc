#include "ml/losses.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace freeway {

Matrix Softmax(const Matrix& logits) {
  Matrix out = logits;
  for (size_t i = 0; i < out.rows(); ++i) {
    auto row = out.Row(i);
    double max_v = row[0];
    for (double v : row) max_v = v > max_v ? v : max_v;
    double sum = 0.0;
    for (auto& v : row) {
      v = std::exp(v - max_v);
      sum += v;
    }
    const double inv = 1.0 / sum;
    for (auto& v : row) v *= inv;
  }
  return out;
}

double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* grad) {
  FREEWAY_DCHECK(logits.rows() == labels.size());
  Matrix probs = Softmax(logits);
  double loss = 0.0;
  for (size_t i = 0; i < probs.rows(); ++i) {
    const int y = labels[i];
    FREEWAY_DCHECK(y >= 0 && static_cast<size_t>(y) < probs.cols());
    loss -= std::log(probs.At(i, static_cast<size_t>(y)) + 1e-12);
  }
  loss /= static_cast<double>(probs.rows());
  if (grad != nullptr) {
    const double inv_n = 1.0 / static_cast<double>(probs.rows());
    for (size_t i = 0; i < probs.rows(); ++i) {
      auto row = probs.Row(i);
      row[static_cast<size_t>(labels[i])] -= 1.0;
      for (auto& v : row) v *= inv_n;
    }
    *grad = std::move(probs);
  }
  return loss;
}

}  // namespace freeway
