#ifndef FREEWAYML_ML_LOSSES_H_
#define FREEWAYML_ML_LOSSES_H_

#include <vector>

#include "linalg/matrix.h"

namespace freeway {

/// Row-wise numerically-stable softmax of a logit matrix.
Matrix Softmax(const Matrix& logits);

/// Mean cross-entropy of softmax(logits) against integer labels, from one
/// softmax. `labels[i]` must lie in [0, logits.cols()). When `grad` is
/// non-null it receives the gradient w.r.t. the logits,
/// (softmax(logits) - onehot(labels)) / n; combined with the layers'
/// sum-accumulating backprop this yields batch-mean parameter gradients.
double SoftmaxCrossEntropy(const Matrix& logits,
                           const std::vector<int>& labels, Matrix* grad);

}  // namespace freeway

#endif  // FREEWAYML_ML_LOSSES_H_
