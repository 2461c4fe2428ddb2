#include "ml/sequential.h"

#include "common/logging.h"
#include "ml/losses.h"

namespace freeway {

SequentialModel::SequentialModel(std::string name, size_t input_dim,
                                 size_t num_classes,
                                 std::vector<std::unique_ptr<Layer>> layers,
                                 std::unique_ptr<Optimizer> optimizer)
    : name_(std::move(name)),
      input_dim_(input_dim),
      num_classes_(num_classes),
      layers_(std::move(layers)),
      optimizer_(std::move(optimizer)) {
  FREEWAY_DCHECK(!layers_.empty());
  FREEWAY_DCHECK(optimizer_ != nullptr);
}

SequentialModel::SequentialModel(const SequentialModel& other)
    : name_(other.name_),
      input_dim_(other.input_dim_),
      num_classes_(other.num_classes_),
      optimizer_(other.optimizer_->Clone()) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
}

Status SequentialModel::ValidateBatch(const Matrix& x,
                                      const std::vector<int>* y) const {
  if (x.rows() == 0) return Status::InvalidArgument("empty batch");
  if (x.cols() != input_dim_) {
    return Status::InvalidArgument(
        name_ + ": expected input dim " + std::to_string(input_dim_) +
        ", got " + std::to_string(x.cols()));
  }
  if (!x.AllFinite()) {
    return Status::InvalidArgument(name_ +
                                   ": batch contains NaN or infinite values");
  }
  if (y != nullptr) {
    if (y->size() != x.rows()) {
      return Status::InvalidArgument(name_ + ": labels/features row mismatch");
    }
    for (int label : *y) {
      if (label < 0 || static_cast<size_t>(label) >= num_classes_) {
        return Status::InvalidArgument(name_ + ": label out of range: " +
                                       std::to_string(label));
      }
    }
  }
  return Status::OK();
}

Matrix SequentialModel::ForwardLogits(const Matrix& x) {
  Matrix activation = layers_.front()->Forward(x);
  for (size_t i = 1; i < layers_.size(); ++i) {
    activation = layers_[i]->Forward(activation);
  }
  return activation;
}

double SequentialModel::Backprop(const Matrix& x, const std::vector<int>& y) {
  for (auto& layer : layers_) layer->ZeroGrads();
  Matrix grad;
  const double loss = SoftmaxCrossEntropy(ForwardLogits(x), y, &grad);
  // Nothing consumes the gradient w.r.t. the model input, so the first
  // layer is not asked for it.
  for (size_t i = layers_.size(); i-- > 0;) {
    grad = layers_[i]->Backward(grad, /*need_input_grad=*/i > 0);
  }
  return loss;
}

Result<Matrix> SequentialModel::PredictProba(const Matrix& x) {
  FREEWAY_RETURN_NOT_OK(ValidateBatch(x, nullptr));
  return Softmax(ForwardLogits(x));
}

Result<double> SequentialModel::TrainBatch(const Matrix& x,
                                           const std::vector<int>& y) {
  FREEWAY_RETURN_NOT_OK(ValidateBatch(x, &y));
  const double loss = Backprop(x, y);
  optimizer_->Step(AllParams(), AllGrads());
  return loss;
}

Result<double> SequentialModel::ComputeGradient(const Matrix& x,
                                                const std::vector<int>& y,
                                                std::vector<double>* grad) {
  FREEWAY_RETURN_NOT_OK(ValidateBatch(x, &y));
  if (grad == nullptr) return Status::InvalidArgument("grad is null");
  const double loss = Backprop(x, y);
  grad->clear();
  grad->reserve(ParameterCount());
  for (Matrix* gm : AllGrads()) {
    grad->insert(grad->end(), gm->data(), gm->data() + gm->size());
  }
  return loss;
}

Status SequentialModel::ApplyStep(std::span<const double> step) {
  if (step.size() != ParameterCount()) {
    return Status::InvalidArgument("ApplyStep: size mismatch");
  }
  size_t offset = 0;
  for (Matrix* p : AllParams()) {
    double* data = p->data();
    for (size_t i = 0; i < p->size(); ++i) data[i] += step[offset + i];
    offset += p->size();
  }
  return Status::OK();
}

size_t SequentialModel::ParameterCount() const {
  size_t count = 0;
  for (Matrix* p : AllParams()) count += p->size();
  return count;
}

std::vector<double> SequentialModel::GetParameters() const {
  std::vector<double> out;
  out.reserve(ParameterCount());
  for (Matrix* p : AllParams()) {
    out.insert(out.end(), p->data(), p->data() + p->size());
  }
  return out;
}

Status SequentialModel::SetParameters(std::span<const double> params) {
  if (params.size() != ParameterCount()) {
    return Status::InvalidArgument("SetParameters: size mismatch (expected " +
                                   std::to_string(ParameterCount()) +
                                   ", got " + std::to_string(params.size()) +
                                   ")");
  }
  size_t offset = 0;
  for (Matrix* p : AllParams()) {
    double* data = p->data();
    for (size_t i = 0; i < p->size(); ++i) data[i] = params[offset + i];
    offset += p->size();
  }
  return Status::OK();
}

std::unique_ptr<Model> SequentialModel::Clone() const {
  return std::unique_ptr<Model>(new SequentialModel(*this));
}

std::vector<Matrix*> SequentialModel::AllParams() const {
  std::vector<Matrix*> out;
  for (const auto& layer : layers_) {
    for (Matrix* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> SequentialModel::AllGrads() const {
  std::vector<Matrix*> out;
  for (const auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

Result<std::vector<int>> Model::Predict(const Matrix& x) {
  FREEWAY_ASSIGN_OR_RETURN(Matrix probs, PredictProba(x));
  std::vector<int> out(probs.rows());
  for (size_t i = 0; i < probs.rows(); ++i) {
    auto row = probs.Row(i);
    size_t best = 0;
    for (size_t j = 1; j < row.size(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<int>(best);
  }
  return out;
}

Result<double> Accuracy(Model* model, const Matrix& x,
                        const std::vector<int>& y) {
  if (x.rows() == 0) return Status::InvalidArgument("Accuracy: empty batch");
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("Accuracy: rows/labels mismatch");
  }
  FREEWAY_ASSIGN_OR_RETURN(std::vector<int> pred, model->Predict(x));
  size_t hits = 0;
  for (size_t i = 0; i < y.size(); ++i) {
    if (pred[i] == y[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(y.size());
}

}  // namespace freeway
