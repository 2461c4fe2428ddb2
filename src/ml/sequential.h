#ifndef FREEWAYML_ML_SEQUENTIAL_H_
#define FREEWAYML_ML_SEQUENTIAL_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/layers.h"
#include "ml/model.h"
#include "ml/optimizer.h"

namespace freeway {

/// A feed-forward stack of Layers trained by softmax cross-entropy with a
/// pluggable Optimizer. All concrete models in this library (StreamingLR,
/// StreamingMLP, StreamingCNN) are SequentialModels; see models.h for the
/// factories that assemble them.
class SequentialModel : public Model {
 public:
  /// Takes ownership of `layers` and `optimizer`. The last layer's output
  /// width must equal `num_classes` (logits).
  SequentialModel(std::string name, size_t input_dim, size_t num_classes,
                  std::vector<std::unique_ptr<Layer>> layers,
                  std::unique_ptr<Optimizer> optimizer);

  SequentialModel(const SequentialModel& other);
  SequentialModel& operator=(const SequentialModel&) = delete;

  std::string name() const override { return name_; }
  size_t input_dim() const override { return input_dim_; }
  size_t num_classes() const override { return num_classes_; }

  Result<Matrix> PredictProba(const Matrix& x) override;
  Result<double> TrainBatch(const Matrix& x,
                            const std::vector<int>& y) override;
  Result<double> ComputeGradient(const Matrix& x, const std::vector<int>& y,
                                 std::vector<double>* grad) override;
  Status ApplyStep(std::span<const double> step) override;

  size_t ParameterCount() const override;
  std::vector<double> GetParameters() const override;
  Status SetParameters(std::span<const double> params) override;
  std::unique_ptr<Model> Clone() const override;

  /// Access to the optimizer, e.g. to read the learning rate.
  const Optimizer& optimizer() const { return *optimizer_; }

 private:
  Status ValidateBatch(const Matrix& x, const std::vector<int>* y) const;
  /// Forward pass producing logits.
  Matrix ForwardLogits(const Matrix& x);
  /// Zeroes the gradient buffers, runs forward and backward on a validated
  /// batch, and returns the mean loss; gradients are left in the layers.
  double Backprop(const Matrix& x, const std::vector<int>& y);
  std::vector<Matrix*> AllParams() const;
  std::vector<Matrix*> AllGrads() const;

  std::string name_;
  size_t input_dim_;
  size_t num_classes_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace freeway

#endif  // FREEWAYML_ML_SEQUENTIAL_H_
