#ifndef FREEWAYML_ML_LAYERS_H_
#define FREEWAYML_ML_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"

namespace freeway {

/// A differentiable layer in a sequential network. Activations are dense
/// matrices with one row per sample; spatial tensors (for conv layers) are
/// stored row-major flattened as channel-major (c, h, w) within each row.
///
/// Backward() consumes the gradient w.r.t. this layer's output, accumulates
/// gradients into the layer's parameter-gradient buffers, and returns the
/// gradient w.r.t. its input — or an empty matrix when the caller says it
/// has no use for one (the first layer of a model).
class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// Runs the layer and caches whatever Backward() needs.
  virtual Matrix Forward(const Matrix& input) = 0;

  /// Backprop; must be called after Forward on the same batch. With
  /// `need_input_grad` false the input gradient is not computed and an
  /// empty matrix is returned; parameter gradients accumulate either way.
  virtual Matrix Backward(const Matrix& grad_output, bool need_input_grad) = 0;

  /// Trainable parameter matrices (empty for activations/pools).
  virtual std::vector<Matrix*> Params() { return {}; }
  /// Matching gradient buffers, same shapes as Params().
  virtual std::vector<Matrix*> Grads() { return {}; }

  void ZeroGrads() {
    for (Matrix* g : Grads()) g->Fill(0.0);
  }

  virtual std::unique_ptr<Layer> Clone() const = 0;
};

/// Fully connected layer: output = input * W + b.
/// W is (in_dim x out_dim); b is (1 x out_dim).
class DenseLayer : public Layer {
 public:
  /// He/Xavier-style initialization scaled by fan-in, drawn from `rng`.
  DenseLayer(size_t in_dim, size_t out_dim, Rng* rng);

  std::string name() const override { return "Dense"; }
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output, bool need_input_grad) override;
  std::vector<Matrix*> Params() override { return {&weight_, &bias_}; }
  std::vector<Matrix*> Grads() override { return {&grad_weight_, &grad_bias_}; }
  std::unique_ptr<Layer> Clone() const override;

  size_t in_dim() const { return weight_.rows(); }
  size_t out_dim() const { return weight_.cols(); }

 private:
  Matrix weight_, bias_;
  Matrix grad_weight_, grad_bias_;
  Matrix cached_input_;
};

/// Elementwise rectified linear unit.
class ReluLayer : public Layer {
 public:
  std::string name() const override { return "ReLU"; }
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output, bool need_input_grad) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<ReluLayer>(*this);
  }

 private:
  Matrix cached_input_;
};

/// Spatial shape of a conv/pool activation: rows of the activation matrix
/// are flattened (channels x height x width) tensors.
struct TensorShape {
  size_t channels = 0;
  size_t height = 0;
  size_t width = 0;
  size_t FlatSize() const { return channels * height * width; }
};

/// 2-D convolution, stride 1, no padding. Tabular streams are treated as
/// 1 x 1 x dim images with 1 x k kernels, matching the paper's appendix CNN
/// on value-based datasets.
///
/// Forward/backward run as im2col + matmul: each sample's receptive fields
/// are unpacked into rows of a patch matrix so the convolution becomes one
/// dense product on the parallel matmul kernels. The patch matrix is cached
/// per batch shape; batches whose patch matrix would exceed a fixed memory
/// budget are processed in sample blocks (block boundaries depend only on
/// shapes, keeping results deterministic at any thread count).
class Conv2dLayer : public Layer {
 public:
  Conv2dLayer(TensorShape input_shape, size_t out_channels, size_t kernel_h,
              size_t kernel_w, Rng* rng);

  std::string name() const override { return "Conv2d"; }
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output, bool need_input_grad) override;
  std::vector<Matrix*> Params() override { return {&kernels_, &bias_}; }
  std::vector<Matrix*> Grads() override {
    return {&grad_kernels_, &grad_bias_};
  }
  std::unique_ptr<Layer> Clone() const override;

  TensorShape output_shape() const { return output_shape_; }

 private:
  /// Samples per im2col block: the whole batch when its patch matrix fits
  /// the budget, else the largest block that does.
  size_t SampleBlock(size_t batch_rows) const;
  /// Unpacks samples [s0, s1) of `input` into `cols` (one row of kernel-
  /// sized patches per output position); parallel over samples.
  void FillCols(const Matrix& input, size_t s0, size_t s1, Matrix* cols) const;

  TensorShape input_shape_;
  TensorShape output_shape_;
  size_t kernel_h_, kernel_w_;
  // kernels_: (out_channels x in_channels*kh*kw); bias_: (1 x out_channels).
  Matrix kernels_, bias_;
  Matrix grad_kernels_, grad_bias_;
  Matrix cached_input_;
  /// im2col scratch, reused while the batch shape is stable; after Forward
  /// on a single-block batch it still holds that batch's patches, which
  /// Backward reuses without rebuilding.
  Matrix col_buffer_;
};

/// Max pooling with square-or-rectangular window; stride equals the window.
class MaxPool2dLayer : public Layer {
 public:
  MaxPool2dLayer(TensorShape input_shape, size_t pool_h, size_t pool_w);

  std::string name() const override { return "MaxPool2d"; }
  Matrix Forward(const Matrix& input) override;
  Matrix Backward(const Matrix& grad_output, bool need_input_grad) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<MaxPool2dLayer>(*this);
  }

  TensorShape output_shape() const { return output_shape_; }

 private:
  TensorShape input_shape_;
  TensorShape output_shape_;
  size_t pool_h_, pool_w_;
  // For each output cell of each sample, index of the winning input element.
  std::vector<uint32_t> argmax_;
  size_t cached_rows_ = 0;
};

}  // namespace freeway

#endif  // FREEWAYML_ML_LAYERS_H_
