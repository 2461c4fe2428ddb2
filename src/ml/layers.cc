#include "ml/layers.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace freeway {

// ---------------------------------------------------------------------------
// DenseLayer
// ---------------------------------------------------------------------------

DenseLayer::DenseLayer(size_t in_dim, size_t out_dim, Rng* rng)
    : weight_(in_dim, out_dim),
      bias_(1, out_dim),
      grad_weight_(in_dim, out_dim),
      grad_bias_(1, out_dim) {
  const double scale = std::sqrt(2.0 / static_cast<double>(in_dim));
  for (size_t i = 0; i < in_dim; ++i) {
    for (size_t j = 0; j < out_dim; ++j) {
      weight_.At(i, j) = rng->Gaussian(0.0, scale);
    }
  }
}

Matrix DenseLayer::Forward(const Matrix& input) {
  FREEWAY_DCHECK(input.cols() == weight_.rows());
  cached_input_ = input;
  Matrix out = input.MatMul(weight_);
  for (size_t i = 0; i < out.rows(); ++i) {
    auto row = out.Row(i);
    for (size_t j = 0; j < out.cols(); ++j) row[j] += bias_.At(0, j);
  }
  return out;
}

Matrix DenseLayer::Backward(const Matrix& grad_output, bool need_input_grad) {
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T.
  Matrix gw = cached_input_.TransposeMatMul(grad_output);
  grad_weight_.AddInPlace(gw);
  for (size_t i = 0; i < grad_output.rows(); ++i) {
    auto row = grad_output.Row(i);
    for (size_t j = 0; j < grad_output.cols(); ++j) {
      grad_bias_.At(0, j) += row[j];
    }
  }
  if (!need_input_grad) return Matrix();
  return grad_output.MatMulTranspose(weight_);
}

std::unique_ptr<Layer> DenseLayer::Clone() const {
  return std::make_unique<DenseLayer>(*this);
}

// ---------------------------------------------------------------------------
// ReluLayer
// ---------------------------------------------------------------------------

// Both passes are branch-free selects over the flat data: pre-activation
// signs are random, so a branch per element mispredicts about half the
// time (and compilers emit one for `c ? 0.0 : v`). Forward: v < 0 becomes
// +0.0, while -0.0 and NaN pass through; backward zeroes the gradient
// wherever the input was <= 0.

namespace {

/// `v` where `keep`, else +0.0, as a bit mask rather than a branch.
double KeepOrZero(double v, bool keep) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) &
                               (uint64_t{0} - static_cast<uint64_t>(keep)));
}

}  // namespace

Matrix ReluLayer::Forward(const Matrix& input) {
  cached_input_ = input;
  Matrix out = input;
  double* v = out.data();
  for (size_t i = 0; i < out.size(); ++i) {
    v[i] = KeepOrZero(v[i], !(v[i] < 0.0));
  }
  return out;
}

Matrix ReluLayer::Backward(const Matrix& grad_output, bool need_input_grad) {
  FREEWAY_DCHECK(grad_output.SameShape(cached_input_));
  if (!need_input_grad) return Matrix();
  Matrix out = grad_output;
  double* g = out.data();
  const double* x = cached_input_.data();
  for (size_t i = 0; i < out.size(); ++i) {
    g[i] = KeepOrZero(g[i], !(x[i] <= 0.0));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Conv2dLayer
// ---------------------------------------------------------------------------

Conv2dLayer::Conv2dLayer(TensorShape input_shape, size_t out_channels,
                         size_t kernel_h, size_t kernel_w, Rng* rng)
    : input_shape_(input_shape), kernel_h_(kernel_h), kernel_w_(kernel_w) {
  FREEWAY_DCHECK(input_shape.height >= kernel_h);
  FREEWAY_DCHECK(input_shape.width >= kernel_w);
  output_shape_.channels = out_channels;
  output_shape_.height = input_shape.height - kernel_h + 1;
  output_shape_.width = input_shape.width - kernel_w + 1;

  const size_t fan_in = input_shape.channels * kernel_h * kernel_w;
  kernels_ = Matrix(out_channels, fan_in);
  bias_ = Matrix(1, out_channels);
  grad_kernels_ = Matrix(out_channels, fan_in);
  grad_bias_ = Matrix(1, out_channels);
  const double scale = std::sqrt(2.0 / static_cast<double>(fan_in));
  for (size_t i = 0; i < out_channels; ++i) {
    for (size_t j = 0; j < fan_in; ++j) {
      kernels_.At(i, j) = rng->Gaussian(0.0, scale);
    }
  }
}

namespace {

/// acc (m x n) += a^T b for row-major a (rows x m) and b (rows x n), as a
/// sharded reduction over the (huge) row dimension: each shard accumulates
/// a private m x n partial, partials merge in ascending shard order. The
/// shard layout depends only on the shapes, so the sum is bit-identical at
/// any thread count. This is conv backward's kernel-gradient reduction,
/// where m = out_channels and n = fan_in are far too small for
/// TransposeMatMul's row-block parallelism to split.
void AccumulateOuterProducts(const Matrix& a, const Matrix& b, Matrix* acc) {
  const size_t rows = a.rows();
  const size_t m = a.cols();
  const size_t n = b.cols();
  const size_t min_shard = (size_t{1} << 17) / std::max<size_t>(1, m * n);
  const size_t shard_rows = std::max<size_t>({size_t{1}, min_shard, rows / 64});
  const size_t num_shards = (rows + shard_rows - 1) / shard_rows;
  if (num_shards <= 1) {
    acc->AddInPlace(a.TransposeMatMul(b));
    return;
  }
  Matrix partial(num_shards * m, n);
  ParallelFor(0, rows, shard_rows, [&](size_t r0, size_t r1) {
    double* base = partial.data() + (r0 / shard_rows) * m * n;
    for (size_t r = r0; r < r1; ++r) {
      const double* a_row = a.data() + r * m;
      const double* b_row = b.data() + r * n;
      for (size_t i = 0; i < m; ++i) {
        const double v = a_row[i];
        if (v == 0.0) continue;
        double* out_row = base + i * n;
        for (size_t j = 0; j < n; ++j) out_row[j] += v * b_row[j];
      }
    }
  });
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const double* base = partial.data() + shard * m * n;
    for (size_t i = 0; i < m; ++i) {
      const double* src = base + i * n;
      double* dst = acc->data() + i * n;
      for (size_t j = 0; j < n; ++j) dst[j] += src[j];
    }
  }
}

}  // namespace

size_t Conv2dLayer::SampleBlock(size_t batch_rows) const {
  // 64 MiB im2col budget: the whole batch for every tabular CNN and small
  // image batches, blocks for the rest.
  constexpr size_t kIm2colBudgetBytes = 64 * 1024 * 1024;
  const size_t patch = output_shape_.height * output_shape_.width;
  const size_t per_sample = patch * kernels_.cols() * sizeof(double);
  size_t block = kIm2colBudgetBytes / std::max<size_t>(1, per_sample);
  if (block < 1) block = 1;
  return block < batch_rows ? block : batch_rows;
}

void Conv2dLayer::FillCols(const Matrix& input, size_t s0, size_t s1,
                           Matrix* cols) const {
  const size_t ic = input_shape_.channels;
  const size_t ih = input_shape_.height;
  const size_t iw = input_shape_.width;
  const size_t oh = output_shape_.height;
  const size_t ow = output_shape_.width;
  const size_t fan_in = kernels_.cols();
  const size_t patch = oh * ow;
  ParallelFor(s0, s1, GrainForCost(patch * fan_in),
              [&](size_t b0, size_t b1) {
    for (size_t s = b0; s < b1; ++s) {
      const double* x = input.data() + s * input.cols();
      double* dst = cols->data() + (s - s0) * patch * fan_in;
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          size_t idx = 0;
          for (size_t c = 0; c < ic; ++c) {
            const double* plane = x + c * ih * iw;
            for (size_t ky = 0; ky < kernel_h_; ++ky) {
              const double* in_row = plane + (oy + ky) * iw + ox;
              for (size_t kx = 0; kx < kernel_w_; ++kx) dst[idx++] = in_row[kx];
            }
          }
          dst += fan_in;
        }
      }
    }
  });
}

Matrix Conv2dLayer::Forward(const Matrix& input) {
  FREEWAY_DCHECK(input.cols() == input_shape_.FlatSize())
      << "Conv2dLayer::Forward: expected " << input_shape_.FlatSize()
      << " input columns, got " << input.cols();
  cached_input_ = input;
  const size_t n = input.rows();
  const size_t oc = output_shape_.channels;
  const size_t patch = output_shape_.height * output_shape_.width;
  const size_t fan_in = kernels_.cols();

  Matrix out(n, output_shape_.FlatSize());
  const size_t block = SampleBlock(n);
  for (size_t s0 = 0; s0 < n; s0 += block) {
    const size_t s1 = std::min(s0 + block, n);
    const size_t rows = (s1 - s0) * patch;
    if (col_buffer_.rows() != rows || col_buffer_.cols() != fan_in) {
      col_buffer_ = Matrix(rows, fan_in);
    }
    FillCols(input, s0, s1, &col_buffer_);
    // The whole block's convolution as one (rows x fan_in) * (fan_in x oc)
    // product on the parallel matmul kernel. The transposed kernel copy is
    // tiny and puts the kernel in axpy-friendly layout.
    Matrix prod = col_buffer_.MatMul(kernels_.Transposed());
    // Transpose each sample's (patch x oc) slab into the channel-major
    // activation layout, adding the bias.
    ParallelFor(s0, s1, GrainForCost(patch * oc), [&](size_t b0, size_t b1) {
      for (size_t s = b0; s < b1; ++s) {
        const double* p = prod.data() + (s - s0) * patch * oc;
        double* y = out.data() + s * out.cols();
        for (size_t k = 0; k < oc; ++k) {
          const double b = bias_.At(0, k);
          double* y_plane = y + k * patch;
          for (size_t q = 0; q < patch; ++q) y_plane[q] = p[q * oc + k] + b;
        }
      }
    });
  }
  return out;
}

Matrix Conv2dLayer::Backward(const Matrix& grad_output, bool need_input_grad) {
  const size_t n = cached_input_.rows();
  FREEWAY_DCHECK(grad_output.rows() == n)
      << "Conv2dLayer::Backward: got " << grad_output.rows()
      << " gradient rows for " << n << " cached inputs";
  const size_t ic = input_shape_.channels;
  const size_t ih = input_shape_.height;
  const size_t iw = input_shape_.width;
  const size_t oc = output_shape_.channels;
  const size_t oh = output_shape_.height;
  const size_t ow = output_shape_.width;
  const size_t patch = oh * ow;
  const size_t fan_in = kernels_.cols();

  Matrix grad_input =
      need_input_grad ? Matrix(n, input_shape_.FlatSize()) : Matrix();
  const size_t block = SampleBlock(n);
  // Forward on a single-block batch leaves col_buffer_ holding exactly this
  // batch's patches; multi-block batches rebuild per block.
  const bool cols_cached = block >= n;
  for (size_t s0 = 0; s0 < n; s0 += block) {
    const size_t s1 = std::min(s0 + block, n);
    const size_t rows = (s1 - s0) * patch;
    if (!cols_cached) {
      if (col_buffer_.rows() != rows || col_buffer_.cols() != fan_in) {
        col_buffer_ = Matrix(rows, fan_in);
      }
      FillCols(cached_input_, s0, s1, &col_buffer_);
    }
    // Gather dY into matmul layout: one row per output position.
    Matrix dprod(rows, oc);
    ParallelFor(s0, s1, GrainForCost(patch * oc), [&](size_t b0, size_t b1) {
      for (size_t s = b0; s < b1; ++s) {
        const double* gy = grad_output.data() + s * grad_output.cols();
        double* d = dprod.data() + (s - s0) * patch * oc;
        for (size_t k = 0; k < oc; ++k) {
          const double* g_plane = gy + k * patch;
          for (size_t q = 0; q < patch; ++q) d[q * oc + k] = g_plane[q];
        }
      }
    });
    // Parameter gradients: dK += dY^T cols ; db += column sums of dY.
    AccumulateOuterProducts(dprod, col_buffer_, &grad_kernels_);
    for (size_t r = 0; r < rows; ++r) {
      const double* d = dprod.data() + r * oc;
      for (size_t k = 0; k < oc; ++k) grad_bias_.At(0, k) += d[k];
    }
    if (!need_input_grad) continue;
    // dX: scatter dY * K back through each receptive field (col2im).
    Matrix dcols = dprod.MatMul(kernels_);
    ParallelFor(s0, s1, GrainForCost(patch * fan_in),
                [&](size_t b0, size_t b1) {
      for (size_t s = b0; s < b1; ++s) {
        const double* src = dcols.data() + (s - s0) * patch * fan_in;
        double* gx = grad_input.data() + s * grad_input.cols();
        for (size_t oy = 0; oy < oh; ++oy) {
          for (size_t ox = 0; ox < ow; ++ox) {
            size_t idx = 0;
            for (size_t c = 0; c < ic; ++c) {
              double* gplane = gx + c * ih * iw;
              for (size_t ky = 0; ky < kernel_h_; ++ky) {
                double* gin_row = gplane + (oy + ky) * iw + ox;
                for (size_t kx = 0; kx < kernel_w_; ++kx) {
                  gin_row[kx] += src[idx++];
                }
              }
            }
            src += fan_in;
          }
        }
      }
    });
  }
  return grad_input;
}

std::unique_ptr<Layer> Conv2dLayer::Clone() const {
  return std::make_unique<Conv2dLayer>(*this);
}

// ---------------------------------------------------------------------------
// MaxPool2dLayer
// ---------------------------------------------------------------------------

MaxPool2dLayer::MaxPool2dLayer(TensorShape input_shape, size_t pool_h,
                               size_t pool_w)
    : input_shape_(input_shape), pool_h_(pool_h), pool_w_(pool_w) {
  FREEWAY_DCHECK(pool_h >= 1 && pool_w >= 1);
  output_shape_.channels = input_shape.channels;
  output_shape_.height = input_shape.height / pool_h;
  output_shape_.width = input_shape.width / pool_w;
  FREEWAY_DCHECK(output_shape_.height >= 1 && output_shape_.width >= 1);
}

Matrix MaxPool2dLayer::Forward(const Matrix& input) {
  FREEWAY_DCHECK(input.cols() == input_shape_.FlatSize());
  const size_t n = input.rows();
  const size_t c = input_shape_.channels;
  const size_t ih = input_shape_.height;
  const size_t iw = input_shape_.width;
  const size_t oh = output_shape_.height;
  const size_t ow = output_shape_.width;

  cached_rows_ = n;
  argmax_.assign(n * output_shape_.FlatSize(), 0);
  Matrix out(n, output_shape_.FlatSize());
  for (size_t s = 0; s < n; ++s) {
    const double* x = input.data() + s * input.cols();
    double* y = out.data() + s * out.cols();
    uint32_t* am = argmax_.data() + s * out.cols();
    for (size_t ch = 0; ch < c; ++ch) {
      const double* plane = x + ch * ih * iw;
      for (size_t oy = 0; oy < oh; ++oy) {
        for (size_t ox = 0; ox < ow; ++ox) {
          double best = -std::numeric_limits<double>::infinity();
          size_t best_idx = 0;
          for (size_t py = 0; py < pool_h_; ++py) {
            for (size_t px = 0; px < pool_w_; ++px) {
              const size_t idx = (oy * pool_h_ + py) * iw + ox * pool_w_ + px;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = ch * ih * iw + idx;
              }
            }
          }
          const size_t oidx = ch * oh * ow + oy * ow + ox;
          y[oidx] = best;
          am[oidx] = static_cast<uint32_t>(best_idx);
        }
      }
    }
  }
  return out;
}

Matrix MaxPool2dLayer::Backward(const Matrix& grad_output,
                                bool need_input_grad) {
  FREEWAY_DCHECK(grad_output.rows() == cached_rows_);
  if (!need_input_grad) return Matrix();
  Matrix grad_input(cached_rows_, input_shape_.FlatSize());
  for (size_t s = 0; s < cached_rows_; ++s) {
    const double* gy = grad_output.data() + s * grad_output.cols();
    const uint32_t* am = argmax_.data() + s * grad_output.cols();
    double* gx = grad_input.data() + s * grad_input.cols();
    for (size_t j = 0; j < grad_output.cols(); ++j) {
      gx[am[j]] += gy[j];
    }
  }
  return grad_input;
}

}  // namespace freeway
