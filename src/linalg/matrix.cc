#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/simd.h"

namespace freeway {
namespace {

/// Minimum rows per chunk for wide outputs.
constexpr size_t kWideOutputRows = 64;

/// Output rows per parallel chunk for a matmul-shaped kernel whose per-row
/// cost is `inner_ops` scalar multiply-adds. Two forces: chunks need
/// >= ~128K ops so scheduling cost stays invisible, and wide outputs want
/// >= kWideOutputRows rows per chunk so each column strip of B is reused across
/// the block. Depends only on the shapes involved, so chunk boundaries (and
/// results) are independent of the pool size.
size_t MatMulGrain(size_t inner_ops, size_t out_width, size_t rows) {
  size_t grain =
      std::max<size_t>(1, (size_t{1} << 17) / std::max<size_t>(1, inner_ops));
  if (out_width >= kWideOutputRows) {
    grain = std::max(grain, std::min(kWideOutputRows, rows));
  }
  return grain;
}

}  // namespace

Result<Matrix> Matrix::FromData(size_t rows, size_t cols,
                                std::vector<double> data) {
  if (data.size() != rows * cols) {
    return Status::InvalidArgument(
        "Matrix::FromData: data size " + std::to_string(data.size()) +
        " does not match shape " + std::to_string(rows) + "x" +
        std::to_string(cols));
  }
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_ = std::move(data);
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::RowVector(size_t r) const {
  auto row = Row(r);
  return std::vector<double>(row.begin(), row.end());
}

void Matrix::SetRow(size_t r, std::span<const double> values) {
  FREEWAY_DCHECK(values.size() == cols_);
  auto row = Row(r);
  for (size_t c = 0; c < cols_; ++c) row[c] = values[c];
}

void Matrix::Fill(double value) {
  for (auto& v : data_) v = value;
}

void Matrix::AddInPlace(const Matrix& other) {
  FREEWAY_DCHECK(SameShape(other))
      << "Matrix::AddInPlace: shape mismatch " << ShapeString() << " vs "
      << other.ShapeString();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::SubInPlace(const Matrix& other) {
  FREEWAY_DCHECK(SameShape(other))
      << "Matrix::SubInPlace: shape mismatch " << ShapeString() << " vs "
      << other.ShapeString();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
}

void Matrix::ScaleInPlace(double factor) {
  for (auto& v : data_) v *= factor;
}

void Matrix::Axpy(double factor, const Matrix& other) {
  FREEWAY_DCHECK(SameShape(other))
      << "Matrix::Axpy: shape mismatch " << ShapeString() << " vs "
      << other.ShapeString();
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += factor * other.data_[i];
}

Matrix Matrix::MatMul(const Matrix& other) const {
  FREEWAY_DCHECK(cols_ == other.rows_)
      << "Matrix::MatMul: shape mismatch " << ShapeString() << " * "
      << other.ShapeString();
  Matrix out(rows_, other.cols_);
  const size_t n = other.cols_;
  // Row blocks run in parallel, one kernel call each. Every output element
  // accumulates in ascending k regardless of blocking or thread count, so
  // results are bit-identical to the serial kernel.
  ParallelFor(0, rows_, MatMulGrain(cols_ * n, n, rows_),
              [&](size_t r0, size_t r1) {
    simd::MatMulBlock(data_.data() + r0 * cols_, cols_, 1, r1 - r0, cols_,
                      other.data(), n, out.data() + r0 * n);
  });
  return out;
}

Matrix Matrix::TransposeMatMul(const Matrix& other) const {
  FREEWAY_DCHECK(rows_ == other.rows_)
      << "Matrix::TransposeMatMul: shape mismatch " << ShapeString() << "^T * "
      << other.ShapeString();
  Matrix out(cols_, other.cols_);
  const size_t n = other.cols_;
  // Parallel over blocks of output rows (= columns of A, read in place with
  // strides (1, cols_)); each element accumulates in ascending k.
  ParallelFor(0, cols_, MatMulGrain(rows_ * n, n, cols_),
              [&](size_t i0, size_t i1) {
    simd::MatMulBlock(data_.data() + i0, 1, cols_, i1 - i0, rows_,
                      other.data(), n, out.data() + i0 * n);
  });
  return out;
}

Matrix Matrix::MatMulTranspose(const Matrix& other) const {
  FREEWAY_DCHECK(cols_ == other.cols_)
      << "Matrix::MatMulTranspose: shape mismatch " << ShapeString() << " * "
      << other.ShapeString() << "^T";
  Matrix out(rows_, other.rows_);
  // Independent dot products; row blocks of the output run in parallel.
  ParallelFor(0, rows_, MatMulGrain(other.rows_ * cols_, other.rows_, rows_),
              [&](size_t r0, size_t r1) {
    simd::MatMulTransposeBlock(data_.data() + r0 * cols_, r1 - r0, cols_,
                               other.data(), other.rows_,
                               out.data() + r0 * other.rows_);
  });
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  }
  return out;
}

std::vector<double> Matrix::ColumnMean() const {
  std::vector<double> mean(cols_, 0.0);
  if (rows_ == 0) return mean;
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = data_.data() + i * cols_;
    for (size_t j = 0; j < cols_; ++j) mean[j] += row[j];
  }
  const double inv = 1.0 / static_cast<double>(rows_);
  for (auto& v : mean) v *= inv;
  return mean;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

bool Matrix::AllFinite() const {
  for (double v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double Matrix::Sum() const {
  double acc = 0.0;
  for (double v : data_) acc += v;
  return acc;
}

std::string Matrix::ToString(size_t max_rows) const {
  std::ostringstream os;
  os << "Matrix(" << rows_ << "x" << cols_ << ")";
  const size_t show = rows_ < max_rows ? rows_ : max_rows;
  for (size_t i = 0; i < show; ++i) {
    os << "\n  [";
    for (size_t j = 0; j < cols_; ++j) {
      if (j > 0) os << ", ";
      os << FormatDouble(At(i, j), 4);
    }
    os << "]";
  }
  if (show < rows_) os << "\n  ... (" << rows_ - show << " more rows)";
  return os.str();
}

namespace vec {

double Dot(std::span<const double> a, std::span<const double> b) {
  FREEWAY_DCHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm(std::span<const double> a) { return std::sqrt(Dot(a, a)); }

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  FREEWAY_DCHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double EuclideanDistance(std::span<const double> a,
                         std::span<const double> b) {
  return std::sqrt(SquaredDistance(a, b));
}

void Axpy(double factor, std::span<const double> b, std::span<double> a) {
  FREEWAY_DCHECK(a.size() == b.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] += factor * b[i];
}

std::vector<double> Add(std::span<const double> a, std::span<const double> b) {
  FREEWAY_DCHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

std::vector<double> Sub(std::span<const double> a, std::span<const double> b) {
  FREEWAY_DCHECK(a.size() == b.size());
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

std::vector<double> Scale(std::span<const double> a, double factor) {
  std::vector<double> out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * factor;
  return out;
}

}  // namespace vec

double GaussianKernel(double distance, double sigma) {
  if (sigma <= 0.0) return distance == 0.0 ? 1.0 : 0.0;
  const double z = distance / sigma;
  return std::exp(-0.5 * z * z);
}

}  // namespace freeway
