#include "core/shift_detector.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "stream/batch_codec.h"

namespace freeway {

const char* ShiftPatternName(ShiftPattern pattern) {
  switch (pattern) {
    case ShiftPattern::kSlight:
      return "slight";
    case ShiftPattern::kSudden:
      return "sudden";
    case ShiftPattern::kReoccurring:
      return "reoccurring";
  }
  return "?";
}

ShiftDetector::ShiftDetector(const ShiftDetectorOptions& options)
    : options_(options) {
  FREEWAY_DCHECK(options_.pca_components >= 1);
  FREEWAY_DCHECK(options_.warmup_batches >= 1);
  FREEWAY_DCHECK(options_.history_k >= 2);
}

void ShiftDetector::SeverityStats(double* mu_d, double* sigma_d) const {
  // Weighted mean with geometric recency weights (Eq. 8); the unweighted
  // spread around it (Eq. 9).
  double weight_sum = 0.0;
  double weighted = 0.0;
  double w = 1.0;
  for (auto it = distances_.rbegin(); it != distances_.rend(); ++it) {
    weighted += w * (*it);
    weight_sum += w;
    w *= options_.recency_decay;
  }
  *mu_d = weight_sum > 0.0 ? weighted / weight_sum : 0.0;

  double var = 0.0;
  for (double d : distances_) {
    const double delta = d - *mu_d;
    var += delta * delta;
  }
  *sigma_d = distances_.empty()
                 ? 0.0
                 : std::sqrt(var / static_cast<double>(distances_.size()));
}

Result<ShiftAssessment> ShiftDetector::Assess(const Matrix& features) {
  if (features.rows() == 0) {
    return Status::InvalidArgument("ShiftDetector::Assess: empty batch");
  }
  if (!features.AllFinite()) {
    return Status::InvalidArgument(
        "ShiftDetector::Assess: batch contains NaN or infinite values");
  }

  ShiftAssessment out;

  if (!pca_.fitted()) {
    // Accumulate warm-up rows; fit once enough batches arrived (Eqs. 2-5).
    for (size_t i = 0; i < features.rows(); ++i) {
      warmup_rows_.push_back(features.RowVector(i));
    }
    ++warmup_batches_seen_;
    if (warmup_batches_seen_ < options_.warmup_batches) {
      out.warmup = true;
      return out;
    }
    const size_t dim = features.cols();
    const size_t components =
        options_.pca_components < dim ? options_.pca_components : dim;
    Matrix sample(warmup_rows_.size(), dim);
    for (size_t i = 0; i < warmup_rows_.size(); ++i) {
      sample.SetRow(i, warmup_rows_[i]);
    }
    RETURN_IF_ERROR(pca_.Fit(sample, components));
    warmup_rows_.clear();
    warmup_rows_.shrink_to_fit();
    out.warmup = true;
    // The final warm-up batch seeds the history so the first live batch has
    // a predecessor for d_t.
    ASSIGN_OR_RETURN(std::vector<double> seed_rep,
                             pca_.TransformBatchMean(features));
    history_.push_back(seed_rep);
    previous_representation_ = std::move(seed_rep);
    return out;
  }

  ASSIGN_OR_RETURN(out.representation,
                           pca_.TransformBatchMean(features));

  // d_t (Eq. 7).
  FREEWAY_DCHECK(previous_representation_.has_value());
  out.distance =
      vec::EuclideanDistance(out.representation, *previous_representation_);

  // Severity (Eqs. 8-10). Until enough history exists, every shift is
  // treated as slight.
  if (distances_.size() >= 2) {
    SeverityStats(&out.mu_d, &out.sigma_d);
    if (out.sigma_d > 1e-12) {
      out.m_score = (out.distance - out.mu_d) / out.sigma_d;
    } else {
      // Degenerate history (all past shifts identical): any appreciably
      // larger shift is severe.
      out.m_score = out.distance > out.mu_d * 1.5 + 1e-12
                        ? options_.alpha + 1.0
                        : 0.0;
    }
  }

  // d_h: nearest non-adjacent historical representation.
  out.d_h = std::numeric_limits<double>::infinity();
  if (history_.size() > options_.exclude_recent) {
    const size_t usable = history_.size() - options_.exclude_recent;
    for (size_t i = 0; i < usable; ++i) {
      const double d = vec::EuclideanDistance(out.representation, history_[i]);
      if (d < out.d_h) out.d_h = d;
    }
  }

  if (out.m_score > options_.alpha) {
    out.pattern = out.d_h < options_.reoccur_margin * out.distance
                      ? ShiftPattern::kReoccurring
                      : ShiftPattern::kSudden;
  } else {
    out.pattern = ShiftPattern::kSlight;
  }

  // Commit this batch to history.
  distances_.push_back(out.distance);
  while (distances_.size() > options_.history_k) distances_.pop_front();
  history_.push_back(out.representation);
  while (history_.size() > options_.max_history) history_.pop_front();
  previous_representation_ = out.representation;

  return out;
}


namespace {
constexpr uint32_t kShiftDetectorTag = 0x53484654;  // 'SHFT'
}  // namespace

void ShiftDetector::SaveState(SnapshotWriter* writer) const {
  writer->WriteSection(kShiftDetectorTag);
  writer->WriteBool(pca_.fitted());
  writer->WriteDoubleVec(pca_.mean());
  writer->WriteMatrix(pca_.components());
  writer->WriteDouble(pca_.ExplainedVarianceRatio());
  writer->WriteU64(warmup_rows_.size());
  for (const auto& row : warmup_rows_) writer->WriteDoubleVec(row);
  writer->WriteU64(warmup_batches_seen_);
  writer->WriteU64(history_.size());
  for (const auto& rep : history_) writer->WriteDoubleVec(rep);
  writer->WriteDoubleVec(
      std::vector<double>(distances_.begin(), distances_.end()));
  writer->WriteBool(previous_representation_.has_value());
  if (previous_representation_.has_value()) {
    writer->WriteDoubleVec(*previous_representation_);
  }
}

Status ShiftDetector::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kShiftDetectorTag));
  bool fitted = false;
  std::vector<double> mean;
  Matrix components;
  double explained = 0.0;
  RETURN_IF_ERROR(reader->ReadBool(&fitted));
  RETURN_IF_ERROR(reader->ReadDoubleVec(&mean));
  RETURN_IF_ERROR(reader->ReadMatrix(&components));
  RETURN_IF_ERROR(reader->ReadDouble(&explained));
  RETURN_IF_ERROR(
      pca_.SetState(std::move(mean), std::move(components), explained,
                    fitted));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&count));
  warmup_rows_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<double> row;
    RETURN_IF_ERROR(reader->ReadDoubleVec(&row));
    warmup_rows_.push_back(std::move(row));
  }
  uint64_t seen = 0;
  RETURN_IF_ERROR(reader->ReadU64(&seen));
  warmup_batches_seen_ = seen;
  RETURN_IF_ERROR(reader->ReadU64(&count));
  history_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    std::vector<double> rep;
    RETURN_IF_ERROR(reader->ReadDoubleVec(&rep));
    history_.push_back(std::move(rep));
  }
  std::vector<double> distances;
  RETURN_IF_ERROR(reader->ReadDoubleVec(&distances));
  distances_.assign(distances.begin(), distances.end());
  bool has_previous = false;
  RETURN_IF_ERROR(reader->ReadBool(&has_previous));
  if (has_previous) {
    std::vector<double> rep;
    RETURN_IF_ERROR(reader->ReadDoubleVec(&rep));
    previous_representation_ = std::move(rep);
  } else {
    previous_representation_.reset();
  }
  return Status::OK();
}

}  // namespace freeway
