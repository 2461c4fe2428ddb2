#include "core/precompute.h"

#include "common/logging.h"
#include "stream/batch_codec.h"

namespace freeway {

PrecomputingWindow::PrecomputingWindow(Model* model) : model_(model) {
  FREEWAY_DCHECK(model_ != nullptr);
}

Result<double> PrecomputingWindow::AccumulateSubset(const Batch& subset) {
  if (!subset.labeled()) {
    return Status::InvalidArgument("PrecomputingWindow: unlabeled subset");
  }
  ASSIGN_OR_RETURN(
      double loss,
      model_->ComputeGradient(subset.features, subset.labels, &scratch_));
  if (accumulated_.empty()) {
    accumulated_ = scratch_;
  } else {
    if (accumulated_.size() != scratch_.size()) {
      return Status::Internal("PrecomputingWindow: gradient size changed");
    }
    for (size_t i = 0; i < accumulated_.size(); ++i) {
      accumulated_[i] += scratch_[i];
    }
  }
  ++subsets_;
  return loss;
}

Status PrecomputingWindow::ApplyUpdate(double learning_rate) {
  if (subsets_ == 0) {
    return Status::FailedPrecondition("PrecomputingWindow: nothing pending");
  }
  const double scale = -learning_rate / static_cast<double>(subsets_);
  for (auto& g : accumulated_) g *= scale;
  RETURN_IF_ERROR(model_->ApplyStep(accumulated_));
  Reset();
  return Status::OK();
}

void PrecomputingWindow::Reset() {
  accumulated_.clear();
  subsets_ = 0;
}


namespace {
constexpr uint32_t kPrecomputeTag = 0x50524543;  // 'PREC'
}  // namespace

void PrecomputingWindow::SaveState(SnapshotWriter* writer) const {
  writer->WriteSection(kPrecomputeTag);
  writer->WriteDoubleVec(accumulated_);
  writer->WriteU64(subsets_);
}

Status PrecomputingWindow::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kPrecomputeTag));
  std::vector<double> accumulated;
  uint64_t subsets = 0;
  RETURN_IF_ERROR(reader->ReadDoubleVec(&accumulated));
  RETURN_IF_ERROR(reader->ReadU64(&subsets));
  if (!accumulated.empty() &&
      accumulated.size() != model_->ParameterCount()) {
    return Status::InvalidArgument(
        "PrecomputingWindow: accumulator length does not match the model");
  }
  if (subsets > 0 && accumulated.empty()) {
    return Status::InvalidArgument(
        "PrecomputingWindow: pending subsets with an empty accumulator");
  }
  accumulated_ = std::move(accumulated);
  scratch_.clear();
  subsets_ = subsets;
  return Status::OK();
}

}  // namespace freeway
