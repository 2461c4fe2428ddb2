#include "core/granularity.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/serialize.h"
#include "stream/batch_codec.h"

namespace freeway {

MultiGranularityEnsemble::MultiGranularityEnsemble(
    const Model& prototype, const MultiGranularityOptions& options,
    const Pca* projector)
    : options_(options), projector_(projector) {
  FREEWAY_DCHECK(!options_.long_window_batches.empty());
  short_model_ = prototype.Clone();
  for (size_t max_batches : options_.long_window_batches) {
    AdaptiveWindowOptions wopts = options_.window;
    wopts.max_batches = max_batches;
    long_.emplace_back(prototype.Clone(), wopts);
  }
}

std::vector<double> MultiGranularityEnsemble::Represent(
    const std::vector<double>& mean) const {
  if (projector_ != nullptr && projector_->fitted() &&
      projector_->input_dim() == mean.size()) {
    auto projected = projector_->Transform(mean);
    if (projected.ok()) return std::move(projected).value();
  }
  return mean;
}

double MultiGranularityEnsemble::KernelSigma() const {
  if (options_.kernel_sigma > 0.0) return options_.kernel_sigma;
  // Adaptive bandwidth: the running scale of observed distances, sharpened
  // by kernel_sigma_factor. The floor avoids a degenerate kernel before any
  // distances have been seen.
  if (!distance_ema_init_) return 1.0;
  return std::max(distance_ema_ * options_.kernel_sigma_factor, 1e-6);
}

MultiGranularityEnsemble::~MultiGranularityEnsemble() {
  for (LongSlot& slot : long_) {
    if (slot.worker.joinable()) slot.worker.join();
  }
}

void MultiGranularityEnsemble::JoinWorker(LongSlot* slot) {
  if (slot->worker.joinable()) slot->worker.join();
}

std::vector<double> MultiGranularityEnsemble::LongModelParameters(size_t i) {
  std::lock_guard<std::mutex> lock(long_[i].mutex);
  return long_[i].model->GetParameters();
}

void MultiGranularityEnsemble::WaitForAsyncUpdates() {
  for (LongSlot& slot : long_) JoinWorker(&slot);
}

void MultiGranularityEnsemble::ObserveQuality(LongSlot* slot,
                                              const Batch& batch,
                                              double* short_out,
                                              double* long_out) {
  *short_out = -1.0;
  *long_out = -1.0;
  auto short_acc = Accuracy(short_model_.get(), batch.features, batch.labels);
  if (!short_acc.ok()) return;
  double long_acc_value = 0.0;
  {
    std::lock_guard<std::mutex> lock(slot->mutex);
    auto long_acc = Accuracy(slot->model.get(), batch.features, batch.labels);
    if (!long_acc.ok()) return;
    long_acc_value = long_acc.value();
  }
  *short_out = short_acc.value();
  *long_out = long_acc_value;
  const double delta = long_acc_value - short_acc.value();
  if (!slot->quality_init) {
    slot->quality_ema = delta;
    slot->quality_init = true;
  } else {
    slot->quality_ema = 0.7 * slot->quality_ema + 0.3 * delta;
  }
}

double MultiGranularityEnsemble::QualityFactor(const LongSlot& slot) {
  if (!slot.quality_init) return 1.0;
  // Logistic in the accuracy gap: ~1 when the long model keeps up, decaying
  // quickly once it persistently trails the short model.
  const double f = 2.0 / (1.0 + std::exp(-20.0 * slot.quality_ema));
  return f > 1.0 ? 1.0 : (f < 0.02 ? 0.02 : f);
}

Result<double> MultiGranularityEnsemble::ReplayWindow(
    Model* model, const Batch& window_data) const {
  double loss = 0.0;
  size_t steps = 0;
  for (size_t epoch = 0; epoch < options_.long_epochs; ++epoch) {
    for (size_t begin = 0; begin < window_data.size();
         begin += options_.update_chunk) {
      const size_t end =
          std::min(begin + options_.update_chunk, window_data.size());
      ASSIGN_OR_RETURN(Batch chunk,
                               SliceBatch(window_data, begin, end));
      ASSIGN_OR_RETURN(double chunk_loss,
                               model->TrainBatch(chunk.features,
                                                 chunk.labels));
      loss += chunk_loss;
      ++steps;
    }
  }
  return steps > 0 ? loss / static_cast<double>(steps) : 0.0;
}

Result<MultiGranularityEnsemble::TrainReport> MultiGranularityEnsemble::Train(
    const Batch& batch) {
  if (!batch.labeled()) {
    return Status::InvalidArgument("MultiGranularityEnsemble::Train needs "
                                   "labeled batches");
  }
  TrainReport report;

  // Short granularity: update on every batch (fixed frequency).
  ASSIGN_OR_RETURN(report.short_loss,
                           short_model_->TrainBatch(batch.features,
                                                    batch.labels));

  // Long granularities: feed the ASWs; update on rollover.
  for (size_t i = 0; i < long_.size(); ++i) {
    LongSlot& slot = long_[i];

    // Pre-computing window (Section V-B): fold this batch's gradient into
    // the accumulator as it arrives, so rollover needs only one apply.
    if (options_.use_precompute) {
      if (slot.precompute == nullptr) {
        slot.precompute =
            std::make_unique<PrecomputingWindow>(slot.model.get());
      }
      ASSIGN_OR_RETURN(double subset_loss,
                               slot.precompute->AccumulateSubset(batch));
      (void)subset_loss;
    }

    ASSIGN_OR_RETURN(bool full, slot.window.Add(batch));
    if (!full) continue;
    const double disorder = slot.window.disorder();
    std::vector<double> centroid = slot.window.Centroid();
    ASSIGN_OR_RETURN(Batch window_data,
                             slot.window.TakeTrainingData());

    TrainReport::Rollover rollover;
    rollover.model_index = i;
    rollover.disorder = disorder;
    rollover.window_centroid = std::move(centroid);

    if (options_.use_precompute) {
      // One aggregated step from the pre-accumulated gradients.
      RETURN_IF_ERROR(slot.precompute->ApplyUpdate(
          options_.precompute_learning_rate));
      rollover.long_loss = 0.0;
    } else if (options_.async_long_updates) {
      // Train a clone off-thread; swap it in under the lock when done.
      JoinWorker(&slot);  // At most one pending update per slot.
      rollover.long_loss = slot.last_async_loss;
      std::unique_ptr<Model> trainee;
      {
        std::lock_guard<std::mutex> lock(slot.mutex);
        trainee = slot.model->Clone();
      }
      Model* trainee_raw = trainee.release();
      LongSlot* slot_ptr = &slot;
      const MultiGranularityEnsemble* self = this;
      slot.worker = std::thread([self, slot_ptr, trainee_raw,
                                 data = std::move(window_data)]() {
        std::unique_ptr<Model> owned(trainee_raw);
        Result<double> loss = self->ReplayWindow(owned.get(), data);
        std::lock_guard<std::mutex> lock(slot_ptr->mutex);
        if (loss.ok()) {
          slot_ptr->model = std::move(owned);
          slot_ptr->last_async_loss = loss.value();
        }
      });
    } else {
      ASSIGN_OR_RETURN(rollover.long_loss,
                               ReplayWindow(slot.model.get(), window_data));
    }

    ObserveQuality(&slot, batch, &rollover.short_accuracy,
                   &rollover.long_accuracy);
    report.rollovers.push_back(std::move(rollover));
    ++slot.updates;
  }

  last_train_representation_ = Represent(batch.Mean());
  return report;
}

Result<Matrix> MultiGranularityEnsemble::PredictProba(const Matrix& x) {
  if (x.rows() == 0) {
    return Status::InvalidArgument("PredictProba: empty batch");
  }

  const std::vector<double> rep = Represent(x.ColumnMean());

  last_distances_.clear();
  // D_short (Eq. 12): distance to the previous training batch.
  double d_short = 0.0;
  if (last_train_representation_.has_value() &&
      last_train_representation_->size() == rep.size()) {
    d_short = vec::EuclideanDistance(rep, *last_train_representation_);
  }
  last_distances_.push_back(d_short);

  // D_long per long model (Eq. 13): distance to its ASW centroid.
  for (const LongSlot& slot : long_) {
    std::vector<double> centroid = slot.window.Centroid();
    double d_long = 0.0;
    if (!centroid.empty()) {
      const std::vector<double> centroid_rep = Represent(centroid);
      if (centroid_rep.size() == rep.size()) {
        d_long = vec::EuclideanDistance(rep, centroid_rep);
      }
    }
    last_distances_.push_back(d_long);
  }

  // Update the adaptive bandwidth from the distances just observed.
  double mean_d = 0.0;
  for (double d : last_distances_) mean_d += d;
  mean_d /= static_cast<double>(last_distances_.size());
  if (!distance_ema_init_) {
    distance_ema_ = mean_d > 0.0 ? mean_d : 1.0;
    distance_ema_init_ = true;
  } else {
    distance_ema_ = 0.9 * distance_ema_ + 0.1 * mean_d;
  }

  // Gaussian-kernel weights (Eq. 14). Long models that have never rolled
  // over are still random initialization and get zero weight.
  const double sigma = KernelSigma();
  last_weights_.clear();
  double weight_sum = 0.0;
  for (size_t m = 0; m < last_distances_.size(); ++m) {
    double w = GaussianKernel(last_distances_[m], sigma);
    if (m > 0) {
      if (long_[m - 1].updates == 0) {
        w = 0.0;
      } else {
        w *= QualityFactor(long_[m - 1]);
      }
    }
    last_weights_.push_back(w);
    weight_sum += w;
  }
  if (weight_sum <= 1e-12) {
    // Degenerate weights: fall back to the short model alone.
    for (auto& w : last_weights_) w = 0.0;
    last_weights_[0] = 1.0;
    weight_sum = 1.0;
  }
  for (auto& w : last_weights_) w /= weight_sum;

  // Members contributing < 5% would barely move the blend; zeroing them
  // skips their forward pass entirely (the single-process stand-in for the
  // paper's parallel member inference).
  double kept_sum = 0.0;
  for (auto& w : last_weights_) {
    if (w < 0.05) w = 0.0;
    kept_sum += w;
  }
  for (auto& w : last_weights_) w /= kept_sum;

  // Member forward passes touch disjoint models and only read `x`, so they
  // run in parallel (the paper's parallel member inference). Blending stays
  // serial in member order, so the result is identical at any thread count.
  std::vector<size_t> active;
  active.push_back(0);
  for (size_t i = 0; i < long_.size(); ++i) {
    if (last_weights_[i + 1] != 0.0) active.push_back(i + 1);
  }
  std::vector<Matrix> member_proba(long_.size() + 1);
  std::vector<Status> member_status(long_.size() + 1);
  ParallelFor(0, active.size(), 1, [&](size_t a0, size_t a1) {
    for (size_t a = a0; a < a1; ++a) {
      const size_t m = active[a];
      Result<Matrix> proba = Status::Internal("unreached");
      if (m == 0) {
        proba = short_model_->PredictProba(x);
      } else {
        // The lock pins the member across its forward pass so an async
        // update cannot swap the model out mid-inference (the paper's
        // update atomicity); uncontended in synchronous mode.
        std::lock_guard<std::mutex> lock(long_[m - 1].mutex);
        proba = long_[m - 1].model->PredictProba(x);
      }
      if (proba.ok()) {
        member_proba[m] = std::move(proba).value();
      } else {
        member_status[m] = proba.status();
      }
    }
  });
  for (size_t m : active) RETURN_IF_ERROR(member_status[m]);

  Matrix blended = std::move(member_proba[0]);
  blended.ScaleInPlace(last_weights_[0]);
  for (size_t i = 0; i < long_.size(); ++i) {
    if (last_weights_[i + 1] == 0.0) continue;
    blended.Axpy(last_weights_[i + 1], member_proba[i + 1]);
  }
  return blended;
}


namespace {
constexpr uint32_t kEnsembleTag = 0x454e534d;  // 'ENSM'
}  // namespace

Status MultiGranularityEnsemble::SaveState(SnapshotWriter* writer) {
  // Settle in-flight async updates first so the saved long models are the
  // post-rollover parameters, not a mid-swap clone.
  WaitForAsyncUpdates();
  writer->WriteSection(kEnsembleTag);
  std::vector<char> blob;
  SerializeModel(*short_model_, &blob);
  writer->WriteBlob(blob);
  writer->WriteU64(long_.size());
  for (LongSlot& slot : long_) {
    SerializeModel(*slot.model, &blob);
    writer->WriteBlob(blob);
    slot.window.SaveState(writer);
    writer->WriteBool(slot.precompute != nullptr);
    if (slot.precompute != nullptr) slot.precompute->SaveState(writer);
    writer->WriteU64(slot.updates);
    writer->WriteDouble(slot.last_async_loss);
    writer->WriteDouble(slot.quality_ema);
    writer->WriteBool(slot.quality_init);
  }
  writer->WriteBool(last_train_representation_.has_value());
  if (last_train_representation_.has_value()) {
    writer->WriteDoubleVec(*last_train_representation_);
  }
  writer->WriteDouble(distance_ema_);
  writer->WriteBool(distance_ema_init_);
  return Status::OK();
}

Status MultiGranularityEnsemble::LoadState(SnapshotReader* reader) {
  WaitForAsyncUpdates();
  RETURN_IF_ERROR(reader->ExpectSection(kEnsembleTag));
  std::vector<char> blob;
  RETURN_IF_ERROR(reader->ReadBlob(&blob));
  ASSIGN_OR_RETURN(ModelSnapshot short_snap, DeserializeModel(blob));
  if (short_snap.parameters.size() != short_model_->ParameterCount()) {
    return Status::InvalidArgument(
        "ensemble snapshot: short-model parameter count does not match "
        "this architecture");
  }
  RETURN_IF_ERROR(short_model_->SetParameters(short_snap.parameters));
  uint64_t long_count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&long_count));
  if (long_count != long_.size()) {
    return Status::InvalidArgument(
        "ensemble snapshot: long-model count " + std::to_string(long_count) +
        " does not match the configured " + std::to_string(long_.size()));
  }
  for (LongSlot& slot : long_) {
    RETURN_IF_ERROR(reader->ReadBlob(&blob));
    ASSIGN_OR_RETURN(ModelSnapshot snap, DeserializeModel(blob));
    if (snap.parameters.size() != slot.model->ParameterCount()) {
      return Status::InvalidArgument(
          "ensemble snapshot: long-model parameter count does not match "
          "this architecture");
    }
    RETURN_IF_ERROR(slot.model->SetParameters(snap.parameters));
    RETURN_IF_ERROR(slot.window.LoadState(reader));
    bool has_precompute = false;
    RETURN_IF_ERROR(reader->ReadBool(&has_precompute));
    if (has_precompute) {
      if (slot.precompute == nullptr) {
        slot.precompute =
            std::make_unique<PrecomputingWindow>(slot.model.get());
      }
      RETURN_IF_ERROR(slot.precompute->LoadState(reader));
    } else {
      slot.precompute.reset();
    }
    uint64_t updates = 0;
    RETURN_IF_ERROR(reader->ReadU64(&updates));
    slot.updates = updates;
    RETURN_IF_ERROR(reader->ReadDouble(&slot.last_async_loss));
    RETURN_IF_ERROR(reader->ReadDouble(&slot.quality_ema));
    RETURN_IF_ERROR(reader->ReadBool(&slot.quality_init));
  }
  bool has_last_rep = false;
  RETURN_IF_ERROR(reader->ReadBool(&has_last_rep));
  if (has_last_rep) {
    std::vector<double> rep;
    RETURN_IF_ERROR(reader->ReadDoubleVec(&rep));
    last_train_representation_ = std::move(rep);
  } else {
    last_train_representation_.reset();
  }
  RETURN_IF_ERROR(reader->ReadDouble(&distance_ema_));
  RETURN_IF_ERROR(reader->ReadBool(&distance_ema_init_));
  last_distances_.clear();
  last_weights_.clear();
  return Status::OK();
}

}  // namespace freeway
