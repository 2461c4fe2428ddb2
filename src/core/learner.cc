#include "core/learner.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {

const char* StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kMultiGranularity:
      return "multi-granularity";
    case Strategy::kCec:
      return "cec";
    case Strategy::kKnowledgeReuse:
      return "knowledge-reuse";
  }
  return "?";
}

namespace {

/// Expands the template-level knobs (ModelNum, KdgBuffer, alpha, ...) into
/// the per-component option structs.
LearnerOptions Materialize(LearnerOptions options) {
  options.detector.alpha = options.alpha;
  options.knowledge.capacity = options.kdg_buffer;

  FREEWAY_DCHECK(options.model_num >= 2);
  options.granularity.long_window_batches.clear();
  size_t window = options.base_window_batches;
  for (size_t i = 1; i < options.model_num; ++i) {
    options.granularity.long_window_batches.push_back(window);
    window *= 2;  // Each additional model covers a longer horizon.
  }
  return options;
}

}  // namespace

Learner::Learner(const Model& prototype, const LearnerOptions& options)
    : options_(Materialize(options)),
      detector_(options_.detector),
      cec_(options_.cec),
      exp_buffer_(options_.exp_buffer_capacity, options_.exp_buffer_age),
      knowledge_(options_.knowledge),
      scratch_model_(prototype.Clone()),
      num_classes_(prototype.num_classes()) {
  ensemble_ = std::make_unique<MultiGranularityEnsemble>(
      prototype, options_.granularity, &detector_.pca());
}

std::vector<double> Learner::Represent(const std::vector<double>& mean) const {
  if (detector_.pca().fitted() && detector_.pca().input_dim() == mean.size()) {
    auto projected = detector_.pca().Transform(mean);
    if (projected.ok()) return std::move(projected).value();
  }
  return mean;
}

void Learner::SetWindowDecayBoost(double boost) {
  for (size_t i = 0; i < ensemble_->num_long_models(); ++i) {
    ensemble_->mutable_window(i)->SetDecayBoost(boost);
  }
}

void Learner::AttachMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = StageMetrics();
    exp_buffer_.set_trim_errors_counter(nullptr);
    return;
  }
  metrics_.detect_seconds = registry->GetHistogram(
      "freeway_learner_stage_seconds{stage=\"detect\"}");
  metrics_.infer_seconds =
      registry->GetHistogram("freeway_learner_stage_seconds{stage=\"infer\"}");
  metrics_.train_seconds =
      registry->GetHistogram("freeway_learner_stage_seconds{stage=\"train\"}");
  exp_buffer_.set_trim_errors_counter(
      registry->GetCounter("freeway_expbuffer_trim_errors_total"));
}

Result<ShiftAssessment> Learner::AssessTimed(const Matrix& features) {
  if (metrics_.detect_seconds == nullptr) return detector_.Assess(features);
  Stopwatch watch;
  Result<ShiftAssessment> out = detector_.Assess(features);
  metrics_.detect_seconds->Observe(watch.ElapsedSeconds());
  return out;
}

Result<InferenceReport> Learner::RunStrategiesTimed(
    const Matrix& features, ShiftAssessment assessment) {
  if (metrics_.infer_seconds == nullptr) {
    return RunStrategies(features, std::move(assessment));
  }
  Stopwatch watch;
  Result<InferenceReport> out =
      RunStrategies(features, std::move(assessment));
  metrics_.infer_seconds->Observe(watch.ElapsedSeconds());
  return out;
}

Status Learner::TrainInternalTimed(const Batch& batch,
                                   const std::vector<double>& representation) {
  if (metrics_.train_seconds == nullptr) {
    return TrainInternal(batch, representation);
  }
  Stopwatch watch;
  Status out = TrainInternal(batch, representation);
  metrics_.train_seconds->Observe(watch.ElapsedSeconds());
  return out;
}

Result<InferenceReport> Learner::RunStrategies(const Matrix& features,
                                               ShiftAssessment assessment) {
  FREEWAY_FAILPOINT("learner.infer");
  InferenceReport report;
  report.assessment = std::move(assessment);
  const ShiftAssessment& shift = report.assessment;

  // Pattern accounting.
  if (!shift.warmup) {
    switch (shift.pattern) {
      case ShiftPattern::kSlight:
        ++stats_.slight_patterns;
        break;
      case ShiftPattern::kSudden:
        ++stats_.sudden_patterns;
        break;
      case ShiftPattern::kReoccurring:
        ++stats_.reoccurring_patterns;
        break;
    }
  }

  // Strategy selector (Section V-A): exactly one strategy per batch.
  Strategy strategy = Strategy::kMultiGranularity;
  if (!shift.warmup && shift.pattern == ShiftPattern::kReoccurring) {
    strategy = Strategy::kKnowledgeReuse;
  } else if (!shift.warmup && shift.pattern == ShiftPattern::kSudden) {
    strategy = Strategy::kCec;
  }

  // Pattern C: reuse a historical model when one is closer to the current
  // distribution than the last batch is (Section IV-D knowledge match).
  if (strategy == Strategy::kKnowledgeReuse) {
    bool reused = false;
    if (!shift.representation.empty()) {
      auto match = knowledge_.NearestMatch(shift.representation);
      // Quality gate: a snapshot materially below the stream's recent
      // accuracy level would deploy an under-trained model.
      const bool quality_ok =
          !match.ok() ||
          knowledge_.entry(match->entry_index).quality < 0.0 ||
          accuracy_ema_ < 0.0 ||
          knowledge_.entry(match->entry_index).quality >=
              0.85 * accuracy_ema_;
      if (match.ok() && quality_ok &&
          match->distance <
              options_.knowledge_match_factor * shift.distance) {
        const KnowledgeEntry& entry = knowledge_.entry(match->entry_index);
        Status set = scratch_model_->SetParameters(entry.parameters);
        if (set.ok()) {
          ASSIGN_OR_RETURN(report.proba,
                                   scratch_model_->PredictProba(features));
          report.knowledge_distance = match->distance;
          reused = true;
          // Confident match: the historical distribution essentially *is*
          // the current one. Warm-start the short model from it so the
          // reoccurring concept is served by remembered parameters instead
          // of being relearned from scratch.
          const bool warm_quality_ok =
              entry.quality < 0.0 || accuracy_ema_ < 0.0 ||
              entry.quality >= 0.93 * accuracy_ema_;
          if (options_.warm_start_on_reuse && warm_quality_ok &&
              shift.mu_d > 0.0 && match->distance < shift.mu_d) {
            ensemble_->short_model()
                ->SetParameters(entry.parameters)
                .CheckOk();
          }
        }
      }
    }
    // No usable knowledge: the shift is still severe, so fall back to CEC.
    strategy = reused ? Strategy::kKnowledgeReuse : Strategy::kCec;
  }

  if (strategy == Strategy::kCec) {
    bool clustered = false;
    if (!exp_buffer_.empty()) {
      auto experience = exp_buffer_.Snapshot();
      if (experience.ok()) {
        auto cec = cec_.Predict(features, *experience, num_classes_);
        if (cec.ok() && cec->experience_purity >= options_.cec_min_purity &&
            cec->query_coverage >= options_.cec_min_coverage) {
          report.proba = std::move(cec->proba);
          clustered = true;
        }
      }
    }
    // Cold start (no experience) or clusters misaligned with classes:
    // the ensemble answers instead.
    if (!clustered) strategy = Strategy::kMultiGranularity;
  }

  if (strategy == Strategy::kMultiGranularity) {
    ASSIGN_OR_RETURN(report.proba, ensemble_->PredictProba(features));
  }

  report.strategy = strategy;
  switch (strategy) {
    case Strategy::kMultiGranularity:
      ++stats_.ensemble_inferences;
      break;
    case Strategy::kCec:
      ++stats_.cec_inferences;
      break;
    case Strategy::kKnowledgeReuse:
      ++stats_.knowledge_inferences;
      break;
  }

  FillPredictions(&report);
  if (!shift.warmup) last_mu_d_ = shift.mu_d;
  ++stats_.batches_inferred;
  return report;
}

void Learner::FillPredictions(InferenceReport* report) {
  report->predictions.resize(report->proba.rows());
  for (size_t i = 0; i < report->proba.rows(); ++i) {
    auto row = report->proba.Row(i);
    size_t best = 0;
    for (size_t j = 1; j < row.size(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    report->predictions[i] = static_cast<int>(best);
  }
}

Status Learner::TrainInternal(const Batch& batch,
                              const std::vector<double>& representation) {
  FREEWAY_FAILPOINT("learner.train");
  ASSIGN_OR_RETURN(MultiGranularityEnsemble::TrainReport train_report,
                           ensemble_->Train(batch));
  RETURN_IF_ERROR(exp_buffer_.Add(batch));
  ++stats_.batches_trained;
  stats_.long_model_updates += train_report.rollovers.size();

  // Disorder-gated knowledge preservation (Section IV-D): at each ASW
  // rollover preserve the freshly-updated long model keyed by the window's
  // distribution; when the window was ordered (directional, disorder below
  // beta) the short model carries complementary information about the
  // post-shift distribution, so preserve it too.
  const double dedup_radius = options_.knowledge_dedup_factor * last_mu_d_;
  for (const auto& rollover : train_report.rollovers) {
    if (rollover.short_accuracy >= 0.0) {
      accuracy_ema_ = accuracy_ema_ < 0.0
                          ? rollover.short_accuracy
                          : 0.7 * accuracy_ema_ + 0.3 * rollover.short_accuracy;
    }
    KnowledgeEntry long_entry;
    long_entry.representation = Represent(rollover.window_centroid);
    long_entry.parameters =
        ensemble_->LongModelParameters(rollover.model_index);
    long_entry.source = KnowledgeSource::kLongModel;
    long_entry.batch_index = batch.index;
    long_entry.quality = rollover.long_accuracy;
    RETURN_IF_ERROR(
        knowledge_.PreserveOrRefresh(std::move(long_entry), dedup_radius));
    ++stats_.knowledge_preserved;

    if (rollover.disorder < options_.disorder_threshold) {
      KnowledgeEntry short_entry;
      short_entry.representation = representation.empty()
                                       ? Represent(batch.Mean())
                                       : representation;
      short_entry.parameters = ensemble_->short_model()->GetParameters();
      short_entry.source = KnowledgeSource::kShortModel;
      short_entry.batch_index = batch.index;
      short_entry.quality = rollover.short_accuracy;
      RETURN_IF_ERROR(
          knowledge_.PreserveOrRefresh(std::move(short_entry), dedup_radius));
      ++stats_.knowledge_preserved;
    }
  }
  return Status::OK();
}

Result<InferenceReport> Learner::InferThenTrain(const Batch& batch) {
  if (!batch.labeled()) {
    return Status::InvalidArgument("InferThenTrain requires a labeled batch");
  }
  ASSIGN_OR_RETURN(ShiftAssessment assessment,
                           AssessTimed(batch.features));
  ASSIGN_OR_RETURN(
      InferenceReport report,
      RunStrategiesTimed(batch.features, std::move(assessment)));
  RETURN_IF_ERROR(
      TrainInternalTimed(batch, report.assessment.representation));
  return report;
}

Result<InferenceReport> Learner::Infer(const Matrix& features) {
  ASSIGN_OR_RETURN(ShiftAssessment assessment, AssessTimed(features));
  return RunStrategiesTimed(features, std::move(assessment));
}

Status Learner::Train(const Batch& batch) {
  if (!batch.labeled()) {
    return Status::InvalidArgument("Train requires a labeled batch");
  }
  ASSIGN_OR_RETURN(ShiftAssessment assessment,
                           AssessTimed(batch.features));
  if (!assessment.warmup) last_mu_d_ = assessment.mu_d;
  return TrainInternalTimed(batch, assessment.representation);
}


namespace {
constexpr uint32_t kLearnerTag = 0x4c524e52;  // 'LRNR'
}  // namespace

Status Learner::SaveState(SnapshotWriter* writer) {
  writer->WriteSection(kLearnerTag);
  detector_.SaveState(writer);
  RETURN_IF_ERROR(ensemble_->SaveState(writer));
  exp_buffer_.SaveState(writer);
  knowledge_.SaveState(writer);
  writer->WriteU64(stats_.batches_inferred);
  writer->WriteU64(stats_.batches_trained);
  writer->WriteU64(stats_.ensemble_inferences);
  writer->WriteU64(stats_.cec_inferences);
  writer->WriteU64(stats_.knowledge_inferences);
  writer->WriteU64(stats_.slight_patterns);
  writer->WriteU64(stats_.sudden_patterns);
  writer->WriteU64(stats_.reoccurring_patterns);
  writer->WriteU64(stats_.knowledge_preserved);
  writer->WriteU64(stats_.long_model_updates);
  writer->WriteDouble(last_mu_d_);
  writer->WriteDouble(accuracy_ema_);
  return Status::OK();
}

Status Learner::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kLearnerTag));
  RETURN_IF_ERROR(detector_.LoadState(reader));
  RETURN_IF_ERROR(ensemble_->LoadState(reader));
  RETURN_IF_ERROR(exp_buffer_.LoadState(reader));
  RETURN_IF_ERROR(knowledge_.LoadState(reader));
  uint64_t counters[10] = {};
  for (auto& c : counters) RETURN_IF_ERROR(reader->ReadU64(&c));
  stats_.batches_inferred = counters[0];
  stats_.batches_trained = counters[1];
  stats_.ensemble_inferences = counters[2];
  stats_.cec_inferences = counters[3];
  stats_.knowledge_inferences = counters[4];
  stats_.slight_patterns = counters[5];
  stats_.sudden_patterns = counters[6];
  stats_.reoccurring_patterns = counters[7];
  stats_.knowledge_preserved = counters[8];
  stats_.long_model_updates = counters[9];
  RETURN_IF_ERROR(reader->ReadDouble(&last_mu_d_));
  RETURN_IF_ERROR(reader->ReadDouble(&accuracy_ema_));
  return Status::OK();
}

Status Learner::Snapshot(std::vector<char>* out) {
  SnapshotWriter writer;
  RETURN_IF_ERROR(SaveState(&writer));
  *out = writer.Take();
  return Status::OK();
}

Status Learner::Restore(const std::vector<char>& snapshot) {
  SnapshotReader reader(snapshot);
  RETURN_IF_ERROR(LoadState(&reader));
  return reader.ExpectEnd();
}

}  // namespace freeway
