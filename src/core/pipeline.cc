#include "core/pipeline.h"

#include "stream/batch_codec.h"

namespace freeway {

StreamPipeline::StreamPipeline(const Model& prototype,
                               const PipelineOptions& options)
    : options_(options),
      learner_(prototype, options.learner),
      adjuster_(options.rate) {}

void StreamPipeline::AttachMetrics(MetricsRegistry* registry) {
  learner_.AttachMetrics(registry);
  if (registry == nullptr) {
    metrics_ = PushMetrics();
    return;
  }
  metrics_.batches_ok =
      registry->GetCounter("freeway_pipeline_batches_total{result=\"ok\"}");
  metrics_.batches_error =
      registry->GetCounter("freeway_pipeline_batches_total{result=\"error\"}");
  metrics_.push_seconds =
      registry->GetHistogram("freeway_pipeline_push_seconds");
}

void StreamPipeline::RecordPush(bool ok, const Stopwatch& watch) {
  if (ok) {
    ++batches_ok_;
    if (metrics_.batches_ok != nullptr) metrics_.batches_ok->Inc();
  } else {
    ++batches_failed_;
    if (metrics_.batches_error != nullptr) metrics_.batches_error->Inc();
  }
  if (metrics_.push_seconds != nullptr) {
    metrics_.push_seconds->Observe(watch.ElapsedSeconds());
  }
}

double StreamPipeline::WindowPressure() const {
  const MultiGranularityEnsemble* ensemble = learner_.ensemble();
  double pressure = 0.0;
  for (size_t i = 0; i < ensemble->num_long_models(); ++i) {
    const AdaptiveStreamingWindow& window = ensemble->window(i);
    const double cap = static_cast<double>(
        learner_.options().granularity.long_window_batches[i]);
    const double fill = cap > 0.0
                            ? static_cast<double>(window.num_batches()) / cap
                            : 0.0;
    if (fill > pressure) pressure = fill;
  }
  return pressure > 1.0 ? 1.0 : pressure;
}

void StreamPipeline::SetExternalRate(double batches_per_sec) {
  external_rate_ = batches_per_sec >= 0.0 ? batches_per_sec : 0.0;
}

void StreamPipeline::Tick() {
  if (!options_.enable_rate_adjuster) return;
  const double elapsed = since_last_batch_.ElapsedSeconds();
  since_last_batch_.Restart();
  double rate;
  if (external_rate_.has_value()) {
    rate = *external_rate_;
    external_rate_.reset();
  } else if (first_tick_) {
    // The stopwatch spans construction → first batch, not an inter-batch
    // gap; observing it would seed the adjuster's EMA with a garbage
    // sample (near-infinite when the first push follows construction
    // immediately) and the first adjustment would over-react. Skip — the
    // EMA seeds with the first *real* inter-batch rate instead.
    first_tick_ = false;
    return;
  } else {
    rate = elapsed > 1e-9 ? 1.0 / elapsed : 1e9;
  }
  first_tick_ = false;
  last_adjustment_ = adjuster_.Observe(rate, WindowPressure());
  learner_.SetWindowDecayBoost(last_adjustment_.decay_boost);
}

Result<std::optional<InferenceReport>> StreamPipeline::Push(
    const Batch& batch) {
  Tick();
  Stopwatch watch;
  if (batch.labeled()) {
    Status trained = learner_.Train(batch);
    RecordPush(trained.ok(), watch);
    RETURN_IF_ERROR(trained);
    return std::optional<InferenceReport>();
  }
  Result<InferenceReport> report = learner_.Infer(batch.features);
  RecordPush(report.ok(), watch);
  RETURN_IF_ERROR(report.status());
  return std::optional<InferenceReport>(std::move(report).value());
}

Result<InferenceReport> StreamPipeline::PushPrequential(const Batch& batch) {
  Tick();
  Stopwatch watch;
  Result<InferenceReport> report = learner_.InferThenTrain(batch);
  RecordPush(report.ok(), watch);
  return report;
}


namespace {
constexpr uint32_t kPipelineTag = 0x50495045;  // 'PIPE'
}  // namespace

Status StreamPipeline::Snapshot(std::vector<char>* out) {
  SnapshotWriter writer;
  writer.WriteSection(kPipelineTag);
  RETURN_IF_ERROR(learner_.SaveState(&writer));
  writer.WriteDouble(adjuster_.smoothed_rate());
  writer.WriteBool(adjuster_.initialized());
  writer.WriteDouble(last_adjustment_.inference_frequency_factor);
  writer.WriteDouble(last_adjustment_.decay_boost);
  writer.WriteBool(last_adjustment_.throttle_updates);
  writer.WriteU64(batches_ok_);
  writer.WriteU64(batches_failed_);
  *out = writer.Take();
  return Status::OK();
}

Status StreamPipeline::Restore(const std::vector<char>& snapshot) {
  SnapshotReader reader(snapshot);
  RETURN_IF_ERROR(reader.ExpectSection(kPipelineTag));
  RETURN_IF_ERROR(learner_.LoadState(&reader));
  double smoothed_rate = 0.0;
  bool initialized = false;
  RETURN_IF_ERROR(reader.ReadDouble(&smoothed_rate));
  RETURN_IF_ERROR(reader.ReadBool(&initialized));
  adjuster_.RestoreState(smoothed_rate, initialized);
  RETURN_IF_ERROR(
      reader.ReadDouble(&last_adjustment_.inference_frequency_factor));
  RETURN_IF_ERROR(reader.ReadDouble(&last_adjustment_.decay_boost));
  RETURN_IF_ERROR(reader.ReadBool(&last_adjustment_.throttle_updates));
  uint64_t ok_count = 0;
  uint64_t failed_count = 0;
  RETURN_IF_ERROR(reader.ReadU64(&ok_count));
  RETURN_IF_ERROR(reader.ReadU64(&failed_count));
  RETURN_IF_ERROR(reader.ExpectEnd());
  batches_ok_ = ok_count;
  batches_failed_ = failed_count;
  // The stopwatch now spans restore → next push, which is not an
  // inter-batch gap; treat the next push like the first.
  first_tick_ = true;
  external_rate_.reset();
  since_last_batch_.Restart();
  learner_.SetWindowDecayBoost(last_adjustment_.decay_boost);
  return Status::OK();
}

}  // namespace freeway
