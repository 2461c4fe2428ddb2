#include "perfbench/replay.h"

#include <filesystem>
#include <unordered_map>

#include "common/thread_pool.h"
#include "core/pipeline.h"
#include "ingest/dedup.h"
#include "ingest/ingest_log.h"
#include "ml/models.h"
#include "net/wire.h"
#include "perfbench/loadgen.h"
#include "runtime/stream_runtime.h"

namespace perfbench {

namespace {

double Micros(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1000.0;
}

freeway::Batch CopyFor(const freeway::Batch& base, bool labeled) {
  return labeled ? base : freeway::UnlabeledCopy(base);
}

}  // namespace

ReplaySpans ReplayInProcess(const freeway::GeneratedScenario& tape,
                            const Deployment& deployment,
                            const std::string& scratch_dir,
                            double budget_seconds) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(scratch_dir, ec);
  fs::create_directories(scratch_dir, ec);
  ReplaySpans spans;
  freeway::ThreadPool::SetGlobalThreads(deployment.pool_threads);
  const size_t dim = tape.batches.front().features.cols();
  auto prototype = freeway::MakeMlp(dim, tape.spec.classes);
  const int64_t budget_ns = static_cast<int64_t>(budget_seconds * 1e9);

  {
    freeway::DedupIndex dedup;
    freeway::IngestLogOptions log_options;
    log_options.directory = scratch_dir + "/log";
    freeway::IngestLog log(log_options);
    log.Open(&dedup).CheckOk();
    freeway::RuntimeOptions options;
    options.num_shards = deployment.shards;
    options.queue_capacity = deployment.queue_capacity;
    if (deployment.checkpoint_interval > 0) {
      options.fault.enabled = true;
      options.fault.checkpoint_dir = scratch_dir + "/ckpt";
      options.fault.checkpoint_interval_batches = deployment.checkpoint_interval;
    }
    options.pipeline.enable_rate_adjuster = deployment.rate_adjuster;
    freeway::StreamRuntime runtime(*prototype, options,
                                   [](const freeway::StreamResult&) {});
    std::unordered_map<uint64_t, uint64_t> sequence_of;
    const int64_t deadline = NowNanos() + budget_ns;
    for (const freeway::ScenarioEvent& ev : tape.events) {
      if (NowNanos() > deadline) break;
      const freeway::Batch& base = tape.batches[ev.base_index];
      freeway::SubmitMessage message;
      message.stream_id = ev.stream_id;
      message.client_id = ev.stream_id + 1;
      message.sequence = ++sequence_of[message.client_id];
      message.tenant_id = ev.tenant_id;
      message.priority = static_cast<uint8_t>(ev.priority);
      message.batch = CopyFor(base, ev.training);

      const int64_t t0 = NowNanos();
      const std::vector<char> bytes = freeway::EncodeSubmit(message);
      const int64_t t1 = NowNanos();
      freeway::FrameDecoder decoder;
      decoder.Feed(bytes.data(), bytes.size());
      auto frame = decoder.Next();
      frame.status().CheckOk();
      auto decoded = freeway::DecodeSubmit(*frame);
      decoded.status().CheckOk();
      const int64_t t2 = NowNanos();
      if (!dedup.IsDuplicate(decoded->client_id, decoded->sequence)) {
        dedup.Advance(decoded->client_id, decoded->sequence);
      }
      const int64_t t3 = NowNanos();
      freeway::IngestRecord record;
      record.client_id = decoded->client_id;
      record.sequence = decoded->sequence;
      record.stream_id = decoded->stream_id;
      record.tenant_id = decoded->tenant_id;
      record.priority = decoded->priority;
      record.batch = std::move(decoded->batch);
      log.Append(record).status().CheckOk();
      decoded->batch = std::move(record.batch);
      int64_t t4 = NowNanos();
      spans.append_us.push_back(Micros(t3, t4));
      freeway::SubmitContext context;
      context.tenant_id = decoded->tenant_id;
      context.priority = static_cast<freeway::TenantPriority>(decoded->priority);
      t4 = NowNanos();
      freeway::Status admitted =
          runtime.TrySubmit(ev.stream_id, std::move(decoded->batch), context);
      while (admitted.code() == freeway::StatusCode::kUnavailable) {
        // A full shard queue: the server would answer OVERLOAD. Wait for
        // the drains and time only the admitting call.
        ++spans.rejected;
        runtime.Flush();
        t4 = NowNanos();
        admitted = runtime.TrySubmit(ev.stream_id, CopyFor(base, ev.training),
                                     context);
      }
      admitted.CheckOk();
      const int64_t t5 = NowNanos();
      spans.encode_us.push_back(Micros(t0, t1));
      spans.decode_us.push_back(Micros(t1, t2));
      spans.dedup_us.push_back(Micros(t2, t3));
      spans.trysubmit_us.push_back(Micros(t4, t5));
      ++spans.replayed;
    }
    runtime.Shutdown();
  }

  freeway::PipelineOptions pipeline_options;
  pipeline_options.enable_rate_adjuster = deployment.rate_adjuster;
  freeway::StreamPipeline pipeline(*prototype, pipeline_options);
  const int64_t deadline = NowNanos() + budget_ns;
  for (const freeway::ScenarioEvent& ev : tape.events) {
    if (NowNanos() > deadline) break;
    const freeway::Batch batch = CopyFor(tape.batches[ev.base_index],
                                         ev.training);
    const int64_t t0 = NowNanos();
    pipeline.Push(batch).status().CheckOk();
    const int64_t t1 = NowNanos();
    (ev.training ? spans.train_us : spans.infer_us).push_back(Micros(t0, t1));
    spans.serial_rows += static_cast<double>(batch.size());
    spans.serial_seconds += static_cast<double>(t1 - t0) / 1e9;
  }
  fs::remove_all(scratch_dir, ec);
  return spans;
}

}  // namespace perfbench
