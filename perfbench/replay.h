#ifndef FREEWAYML_PERFBENCH_REPLAY_H_
#define FREEWAYML_PERFBENCH_REPLAY_H_

#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "scenarios/scenario.h"

namespace perfbench {

/// Per-call spans (microseconds) of the in-process replay: the tape pushed
/// through the public calls a server makes for a SUBMIT, in server order,
/// on the calling thread — then a serial StreamPipeline::Push pass.
struct ReplaySpans {
  std::vector<double> encode_us;     ///< EncodeSubmit (client side)
  std::vector<double> decode_us;     ///< FrameDecoder + DecodeSubmit
  std::vector<double> dedup_us;      ///< DedupIndex check + advance
  std::vector<double> append_us;     ///< IngestLog::Append
  std::vector<double> trysubmit_us;  ///< StreamRuntime::TrySubmit
  size_t replayed = 0;
  size_t rejected = 0;  ///< TrySubmit Unavailable (retried until admitted).

  /// Serial pass: one StreamPipeline on one thread, tape order.
  std::vector<double> infer_us;
  std::vector<double> train_us;
  double serial_rows = 0.0;
  double serial_seconds = 0.0;
};

/// Replays `tape` in-process for about `budget_seconds` in each of the two
/// passes. Log files go under `scratch_dir`, which is removed afterwards.
ReplaySpans ReplayInProcess(const freeway::GeneratedScenario& tape,
                            const Deployment& deployment,
                            const std::string& scratch_dir,
                            double budget_seconds);

}  // namespace perfbench

#endif  // FREEWAYML_PERFBENCH_REPLAY_H_
