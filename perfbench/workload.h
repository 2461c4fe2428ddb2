#ifndef FREEWAYML_PERFBENCH_WORKLOAD_H_
#define FREEWAYML_PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "scenarios/spec.h"

namespace perfbench {

/// How the system under test is deployed for one workload. Thread settings
/// are pinned so that server threads plus the one generator thread stay
/// close to the core count. Every node runs the ingest log, without fsync.
struct Deployment {
  /// 1 = a single StreamServer; 3 = a raft group on loopback.
  size_t nodes = 1;
  size_t reactor_workers = 1;
  size_t shards = 1;
  /// FREEWAY_NUM_THREADS of each server process (the pool that runs shard
  /// drains; n threads = n - 1 workers plus the submitting thread).
  size_t pool_threads = 2;
  size_t queue_capacity = 64;
  /// Fault tolerance with checkpoint-anchored log truncation; 0 = off.
  size_t checkpoint_interval = 0;
  /// PipelineOptions::enable_rate_adjuster of every shard pipeline.
  bool rate_adjuster = true;
  /// CEC and knowledge reuse must each answer some RESULT of a tape that
  /// holds two whole drift cycles or more (check mechanisms_fired).
  bool all_mechanisms = false;
};

struct Workload {
  std::string name;
  /// The spec with the benchmark seed and the run-length scaling applied.
  freeway::ScenarioSpec spec;
  Deployment deployment;
  /// Whole drift cycles in the tape.
  size_t cycles = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Loads `<spec_dir>/<name>.scn` and replaces its seed with `seed`. The
/// spec's drift schedule is one cycle; the tape holds the same whole number
/// of cycles for each of `windows` equal windows, as close to
/// `open_seconds` of arrivals at the spec's rate as that allows.
freeway::Result<Workload> LoadWorkload(const std::string& name,
                                       const std::string& spec_dir,
                                       uint64_t seed, double open_seconds,
                                       size_t windows);

}  // namespace perfbench

#endif  // FREEWAYML_PERFBENCH_WORKLOAD_H_
