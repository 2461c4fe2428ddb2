#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// The deployment half of each workload; the traffic half is the
/// `workloads/<name>.scn` spec. Why each exists is recorded in
/// BENCHMARK.json and perfbench/README.md.
Deployment DeploymentOf(const std::string& name) {
  Deployment d;
  if (name == "drift_mix") {
    // Learner-bound: 2 reactors, 2 shards drained by 2 pool workers.
    d.reactor_workers = 2;
    d.shards = 2;
    d.pool_threads = 3;
    d.checkpoint_interval = 64;
    // At serving rates the rate-aware adjuster's decay boost keeps the
    // adaptive windows from rolling over: a 2-shard replay of this tape
    // preserved no knowledge entry with it on and ~100 with it off. With
    // no knowledge, knowledge reuse (Pattern C) never answers; off, every
    // paper mechanism answers some batches of each drift cycle.
    d.rate_adjuster = false;
    d.all_mechanisms = true;
  } else if (name == "tiny_ingest") {
    // Request-bound: one reactor does decode + dedup + append + reply for
    // every stream. The log is not fsynced: on a shared virtual disk,
    // fsync-bound throughput flipped between ~57k and ~220k rows/s from
    // one 1.25 s window to the next.
    d.reactor_workers = 1;
    d.shards = 4;
    d.pool_threads = 3;
    // Room for what the closed loop queues: one batch in flight per stream,
    // plus the labeled batches it already saw ACKed and that still wait to
    // be trained. At 512 a quarter of its SUBMITs were OVERLOADed and it
    // measured OVERLOAD handling instead of throughput.
    d.queue_capacity = 1024;
  } else if (name == "ha_quorum") {
    // Three processes, each a reactor + raft ticker + applier + 1 drain.
    d.nodes = 3;
    d.reactor_workers = 1;
    d.shards = 1;
    d.pool_threads = 2;
  }
  return d;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"drift_mix", "tiny_ingest",
                                                 "ha_quorum"};
  return names;
}

freeway::Result<Workload> LoadWorkload(const std::string& name,
                                       const std::string& spec_dir,
                                       uint64_t seed, double open_seconds,
                                       size_t windows) {
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), name) == names.end()) {
    return freeway::Status::InvalidArgument("unknown workload " + name);
  }
  ASSIGN_OR_RETURN(freeway::ScenarioSpec spec,
                   freeway::LoadScenarioSpecFile(spec_dir + "/" + name + ".scn"));
  spec.seed = seed;
  // The drift schedule is one cycle. It repeats a whole number of times
  // per window, so every window replays the same drift shapes and a longer
  // run sees more drift events, not slower ones.
  const std::vector<freeway::ScenarioDriftSegment> cycle = spec.drift;
  size_t cycle_batches = 0;
  for (const auto& segment : cycle) cycle_batches += segment.num_batches;
  if (cycle_batches == 0 || windows == 0) {
    return freeway::Status::InvalidArgument(name + ": empty drift cycle");
  }
  const size_t wanted = static_cast<size_t>(
      std::llround(spec.arrival.rate * open_seconds));
  const size_t cycles_per_window = static_cast<size_t>(std::llround(
      static_cast<double>(wanted) /
      static_cast<double>(windows * cycle_batches)));
  // A run too short for a cycle per window keeps its length instead.
  spec.num_batches = cycles_per_window > 0
                         ? windows * cycles_per_window * cycle_batches
                         : std::max<size_t>(wanted, spec.warmup_batches + 16);
  spec.drift.clear();
  for (size_t scheduled = 0; scheduled < spec.num_batches;
       scheduled += cycle_batches) {
    spec.drift.insert(spec.drift.end(), cycle.begin(), cycle.end());
  }
  Workload workload;
  workload.name = name;
  workload.cycles = spec.num_batches / cycle_batches;
  workload.spec = std::move(spec);
  workload.deployment = DeploymentOf(name);
  return workload;
}

}  // namespace perfbench
