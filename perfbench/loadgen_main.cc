// perfbench_loadgen: one benchmark run of one workload.
//
//   perfbench_loadgen --workload=drift_mix --seed=1 --seconds=10 --trace=0
//       --server=.bench_build/perfbench/perfbench_server
//       --specs=perfbench/workloads --out=.bench_build/perfbench_out
//
// It generates the workload's event tape from the seed, starts the system
// under test as separate perfbench_server processes (set-up is repeated
// and its median reported), drives it open loop from this one process, and
// prints the metrics. --trace=0 prints the end-to-end metrics; --trace=1
// runs an untraced and a traced pass, scrapes the servers' /metrics and
// /stats, replays the tape in-process through the public layer calls, and
// prints the per-layer metrics with an attribution table. The last stdout
// line is always the JSON result; the exit code is non-zero when any named
// correctness check fails.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/client.h"
#include "net/socket_util.h"
#include "perfbench/cluster.h"
#include "perfbench/loadgen.h"
#include "perfbench/metrics_scrape.h"
#include "perfbench/replay.h"
#include "perfbench/workload.h"
#include "scenarios/harness.h"

using namespace perfbench;  // NOLINT — benchmark program.
using freeway::GeneratedScenario;
using freeway::Status;

namespace {

/// Stream id of the set-up probe: one labeled batch whose ACK ends set-up.
constexpr uint64_t kProbeStream = 0xFFFFull << 32;
/// Phase stream-id offsets (multiples of every shard count).
constexpr uint64_t kPhaseOffset = 1ull << 40;
/// Set-ups per run; setup_s is their median.
constexpr size_t kSetups = 3;
constexpr int kStartAttempts = 3;
/// A generator later than this at p99 makes the run invalid.
constexpr double kMaxLagP99Ms = 25.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string server;
  std::string specs = "perfbench/workloads";
  std::string out = ".bench_build/perfbench_out";
  std::string commit = "unknown";
  double stall_at = 0.0;
  double stall_seconds = 0.0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "server") {
      args->server = value;
    } else if (key == "specs") {
      args->specs = value;
    } else if (key == "out") {
      args->out = value;
    } else if (key == "commit") {
      args->commit = value;
    } else if (key == "stall-at") {
      args->stall_at = std::atof(value.c_str());
    } else if (key == "stall-seconds") {
      args->stall_seconds = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->server.empty() && args->seconds > 0;
}

/// FNV-1a over everything the system under test receives: batch contents
/// and the timed, attributed event tape.
std::string TapeDigest(const GeneratedScenario& tape) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  for (const freeway::Batch& b : tape.batches) {
    mix(b.features.data(), b.features.size() * sizeof(double));
    mix(b.labels.data(), b.labels.size() * sizeof(int));
    mix(&b.index, sizeof(b.index));
  }
  for (const freeway::ScenarioEvent& e : tape.events) {
    const uint64_t fields[4] = {e.arrival_micros, e.base_index,
                                e.training ? 1u : 0u, e.stream_id};
    mix(fields, sizeof(fields));
    mix(&e.tenant_id, sizeof(e.tenant_id));
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

/// Sends the set-up probe (a labeled copy of batch 0 on its own stream) to
/// the nodes in turn until one ACKs it; follows NOT_LEADER hints. Returns
/// the port of the node that ACKed: the leader.
freeway::Result<uint16_t> ProbeLeader(const GeneratedScenario& tape,
                                      const std::vector<uint16_t>& ports) {
  freeway::SubmitMessage probe;
  probe.stream_id = kProbeStream;
  probe.client_id = kProbeStream + 1;
  probe.sequence = 1;
  probe.tenant_id = tape.events.front().tenant_id;
  probe.batch = tape.batches.front();
  const std::vector<char> frame = freeway::EncodeSubmit(probe);
  const int64_t deadline = NowNanos() + 30'000'000'000;
  size_t target = 0;
  while (NowNanos() < deadline) {
    auto fd = freeway::net::ConnectSocket("127.0.0.1", ports[target], 2000);
    if (!fd.ok()) {
      target = (target + 1) % ports.size();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    freeway::FrameDecoder decoder;
    Status sent = freeway::net::SendAll(*fd, frame.data(), frame.size());
    bool retry_elsewhere = !sent.ok();
    while (!retry_elsewhere) {
      if (!freeway::net::WaitReadable(*fd, 5000).ok()) break;
      char buf[4096];
      const ssize_t got = ::recv(*fd, buf, sizeof(buf), 0);
      if (got <= 0) break;
      decoder.Feed(buf, static_cast<size_t>(got));
      auto reply = decoder.Next();
      if (!reply.ok()) continue;
      freeway::net::CloseFd(*fd);
      if (reply->type == freeway::FrameType::kAck) return ports[target];
      if (reply->type == freeway::FrameType::kNotLeader) {
        auto hint = freeway::DecodeNotLeader(*reply);
        size_t next = (target + 1) % ports.size();
        for (size_t i = 0; hint.ok() && i < ports.size(); ++i) {
          if (hint->leader_port == ports[i]) next = i;
        }
        target = next;
      }
      // OVERLOAD or no leader yet: back off and try again.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      retry_elsewhere = true;
    }
    if (!retry_elsewhere) freeway::net::CloseFd(*fd);
  }
  return Status::Unavailable("no node ACKed the set-up probe");
}

/// (steal, total) jiffies over all CPUs from /proc/stat. Steal is time the
/// hypervisor ran something else while this host wanted the CPU.
std::pair<double, double> CpuSteal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  double total = 0.0;
  for (double f : fields) total += f;
  return {fields[7], total};
}

/// Samples CpuSteal() and this process's thread count every 100 ms on a
/// second thread while it lives, so each measurement window can state how
/// much CPU the host withheld and the generator's peak thread count is seen
/// while the phases run. `on_tick`, when set, runs on the same thread after
/// each sample.
class Sampler {
 public:
  explicit Sampler(std::function<void()> on_tick = nullptr)
      : on_tick_(std::move(on_tick)), thread_([this] { Loop(); }) {}
  ~Sampler() {
    running_.store(false);
    thread_.join();
  }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Steal share of CPU time between two instants (nearest samples).
  double Share(int64_t from_ns, int64_t to_ns) {
    std::lock_guard<std::mutex> lock(mutex_);
    const Sample* a = Nearest(from_ns);
    const Sample* b = Nearest(to_ns);
    if (a == nullptr || b == nullptr || b->total <= a->total) return 0.0;
    return (b->steal - a->steal) / (b->total - a->total);
  }

  /// Most threads this process had at any sample.
  size_t max_threads() const { return max_threads_.load(); }

 private:
  struct Sample {
    int64_t at_ns;
    double steal, total;
  };
  void Loop() {
    while (running_.load()) {
      const auto [steal, total] = CpuSteal();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.push_back({NowNanos(), steal, total});
      }
      max_threads_.store(std::max(max_threads_.load(), ThreadsOfThisProcess()));
      if (on_tick_) on_tick_();
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  const Sample* Nearest(int64_t at_ns) const {
    const Sample* best = nullptr;
    for (const Sample& s : samples_) {
      if (best == nullptr ||
          std::llabs(s.at_ns - at_ns) < std::llabs(best->at_ns - at_ns)) {
        best = &s;
      }
    }
    return best;
  }

  const std::function<void()> on_tick_;
  std::mutex mutex_;
  std::vector<Sample> samples_;
  std::atomic<size_t> max_threads_{0};
  std::atomic<bool> running_{true};
  std::thread thread_;
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

double Ms(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

/// Latency samples of one open-loop phase, over the whole phase.
struct Latencies {
  std::vector<double> result_ms, ack_ms, lag_ms;
  std::vector<double> queued_ms, sent_to_ack_ms, ack_to_result_ms;
  size_t attempted = 0, failed = 0;
};

Latencies Summarize(const PhaseReport& phase) {
  Latencies l;
  for (const Request& r : phase.requests) {
    ++l.attempted;
    if (r.failed) ++l.failed;
    if (r.released_ns >= 0) l.lag_ms.push_back(Ms(r.due_ns, r.released_ns));
    if (r.sent_ns >= 0) l.queued_ms.push_back(Ms(r.due_ns, r.sent_ns));
    if (r.labeled && r.ack_ns >= 0) l.ack_ms.push_back(Ms(r.due_ns, r.ack_ns));
    if (r.ack_ns >= 0 && r.sent_ns >= 0) {
      l.sent_to_ack_ms.push_back(Ms(r.sent_ns, r.ack_ns));
    }
    if (!r.labeled && r.result_ns >= 0) {
      l.result_ms.push_back(Ms(r.due_ns, r.result_ns));
      if (r.ack_ns >= 0) {
        l.ack_to_result_ms.push_back(Ms(r.ack_ns, r.result_ns));
      }
    }
  }
  return l;
}

/// The end-to-end figures come from windows: each measured phase is cut
/// into kWindows equal windows, by due time in the open loop and by
/// completion time in the closed loop. A figure is the median over the
/// quiet windows, those in which the hypervisor stole at most
/// kQuietSteal more of the CPU than in the quietest one. On a shared
/// virtual host, steal episodes lasting seconds swamp every latency tail,
/// and no commit can cause or cure them; the median then absorbs what the
/// drift phases of the tape do to single windows. The open loop has one
/// more window in front, the warm-up: its batches count as attempted (and
/// failed if lost) and are scored for accuracy, but their latencies are
/// not reported.
constexpr size_t kWindows = 6;
constexpr double kQuietSteal = 0.01;
/// When even the quietest open-loop window lost more than this to steal,
/// the open loop runs a second pass and its windows join the choice.
constexpr double kNoisySteal = 0.015;

struct Window {
  int64_t from_ns = 0;
  int64_t to_ns = 0;
  double steal = 0.0;
  std::vector<double> result_ms, ack_ms;
  double rows = 0.0;
  bool quiet = false;
};

std::vector<Window> OpenWindows(const PhaseReport& phase) {
  std::vector<Window> windows(kWindows);
  if (phase.requests.empty()) return windows;
  const int64_t first = phase.requests.front().due_ns;
  const int64_t width =
      (phase.requests.back().due_ns - first) / (kWindows + 1) + 1;
  for (size_t k = 0; k < kWindows; ++k) {
    windows[k].from_ns = first + width * static_cast<int64_t>(k + 1);
    windows[k].to_ns = windows[k].from_ns + width;
  }
  for (const Request& r : phase.requests) {
    const int64_t slot = (r.due_ns - first) / width;
    if (slot < 1 || slot > static_cast<int64_t>(kWindows)) continue;
    Window& w = windows[static_cast<size_t>(slot - 1)];
    if (r.labeled && r.ack_ns >= 0) w.ack_ms.push_back(Ms(r.due_ns, r.ack_ns));
    if (!r.labeled && r.result_ns >= 0) {
      w.result_ms.push_back(Ms(r.due_ns, r.result_ns));
    }
  }
  return windows;
}

/// Closed loop: rows completed (labeled ACKed, unlabeled answered) in each
/// window of the closed-loop pass.
std::vector<Window> ClosedWindows(const PhaseReport& phase) {
  std::vector<Window> windows(kWindows);
  const int64_t width =
      static_cast<int64_t>(phase.window_seconds * 1e9) / kWindows;
  for (size_t k = 0; k < kWindows; ++k) {
    windows[k].from_ns = phase.start_ns + width * static_cast<int64_t>(k);
    windows[k].to_ns = windows[k].from_ns + width;
  }
  for (const Request& r : phase.requests) {
    const int64_t done = r.labeled ? r.ack_ns : r.result_ns;
    if (done < phase.start_ns || (!r.labeled && r.ack_ns < 0)) continue;
    const int64_t slot = (done - phase.start_ns) / width;
    if (slot < static_cast<int64_t>(kWindows)) {
      windows[static_cast<size_t>(slot)].rows += static_cast<double>(r.rows);
    }
  }
  return windows;
}

/// Stamps each window's CPU steal and marks the quiet ones.
void MarkQuiet(std::vector<Window>& windows, Sampler& steal) {
  double quietest = 1.0;
  for (Window& w : windows) {
    w.steal = steal.Share(w.from_ns, w.to_ns);
    quietest = std::min(quietest, w.steal);
  }
  for (Window& w : windows) w.quiet = w.steal <= quietest + kQuietSteal;
}

/// Median over the quiet windows of `figure(window)`.
template <typename Figure>
double OverQuiet(const std::vector<Window>& windows, Figure figure) {
  std::vector<double> values;
  for (const Window& w : windows) {
    if (w.quiet) values.push_back(figure(w));
  }
  return Median(values);
}

/// One node's /stats and /metrics after the run went quiet.
struct NodeState {
  std::string stats;
  Scrape metrics;
};

/// Waits until every node has admitted `expected` batches (followers apply
/// committed entries after the leader ACKs) and settled all of them, then
/// scrapes /stats and /metrics of each.
std::vector<NodeState> QuiesceAndScrape(const std::vector<uint16_t>& ports,
                                        uint64_t expected) {
  std::vector<NodeState> nodes(ports.size());
  const int64_t deadline = NowNanos() + 15'000'000'000;
  for (size_t i = 0; i < ports.size(); ++i) {
    while (true) {
      auto stats = freeway::HttpGet("127.0.0.1", ports[i], "/stats", 2000);
      if (stats.ok()) {
        nodes[i].stats = *stats;
        const uint64_t settled = JsonUint(*stats, "processed") +
                                 JsonUint(*stats, "shed") +
                                 JsonUint(*stats, "quarantined") +
                                 JsonUint(*stats, "undrained");
        const uint64_t enqueued = JsonUint(*stats, "enqueued");
        if (enqueued >= expected && settled == enqueued &&
            JsonUint(*stats, "in_flight") == 0) {
          break;
        }
      }
      if (NowNanos() > deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    auto text = freeway::HttpGet("127.0.0.1", ports[i], "/metrics", 2000);
    if (text.ok()) nodes[i].metrics = Scrape(*text);
  }
  return nodes;
}

void PrintJsonResult(bool correct, size_t attempted, size_t failed,
                     const std::vector<std::pair<std::string, std::pair<double, std::string>>>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    double value = metrics[i].second.first;
    if (!std::isfinite(value)) value = 0.0;
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].first
        << "\": {\"value\": " << value << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload=NAME --server=BIN "
                 "[--seed=N] [--seconds=S] [--trace=0|1] [--specs=DIR] "
                 "[--out=DIR] [--stall-at=S --stall-seconds=S]\n");
    return 2;
  }
  // Sub-millisecond sleeps must wake on time for due-time pacing, and the
  // generator outranks the servers (which reset their nice value), so
  // server load cannot delay its sends. Without the privilege to raise
  // its priority the generator runs at the default; generator_on_time
  // still guards the run.
  ::prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
  ::setpriority(PRIO_PROCESS, 0, -10);

  const size_t cores = std::max(1u, std::thread::hardware_concurrency());
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(args.out, ec);
  const std::string run_dir =
      args.out + "/" + args.workload + "-" + std::to_string(args.seed);

  // Open-loop time per pass; the closed-loop pass (untraced) or the
  // in-process replay (traced) takes the rest of the run.
  const double open_seconds = args.trace ? 0.25 * args.seconds
                                         : 0.6 * args.seconds;
  const double closed_seconds = 0.25 * args.seconds;

  const std::pair<double, double> steal_start = CpuSteal();

  // --- Set-up, repeated; the last one stays up and is measured. ---------
  std::vector<double> setup_s, generate_s;
  std::vector<std::string> digests;
  Workload workload;
  GeneratedScenario tape;
  std::unique_ptr<Cluster> cluster;
  uint16_t leader_port = 0;
  for (size_t k = 0; k < kSetups; ++k) {
    if (cluster != nullptr) cluster->Stop();
    const int64_t t0 = NowNanos();
    auto loaded = LoadWorkload(args.workload, args.specs, args.seed,
                               open_seconds, kWindows + 1);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    workload = std::move(*loaded);
    auto generated = freeway::GenerateScenario(workload.spec);
    if (!generated.ok()) {
      std::fprintf(stderr, "tape: %s\n", generated.status().ToString().c_str());
      return 2;
    }
    tape = std::move(*generated);
    generate_s.push_back(Ms(t0, NowNanos()) / 1e3);
    digests.push_back(TapeDigest(tape));
    // A raft node's port is reserved before its process binds it, and a
    // peer's outbound connection can take it meanwhile: start again on
    // fresh ports (the time counts as set-up).
    Status started;
    for (int attempt = 0; attempt < kStartAttempts; ++attempt) {
      cluster = std::make_unique<Cluster>(
          args.server, run_dir + "/data", workload.deployment,
          tape.batches.front().dim(), workload.spec.classes, args.seed);
      started = cluster->Start();
      if (started.ok()) break;
      std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    }
    if (!started.ok()) return 1;
    auto leader = ProbeLeader(tape, cluster->ports());
    if (!leader.ok()) {
      std::fprintf(stderr, "probe: %s\n", leader.status().ToString().c_str());
      return 1;
    }
    leader_port = *leader;
    setup_s.push_back(Ms(t0, NowNanos()) / 1e3);
  }
  const Deployment& d = workload.deployment;

  size_t stream_count = 0;
  {
    std::vector<uint64_t> ids;
    for (const auto& ev : tape.events) ids.push_back(ev.stream_id);
    std::sort(ids.begin(), ids.end());
    stream_count = std::unique(ids.begin(), ids.end()) - ids.begin();
  }
  const size_t connection_count =
      std::min(cores, std::max<size_t>(1, stream_count));
  std::vector<int> fds;
  for (size_t i = 0; i < connection_count; ++i) {
    auto fd = freeway::net::ConnectSocket("127.0.0.1", leader_port, 2000);
    if (!fd.ok()) {
      std::fprintf(stderr, "connect: %s\n", fd.status().ToString().c_str());
      return 1;
    }
    fds.push_back(*fd);
  }
  Generator generator(&tape, fds);

  // --- Measured phases. ---------------------------------------------------
  freeway::PrequentialScorer scorer(&tape, 10);
  size_t strategy_counts[3] = {0, 0, 0};
  size_t scored_results = 0;
  const Generator::ResultSink score = [&](const Request& r,
                                         const freeway::StreamResult& result) {
    scorer.Record(r.base_index, result.report.predictions,
                  static_cast<int>(result.report.strategy),
                  static_cast<double>(r.result_ns - r.due_ns) / 1e3);
    const int s = static_cast<int>(result.report.strategy);
    if (s >= 0 && s < 3) ++strategy_counts[s];
    ++scored_results;
  };
  const Generator::ResultSink ignore = [](const Request&,
                                          const freeway::StreamResult&) {};

  PhaseOptions open;
  open.stall_at_seconds = args.stall_at;
  open.stall_seconds = args.stall_seconds;
  open.pause = [&] { cluster->Pause(); };
  open.resume = [&] { cluster->Resume(); };

  PhaseReport measured, extra, closed, baseline;
  double apply_lag_max = 0.0;
  std::vector<Window> open_windows, closed_windows;
  double rss_mb = 0.0;
  size_t generator_threads = 0;
  if (!args.trace) {
    Sampler steal;
    measured = generator.Run(open, score);
    // Peak RSS at the workload's fixed rate; the closed loop's flood of
    // in-flight batches would make it timing-dependent.
    rss_mb = cluster->PeakRssMb();
    open_windows = OpenWindows(measured);
    MarkQuiet(open_windows, steal);
    double quietest = 1.0;
    for (const Window& w : open_windows) quietest = std::min(quietest, w.steal);
    if (quietest > kNoisySteal) {
      std::printf("every window lost > %.1f%% to CPU steal: second open-loop "
                  "pass\n", 100.0 * kNoisySteal);
      PhaseOptions again;
      again.stream_offset = 2 * kPhaseOffset;
      extra = generator.Run(again, ignore);
      const std::vector<Window> more = OpenWindows(extra);
      open_windows.insert(open_windows.end(), more.begin(), more.end());
      MarkQuiet(open_windows, steal);
    }
    PhaseOptions closed_options;
    closed_options.open_loop = false;
    closed_options.closed_seconds = closed_seconds;
    closed_options.stream_offset = kPhaseOffset;
    closed = generator.Run(closed_options, ignore);
    closed_windows = ClosedWindows(closed);
    MarkQuiet(closed_windows, steal);
    generator_threads = steal.max_threads();
  } else {
    // The untraced pass is the overhead baseline. The traced pass scores
    // its RESULTs and scrapes every node's /metrics for raft apply lag.
    {
      Sampler sampler;
      baseline = generator.Run(open, ignore);
      generator_threads = sampler.max_threads();
    }
    PhaseOptions traced = open;
    traced.stream_offset = kPhaseOffset;
    Sampler sampler([&] {
      for (uint16_t port : cluster->ports()) {
        auto text = freeway::HttpGet("127.0.0.1", port, "/metrics", 1000);
        if (text.ok()) {
          apply_lag_max = std::max(
              apply_lag_max, Scrape(*text).Value("freeway_raft_apply_lag"));
        }
      }
    });
    measured = generator.Run(traced, score);
    generator_threads = std::max(generator_threads, sampler.max_threads());
  }
  size_t acked = 1;  // The set-up probe.
  for (const PhaseReport* phase : {&baseline, &measured, &extra, &closed}) {
    for (const Request& r : phase->requests) acked += r.acks > 0 ? 1 : 0;
  }
  const std::vector<NodeState> nodes =
      QuiesceAndScrape(cluster->ports(), acked);
  size_t leader_index = 0;
  for (size_t i = 0; i < cluster->ports().size(); ++i) {
    if (cluster->ports()[i] == leader_port) leader_index = i;
  }
  cluster->Stop();
  fs::remove_all(run_dir + "/data", ec);

  Latencies lat = Summarize(measured);
  const Latencies second = Summarize(extra);
  lat.attempted += second.attempted;
  lat.failed += second.failed;
  freeway::ScenarioReport accuracy;
  scorer.Finish(&accuracy);

  // --- Correctness checks. -----------------------------------------------
  std::vector<Check> checks;
  bool digests_equal = true;
  for (const std::string& digest : digests) digests_equal &= digest == digests[0];
  checks.push_back({"tape_digest_stable", digests_equal,
                    "digest " + digests[0] + " over " +
                        std::to_string(digests.size()) + " generations"});

  uint64_t unmatched_replies = 0, unmatched_results = 0, bad_rows = 0,
           labeled_lost = 0, labeled_multi = 0;
  for (const PhaseReport* phase : {&baseline, &measured, &extra, &closed}) {
    unmatched_replies += phase->unmatched_replies;
    unmatched_results += phase->unmatched_results;
    bad_rows += phase->bad_result_rows;
    for (const Request& r : phase->requests) {
      if (r.labeled && r.sent_ns >= 0 && r.acks == 0) ++labeled_lost;
      if (r.acks > 1) ++labeled_multi;
    }
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::string& s = nodes[i].stats;
    const uint64_t enqueued = JsonUint(s, "enqueued");
    const uint64_t sum = JsonUint(s, "processed") + JsonUint(s, "shed") +
                         JsonUint(s, "quarantined") + JsonUint(s, "undrained") +
                         JsonUint(s, "in_flight");
    const std::string node = "node " + std::to_string(i + 1) + ": ";
    checks.push_back(
        {"stats_reconcile", !s.empty() && enqueued == sum &&
                                JsonUint(s, "in_flight") == 0,
         node + Fmt("enqueued %llu = processed+shed+quarantined+undrained+"
                    "in_flight %llu",
                    static_cast<unsigned long long>(enqueued),
                    static_cast<unsigned long long>(sum))});
    checks.push_back(
        {"admitted_equals_acked", enqueued == acked,
         node + Fmt("enqueued %llu, generator saw %zu ACKs (incl. probe)",
                    static_cast<unsigned long long>(enqueued), acked)});
  }
  // The generator re-sends a sequence only after an OVERLOAD reverted it,
  // so its resends of admitted batches are zero and so must the server's
  // duplicate count be.
  const double duplicates =
      nodes[leader_index].metrics.Value("freeway_net_duplicates_total");
  checks.push_back(
      {"exactly_once",
       labeled_lost == 0 && labeled_multi == 0 && unmatched_replies == 0 &&
           duplicates == 0.0,
       Fmt("labeled never ACKed %llu, ACKed twice %llu, unmatched replies "
           "%llu, server duplicates %.0f vs generator resends 0",
           static_cast<unsigned long long>(labeled_lost),
           static_cast<unsigned long long>(labeled_multi),
           static_cast<unsigned long long>(unmatched_replies), duplicates)});
  checks.push_back(
      {"results_match", unmatched_results == 0 && bad_rows == 0,
       Fmt("unmatched RESULTs %llu, RESULTs with wrong prediction count %llu",
           static_cast<unsigned long long>(unmatched_results),
           static_cast<unsigned long long>(bad_rows))});
  const double chance = 1.0 / static_cast<double>(workload.spec.classes);
  checks.push_back({"accuracy_above_chance",
                    accuracy.prequential.g_acc > chance + 0.1,
                    Fmt("G_acc %.4f vs chance %.4f over %zu scored batches",
                        accuracy.prequential.g_acc, chance,
                        accuracy.scored_batches)});
  const double lag_p99 = Percentile(lat.lag_ms, 0.99);
  checks.push_back({"generator_on_time", lag_p99 <= kMaxLagP99Ms,
                    Fmt("lag p99 %.3f ms (limit %.1f) over %zu batches",
                        lag_p99, kMaxLagP99Ms, lat.lag_ms.size())});
  checks.push_back({"generator_bounded",
                    generator_threads <= cores && connection_count <= cores,
                    Fmt("%zu threads, %zu connections, %zu cores",
                        generator_threads, connection_count, cores)});
  if (args.stall_seconds > 0.0) {
    // The reported figures must carry the stall: a batch due as the servers
    // stopped waits out the whole stall, so an open window overlapping it
    // shows a result p99 of about the stall length or more; and the
    // generator kept its schedule meanwhile (lag p99 under a tenth of the
    // stall). A generator that paused with the servers would show neither.
    const double stall_ms = Ms(measured.stall_start_ns, measured.stall_end_ns);
    double window_p99 = 0.0;
    size_t window_results = 0;
    for (const Window& w : OpenWindows(measured)) {
      if (w.to_ns <= measured.stall_start_ns ||
          w.from_ns >= measured.stall_end_ns) {
        continue;
      }
      const double p99 = Percentile(w.result_ms, 0.99);
      if (p99 > window_p99) {
        window_p99 = p99;
        window_results = w.result_ms.size();
      }
    }
    checks.push_back(
        {"stall_charged",
         measured.stall_end_ns > 0 && window_p99 >= 0.8 * stall_ms &&
             lag_p99 < stall_ms / 10.0,
         Fmt("%.0f ms stall: result p99 %.1f ms over %zu RESULTs of the "
             "window it hit hardest (needs >= %.0f), generator lag p99 "
             "%.3f ms (needs < %.0f)",
             stall_ms, window_p99, window_results, 0.8 * stall_ms, lag_p99,
             stall_ms / 10.0)});
  }
  if (d.all_mechanisms && workload.cycles >= 2) {
    // The drift cycle has sudden and reoccurring shifts: CEC and knowledge
    // reuse must each answer some batch, so accuracy and stability guard
    // all three of the paper's mechanisms.
    checks.push_back(
        {"mechanisms_fired", strategy_counts[1] > 0 && strategy_counts[2] > 0,
         Fmt("CEC %zu, knowledge reuse %zu, multi-granularity %zu of %zu "
             "RESULTs over %zu drift cycles",
             strategy_counts[1], strategy_counts[2], strategy_counts[0],
             scored_results, workload.cycles)});
  }
  bool correct = true;
  for (const Check& c : checks) {
    std::printf("check %-22s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                c.detail.c_str());
    if (!c.ok) {
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", c.name.c_str(),
                   c.detail.c_str());
      correct = false;
    }
  }

  // --- Metadata. ---------------------------------------------------------
  const std::pair<double, double> steal_end = CpuSteal();
  const double steal_share =
      steal_end.second > steal_start.second
          ? (steal_end.first - steal_start.first) /
                (steal_end.second - steal_start.second)
          : 0.0;
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"commit\": \"%s\", \"tape_digest\": \"%s\", "
      "\"host\": %s, \"cpu_steal_share\": %.4f, "
      "\"generator\": {\"threads\": %zu, \"connections\": %zu, "
      "\"streams\": %zu}, \"server\": {\"nodes\": %zu, \"reactor_workers\": "
      "%zu, \"shards\": %zu, \"FREEWAY_NUM_THREADS\": %zu, "
      "\"queue_capacity\": %zu, "
      "\"checkpoint_interval\": %zu, \"rate_adjuster\": %s}, \"tape\": {\"batches\": %zu, "
      "\"events\": %zu, \"rows_per_batch\": %zu, \"rate\": %g}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.commit.c_str(),
      digests[0].c_str(), freeway::bench::HostJson().c_str(), steal_share,
      generator_threads, connection_count, stream_count, d.nodes,
      d.reactor_workers, d.shards, d.pool_threads, d.queue_capacity,
      d.checkpoint_interval, d.rate_adjuster ? "true" : "false",
      tape.batches.size(), tape.events.size(), workload.spec.batch_size,
      workload.spec.arrival.rate);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const auto add = [&metrics](const std::string& name, double value,
                              const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  };

  if (!args.trace) {
    const double closed_window_s = closed.window_seconds / kWindows;
    for (size_t k = 0; k < open_windows.size(); ++k) {
      const Window& o = open_windows[k];
      std::printf("open window %zu%s: result p50/p90/p99 %.3f/%.3f/%.3f ms of "
                  "%zu, ack p50/p90/p99 %.3f/%.3f/%.3f ms of %zu, cpu steal "
                  "%.4f\n",
                  k + 1, o.quiet ? "*" : " ", Percentile(o.result_ms, 0.5),
                  Percentile(o.result_ms, 0.9), Percentile(o.result_ms, 0.99),
                  o.result_ms.size(), Percentile(o.ack_ms, 0.5),
                  Percentile(o.ack_ms, 0.9), Percentile(o.ack_ms, 0.99),
                  o.ack_ms.size(), o.steal);
    }
    for (size_t k = 0; k < closed_windows.size(); ++k) {
      const Window& c = closed_windows[k];
      std::printf("closed window %zu%s: %.0f rows/s, cpu steal %.4f\n", k + 1,
                  c.quiet ? "*" : " ", c.rows / closed_window_s, c.steal);
    }
    std::printf("open loop: %zu batches, %zu unlabeled answered, %zu labeled "
                "ACKed, %llu overloads; closed loop: %llu SUBMITs, %llu "
                "overloads in %.2f s; figures from the windows marked *\n",
                lat.attempted, lat.result_ms.size(), lat.ack_ms.size(),
                static_cast<unsigned long long>(measured.overloads +
                                                extra.overloads),
                static_cast<unsigned long long>(closed.submits_sent),
                static_cast<unsigned long long>(closed.overloads),
                closed.window_seconds);
    const auto quantile = [&open_windows](bool labeled, double q) {
      return OverQuiet(open_windows, [labeled, q](const Window& w) {
        return Percentile(labeled ? w.ack_ms : w.result_ms, q);
      });
    };
    add("result_p50_ms", quantile(false, 0.50), "ms");
    add("ack_p50_ms", quantile(true, 0.50), "ms");
    add("peak_rows_s",
        OverQuiet(closed_windows,
                  [closed_window_s](const Window& w) {
                    return w.rows / closed_window_s;
                  }),
        "rows/s");
    add("accuracy", 100.0 * accuracy.prequential.g_acc, "%");
    add("stability", accuracy.prequential.stability_index, "1");
    add("completed_frac",
        1.0 - static_cast<double>(lat.failed) /
                  static_cast<double>(std::max<size_t>(1, lat.attempted)),
        "1");
    add("setup_s", Median(setup_s), "s");
    add("server_rss_mb", rss_mb, "MB");
    PrintJsonResult(correct, lat.attempted, lat.failed, metrics);
    return correct ? 0 : 1;
  }

  // --- Traced run: per-layer metrics. ------------------------------------
  const ReplaySpans replay =
      ReplayInProcess(tape, d, run_dir + "/replay", 0.1 * args.seconds);
  const Scrape& m = nodes[leader_index].metrics;
  const Latencies base = Summarize(baseline);
  const double stage_seconds =
      m.HistSum("freeway_learner_stage_seconds", "stage=\"detect\"") +
      m.HistSum("freeway_learner_stage_seconds", "stage=\"infer\"") +
      m.HistSum("freeway_learner_stage_seconds", "stage=\"train\"");
  const auto mean_ms = [&m](const std::string& family,
                            const std::string& labels = "") {
    const double count = m.HistCount(family, labels);
    return count > 0 ? 1e3 * m.HistSum(family, labels) / count : 0.0;
  };
  const auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  const std::string& stats = nodes[leader_index].stats;
  const double enqueued = static_cast<double>(JsonUint(stats, "enqueued"));
  const double rejected = static_cast<double>(JsonUint(stats, "rejected"));
  const double submits = m.Value("freeway_net_submits_total");
  const double overloads = m.Value("freeway_net_overloads_total");
  const double frames_in = m.Value("freeway_net_frames_total{dir=\"in\"}");
  const double proposals = m.Value("freeway_raft_proposals_total");
  double elections = 0.0;
  for (const NodeState& node : nodes) {
    elections += node.metrics.Value("freeway_raft_elections_total");
  }
  const double scored = static_cast<double>(scored_results);

  add("core.infer_us_p50", Percentile(replay.infer_us, 0.50), "us");
  add("core.infer_us_p99", Percentile(replay.infer_us, 0.99), "us");
  add("core.train_us_p50", Percentile(replay.train_us, 0.50), "us");
  add("core.train_us_p99", Percentile(replay.train_us, 0.99), "us");
  add("core.detect_ms_mean",
      mean_ms("freeway_learner_stage_seconds", "stage=\"detect\""), "ms");
  add("core.infer_ms_mean",
      mean_ms("freeway_learner_stage_seconds", "stage=\"infer\""), "ms");
  add("core.train_ms_mean",
      mean_ms("freeway_learner_stage_seconds", "stage=\"train\""), "ms");
  add("core.cec_share", ratio(strategy_counts[1], scored), "1");
  add("core.reuse_share", ratio(strategy_counts[2], scored), "1");
  add("core.serial_rows_s", ratio(replay.serial_rows, replay.serial_seconds),
      "rows/s");
  add("runtime.trysubmit_us_p50", Percentile(replay.trysubmit_us, 0.50), "us");
  add("runtime.queue_wait_ms_p50",
      1e3 * m.HistQuantile("freeway_runtime_queue_wait_seconds", 0.50), "ms");
  add("runtime.queue_wait_ms_p99",
      1e3 * m.HistQuantile("freeway_runtime_queue_wait_seconds", 0.99), "ms");
  add("runtime.queue_high_water",
      static_cast<double>(JsonUint(stats, "queue_high_water")), "count");
  add("runtime.rejected_frac", ratio(rejected, enqueued + rejected), "1");
  add("runtime.shed", static_cast<double>(JsonUint(stats, "shed")), "count");
  add("common.pool_wait_ms_mean",
      mean_ms("freeway_threadpool_task_wait_seconds"), "ms");
  add("fault.checkpoint_ms_mean",
      mean_ms("freeway_fault_checkpoint_write_seconds"), "ms");
  add("fault.checkpoint_kb_mean",
      ratio(m.HistSum("freeway_fault_checkpoint_bytes"),
            m.HistCount("freeway_fault_checkpoint_bytes")) / 1024.0,
      "KiB");
  add("fault.checkpoints",
      m.Value("freeway_fault_checkpoints_total{result=\"ok\"}"), "count");
  add("fault.busy_share",
      ratio(m.HistSum("freeway_fault_checkpoint_write_seconds"), stage_seconds),
      "1");
  add("ingest.append_us_p50", Percentile(replay.append_us, 0.50), "us");
  add("ingest.append_us_p99", Percentile(replay.append_us, 0.99), "us");
  add("ingest.append_ms_mean", mean_ms("freeway_ingest_append_seconds"), "ms");
  add("ingest.bytes_per_batch",
      ratio(m.HistSum("freeway_ingest_append_bytes"),
            m.HistCount("freeway_ingest_append_bytes")),
      "B");
  add("ingest.dedup_us_p50", Percentile(replay.dedup_us, 0.50), "us");
  add("net.encode_us_p50", Percentile(replay.encode_us, 0.50), "us");
  add("net.decode_us_p50", Percentile(replay.decode_us, 0.50), "us");
  add("net.request_ms_mean", mean_ms("freeway_net_request_seconds"), "ms");
  add("net.overload_frac", ratio(overloads, submits), "1");
  add("net.loop_iters_per_frame",
      ratio(m.SumFamily("freeway_net_worker_loop_iterations_total"), frames_in),
      "1");
  add("net.bytes_per_frame",
      ratio(m.HistSum("freeway_net_frame_bytes"),
            m.HistCount("freeway_net_frame_bytes")),
      "B");
  add("replication.commit_ms_mean", mean_ms("freeway_raft_commit_seconds"),
      "ms");
  add("replication.append_ms_mean", mean_ms("freeway_raft_append_seconds"),
      "ms");
  add("replication.msgs_per_entry",
      ratio(m.Value("freeway_raft_messages_total{dir=\"out\"}"), proposals),
      "1");
  add("replication.apply_lag_max", apply_lag_max, "count");
  add("replication.elections", elections, "count");
  add("scenarios.generate_s", Median(generate_s), "s");
  add("loadgen.result_p90_ms", Percentile(lat.result_ms, 0.90), "ms");
  add("loadgen.result_p99_ms", Percentile(lat.result_ms, 0.99), "ms");
  add("loadgen.ack_p90_ms", Percentile(lat.ack_ms, 0.90), "ms");
  add("loadgen.ack_p99_ms", Percentile(lat.ack_ms, 0.99), "ms");
  add("loadgen.lag_p99_ms", lag_p99, "ms");
  add("loadgen.backlog_max", static_cast<double>(measured.backlog_max),
      "count");

  // Attribution of the unlabeled request path: each layer's self-time p50
  // beside the end-to-end p50. Medians do not add exactly; the remainder
  // is reported, not hidden.
  struct Row {
    std::string layer;
    double us;
    std::string source;
  };
  std::vector<Row> rows = {
      {"loadgen.queue (due->sent)", 1e3 * Percentile(lat.queued_ms, 0.5),
       "generator spans"},
      {"net.encode", Percentile(replay.encode_us, 0.5), "in-process replay"},
      {"net.decode", Percentile(replay.decode_us, 0.5), "in-process replay"},
      {"ingest.dedup", Percentile(replay.dedup_us, 0.5), "in-process replay"},
      {"ingest.append", Percentile(replay.append_us, 0.5), "in-process replay"},
      {"runtime.trysubmit", Percentile(replay.trysubmit_us, 0.5),
       "in-process replay"},
      {"runtime.queue_wait",
       1e6 * m.HistQuantile("freeway_runtime_queue_wait_seconds", 0.5),
       "/metrics histogram"},
      {"core.infer (Push)", Percentile(replay.infer_us, 0.5), "serial pass"},
  };
  if (d.nodes > 1) {
    rows.push_back({"replication.commit (mean)",
                    1e3 * mean_ms("freeway_raft_commit_seconds"),
                    "/metrics histogram"});
  }
  const double e2e_us = 1e3 * Percentile(lat.result_ms, 0.5);
  double attributed = 0.0;
  for (const Row& r : rows) attributed += r.us;
  // trace.overhead_pct compares the traced pass with the untraced pass run
  // just before it on the same servers. Both record per-request timestamps
  // (latency needs them); the traced pass adds RESULT scoring and a
  // /metrics scrape every 100 ms, and runs second on a longer log. So the
  // figure is that extra load plus pass-to-pass drift, not the cost of
  // recording spans.
  const double base_p50 = Percentile(base.result_ms, 0.5);
  const double overhead_pct =
      base_p50 > 0 ? 100.0 * (Percentile(lat.result_ms, 0.5) - base_p50) /
                         base_p50
                   : 0.0;
  add("trace.unattributed_us", e2e_us - attributed, "us");
  add("trace.overhead_pct", overhead_pct, "%");

  std::printf("\nattribution of result p50, %s (self-time p50 per layer)\n",
              args.workload.c_str());
  for (const Row& r : rows) {
    std::printf("  %-28s %12.1f us  %5.1f%%  (%s)\n", r.layer.c_str(), r.us,
                e2e_us > 0 ? 100.0 * r.us / e2e_us : 0.0, r.source.c_str());
  }
  std::printf("  %-28s %12.1f us  %5.1f%%\n", "unattributed",
              e2e_us - attributed,
              e2e_us > 0 ? 100.0 * (e2e_us - attributed) / e2e_us : 0.0);
  std::printf("  %-28s %12.1f us  (%zu RESULTs)\n", "end-to-end result p50",
              e2e_us, lat.result_ms.size());
  std::printf("  generator spans p50: due->sent %.3f ms, sent->ACK %.3f ms, "
              "ACK->RESULT %.3f ms\n",
              Percentile(lat.queued_ms, 0.5),
              Percentile(lat.sent_to_ack_ms, 0.5),
              Percentile(lat.ack_to_result_ms, 0.5));
  std::printf("  trace overhead: result p50 %.3f ms in the traced pass "
              "(scored, /metrics scraped) vs %.3f ms in the untraced pass "
              "before it (%.1f%%; includes pass-to-pass drift)\n",
              Percentile(lat.result_ms, 0.5), base_p50, overhead_pct);
  std::printf("ratios with their bases:\n");
  std::printf("  overloads %.0f of %.0f submits\n", overloads, submits);
  std::printf("  rejected %.0f of %.0f admissions\n", rejected,
              enqueued + rejected);
  std::printf("  CEC answered %zu, knowledge reuse %zu, multi-granularity "
              "%zu of %zu RESULTs\n",
              strategy_counts[1], strategy_counts[2], strategy_counts[0],
              scored_results);
  std::printf("  checkpoint write %.3f s of %.3f s learner stage time\n",
              m.HistSum("freeway_fault_checkpoint_write_seconds"),
              stage_seconds);
  std::printf("  loop iterations %.0f for %.0f frames in\n",
              m.SumFamily("freeway_net_worker_loop_iterations_total"),
              frames_in);
  std::printf("  raft messages out %.0f for %.0f proposals\n",
              m.Value("freeway_raft_messages_total{dir=\"out\"}"), proposals);
  std::printf("  in-process replay: %zu SUBMITs, %zu rejected by a full "
              "queue; serial pass %.0f rows in %.3f s\n",
              replay.replayed, replay.rejected, replay.serial_rows,
              replay.serial_seconds);

  // Per-request spans of the traced pass, written once at the end.
  std::ofstream spans(run_dir + "/spans.jsonl");
  for (const Request& r : measured.requests) {
    spans << "{\"client_id\": " << r.client_id << ", \"sequence\": "
          << r.sequence << ", \"stream\": " << r.stream_id
          << ", \"labeled\": " << (r.labeled ? "true" : "false")
          << ", \"due_ns\": " << r.due_ns << ", \"sent_ns\": " << r.sent_ns
          << ", \"ack_ns\": " << r.ack_ns << ", \"result_ns\": " << r.result_ns
          << ", \"overloads\": " << r.overloads
          << ", \"failed\": " << (r.failed ? "true" : "false") << "}\n";
  }
  std::printf("spans: %s/spans.jsonl (%zu requests)\n", run_dir.c_str(),
              measured.requests.size());
  PrintJsonResult(correct, lat.attempted, lat.failed, metrics);
  return correct ? 0 : 1;
}
