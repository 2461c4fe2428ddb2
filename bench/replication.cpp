// Replication cost benchmark: what quorum durability charges per batch,
// what failover costs a stream, and how often the leader ships each
// entry. Four legs, all in-process clusters on loopback:
//   (a) submit→ACK latency against a 1-node replicated cluster (same
//       code path as production replication — raft log append + apply —
//       but no network quorum round);
//   (b) the same against a 3-node cluster, where the ACK additionally
//       waits for majority replication, so (b) − (a) is the quorum tax;
//   (c) failover-to-first-ACK: the leader is partitioned away (FailPoint,
//       full send+recv drop) and the clock runs from the partition to the
//       next successful ACK on the new leader — election, client
//       rotation, and redirect chasing included;
//   (d) shipping: concurrent clients against a 3-node cluster, so several
//       proposals queue per driver pass; counts the leader's AppendEntries
//       entries and messages per committed entry.
// Emits BENCH_replication.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "data/synthetic.h"
#include "eval/report.h"
#include "fault/failpoint.h"
#include "ml/models.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"
#include "obs/metrics.h"

using namespace freeway;         // NOLINT — bench driver.
using namespace freeway::bench;  // NOLINT

namespace {

namespace fs = std::filesystem;

constexpr size_t kDim = 10;
constexpr size_t kBatchRows = 128;
constexpr int kWarmupBatches = 10;
constexpr int kMeasuredBatches = 120;

struct LatencyStats {
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  double mean_micros = 0.0;
};

LatencyStats Summarize(std::vector<double> micros) {
  LatencyStats stats;
  if (micros.empty()) return stats;
  std::sort(micros.begin(), micros.end());
  stats.p50_micros = micros[micros.size() / 2];
  stats.p99_micros =
      micros[std::min(micros.size() - 1, (micros.size() * 99) / 100)];
  double sum = 0.0;
  for (double m : micros) sum += m;
  stats.mean_micros = sum / static_cast<double>(micros.size());
  return stats;
}

std::string StatsJson(const LatencyStats& stats) {
  return "{\"p50_micros\": " + FormatDouble(stats.p50_micros, 1) +
         ", \"p99_micros\": " + FormatDouble(stats.p99_micros, 1) +
         ", \"mean_micros\": " + FormatDouble(stats.mean_micros, 1) + "}";
}

uint16_t ReservePort() {
  auto fd = net::CreateListenSocket("127.0.0.1", 0, 4, false);
  fd.status().CheckOk();
  auto port = net::LocalPort(*fd);
  port.status().CheckOk();
  net::CloseFd(*fd);
  return *port;
}

/// An in-process replicated cluster of `n` nodes.
class Cluster {
 public:
  Cluster(const fs::path& root, size_t n) : root_(root) {
    for (size_t i = 0; i < n; ++i) ports_.push_back(ReservePort());
    nodes_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      registries_.push_back(std::make_unique<MetricsRegistry>());
    }
    auto proto = MakeLogisticRegression(kDim, 2);
    for (size_t i = 0; i < n; ++i) {
      ServerOptions options;
      options.metrics = registries_[i].get();
      options.port = ports_[i];
      options.num_workers = 1;
      options.runtime.num_shards = 2;
      options.ingest.enabled = true;
      options.ingest.log_dir =
          (root_ / ("n" + std::to_string(i)) / "log").string();
      options.replication.enabled = true;
      options.replication.node_id = i + 1;
      options.replication.data_dir =
          (root_ / ("n" + std::to_string(i)) / "raft").string();
      options.replication.tick_millis = 5;
      options.replication.heartbeat_ticks = 2;
      options.replication.failpoint_scope = "n" + std::to_string(i + 1) + ".";
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        options.replication.peers.push_back(
            {static_cast<uint64_t>(j + 1), "127.0.0.1", ports_[j]});
      }
      nodes_[i] = std::make_unique<StreamServer>(*proto, std::move(options));
      nodes_[i]->Start().CheckOk();
    }
  }

  ~Cluster() {
    for (auto& node : nodes_) node->Stop();
  }

  int WaitForLeader() {
    for (int spin = 0; spin < 2000; ++spin) {
      for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i]->replicator()->IsLeader()) return static_cast<int>(i);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return -1;
  }

  const std::vector<uint16_t>& ports() const { return ports_; }
  MetricsRegistry& registry(int i) { return *registries_[i]; }
  StreamServer& node(int i) { return *nodes_[i]; }

 private:
  fs::path root_;
  std::vector<uint16_t> ports_;
  std::vector<std::unique_ptr<MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<StreamServer>> nodes_;
};

Batch MakeBatch(uint64_t seed, int64_t index) {
  Rng rng(seed);
  Batch b;
  b.index = index;
  b.features = Matrix(kBatchRows, kDim);
  b.labels.resize(kBatchRows);
  for (size_t i = 0; i < kBatchRows; ++i) {
    const int label = static_cast<int>(rng.NextBelow(2));
    b.labels[i] = label;
    for (size_t j = 0; j < kDim; ++j) {
      b.features.At(i, j) = rng.Gaussian(label * 2.0, 0.75);
    }
  }
  return b;
}

ClientOptions ClusterClientOptions(const std::vector<uint16_t>& ports,
                                   int leader, uint64_t client_id = 9001) {
  ClientOptions copts;
  copts.client_id = client_id;
  copts.max_submit_attempts = 64;
  copts.reply_timeout_millis = 500;
  copts.backoff_initial_micros = 200;
  copts.backoff_max_micros = 20000;
  copts.endpoints.push_back({"127.0.0.1", ports[leader]});
  for (size_t i = 0; i < ports.size(); ++i) {
    if (static_cast<int>(i) == leader) continue;
    copts.endpoints.push_back({"127.0.0.1", ports[i]});
  }
  return copts;
}

/// Submit→ACK latency distribution against an n-node cluster.
LatencyStats MeasureSubmitLatency(const fs::path& root, size_t n) {
  Cluster cluster(root, n);
  const int leader = cluster.WaitForLeader();
  if (leader < 0) {
    std::fprintf(stderr, "no leader in %zu-node cluster\n", n);
    return {};
  }
  StreamClient client(ClusterClientOptions(cluster.ports(), leader));
  std::vector<double> micros;
  micros.reserve(kMeasuredBatches);
  for (int b = 0; b < kWarmupBatches + kMeasuredBatches; ++b) {
    Batch batch = MakeBatch(1000 + b, b);
    Stopwatch watch;
    client.Submit(3, std::move(batch)).CheckOk();
    if (b >= kWarmupBatches) micros.push_back(watch.ElapsedSeconds() * 1e6);
  }
  return micros.empty() ? LatencyStats{} : Summarize(std::move(micros));
}

/// Partition the leader of a 3-node cluster mid-stream; time to the next
/// successful ACK (election + client failover + redirect chasing).
double MeasureFailoverMillis(const fs::path& root) {
  Cluster cluster(root, 3);
  const int leader = cluster.WaitForLeader();
  if (leader < 0) return -1.0;
  StreamClient client(ClusterClientOptions(cluster.ports(), leader));
  for (int b = 0; b < 10; ++b) {
    client.Submit(3, MakeBatch(2000 + b, b)).CheckOk();
  }
  const std::string scope = "n" + std::to_string(leader + 1) + ".";
  failpoint::FailPointSpec forever;
  forever.count = SIZE_MAX;
  failpoint::Arm(scope + "repl.send", forever);
  failpoint::Arm(scope + "repl.recv", forever);
  Stopwatch watch;
  client.Submit(3, MakeBatch(3000, 10)).CheckOk();
  const double millis = watch.ElapsedSeconds() * 1e3;
  failpoint::DisarmAll();
  return millis;
}

struct ShippingStats {
  uint64_t committed = 0;
  /// Entries the leader put on peer links, per committed entry and peer
  /// (1.0 when nothing is shipped twice).
  double entries_sent_per_entry_per_peer = 0.0;
  /// Leader messages out (appends + heartbeats) per committed entry.
  double messages_per_entry = 0.0;
};

ShippingStats MeasureShipping(const fs::path& root) {
  constexpr int kClients = 16;
  constexpr int kBatchesPerClient = 40;
  Cluster cluster(root, 3);
  const int leader = cluster.WaitForLeader();
  if (leader < 0) return {};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&cluster, leader, c] {
      StreamClient client(
          ClusterClientOptions(cluster.ports(), leader, 9100 + c));
      for (int b = 0; b < kBatchesPerClient; ++b) {
        client.Submit(c, MakeBatch(4000 + c * kBatchesPerClient + b, b))
            .CheckOk();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  MetricsRegistry& m = cluster.registry(leader);
  ShippingStats stats;
  stats.committed = cluster.node(leader).replicator()->commit_index();
  const double entries = static_cast<double>(stats.committed);
  stats.entries_sent_per_entry_per_peer =
      static_cast<double>(
          m.GetCounter("freeway_raft_entries_sent_total")->Value()) /
      entries / 2.0;
  stats.messages_per_entry =
      static_cast<double>(
          m.GetCounter("freeway_raft_messages_total{dir=\"out\"}")
              ->Value()) /
      entries;
  return stats;
}

}  // namespace

int main() {
  std::printf("== Replication cost: quorum tax and failover ==\n\n");
  const fs::path scratch =
      fs::temp_directory_path() / "freeway_bench_replication";
  std::error_code ec;
  fs::remove_all(scratch, ec);

  const LatencyStats one = MeasureSubmitLatency(scratch / "one", 1);
  const LatencyStats three = MeasureSubmitLatency(scratch / "three", 3);
  const double failover_ms = MeasureFailoverMillis(scratch / "failover");
  const ShippingStats shipping = MeasureShipping(scratch / "shipping");

  TablePrinter table({"Leg", "p50 us", "p99 us", "mean us"});
  table.AddRow({"1-node submit->ACK", FormatDouble(one.p50_micros, 1),
                FormatDouble(one.p99_micros, 1),
                FormatDouble(one.mean_micros, 1)});
  table.AddRow({"3-node submit->ACK", FormatDouble(three.p50_micros, 1),
                FormatDouble(three.p99_micros, 1),
                FormatDouble(three.mean_micros, 1)});
  table.Print();
  std::printf("quorum tax (p50): %.1f us\n",
              three.p50_micros - one.p50_micros);
  std::printf("failover to first ACK: %.1f ms\n", failover_ms);
  std::printf("shipping: %llu committed entries, %.3f entries sent per "
              "entry per peer, %.3f leader messages per entry\n",
              static_cast<unsigned long long>(shipping.committed),
              shipping.entries_sent_per_entry_per_peer,
              shipping.messages_per_entry);

  std::ofstream out("BENCH_replication.json");
  out << "{\n"
      << "  \"description\": \"Submit->ACK latency through the replicated "
         "path (deferred ACK after majority commit + local apply) on "
         "1-node vs 3-node loopback clusters, "
      << kMeasuredBatches << " measured batches of " << kBatchRows << "x"
      << kDim
      << " after warm-up; and failover-to-first-ACK wall time when the "
         "3-node leader is fully partitioned (FailPoint send+recv drop) "
         "mid-stream; and, with 16 concurrent clients on a 3-node "
         "cluster, the leader's entries shipped per committed entry per "
         "peer (1.0 = no re-send) and messages per committed entry. From "
         "bench/replication.\",\n"
      << "  \"host\": " << HostJson() << ",\n"
      << "  \"submit_ack_latency\": {\n"
      << "    \"one_node\": " << StatsJson(one) << ",\n"
      << "    \"three_node\": " << StatsJson(three) << "\n  },\n"
      << "  \"quorum_tax_p50_micros\": "
      << FormatDouble(three.p50_micros - one.p50_micros, 1) << ",\n"
      << "  \"failover_to_first_ack_millis\": "
      << FormatDouble(failover_ms, 1) << ",\n"
      << "  \"shipping\": {\"committed_entries\": " << shipping.committed
      << ", \"entries_sent_per_entry_per_peer\": "
      << FormatDouble(shipping.entries_sent_per_entry_per_peer, 3)
      << ", \"messages_per_entry\": "
      << FormatDouble(shipping.messages_per_entry, 3) << "}\n"
      << "}\n";
  std::printf("Wrote BENCH_replication.json\n");

  fs::remove_all(scratch, ec);
  return 0;
}
