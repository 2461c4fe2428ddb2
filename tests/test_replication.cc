/// Raft-replicated high availability, steady-state paths: leader election
/// across in-process clusters, client failover on NOT_LEADER redirects,
/// bit-identical per-node ingest logs, follower rejoin to the exact commit
/// index, and checkpoint-anchored steady-state truncation of the ingest
/// log (with watermark rebuild from the rotated-segment snapshots the
/// truncation leaves behind).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "fault/failpoint.h"
#include "ingest/ingest_log.h"
#include "ml/models.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_util.h"

namespace freeway {
namespace {

namespace fs = std::filesystem;

constexpr size_t kDim = 4;
constexpr size_t kBatchRows = 16;

PipelineOptions DeterministicPipeline() {
  PipelineOptions opts;
  opts.learner.base_window_batches = 4;
  opts.learner.detector.warmup_batches = 3;
  opts.enable_rate_adjuster = false;
  return opts;
}

/// Reserves an ephemeral loopback port by binding and immediately
/// releasing it. Cluster members need each other's ports *before* any of
/// them starts, so port 0 auto-assignment cannot be used directly.
uint16_t ReservePort() {
  Result<int> fd = net::CreateListenSocket("127.0.0.1", 0, 4, false);
  EXPECT_TRUE(fd.ok()) << fd.status();
  Result<uint16_t> port = net::LocalPort(*fd);
  EXPECT_TRUE(port.ok()) << port.status();
  net::CloseFd(*fd);
  return *port;
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_replication_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    failpoint::DisarmAll();
  }

  void TearDown() override {
    failpoint::DisarmAll();
    nodes_.clear();
    registries_.clear();
    fs::remove_all(dir_);
  }

  ServerOptions NodeOptions(size_t i, size_t workers) {
    ServerOptions opts;
    opts.port = ports_[i];
    opts.num_workers = workers;
    opts.metrics = registries_[i].get();
    opts.runtime.num_shards = 2;
    opts.runtime.pipeline = DeterministicPipeline();
    opts.ingest.enabled = true;
    opts.ingest.log_dir = (dir_ / ("n" + std::to_string(i)) / "log").string();
    opts.maintenance_interval_millis = 50;
    opts.replication.enabled = true;
    opts.replication.node_id = i + 1;
    opts.replication.data_dir =
        (dir_ / ("n" + std::to_string(i)) / "raft").string();
    opts.replication.tick_millis = 5;
    opts.replication.heartbeat_ticks = 2;
    // Distinct per node: identical seeds make election timeouts collide,
    // producing repeated split votes.
    opts.replication.seed = 1234 + i;
    opts.replication.failpoint_scope = "n" + std::to_string(i + 1) + ".";
    for (size_t j = 0; j < ports_.size(); ++j) {
      if (j == i) continue;
      opts.replication.peers.push_back({j + 1, "127.0.0.1", ports_[j]});
    }
    return opts;
  }

  void StartNode(size_t i, size_t workers = 1) {
    auto proto = MakeLogisticRegression(kDim, 2);
    nodes_[i] =
        std::make_unique<StreamServer>(*proto, NodeOptions(i, workers));
    ASSERT_TRUE(nodes_[i]->Start().ok());
  }

  void StartCluster(size_t n, size_t workers = 1) {
    ports_.clear();
    for (size_t i = 0; i < n; ++i) ports_.push_back(ReservePort());
    nodes_.resize(n);
    registries_.clear();
    for (size_t i = 0; i < n; ++i) {
      registries_.push_back(std::make_unique<MetricsRegistry>());
    }
    for (size_t i = 0; i < n; ++i) StartNode(i, workers);
  }

  /// Index of the current leader among live nodes, or -1.
  int LeaderIndex() {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i] != nullptr && nodes_[i]->replicator() != nullptr &&
          nodes_[i]->replicator()->IsLeader()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  int WaitForLeader(int64_t timeout_millis = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (std::chrono::steady_clock::now() < deadline) {
      const int leader = LeaderIndex();
      if (leader >= 0) return leader;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return -1;
  }

  /// Polls until every live node has applied everything the leader
  /// committed (their ingest logs then agree byte for byte).
  void WaitForConvergence(int leader, int64_t timeout_millis = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (std::chrono::steady_clock::now() < deadline) {
      const uint64_t commit =
          nodes_[leader]->replicator()->commit_index();
      bool converged = true;
      for (auto& node : nodes_) {
        if (node == nullptr) continue;
        if (node->replicator()->applied_index() < commit) converged = false;
      }
      if (converged) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    FAIL() << "cluster did not converge within the timeout";
  }

  ClientOptions ClusterClient(uint64_t client_id, int first = -1) {
    ClientOptions opts;
    opts.client_id = client_id;
    opts.max_submit_attempts = 64;
    opts.reply_timeout_millis = 500;
    opts.backoff_initial_micros = 200;
    opts.backoff_max_micros = 20000;
    if (first >= 0) {
      opts.endpoints.push_back({"127.0.0.1", ports_[first]});
    }
    for (size_t i = 0; i < ports_.size(); ++i) {
      if (static_cast<int>(i) == first) continue;
      opts.endpoints.push_back({"127.0.0.1", ports_[i]});
    }
    return opts;
  }

  Batch NextLabeled(HyperplaneSource& source) {
    Result<Batch> batch = source.NextBatch(kBatchRows);
    EXPECT_TRUE(batch.ok()) << batch.status();
    return *std::move(batch);
  }

  /// Every segment byte of node i's ingest log, in segment order —
  /// replicated nodes must agree on this exactly.
  std::string LogBytes(size_t i) {
    std::vector<fs::path> segments;
    for (const auto& entry :
         fs::directory_iterator(dir_ / ("n" + std::to_string(i)) / "log")) {
      segments.push_back(entry.path());
    }
    std::sort(segments.begin(), segments.end());
    std::string bytes;
    for (const fs::path& path : segments) {
      std::ifstream in(path, std::ios::binary);
      bytes.append(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
    }
    return bytes;
  }

  fs::path dir_;
  std::vector<uint16_t> ports_;
  std::vector<std::unique_ptr<MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<StreamServer>> nodes_;
};

TEST_F(ReplicationTest, SingleNodeClusterServesAndLogs) {
  StartCluster(1);
  ASSERT_GE(WaitForLeader(), 0);
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 11;
  HyperplaneSource source(sopts);
  StreamClient client(ClusterClient(501));
  constexpr int kBatches = 6;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.Submit(3, NextLabeled(source)).ok());
  }
  EXPECT_EQ(client.tallies().acked, static_cast<uint64_t>(kBatches));
  nodes_[0]->Stop();
  const RuntimeStatsSnapshot snapshot = nodes_[0]->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(snapshot.totals.processed, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(nodes_[0]->ingest_log()->last_lsn(),
            static_cast<uint64_t>(kBatches));
}

TEST_F(ReplicationTest, ThreeNodeLogsAreBitIdentical) {
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 17;
  HyperplaneSource source(sopts);
  StreamClient client(ClusterClient(502, leader));
  constexpr int kBatches = 10;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.Submit(9, NextLabeled(source)).ok());
  }
  WaitForConvergence(leader);
  for (auto& node : nodes_) node->Stop();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes_[i]->ingest_log()->last_lsn(),
              static_cast<uint64_t>(kBatches))
        << "node " << i;
  }
  const std::string reference = LogBytes(0);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(LogBytes(1), reference);
  EXPECT_EQ(LogBytes(2), reference);
  // An ACKed batch was applied locally on the leader by definition; the
  // convergence wait extends that to every follower's runtime.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes_[i]->runtime()->Snapshot().totals.enqueued,
              static_cast<uint64_t>(kBatches))
        << "node " << i;
  }
}

TEST_F(ReplicationTest, RaftAppendSecondsObservedOnEveryNode) {
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 19;
  HyperplaneSource source(sopts);
  StreamClient client(ClusterClient(503, leader));
  for (int b = 0; b < 4; ++b) {
    ASSERT_TRUE(client.Submit(5, NextLabeled(source)).ok());
  }
  WaitForConvergence(leader);
  // The leader times its own appends and each follower times the entries
  // it stores from AppendEntries.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(registries_[i]
                  ->GetHistogram("freeway_raft_append_seconds")
                  ->TotalCount(),
              0u)
        << "node " << i;
  }
}

TEST_F(ReplicationTest, FollowerRedirectsClientToLeader) {
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  const int follower = (leader + 1) % 3;
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 23;
  HyperplaneSource source(sopts);
  // The follower is the client's *first* endpoint, so the submit must be
  // redirected before it can succeed.
  StreamClient client(ClusterClient(503, follower));
  ASSERT_TRUE(client.Submit(5, NextLabeled(source)).ok());
  EXPECT_GE(client.tallies().not_leader, 1u);
  EXPECT_GE(client.tallies().failovers, 1u);
  EXPECT_EQ(client.current_endpoint().port, ports_[leader]);
  const uint64_t redirects =
      registries_[follower]->GetCounter("freeway_net_not_leader_total")
          ->Value();
  EXPECT_GE(redirects, 1u);
}

TEST_F(ReplicationTest, ResendAfterCommitIsReAckedNotReProposed) {
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 29;
  HyperplaneSource source(sopts);
  StreamClient first(ClusterClient(504, leader));
  const Batch batch = NextLabeled(source);
  ASSERT_TRUE(first.Submit(4, batch).ok());
  // A second client with the same identity re-sends sequence 1 — the
  // replicated watermark answers it without a second proposal.
  StreamClient resender(ClusterClient(504, leader));
  ASSERT_TRUE(resender.Submit(4, batch).ok());
  WaitForConvergence(leader);
  for (auto& node : nodes_) node->Stop();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes_[i]->ingest_log()->last_lsn(), 1u) << "node " << i;
    EXPECT_EQ(nodes_[i]->runtime()->Snapshot().totals.enqueued, 1u)
        << "node " << i;
  }
  const uint64_t duplicates =
      registries_[leader]->GetCounter("freeway_net_duplicates_total")
          ->Value();
  EXPECT_GE(duplicates, 1u);
}

TEST_F(ReplicationTest, StoppedFollowerRejoinsAtExactCommitIndex) {
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  const int follower = (leader + 1) % 3;
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 31;
  HyperplaneSource source(sopts);
  StreamClient client(ClusterClient(505, leader));
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(client.Submit(6, NextLabeled(source)).ok());
  }
  WaitForConvergence(leader);

  // The follower dies (its durable raft state and ingest log survive) and
  // the cluster keeps committing on the remaining majority.
  nodes_[follower].reset();
  for (int b = 0; b < 5; ++b) {
    ASSERT_TRUE(client.Submit(6, NextLabeled(source)).ok());
  }

  // The restarted follower must catch up to the leader's exact commit
  // index and reconstruct the identical log.
  StartNode(follower);
  const uint64_t commit = nodes_[leader]->replicator()->commit_index();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (nodes_[follower]->replicator()->applied_index() < commit) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "follower never caught up: applied "
        << nodes_[follower]->replicator()->applied_index() << " of "
        << commit;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(nodes_[follower]->replicator()->applied_index(), commit);
  WaitForConvergence(leader);
  for (auto& node : nodes_) node->Stop();
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(nodes_[i]->ingest_log()->last_lsn(), 10u) << "node " << i;
  }
  const std::string reference = LogBytes(leader);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(LogBytes(follower), reference);
}

TEST_F(ReplicationTest, LeaderNeverReadsAppliedAboveCommit) {
  // The commit index is published before the applier can see the entries
  // it covers, so a reader never observes applied_index() > commit_index()
  // — the order WaitForConvergence relies on.
  StartCluster(3);
  const int leader = WaitForLeader();
  ASSERT_GE(leader, 0);
  Replicator* replicator = nodes_[leader]->replicator();
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> violations{0};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      const uint64_t applied = replicator->applied_index();
      const uint64_t commit = replicator->commit_index();
      if (applied > commit) violations.fetch_add(1);
      reads.fetch_add(1);
    }
  });
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 37;
  HyperplaneSource source(sopts);
  StreamClient client(ClusterClient(506, leader));
  constexpr int kBatches = 500;
  for (int b = 0; b < kBatches; ++b) {
    const Status submitted = client.Submit(b % 8, NextLabeled(source));
    if (!submitted.ok()) {
      ADD_FAILURE() << "batch " << b << ": " << submitted;
      break;
    }
  }
  done.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(violations.load(), 0u)
      << violations.load() << " of " << reads.load()
      << " reads saw applied > commit";
}

/// Satellite: steady-state checkpoint-anchored truncation in the
/// single-node (non-replicated) configuration.
class TruncationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_truncation_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    failpoint::DisarmAll();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    server_.reset();
    fs::remove_all(dir_);
  }

  void StartServer(size_t retention_segments = 0) {
    ServerOptions opts;
    opts.metrics = &registry_;
    opts.num_workers = 1;
    opts.runtime.num_shards = 2;
    opts.runtime.pipeline = DeterministicPipeline();
    opts.runtime.fault.enabled = true;
    opts.runtime.fault.checkpoint_dir = (dir_ / "ckpt").string();
    opts.runtime.fault.checkpoint_interval_batches = 4;
    opts.ingest.enabled = true;
    opts.ingest.log_dir = (dir_ / "log").string();
    // Small segments + a fast sweep so pruning happens within the test.
    opts.ingest.segment_max_bytes = 4096;
    opts.ingest.retention_segments = retention_segments;
    opts.maintenance_interval_millis = 20;
    auto proto = MakeLogisticRegression(kDim, 2);
    server_ = std::make_unique<StreamServer>(*proto, std::move(opts));
    ASSERT_TRUE(server_->Start().ok());
  }

  Batch NextLabeled(HyperplaneSource& source) {
    Result<Batch> batch = source.NextBatch(kBatchRows);
    EXPECT_TRUE(batch.ok()) << batch.status();
    return *std::move(batch);
  }

  void WaitForPruning(int64_t timeout_millis = 5000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_millis);
    while (server_->ingest_log()->stats().segments_pruned == 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "steady-state truncation never pruned a segment";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  fs::path dir_;
  MetricsRegistry registry_;
  std::unique_ptr<StreamServer> server_;
};

TEST_F(TruncationTest, SteadyStateSweepPrunesCoveredSegments) {
  StartServer();
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 41;
  HyperplaneSource source(sopts);
  ClientOptions copts;
  copts.port = server_->port();
  copts.client_id = 601;
  StreamClient client(copts);
  constexpr int kBatches = 48;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.Submit(2, NextLabeled(source)).ok());
  }
  WaitForPruning();
  const IngestLogStats stats = server_->ingest_log()->stats();
  EXPECT_GT(stats.segments_pruned, 0u);
  EXPECT_GT(stats.rotations, 0u);
  // Pruning must never eat records the checkpoints don't cover: everything
  // still replays to an admitted suffix and the server stays exactly-once.
  server_->Stop();
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(snapshot.totals.processed, static_cast<uint64_t>(kBatches));
}

TEST_F(TruncationTest, RetentionKnobKeepsSealedSegments) {
  StartServer(/*retention_segments=*/2);
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 43;
  HyperplaneSource source(sopts);
  ClientOptions copts;
  copts.port = server_->port();
  copts.client_id = 602;
  StreamClient client(copts);
  for (int b = 0; b < 48; ++b) {
    ASSERT_TRUE(client.Submit(2, NextLabeled(source)).ok());
  }
  WaitForPruning();
  server_->Stop();
  // The retention window survives every sweep: at least the configured
  // number of sealed segments plus the active one remain on disk.
  EXPECT_GE(server_->ingest_log()->stats().segments, 3u);
}

TEST_F(TruncationTest, WatermarksRebuildAfterTruncatedRestart) {
  StartServer();
  HyperplaneOptions sopts;
  sopts.dim = kDim;
  sopts.seed = 47;
  HyperplaneSource source(sopts);
  constexpr int kBatches = 48;
  std::vector<Batch> sent;
  {
    ClientOptions copts;
    copts.port = server_->port();
    copts.client_id = 603;
    StreamClient client(copts);
    for (int b = 0; b < kBatches; ++b) {
      sent.push_back(NextLabeled(source));
      ASSERT_TRUE(client.Submit(2, sent.back()).ok());
    }
    WaitForPruning();
  }
  server_->Stop();
  ASSERT_GT(server_->ingest_log()->stats().segments_pruned, 0u);

  // Restart over the truncated log: the early segments holding sequences
  // 1..k are gone, but every rotated segment starts with a watermark
  // snapshot, so recovery still knows client 603 is at sequence 48. A
  // fresh client with the same identity re-sending from sequence 1 must be
  // absorbed entirely by dedup — nothing re-enters the runtime.
  server_.reset();
  StartServer();
  ClientOptions copts;
  copts.port = server_->port();
  copts.client_id = 603;
  StreamClient resender(copts);
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(resender.Submit(2, sent[b]).ok());
  }
  server_->Stop();
  EXPECT_EQ(server_->runtime()->Snapshot().totals.enqueued, 0u);
  EXPECT_EQ(registry_.GetCounter("freeway_net_duplicates_total")->Value(),
            static_cast<uint64_t>(kBatches));
}

}  // namespace
}  // namespace freeway
