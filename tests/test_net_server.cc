#include "net/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "ml/models.h"
#include "net/client.h"
#include "net/socket_util.h"

namespace freeway {
namespace {

constexpr size_t kDim = 4;
constexpr size_t kBatchRows = 16;

RuntimeOptions FastRuntime() {
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.pipeline.learner.base_window_batches = 4;
  opts.pipeline.learner.detector.warmup_batches = 3;
  return opts;
}

/// A drifting labeled source for one client thread.
HyperplaneSource MakeSource(uint64_t seed) {
  HyperplaneOptions opts;
  opts.dim = kDim;
  opts.seed = seed;
  return HyperplaneSource(opts);
}

Batch NextBatch(HyperplaneSource& source, bool labeled) {
  Result<Batch> batch = source.NextBatch(kBatchRows);
  EXPECT_TRUE(batch.ok()) << batch.status();
  if (!labeled) batch->labels.clear();
  return *std::move(batch);
}

class NetServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.metrics = &registry_;
    auto proto = MakeLogisticRegression(kDim, 2);
    server_ = std::make_unique<StreamServer>(*proto, std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->port(), 0);
  }

  ClientOptions ClientFor() {
    ClientOptions opts;
    opts.port = server_->port();
    return opts;
  }

  uint64_t CounterValue(const std::string& name) {
    return registry_.GetCounter(name)->Value();
  }

  MetricsRegistry registry_;
  std::unique_ptr<StreamServer> server_;
};

TEST_F(NetServerTest, StartStopSmoke) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);
  EXPECT_TRUE(server_->running());
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(NetServerTest, SingleClientSubmitAndResults) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);

  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(7);
  constexpr int kBatches = 12;
  size_t unlabeled = 0;
  for (int b = 0; b < kBatches; ++b) {
    const bool labeled = b % 3 != 2;
    if (!labeled) ++unlabeled;
    ASSERT_TRUE(client.Submit(5, NextBatch(source, labeled)).ok());
  }
  EXPECT_EQ(client.tallies().acked, static_cast<uint64_t>(kBatches));

  // Every unlabeled batch produces exactly one RESULT frame.
  std::vector<StreamResult> results = client.TakeResults();
  while (results.size() < unlabeled) {
    Result<std::vector<StreamResult>> more = client.PollResults(2000);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_FALSE(more->empty()) << "timed out with " << results.size()
                                << "/" << unlabeled << " results";
    results.insert(results.end(), more->begin(), more->end());
  }
  EXPECT_EQ(results.size(), unlabeled);
  for (const StreamResult& r : results) {
    EXPECT_EQ(r.stream_id, 5u);
    EXPECT_EQ(r.report.predictions.size(), kBatchRows);
  }

  client.Disconnect();
  server_->Stop();

  // Exact reconciliation: client tallies vs freeway_net_* vs the runtime.
  EXPECT_EQ(CounterValue("freeway_net_submits_total"),
            client.tallies().submits_sent);
  EXPECT_EQ(CounterValue("freeway_net_acks_total"), client.tallies().acked);
  EXPECT_EQ(CounterValue("freeway_net_results_total"),
            client.tallies().results);
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(snapshot.totals.processed, static_cast<uint64_t>(kBatches));
}

TEST_F(NetServerTest, SequentialRoundTripsDoNotWaitOnDelayedAck) {
  // The server writes an ACK and, moments later, the RESULT on the same
  // connection. Without TCP_NODELAY on the accepted socket, Nagle holds the
  // RESULT until the client ACKs the first segment, and a plain client
  // (no TCP_QUICKACK) delays that ACK by up to 40 ms — every round trip
  // would then take about 40 ms.
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);
  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(11);
  ASSERT_TRUE(client.Submit(3, NextBatch(source, true)).ok());

  constexpr int kRoundTrips = 60;
  std::vector<double> round_trip_ms;
  for (int i = 0; i < kRoundTrips; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(client.Submit(3, NextBatch(source, false)).ok());
    size_t results = client.TakeResults().size();
    while (results == 0) {
      Result<std::vector<StreamResult>> more = client.PollResults(2000);
      ASSERT_TRUE(more.ok()) << more.status();
      ASSERT_FALSE(more->empty()) << "no RESULT for round trip " << i;
      results += more->size();
    }
    ASSERT_EQ(results, 1u);
    round_trip_ms.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
  }
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  const double p50 = round_trip_ms[round_trip_ms.size() / 2];
  EXPECT_LT(p50, 10.0) << "SUBMIT->RESULT p50 " << p50
                       << " ms: replies are waiting on delayed ACKs";
  client.Disconnect();
  server_->Stop();
}

TEST_F(NetServerTest, InMemoryDedupReAcksWithoutIngestLog) {
  // The watermark table works with the durable log switched off: a
  // hand-rolled duplicate SUBMIT (same client, same sequence) is re-ACKed
  // without reaching the runtime.
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);
  ASSERT_EQ(server_->ingest_log(), nullptr);

  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(9);
  ASSERT_TRUE(client.Submit(6, NextBatch(source, true)).ok());
  ASSERT_TRUE(client.Submit(6, NextBatch(source, true)).ok());
  EXPECT_EQ(server_->dedup_index()->Watermark(client.client_id()), 2u);

  // Forge the resend the client would produce after a lost ACK: a second
  // client with the same identity restarts at sequence 1.
  ClientOptions forged = ClientFor();
  forged.client_id = client.client_id();
  StreamClient resender(forged);
  HyperplaneSource replay_source = MakeSource(9);
  ASSERT_TRUE(resender.Submit(6, NextBatch(replay_source, true)).ok());
  EXPECT_EQ(resender.tallies().acked, 1u);

  client.Disconnect();
  resender.Disconnect();
  server_->Stop();
  EXPECT_EQ(CounterValue("freeway_net_duplicates_total"), 1u);
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, 2u);
  EXPECT_EQ(snapshot.totals.processed, 2u);
}

TEST_F(NetServerTest, MultiClientThreadsReconcileExactly) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.runtime.num_shards = 4;
  StartServer(opts);

  constexpr int kClients = 4;
  constexpr int kBatches = 10;
  std::vector<ClientTallies> tallies(kClients);
  std::vector<std::thread> producers;
  for (int c = 0; c < kClients; ++c) {
    producers.emplace_back([this, c, &tallies] {
      StreamClient client(ClientFor());
      HyperplaneSource source = MakeSource(100 + c);
      for (int b = 0; b < kBatches; ++b) {
        // Labeled traffic only: no RESULT frames, so every counter on both
        // sides has an exact expected value.
        ASSERT_TRUE(client.Submit(c, NextBatch(source, true)).ok());
      }
      tallies[c] = client.tallies();
    });
  }
  for (auto& t : producers) t.join();
  server_->Stop();

  uint64_t sent = 0, acked = 0, overloads = 0;
  for (const ClientTallies& t : tallies) {
    sent += t.submits_sent;
    acked += t.acked;
    overloads += t.overloads;
  }
  EXPECT_EQ(acked, static_cast<uint64_t>(kClients * kBatches));
  EXPECT_EQ(CounterValue("freeway_net_submits_total"), sent);
  EXPECT_EQ(CounterValue("freeway_net_acks_total"), acked);
  EXPECT_EQ(CounterValue("freeway_net_overloads_total"), overloads);
  EXPECT_EQ(CounterValue("freeway_runtime_batches_total{event=\"enqueued\"}"),
            acked);
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, acked);
  EXPECT_EQ(snapshot.totals.processed, acked);
  EXPECT_EQ(snapshot.totals.shed, 0u);
}

TEST_F(NetServerTest, FullQueueRepliesOverloadNotBlock) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.runtime.num_shards = 1;
  opts.runtime.queue_capacity = 1;
  // No drain tasks: the queue stays full, so overload replies are
  // deterministic rather than a race against the drain thread.
  opts.runtime.schedule_workers = false;
  opts.overload_retry_micros = 1000;
  StartServer(opts);

  ClientOptions copts = ClientFor();
  copts.max_submit_attempts = 3;
  copts.backoff_initial_micros = 100;
  copts.backoff_max_micros = 1000;
  StreamClient client(copts);
  HyperplaneSource source = MakeSource(9);

  ASSERT_TRUE(client.Submit(0, NextBatch(source, true)).ok());
  Status second = client.Submit(0, NextBatch(source, true));
  EXPECT_EQ(second.code(), StatusCode::kUnavailable) << second;
  EXPECT_EQ(client.tallies().overloads, 3u);
  EXPECT_EQ(client.tallies().acked, 1u);

  client.Disconnect();
  server_->Stop();
  EXPECT_EQ(CounterValue("freeway_net_overloads_total"), 3u);
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.rejected, 3u);
  EXPECT_EQ(snapshot.totals.enqueued, 1u);
}

TEST_F(NetServerTest, PerStreamFifoOverTheWire) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);

  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(11);
  constexpr int kBatches = 8;
  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(client.Submit(3, NextBatch(source, false)).ok());
  }
  std::vector<StreamResult> results = client.TakeResults();
  while (results.size() < kBatches) {
    Result<std::vector<StreamResult>> more = client.PollResults(2000);
    ASSERT_TRUE(more.ok()) << more.status();
    ASSERT_FALSE(more->empty());
    results.insert(results.end(), more->begin(), more->end());
  }
  ASSERT_EQ(results.size(), static_cast<size_t>(kBatches));
  for (int b = 0; b < kBatches; ++b) {
    EXPECT_EQ(results[b].batch_index, b) << "results out of order";
  }
  server_->Stop();
}

TEST_F(NetServerTest, MetricsEndpointServesPrometheusText) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);

  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(13);
  ASSERT_TRUE(client.Submit(1, NextBatch(source, true)).ok());
  ASSERT_TRUE(client.Submit(2, NextBatch(source, true)).ok());

  Result<std::string> body = HttpGet("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(body.ok()) << body.status();
  // One scrape covers the net layer and the embedded runtime.
  EXPECT_NE(body->find("freeway_net_submits_total 2"), std::string::npos)
      << *body;
  EXPECT_NE(body->find("freeway_net_acks_total 2"), std::string::npos);
  EXPECT_NE(body->find("freeway_runtime_batches_total"), std::string::npos);
  EXPECT_NE(body->find("freeway_net_active_connections"), std::string::npos);

  Result<std::string> missing =
      HttpGet("127.0.0.1", server_->port(), "/nope");
  EXPECT_FALSE(missing.ok());
  server_->Stop();
  EXPECT_GE(CounterValue("freeway_net_http_requests_total"), 2u);
}

TEST_F(NetServerTest, StatsRequestReturnsRuntimeJson) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);
  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(17);
  ASSERT_TRUE(client.Submit(0, NextBatch(source, true)).ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_NE(stats->find("\"shards\""), std::string::npos) << *stats;
  server_->Stop();
}

TEST_F(NetServerTest, ShutdownFrameStopsServerGracefully) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);
  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(19);
  ASSERT_TRUE(client.Submit(0, NextBatch(source, true)).ok());
  ASSERT_TRUE(client.RequestShutdown().ok());
  server_->Wait();
  EXPECT_FALSE(server_->running());
  // Work admitted before the shutdown frame was still processed.
  EXPECT_EQ(server_->runtime()->Snapshot().totals.processed, 1u);
}

TEST_F(NetServerTest, MalformedSubmitGetsErrorReplyAndConnectionSurvives) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  StartServer(opts);

  // Hand-craft a SUBMIT frame whose payload passes CRC but is not a
  // SubmitMessage (it is an ACK payload): the server must reply ERROR and
  // keep the connection alive — a client bug is not line noise.
  const std::vector<char> ack_frame = EncodeAck({1, 2});
  const std::vector<char> payload(ack_frame.begin() + kFrameHeaderBytes,
                                  ack_frame.end());
  const std::vector<char> bogus = EncodeFrame(FrameType::kSubmit, payload);

  Result<int> fd = net::ConnectSocket("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  ASSERT_TRUE(net::SendAll(*fd, bogus.data(), bogus.size()).ok());

  FrameDecoder decoder;
  Frame reply;
  char chunk[4096];
  while (true) {
    Result<Frame> next = decoder.Next();
    if (next.ok()) {
      reply = *next;
      break;
    }
    ASSERT_TRUE(net::WaitReadable(*fd, 2000).ok());
    const ssize_t n = ::recv(*fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0) << "server closed the connection on a client bug";
    decoder.Feed(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(reply.type, FrameType::kError);

  // The same connection still serves a well-formed submit.
  HyperplaneSource source = MakeSource(23);
  SubmitMessage good;
  good.stream_id = 0;
  good.batch = NextBatch(source, true);
  const std::vector<char> encoded = EncodeSubmit(good);
  ASSERT_TRUE(net::SendAll(*fd, encoded.data(), encoded.size()).ok());
  while (true) {
    Result<Frame> next = decoder.Next();
    if (next.ok()) {
      EXPECT_EQ(next->type, FrameType::kAck);
      break;
    }
    ASSERT_TRUE(net::WaitReadable(*fd, 2000).ok());
    const ssize_t n = ::recv(*fd, chunk, sizeof(chunk), 0);
    ASSERT_GT(n, 0);
    decoder.Feed(chunk, static_cast<size_t>(n));
  }
  net::CloseFd(*fd);
  server_->Stop();
  EXPECT_EQ(CounterValue("freeway_net_errors_total"), 1u);
  EXPECT_GE(CounterValue("freeway_net_decode_errors_total"), 1u);
}

/// Next frame on a raw socket, or NotFound when none arrives in time.
Result<Frame> ReadFrame(int fd, FrameDecoder& decoder, int64_t timeout_millis) {
  char chunk[4096];
  while (true) {
    Result<Frame> next = decoder.Next();
    if (next.ok()) return next;
    if (!net::WaitReadable(fd, timeout_millis).ok()) {
      return Status::NotFound("no frame within the timeout");
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return Status::IoError("connection closed");
    decoder.Feed(chunk, static_cast<size_t>(n));
  }
}

TEST_F(NetServerTest, ResultOfClosedConnectionNeverReachesItsFdReuser) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.runtime.num_shards = 1;
  // No drain tasks: a batch's RESULT exists only once the test pumps.
  opts.runtime.schedule_workers = false;
  StartServer(opts);
  HyperplaneSource source = MakeSource(29);
  auto wait_for = [this](const std::string& counter, uint64_t value) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (CounterValue(counter) < value) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << counter;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  // Client A submits an unlabeled batch and hangs up after its ACK,
  // before the RESULT exists.
  Result<int> a = net::ConnectSocket("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(a.ok()) << a.status();
  SubmitMessage mine;
  mine.stream_id = 7;
  mine.batch = NextBatch(source, false);
  std::vector<char> frame = EncodeSubmit(mine);
  ASSERT_TRUE(net::SendAll(*a, frame.data(), frame.size()).ok());
  FrameDecoder a_decoder;
  Result<Frame> ack = ReadFrame(*a, a_decoder, 2000);
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->type, FrameType::kAck);
  net::CloseFd(*a);
  wait_for("freeway_net_connections_total{event=\"closed\"}", 1);

  // Client B connects — the kernel hands out the lowest free fd numbers,
  // so the server's side of B reuses A's — and submits on its own stream.
  Result<int> b = net::ConnectSocket("127.0.0.1", server_->port(), 2000);
  ASSERT_TRUE(b.ok()) << b.status();
  SubmitMessage theirs;
  theirs.stream_id = 8;
  theirs.batch = NextBatch(source, true);
  frame = EncodeSubmit(theirs);
  ASSERT_TRUE(net::SendAll(*b, frame.data(), frame.size()).ok());
  FrameDecoder b_decoder;
  ack = ReadFrame(*b, b_decoder, 2000);
  ASSERT_TRUE(ack.ok()) << ack.status();
  ASSERT_EQ(ack->type, FrameType::kAck);

  // A's RESULT now exists. Its connection is gone, so it is dropped; it
  // must not be written to B.
  EXPECT_EQ(server_->runtime()->PumpShard(0), 2u);
  wait_for("freeway_net_results_dropped_total", 1);
  Result<Frame> stray = ReadFrame(*b, b_decoder, 200);
  EXPECT_FALSE(stray.ok()) << "B received a "
                           << FrameTypeName(stray->type)
                           << " frame meant for A";
  net::CloseFd(*b);
  server_->Stop();
  EXPECT_EQ(CounterValue("freeway_net_results_total"), 0u);
}

/// ---- Multi-reactor (num_workers > 1) coverage ----

class MultiWorkerServerTest : public NetServerTest {
 protected:
  uint64_t WorkerConnections(size_t worker) {
    return CounterValue("freeway_net_worker_connections_total{worker=\"" +
                        std::to_string(worker) + "\"}");
  }

  bool EveryWorkerAccepted(size_t num_workers) {
    for (size_t i = 0; i < num_workers; ++i) {
      if (WorkerConnections(i) == 0) return false;
    }
    return true;
  }
};

TEST_F(MultiWorkerServerTest, AcceptShardingReachesEveryWorker) {
  constexpr size_t kWorkers = 4;
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.num_workers = kWorkers;
  opts.max_connections = 256;
  StartServer(opts);
  ASSERT_EQ(server_->num_workers(), kWorkers);

  // Keep opening connections (each proves itself with one labeled submit)
  // until every worker has accepted at least one. The kernel hashes the
  // 4-tuple across SO_REUSEPORT listeners, so with 128 distinct source
  // ports the chance of starving one of 4 workers is ~4*(3/4)^128 — zero
  // in practice. The dup-listener fallback makes no spread promise (any
  // worker's accept() may win every race), so there the test only demands
  // that the fallback path carries all traffic correctly.
  HyperplaneSource source = MakeSource(31);
  std::vector<std::unique_ptr<StreamClient>> clients;
  constexpr size_t kMaxConnections = 128;
  while (clients.size() < kMaxConnections &&
         !EveryWorkerAccepted(kWorkers)) {
    clients.push_back(std::make_unique<StreamClient>(ClientFor()));
    const uint64_t stream_id = clients.size();
    ASSERT_TRUE(
        clients.back()->Submit(stream_id, NextBatch(source, true)).ok());
  }
  if (server_->reuseport_sharding()) {
    EXPECT_TRUE(EveryWorkerAccepted(kWorkers))
        << "a worker accepted nothing after " << clients.size()
        << " connections";
  }

  // Per-worker accept counters partition the global accept counter.
  uint64_t across_workers = 0;
  for (size_t i = 0; i < kWorkers; ++i) across_workers += WorkerConnections(i);
  EXPECT_EQ(across_workers,
            CounterValue("freeway_net_connections_total{event=\"accepted\"}"));

  const uint64_t submitted = clients.size();
  for (auto& client : clients) client->Disconnect();
  server_->Stop();
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, submitted);
  EXPECT_EQ(snapshot.totals.processed, submitted);
}

TEST_F(MultiWorkerServerTest, CrossWorkerExactReconciliation) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.runtime.num_shards = 4;
  opts.num_workers = 3;
  StartServer(opts);

  // Mixed labeled/inference traffic from concurrent clients whose
  // connections land on different workers. Every RESULT must find its way
  // from a drain thread through the route table to the owning worker.
  constexpr int kClients = 6;
  constexpr int kBatches = 12;
  std::vector<ClientTallies> tallies(kClients);
  std::vector<std::thread> producers;
  for (int c = 0; c < kClients; ++c) {
    producers.emplace_back([this, c, &tallies] {
      StreamClient client(ClientFor());
      HyperplaneSource source = MakeSource(300 + c);
      size_t unlabeled = 0;
      for (int b = 0; b < kBatches; ++b) {
        const bool labeled = b % 4 != 3;
        if (!labeled) ++unlabeled;
        ASSERT_TRUE(client.Submit(c, NextBatch(source, labeled)).ok());
      }
      size_t results = client.TakeResults().size();
      while (results < unlabeled) {
        Result<std::vector<StreamResult>> more = client.PollResults(2000);
        ASSERT_TRUE(more.ok()) << more.status();
        ASSERT_FALSE(more->empty());
        results += more->size();
      }
      tallies[c] = client.tallies();
    });
  }
  for (auto& t : producers) t.join();
  server_->Stop();

  uint64_t sent = 0, acked = 0, results = 0;
  for (const ClientTallies& t : tallies) {
    sent += t.submits_sent;
    acked += t.acked;
    results += t.results;
  }
  EXPECT_EQ(acked, static_cast<uint64_t>(kClients * kBatches));
  EXPECT_EQ(CounterValue("freeway_net_submits_total"), sent);
  EXPECT_EQ(CounterValue("freeway_net_acks_total"), acked);
  EXPECT_EQ(CounterValue("freeway_net_results_total"), results);
  EXPECT_EQ(CounterValue("freeway_net_results_dropped_total"), 0u);

  // The exact ledger after a quiescent stop, summed over every worker's
  // traffic: enqueued = processed + shed + quarantined + undrained +
  // in_flight, with everything but processed pinned at zero.
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.enqueued, acked);
  EXPECT_EQ(snapshot.totals.enqueued,
            snapshot.totals.processed + snapshot.totals.shed +
                snapshot.totals.quarantined + snapshot.totals.undrained +
                snapshot.totals.in_flight);
  EXPECT_EQ(snapshot.totals.processed, acked);
  EXPECT_EQ(snapshot.totals.shed, 0u);
  EXPECT_EQ(snapshot.totals.quarantined, 0u);
  EXPECT_EQ(snapshot.totals.undrained, 0u);
  EXPECT_EQ(snapshot.totals.in_flight, 0u);
}

TEST_F(MultiWorkerServerTest, HttpServedRegardlessOfWorker) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.num_workers = 4;
  StartServer(opts);
  StreamClient client(ClientFor());
  HyperplaneSource source = MakeSource(41);
  ASSERT_TRUE(client.Submit(0, NextBatch(source, true)).ok());

  // Each scrape is a fresh connection the kernel routes to some worker;
  // 16 in a row exercise several of them, and every one must serve both
  // endpoints.
  for (int i = 0; i < 16; ++i) {
    Result<std::string> metrics =
        HttpGet("127.0.0.1", server_->port(), "/metrics");
    ASSERT_TRUE(metrics.ok()) << metrics.status();
    EXPECT_NE(metrics->find("freeway_net_submits_total"), std::string::npos);
    Result<std::string> stats =
        HttpGet("127.0.0.1", server_->port(), "/stats");
    ASSERT_TRUE(stats.ok()) << stats.status();
    EXPECT_NE(stats->find("\"shards\""), std::string::npos) << *stats;
  }
  server_->Stop();
}

TEST_F(MultiWorkerServerTest, ShutdownFrameDrainsAllWorkers) {
  ServerOptions opts;
  opts.runtime = FastRuntime();
  opts.num_workers = 3;
  StartServer(opts);

  // Admit work through several connections (spread across workers), then
  // let one of them pull the plug: the coordinated stop must still process
  // everything admitted on every worker.
  constexpr int kClients = 5;
  std::vector<std::unique_ptr<StreamClient>> clients;
  HyperplaneSource source = MakeSource(43);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<StreamClient>(ClientFor()));
    ASSERT_TRUE(clients.back()->Submit(c, NextBatch(source, true)).ok());
    ASSERT_TRUE(clients.back()->Submit(c, NextBatch(source, true)).ok());
  }
  ASSERT_TRUE(clients.front()->RequestShutdown().ok());
  server_->Wait();
  EXPECT_FALSE(server_->running());
  const RuntimeStatsSnapshot snapshot = server_->runtime()->Snapshot();
  EXPECT_EQ(snapshot.totals.processed,
            static_cast<uint64_t>(kClients * 2));
  EXPECT_EQ(snapshot.totals.undrained, 0u);
}

TEST(ClientBackoffTest, ServerRetryAfterIsClampedToClientCeiling) {
  Result<int> listen_fd = net::CreateListenSocket("127.0.0.1", 0, 4);
  ASSERT_TRUE(listen_fd.ok()) << listen_fd.status();
  Result<uint16_t> port = net::LocalPort(*listen_fd);
  ASSERT_TRUE(port.ok()) << port.status();

  // A buggy (or hostile) server: answers every submit attempt with an
  // OVERLOAD advising an hour-long retry_after. Incoming request bytes are
  // drained so the final close is orderly — closing with unread data would
  // RST the connection and discard the queued replies.
  std::thread hostile([fd = *listen_fd] {
    if (!net::WaitReadable(fd, 5000).ok()) return;
    const int conn = ::accept(fd, nullptr, nullptr);
    if (conn < 0) return;
    OverloadMessage overload;
    overload.stream_id = 9;
    overload.batch_index = 0;
    overload.retry_after_micros = 3'600'000'000;  // One hour.
    const std::vector<char> frame = EncodeOverload(overload);
    char sink[4096];
    while (net::WaitReadable(conn, 2000).ok()) {
      const ssize_t n = ::recv(conn, sink, sizeof(sink), 0);
      if (n <= 0) break;  // Client gave up and disconnected.
      if (!net::SendAll(conn, frame.data(), frame.size()).ok()) break;
    }
    net::CloseFd(conn);
  });

  ClientOptions opts;
  opts.port = *port;
  opts.max_submit_attempts = 3;
  opts.backoff_initial_micros = 100;
  opts.backoff_max_micros = 1000;
  opts.max_retry_after_micros = 20'000;  // 20 ms ceiling.
  StreamClient client(opts);

  HyperplaneSource source = MakeSource(11);
  const auto start = std::chrono::steady_clock::now();
  Status submitted = client.Submit(9, NextBatch(source, false));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);

  // The wire-supplied floor is clamped to the client's ceiling: three
  // attempts back off ~20 ms each instead of an hour each, and the submit
  // fails fast with Unavailable.
  EXPECT_EQ(submitted.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.tallies().overloads, 3u);
  EXPECT_LT(elapsed.count(), 2000);

  client.Disconnect();
  net::CloseFd(*listen_fd);
  hostile.join();
}

TEST(DecorrelatedJitterTest, StepsSpreadAcrossTheBackoffRange) {
  constexpr int64_t kBase = 500;
  constexpr int64_t kCap = 100000;
  constexpr int kSteps = 100;
  uint64_t rng = 42;
  int64_t prev = 0;
  std::set<int64_t> distinct;
  for (int i = 0; i < kSteps; ++i) {
    prev = DecorrelatedJitterStep(&rng, prev, kBase, kCap);
    EXPECT_GE(prev, kBase);
    EXPECT_LE(prev, kCap);
    distinct.insert(prev);
  }
  // The whole point of jitter is that waits do NOT collapse onto a few
  // deterministic doubling steps — a fleet sleeping in lockstep stampedes
  // back in lockstep. Expect genuine spread.
  EXPECT_GE(distinct.size(), 50u);
}

TEST(DecorrelatedJitterTest, DifferentSeedsProduceDifferentSequences) {
  constexpr int64_t kBase = 500;
  constexpr int64_t kCap = 100000;
  uint64_t rng_a = 1001;
  uint64_t rng_b = 1002;
  int64_t prev_a = 0;
  int64_t prev_b = 0;
  int diverged = 0;
  for (int i = 0; i < 32; ++i) {
    prev_a = DecorrelatedJitterStep(&rng_a, prev_a, kBase, kCap);
    prev_b = DecorrelatedJitterStep(&rng_b, prev_b, kBase, kCap);
    if (prev_a != prev_b) ++diverged;
  }
  // Two clients with adjacent ids must not march through identical waits.
  EXPECT_GE(diverged, 16);
}

TEST(DecorrelatedJitterTest, CapBoundsTheGrowth) {
  uint64_t rng = 7;
  int64_t prev = 0;
  for (int i = 0; i < 64; ++i) {
    prev = DecorrelatedJitterStep(&rng, prev, 500, 4000);
    EXPECT_LE(prev, 4000);
    EXPECT_GE(prev, 500);
  }
}

}  // namespace
}  // namespace freeway
