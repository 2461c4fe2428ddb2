// perfbench_server: one StreamServer node as its own process, configured
// only through the public ServerOptions. The load generator starts one of
// these per node, reads the "listening <port>" line from its stdout, and
// stops it with SIGTERM (graceful: drain, flush, close).
//
//   perfbench_server --dim=16 --classes=4 --workers=2 --shards=2
//       --ingest-dir=DIR [--fault-dir=DIR --checkpoint-interval=64]
//       [--rate-adjuster=0]
//       [--node-id=1 --port=P --raft-dir=DIR --peers=2:P2,3:P3 --raft-seed=S]
//
// Threads: the reactor workers, the global pool (FREEWAY_NUM_THREADS) that
// runs the shard drains, and in replicated mode the raft ticker and applier.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "ml/models.h"
#include "net/server.h"
#include "obs/metrics.h"

using namespace freeway;  // NOLINT — benchmark program.

namespace {

bool Flag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// "2:4001,3:4002" → peers {2, 127.0.0.1, 4001}, {3, 127.0.0.1, 4002}.
bool ParsePeers(const std::string& text, std::vector<ReplicationPeer>* peers) {
  size_t at = 0;
  while (at < text.size()) {
    const size_t comma = std::min(text.find(',', at), text.size());
    const std::string item = text.substr(at, comma - at);
    const size_t colon = item.find(':');
    if (colon == std::string::npos) return false;
    ReplicationPeer peer;
    peer.node_id = std::strtoull(item.c_str(), nullptr, 10);
    peer.host = "127.0.0.1";
    peer.port = static_cast<uint16_t>(std::atoi(item.c_str() + colon + 1));
    if (peer.node_id == 0 || peer.port == 0) return false;
    peers->push_back(peer);
    at = comma + 1;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t dim = 0, classes = 0;
  ServerOptions options;
  options.num_workers = 1;
  options.max_connections = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "dim", &v)) {
      dim = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "classes", &v)) {
      classes = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "port", &v)) {
      options.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (Flag(arg, "workers", &v)) {
      options.num_workers = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "shards", &v)) {
      options.runtime.num_shards = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "queue-capacity", &v)) {
      options.runtime.queue_capacity = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "ingest-dir", &v)) {
      options.ingest.enabled = true;
      options.ingest.log_dir = v;
    } else if (Flag(arg, "fault-dir", &v)) {
      options.runtime.fault.enabled = true;
      options.runtime.fault.checkpoint_dir = v;
    } else if (Flag(arg, "checkpoint-interval", &v)) {
      options.runtime.fault.checkpoint_interval_batches =
          std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "rate-adjuster", &v)) {
      options.runtime.pipeline.enable_rate_adjuster = v != "0";
    } else if (Flag(arg, "node-id", &v)) {
      options.replication.enabled = true;
      options.replication.node_id = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "raft-dir", &v)) {
      options.replication.data_dir = v;
    } else if (Flag(arg, "raft-seed", &v)) {
      options.replication.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(arg, "peers", &v)) {
      if (!ParsePeers(v, &options.replication.peers)) {
        std::fprintf(stderr, "bad --peers %s\n", v.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (dim == 0 || classes < 2) {
    std::fprintf(stderr, "--dim and --classes are required\n");
    return 2;
  }

  // SIGTERM/SIGINT are taken synchronously by the main thread; block them
  // before any thread starts so every thread inherits the mask.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  MetricsRegistry registry;
  options.metrics = &registry;
  ThreadPool::Global()->AttachMetrics(&registry);
  auto prototype = MakeMlp(dim, classes);
  StreamServer server(*prototype, options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("listening %u\n", server.port());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&stop_signals, &signal_number);
  server.Stop();
  return 0;
}
