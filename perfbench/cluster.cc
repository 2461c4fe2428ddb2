#include "perfbench/cluster.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "net/socket_util.h"

namespace perfbench {

namespace {

using freeway::Status;

constexpr int kStartTimeoutMillis = 20000;
constexpr int kStopGraceMillis = 20000;

/// Reads one "listening <port>" line from the child's stdout pipe.
freeway::Result<uint16_t> ReadPort(int fd) {
  std::string line;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStartTimeoutMillis);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return Status::Unavailable("server start timed out");
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[128];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return Status::Unavailable("server exited during start");
    line.append(buf, static_cast<size_t>(n));
  }
  if (line.rfind("listening ", 0) != 0) {
    return Status::Internal("unexpected server output: " + line);
  }
  return static_cast<uint16_t>(std::atoi(line.c_str() + 10));
}

uint64_t StatusField(pid_t pid, const std::string& key) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtoull(line.c_str() + key.size() + 1, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

size_t ThreadsOfThisProcess() { return StatusField(0, "Threads"); }

Cluster::Cluster(std::string server_binary, std::string data_root,
                 Deployment deployment, size_t dim, size_t classes,
                 uint64_t seed)
    : server_binary_(std::move(server_binary)),
      data_root_(std::move(data_root)),
      deployment_(deployment),
      dim_(dim),
      classes_(classes),
      seed_(seed) {}

Cluster::~Cluster() { Stop(); }

Status Cluster::Start() {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(data_root_, ec);
  const Deployment& d = deployment_;
  const bool replicated = d.nodes > 1;
  // A raft node must know its peers' ports before any node starts.
  std::vector<uint16_t> fixed_ports(d.nodes, 0);
  if (replicated) {
    for (uint16_t& port : fixed_ports) {
      ASSIGN_OR_RETURN(int fd,
                       freeway::net::CreateListenSocket("127.0.0.1", 0, 4));
      auto bound = freeway::net::LocalPort(fd);
      freeway::net::CloseFd(fd);
      RETURN_IF_ERROR(bound.status());
      port = *bound;
    }
  }
  for (size_t i = 0; i < d.nodes; ++i) {
    const std::string dir = data_root_ + "/n" + std::to_string(i + 1);
    fs::create_directories(dir, ec);
    std::vector<std::string> args = {
        server_binary_,
        "--dim=" + std::to_string(dim_),
        "--classes=" + std::to_string(classes_),
        "--workers=" + std::to_string(d.reactor_workers),
        "--shards=" + std::to_string(d.shards),
        "--queue-capacity=" + std::to_string(d.queue_capacity),
        "--port=" + std::to_string(fixed_ports[i])};
    args.push_back("--ingest-dir=" + dir + "/log");
    if (d.checkpoint_interval > 0) {
      args.push_back("--fault-dir=" + dir + "/ckpt");
      args.push_back("--checkpoint-interval=" +
                     std::to_string(d.checkpoint_interval));
    }
    if (!d.rate_adjuster) args.push_back("--rate-adjuster=0");
    if (replicated) {
      args.push_back("--node-id=" + std::to_string(i + 1));
      args.push_back("--raft-dir=" + dir + "/raft");
      args.push_back("--raft-seed=" + std::to_string(seed_ * 31 + i));
      std::string peers;
      for (size_t j = 0; j < d.nodes; ++j) {
        if (j == i) continue;
        if (!peers.empty()) peers += ",";
        peers += std::to_string(j + 1) + ":" + std::to_string(fixed_ports[j]);
      }
      args.push_back("--peers=" + peers);
    }

    int out[2];
    if (::pipe(out) != 0) return Status::IoError("pipe failed");
    const std::string threads = std::to_string(d.pool_threads);
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(out[0]);
      ::close(out[1]);
      return Status::IoError("fork failed");
    }
    if (pid == 0) {
      // The server must not outlive its generator, whatever kills it, and
      // runs at the default priority below the generator's.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::setpriority(PRIO_PROCESS, 0, 0);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::setenv("FREEWAY_NUM_THREADS", threads.c_str(), 1);

      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      std::_Exit(127);
    }
    ::close(out[1]);
    pids_.push_back(pid);
    auto port = ReadPort(out[0]);
    ::close(out[0]);
    if (!port.ok()) {
      Stop();
      return port.status();
    }
    ports_.push_back(*port);
  }
  return Status::OK();
}

void Cluster::Stop() {
  for (pid_t pid : pids_) {
    ::kill(pid, SIGCONT);
    ::kill(pid, SIGTERM);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kStopGraceMillis);
  for (pid_t pid : pids_) {
    while (::waitpid(pid, nullptr, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  pids_.clear();
  ports_.clear();
}

void Cluster::Pause() {
  for (pid_t pid : pids_) ::kill(pid, SIGSTOP);
}

void Cluster::Resume() {
  for (pid_t pid : pids_) ::kill(pid, SIGCONT);
}

double Cluster::PeakRssMb() const {
  uint64_t peak_kb = 0;
  for (pid_t pid : pids_) peak_kb = std::max(peak_kb, StatusField(pid, "VmHWM"));
  return static_cast<double>(peak_kb) / 1024.0;
}

}  // namespace perfbench
