#ifndef FREEWAYML_PERFBENCH_CLUSTER_H_
#define FREEWAYML_PERFBENCH_CLUSTER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "perfbench/workload.h"

namespace perfbench {

/// The system under test: one perfbench_server process per node, started
/// with the workload's deployment and stopped with SIGTERM. The destructor
/// stops (and reaps) every process still running.
class Cluster {
 public:
  Cluster(std::string server_binary, std::string data_root,
          Deployment deployment, size_t dim, size_t classes, uint64_t seed);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Spawns every node and waits until each reports its listening port.
  freeway::Status Start();
  /// Graceful stop of every node (SIGTERM, then SIGKILL after a grace
  /// period); reaps them all. Idempotent.
  void Stop();
  /// SIGSTOP / SIGCONT every node (the stall self-test).
  void Pause();
  void Resume();

  const std::vector<uint16_t>& ports() const { return ports_; }
  /// Highest VmHWM over the live nodes, in MB; 0 when none is readable.
  double PeakRssMb() const;

 private:
  std::string server_binary_;
  std::string data_root_;
  Deployment deployment_;
  size_t dim_;
  size_t classes_;
  uint64_t seed_;
  std::vector<pid_t> pids_;
  std::vector<uint16_t> ports_;
};

/// Threads of this process (from /proc/self/status).
size_t ThreadsOfThisProcess();

}  // namespace perfbench

#endif  // FREEWAYML_PERFBENCH_CLUSTER_H_
