#ifndef FREEWAYML_PERFBENCH_LOADGEN_H_
#define FREEWAYML_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "scenarios/scenario.h"

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNanos();

/// One tape event as the generator serves it, with every timestamp the
/// generator takes for it (-1 = never happened). Kept in memory for the
/// whole run; the traced run writes them out as the per-request spans.
struct Request {
  size_t base_index = 0;
  uint64_t stream_id = 0;
  uint32_t tenant_id = 0;
  uint8_t priority = 1;
  bool labeled = false;
  size_t rows = 0;
  /// Exactly-once identity: one client id per logical stream.
  uint64_t client_id = 0;
  uint64_t sequence = 0;
  /// Due time (open loop) and when the generator acted on it; their
  /// difference is the generator's own lateness.
  int64_t due_ns = 0;
  int64_t released_ns = -1;
  int64_t sent_ns = -1;  ///< First SUBMIT written.
  int64_t ack_ns = -1;   ///< Final ACK arrival.
  int64_t result_ns = -1;
  uint32_t overloads = 0;
  uint32_t acks = 0;
  bool failed = false;
};

/// One generator phase. Open loop: every request is released at its due
/// time, whatever the server does. Closed loop: every stream keeps one
/// batch in flight (sent, and not yet ACKed or, if unlabeled, answered)
/// until `closed_seconds` have passed.
struct PhaseOptions {
  bool open_loop = true;
  double closed_seconds = 0.0;
  /// Added to every stream id and client id, so a phase never collides
  /// with an earlier one's streams (a multiple of every shard count keeps
  /// the stream → shard mapping).
  uint64_t stream_offset = 0;
  /// Stall self-test: SIGSTOP the servers `stall_at_seconds` into the
  /// phase for `stall_seconds` (ignored when stall_seconds <= 0).
  double stall_at_seconds = 0.0;
  double stall_seconds = 0.0;
  std::function<void()> pause;
  std::function<void()> resume;
};

/// What a phase observed besides the per-request timestamps.
struct PhaseReport {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::deque<Request> requests;
  uint64_t submits_sent = 0;
  uint64_t overloads = 0;
  uint64_t errors = 0;
  uint64_t not_leader = 0;
  /// ACK/OVERLOAD/ERROR frames that answered no in-flight request.
  uint64_t unmatched_replies = 0;
  /// RESULT frames for no sent unlabeled batch, or whose prediction count
  /// differs from the batch's rows.
  uint64_t unmatched_results = 0;
  uint64_t bad_result_rows = 0;
  size_t backlog_max = 0;
  /// Length of the closed-loop window.
  double window_seconds = 0.0;
  int64_t stall_start_ns = -1;
  int64_t stall_end_ns = -1;
  /// Bytes of every SUBMIT frame written.
  uint64_t bytes_sent = 0;
};

/// Single-threaded, poll-driven load generator over raw wire-protocol
/// connections to one endpoint (the leader). Never more than one SUBMIT
/// per client id waits for its reply: a pipelined sequence admitted behind
/// an OVERLOADed one would leave the server's watermark past the refused
/// sequence, and its retry would be re-ACKed as a duplicate and lost. A
/// SUBMIT is sent again only after an OVERLOAD (the server reverted that
/// sequence), never for lack of a reply, so the server must count no
/// duplicates.
class Generator {
 public:
  using ResultSink =
      std::function<void(const Request& request, const freeway::StreamResult&)>;

  Generator(const freeway::GeneratedScenario* tape, std::vector<int> fds);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Runs the whole tape as one phase. `on_result` sees every matched
  /// RESULT (on the generator thread).
  PhaseReport Run(const PhaseOptions& options, const ResultSink& on_result);

 private:
  struct Conn {
    int fd = -1;
    std::vector<char> out;
    size_t out_pos = 0;
    freeway::FrameDecoder decoder;
  };
  struct Stream {
    uint64_t stream_id = 0;
    size_t conn = 0;
    uint64_t next_sequence = 1;
    /// The stream's requests in tape order (indexes into the phase's
    /// requests), replayed again by the closed loop.
    std::vector<size_t> tape;
    std::deque<Request*> pending;
    Request* in_flight = nullptr;
    /// Unlabeled requests of this stream still waiting for their RESULT.
    size_t awaiting_results = 0;
    int64_t retry_at_ns = -1;
  };

  void Send(Stream& stream, Request* request, int64_t now, PhaseReport* report);
  bool Flush(Conn& conn);
  void ReadAll(Conn& conn, PhaseReport* report, const ResultSink& on_result);
  void OnFrame(const freeway::Frame& frame, int64_t now, PhaseReport* report,
               const ResultSink& on_result);
  /// The stream's in-flight request answered by a reply for `batch_index`.
  Request* InFlight(uint64_t stream_id, int64_t batch_index);
  /// Frees the stream for its next pending request.
  void Finish(Stream& stream);
  /// Drops an unlabeled request from awaiting_result_ (answered or failed).
  void StopAwaiting(const Request& request);

  const freeway::GeneratedScenario* tape_;
  std::vector<Conn> conns_;
  std::vector<Stream> streams_;
  std::unordered_map<uint64_t, size_t> stream_index_;
  /// Unlabeled requests waiting for their RESULT, by (stream, batch index).
  std::map<std::pair<uint64_t, int64_t>, Request*> awaiting_result_;
  /// Keys of earlier phases' unanswered batches: a RESULT for one of them
  /// is late, not unmatched.
  std::set<std::pair<uint64_t, int64_t>> expired_;
  /// Streams whose in-flight request waits out an OVERLOAD retry_after.
  std::vector<size_t> retrying_;
  std::vector<size_t> ready_;
  bool window_open_ = true;
  int64_t window_end_ns_ = 0;
  bool closed_loop_ = false;
  int64_t phase_start_ns_ = 0;
  /// Requests answered (or given up on) in the current phase.
  size_t resolved_ = 0;
  /// A connection failed: the server is gone and the phase ends.
  bool broken_ = false;
};

}  // namespace perfbench

#endif  // FREEWAYML_PERFBENCH_LOADGEN_H_
