#ifndef FREEWAYML_NET_SERVER_H_
#define FREEWAYML_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ingest/dedup.h"
#include "ingest/ingest_log.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "replication/replicator.h"
#include "runtime/stream_runtime.h"

namespace freeway {

/// Durable-ingest knobs of the server (see IngestLog). Disabled, the
/// server still dedups tracked submits in memory, but the watermark table
/// dies with the process — exactly-once then only holds across connection
/// drops, not restarts.
struct IngestOptions {
  /// Master switch for the write-ahead batch log.
  bool enabled = false;
  /// Directory of the log segments. Required when enabled.
  std::string log_dir;
  uint64_t segment_max_bytes = 4u << 20;
  /// fsync every appended record before it is acknowledged. Off by
  /// default: the durability unit is then the OS page cache (survives the
  /// process, not the host).
  bool fsync = false;
  /// At graceful stop, rotate and drop every sealed segment: everything
  /// admitted has been processed (and checkpointed when fault tolerance is
  /// on), so only the watermark snapshot in the fresh head segment is
  /// still needed. Leave off to keep the full batch history for
  /// examples/replay_log-style offline replay.
  bool truncate_at_stop = false;
  /// Sealed segments to retain past the checkpoint-covered anchor during
  /// steady-state truncation (the periodic sweep driven by
  /// ServerOptions::maintenance_interval_millis). 0 prunes everything the
  /// checkpoints cover; larger values keep a bounded recent-history window
  /// for offline replay tooling.
  size_t retention_segments = 0;
};

/// Configuration of the TCP batch-ingest server.
struct ServerOptions {
  /// Numeric IPv4 listen address; loopback by default.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port — recover the actual one with port().
  uint16_t port = 0;
  int listen_backlog = 64;
  /// Reactor (event-loop worker) threads. 0 resolves from the
  /// FREEWAY_NET_WORKERS environment variable, defaulting to 1. Each worker
  /// runs its own poll() loop over its own listener (SO_REUSEPORT accept
  /// sharding, or dups of one listener where the kernel lacks it) and owns
  /// every connection it accepts for that connection's whole life.
  size_t num_workers = 0;
  /// Connections beyond this (across all workers) are accepted and
  /// immediately closed (the kernel backlog would otherwise queue them
  /// invisibly).
  size_t max_connections = 64;
  /// `retry_after` carried by OVERLOAD replies. Fixed advice: one drain of
  /// a typical batch is in the low milliseconds, so by default clients are
  /// told to stay away for 2 ms and then ramp their own backoff.
  int64_t overload_retry_micros = 2000;
  /// poll() timeout when nothing is happening. The per-worker self-pipe
  /// wakes a loop early for result delivery and Stop(), so this only
  /// bounds how stale an idle loop can be.
  int poll_timeout_millis = 100;
  /// Wall-clock budget for flushing pending replies during graceful stop.
  int64_t shutdown_flush_millis = 2000;
  /// Observability sink for the `freeway_net_*` family; also serves as the
  /// `GET /metrics` document. When RuntimeOptions.metrics is null it is
  /// forwarded to the embedded runtime so one scrape covers both layers.
  /// Null disables instrumentation and makes /metrics return 404.
  MetricsRegistry* metrics = nullptr;
  /// Durable write-ahead batch log + watermark persistence.
  IngestOptions ingest;
  /// Raft replication across a cluster of StreamServers (requires
  /// ingest.enabled — the replicated state machine IS the ingest log).
  /// See ReplicationOptions; disabled by default.
  ReplicationOptions replication;
  /// Cadence of worker 0's maintenance sweep: checkpoint-anchored ingest
  /// log truncation, and (replicated mode, leader only) dead-letter and
  /// truncate-mark proposals.
  int64_t maintenance_interval_millis = 500;
  /// Options of the embedded StreamRuntime.
  RuntimeOptions runtime;
};

/// TCP batch-ingest frontend over a StreamRuntime.
///
/// Multi-reactor (Envoy listener-per-worker style): N worker threads each
/// run a poll()-driven accept/read/write loop. Accepts are sharded across
/// workers by SO_REUSEPORT (each worker binds its own listener on the
/// shared port; kernels without SO_REUSEPORT fall back to every worker
/// polling a dup of one listener, where accept() naturally arbitrates).
/// A connection is pinned for life to the worker that accepted it: decoder
/// state, write buffers, stream routes, and latency bookkeeping are
/// worker-local, so no connection state is ever shared across threads.
///
/// Decoded SUBMIT frames enter the runtime through TrySubmit, so an event
/// loop never blocks on a full shard queue — admission control turns queue
/// pressure into OVERLOAD(retry_after) replies and the remote producer
/// backs off (the Envoy idiom: reject at the edge, never stall the data
/// plane).
///
/// Admission is exactly-once for tracked submits (wire v3 non-zero
/// (client_id, sequence)): a sequence at or below the client's watermark
/// in the shared DedupIndex is re-ACKed without touching the runtime, so a
/// resend whose first copy was admitted — the connection died carrying the
/// ACK — cannot reach the learner twice. With IngestOptions.enabled the
/// order is log-first: the batch is appended to the durable IngestLog
/// *before* the watermark advances and TrySubmit runs; a rejected
/// admission (OVERLOAD/ERROR) retreats the watermark and appends a revert
/// record naming the cancelled LSN, so the log replays to exactly the
/// admitted set and the watermark table survives restarts. Inference results surface on runtime drain threads via the
/// result callback; a sharded stream→worker route table directs each
/// result to the owning worker's outbox, and that worker's self-pipe wakes
/// its loop to write the RESULT on the connection that submitted the
/// stream. Per-stream FIFO order is preserved end to end because each
/// runtime shard has a single drain task and each connection's write
/// buffer is FIFO.
///
/// With ReplicationOptions.enabled the server is one member of a raft
/// cluster and the admission path changes shape: a SUBMIT reaching a
/// follower is answered NOT_LEADER(leader_hint); on the leader the batch
/// is *proposed* to the replicator instead of being logged directly, and
/// the ACK is deferred — it is written only after the entry is
/// majority-replicated and applied (ingest-logged, watermark-advanced,
/// runtime-enqueued) on this node, so an ACKed batch survives the loss of
/// any minority of machines. Followers apply the same committed entries in
/// the same order into their own IngestLog + DedupIndex + runtime, which
/// keeps the per-node logs bit-identical and lets any follower take over
/// as leader with the exact admitted history. Peer raft traffic arrives on
/// the same listeners as client traffic (frame types VOTE_REQUEST …
/// APPEND_RESPONSE) and is handed to the replicator; deferred ACKs travel
/// back to the owning worker through a per-worker frame outbox keyed by
/// connection id (fds are recycled, ids are not).
///
/// Every worker's listener speaks minimal HTTP: a connection whose first
/// bytes are "GET " receives the Prometheus text exposition of the
/// attached registry at `/metrics`, the runtime stats JSON at `/stats`
/// (404 otherwise), and is closed — curl and a Prometheus scraper need no
/// second port, regardless of which worker the kernel routes them to.
///
/// Threading contract: Start/Stop/Wait are called by the owner thread.
/// Everything network-facing runs on worker loop threads; the runtime
/// result callback runs on drain threads and only touches the route table
/// and per-worker outboxes. Graceful stop is coordinated: every worker
/// first closes its listener, then worker 0 shuts the runtime down
/// (draining admitted batches into the outboxes) while the others keep
/// flushing replies, and each worker finally flushes its own connections
/// within the shutdown budget. FailPoint sites "net.accept", "net.read",
/// and "net.write" let chaos tests sever connections at each stage on any
/// worker.
class StreamServer {
 public:
  StreamServer(const Model& prototype, ServerOptions options);
  /// Calls Stop().
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Binds the per-worker listeners and starts the worker threads. Fails
  /// on bind errors (address in use, bad address). Not restartable after
  /// Stop().
  Status Start();

  /// Graceful stop: stops accepting, shuts the runtime down (processing
  /// everything already admitted), flushes pending replies within
  /// shutdown_flush_millis, closes all connections, joins every worker.
  /// Idempotent; safe to call even if Start() was never called.
  void Stop();

  /// Blocks until the worker threads exit — either Stop() or a client's
  /// SHUTDOWN frame. No-op when the server never started.
  void Wait();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (after Start()). All workers share it.
  uint16_t port() const { return port_; }

  /// Worker threads actually running (after Start()).
  size_t num_workers() const { return workers_.size(); }

  /// True when accept sharding runs on SO_REUSEPORT; false on the
  /// dup-listener fallback.
  bool reuseport_sharding() const { return reuseport_sharding_; }

  /// The embedded runtime — for stats snapshots and tests. Submit-side use
  /// must go through the network path.
  StreamRuntime* runtime() { return runtime_.get(); }

  /// The durable batch log; null while IngestOptions.enabled is false or
  /// before Start(). Tests and offline tooling replay it.
  IngestLog* ingest_log() { return ingest_log_.get(); }

  /// The per-client watermark table (always live, log or not).
  DedupIndex* dedup_index() { return &dedup_; }

  /// The raft replicator; null while ReplicationOptions.enabled is false
  /// or before Start(). Tests read roles/terms/commit indexes through it.
  Replicator* replicator() { return replicator_.get(); }

 private:
  struct Connection {
    int fd = -1;
    /// Stable identity for deferred replies (replication ACKs): fds are
    /// recycled by the kernel the moment a connection closes, so an ACK
    /// that matured after a close must miss, not hit a stranger.
    uint64_t id = 0;
    FrameDecoder decoder;
    /// Encoded-but-unwritten reply bytes ([out_pos, size) pending).
    std::vector<char> outbuf;
    size_t out_pos = 0;
    /// First bytes decide the grammar: wire frames or HTTP.
    bool protocol_decided = false;
    bool http = false;
    std::vector<char> http_buf;
    bool close_after_flush = false;
    /// Streams whose results were routed here at some point; their route
    /// entries are erased on close if they still point at this connection.
    std::unordered_set<uint64_t> routed_streams;
  };

  /// One reactor: a listener, a self-pipe, and every piece of connection
  /// state for the connections it accepted. Only `outbox` (+ its mutex)
  /// is ever touched by other threads.
  struct Worker {
    size_t index = 0;
    int listen_fd = -1;
    int wake_read_fd = -1;
    int wake_write_fd = -1;
    std::thread thread;

    // Loop-thread state.
    std::map<int, std::unique_ptr<Connection>> conns;
    /// Connection-id allocator + reverse index (loop thread only).
    uint64_t next_conn_id = 1;
    std::unordered_map<uint64_t, int> fd_by_conn_id;
    /// stream_id → id of the connection that most recently submitted it
    /// on this worker (an id, not an fd: a closed connection's fd number
    /// is soon reused by a stranger). Erased when that connection closes.
    std::unordered_map<uint64_t, uint64_t> routes;
    /// (stream_id, batch_index) → admission time of unlabeled batches, for
    /// the request-latency histogram.
    std::map<std::pair<uint64_t, int64_t>,
             std::chrono::steady_clock::time_point>
        pending_latency;

    /// Results handed off from runtime drain threads, plus pre-encoded
    /// frames (deferred replication ACKs from the applier thread) destined
    /// for specific connections by id.
    std::mutex outbox_mutex;
    std::vector<StreamResult> outbox;
    std::vector<std::pair<uint64_t, std::vector<char>>> frame_outbox;

    /// freeway_net_worker_* handles; null while metrics are detached.
    Counter* connections = nullptr;
    Counter* frames = nullptr;
    Counter* loop_iterations = nullptr;
  };

  /// freeway_net_* handles; null while options_.metrics is null.
  struct NetMetrics {
    Counter* accepted = nullptr;
    Counter* closed = nullptr;
    Gauge* active = nullptr;
    Counter* frames_in = nullptr;
    Counter* frames_out = nullptr;
    Counter* submits = nullptr;
    Counter* acks = nullptr;
    Counter* results = nullptr;
    Counter* overloads = nullptr;
    Counter* errors_sent = nullptr;
    Counter* decode_errors = nullptr;
    /// Tracked submits re-ACKed from the watermark table instead of being
    /// re-enqueued — each one is a duplicate delivery that dedup absorbed.
    Counter* duplicates = nullptr;
    /// IngestLog append/revert failures surfaced as ERROR replies.
    Counter* ingest_log_errors = nullptr;
    /// SUBMITs answered NOT_LEADER (replicated mode, non-leader node).
    Counter* not_leader = nullptr;
    Counter* torn_frames = nullptr;
    Counter* results_dropped = nullptr;
    Counter* http_requests = nullptr;
    Histogram* frame_bytes = nullptr;
    Histogram* request_seconds = nullptr;
  };

  /// Sharded stream_id → worker-index table: written by workers on SUBMIT,
  /// read by drain threads delivering results. Sharding keeps the
  /// submit-path lock nearly uncontended.
  static constexpr size_t kRouteShards = 16;
  struct RouteShard {
    std::mutex mutex;
    std::unordered_map<uint64_t, size_t> worker_of;
  };

  void Loop(Worker& w);
  void AcceptPending(Worker& w);
  /// Reads everything available on `fd`; may close the connection.
  void HandleReadable(Worker& w, int fd);
  /// Routes buffered bytes: protocol sniffing, then frame or HTTP handling.
  void ProcessBuffered(Worker& w, int fd, const char* data, size_t size);
  void ProcessFrames(Worker& w, int fd);
  void HandleFrame(Worker& w, int fd, const Frame& frame);
  void HandleSubmit(Worker& w, int fd, const Frame& frame);
  /// Replicated-mode SUBMIT path: NOT_LEADER redirect / dedup re-ACK /
  /// apply-lag overload gate / propose with deferred ACK.
  void HandleSubmitReplicated(Worker& w, int fd, SubmitMessage message);
  /// Replicator apply callback (applier thread, every node): feeds one
  /// committed command into IngestLog + DedupIndex + runtime.
  void ApplyReplicated(const ReplicatedCommand& command);
  /// Replicator ack callback (applier thread, leader): hands the encoded
  /// ACK to the owning worker's frame outbox.
  void DeliverAck(const Replicator::AckToken& token);
  void HandleHttp(Worker& w, int fd);
  /// Appends an encoded frame to the connection's write buffer and flushes
  /// as much as the socket accepts right now.
  void QueueFrame(Worker& w, int fd, std::vector<char> encoded);
  void FlushWrites(Worker& w, int fd);
  void CloseConnection(Worker& w, int fd);
  /// Moves results from the worker's outbox onto its connections' write
  /// buffers.
  void DrainOutbox(Worker& w);
  /// Runtime result callback (drain threads): route lookup + owning
  /// worker's outbox append + that worker's wakeup.
  void OnResult(const StreamResult& result);
  void WakeWorker(Worker& w);
  void WakeAllWorkers();
  /// Publishes `stream_id → w` for result handoff.
  void RouteStreamTo(uint64_t stream_id, size_t worker_index);
  /// Sends `stream_id`'s results to the connection on `fd` (loop thread),
  /// and publishes the stream's worker.
  void RouteResultsTo(Worker& w, int fd, uint64_t stream_id);
  /// FaultToleranceOptions::on_checkpoint sink (drain threads): shard
  /// `shard` has consumed `consumed` batches, all covered by a checkpoint.
  void OnShardCheckpoint(size_t shard, uint64_t consumed);
  /// The highest LSN every shard's checkpoints cover (0 = nothing covered).
  uint64_t CoveredLsn();
  /// Worker 0, every maintenance_interval_millis: checkpoint-anchored log
  /// truncation (direct in single-node mode, via a replicated truncate
  /// mark from the leader in replicated mode) + dead-letter replication.
  void MaintenanceSweep();
  /// Coordinated teardown tail of Loop(): accept-closed barrier, runtime
  /// drain on worker 0, then per-worker reply flush and close.
  void GracefulStop(Worker& w);
  /// Best-effort reply flush within the shutdown budget, then closes every
  /// connection of `w`.
  void FlushAndCloseAll(Worker& w);

  ServerOptions options_;
  NetMetrics metrics_;
  std::unique_ptr<StreamRuntime> runtime_;
  /// Exactly-once state. The dedup index is shared by all workers (its
  /// shards serialize per client); the log serializes appends internally.
  DedupIndex dedup_;
  std::unique_ptr<IngestLog> ingest_log_;
  std::unique_ptr<Replicator> replicator_;

  /// Checkpoint-anchored truncation bookkeeping. Per shard, the LSNs of
  /// admitted-but-not-yet-checkpoint-covered batches in shard-queue order
  /// (as (ordinal, lsn) pairs against the shard's consumed count). In
  /// single-node mode workers hold this mutex *across* TrySubmit so
  /// ordinal order equals queue order; in replicated mode the single
  /// applier thread is the only submitter, so it locks only around the
  /// bookkeeping itself (never across its blocking Submit — drain threads
  /// take this mutex in OnShardCheckpoint, and a drain thread blocked here
  /// while the applier waits for queue space would deadlock).
  /// Coverage tracking only runs when checkpoints can ever anchor a
  /// truncation (ingest + fault tolerance both on) — otherwise the
  /// outstanding deques would grow without a consumer.
  /// Recursive because a workerless global ThreadPool (single-core hosts)
  /// runs drain tasks inline inside TrySubmit: the admission path holds
  /// this mutex across TrySubmit, whose inline drain may checkpoint and
  /// re-enter OnShardCheckpoint on the same thread.
  bool coverage_enabled_ = false;
  std::recursive_mutex coverage_mutex_;
  std::vector<std::deque<std::pair<uint64_t, uint64_t>>> shard_outstanding_;
  std::vector<uint64_t> shard_admitted_;
  std::vector<uint64_t> shard_consumed_;
  /// LSNs appended but whose admission outcome is still pending — plugs
  /// the cross-worker window between IngestLog::Append and the admission
  /// bookkeeping, during which a sweep must not treat the LSN as covered.
  std::set<uint64_t> unresolved_lsns_;
  /// Highest LSN noted as admitted or covered (revert pairs, duplicates).
  uint64_t highest_noted_lsn_ = 0;
  /// Anchor of the last successful truncation (worker 0 / applier only).
  std::atomic<uint64_t> truncated_lsn_{0};
  std::chrono::steady_clock::time_point last_maintenance_{};

  std::vector<std::unique_ptr<Worker>> workers_;
  bool reuseport_sharding_ = false;
  uint16_t port_ = 0;

  std::array<RouteShard, kRouteShards> route_table_;
  std::atomic<size_t> active_connections_{0};

  std::mutex lifecycle_mutex_;  ///< Serializes Start/Stop/Wait joins.
  bool started_ = false;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  /// Graceful-stop coordination: workers that closed their listeners, the
  /// "runtime fully drained" flag worker 0 raises, and the count of loops
  /// that exited (the last one clears running_).
  std::atomic<size_t> accept_closed_{0};
  std::atomic<bool> drained_{false};
  std::atomic<size_t> workers_exited_{0};
};

}  // namespace freeway

#endif  // FREEWAYML_NET_SERVER_H_
