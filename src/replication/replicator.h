#ifndef FREEWAYML_REPLICATION_REPLICATOR_H_
#define FREEWAYML_REPLICATION_REPLICATOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "replication/command.h"
#include "replication/raft.h"
#include "replication/raft_storage.h"

namespace freeway {

/// One cluster member's client/peer-facing endpoint. Peers talk raft to
/// each other on the same port clients submit on (the StreamServer
/// transport multiplexes by frame type).
struct ReplicationPeer {
  uint64_t node_id = 0;
  std::string host;
  uint16_t port = 0;
};

/// Configuration of a replicated server node.
struct ReplicationOptions {
  /// Master switch. Off: the server is the single-node PR-8 configuration.
  bool enabled = false;
  /// This node's id (nonzero, unique in the cluster).
  uint64_t node_id = 0;
  /// The *other* members. Empty is a single-node replicated cluster
  /// (useful for benchmarks: same code path, no quorum latency).
  std::vector<ReplicationPeer> peers;
  /// Directory for raft-state.dat / raft-log.dat. Required.
  std::string data_dir;
  /// Logical tick width of the consensus driver thread.
  int tick_millis = 15;
  /// Election timeout in ticks, randomized per reset in [min, max]; with
  /// 15 ms ticks the default is 150–300 ms — an eternity next to loopback
  /// heartbeats, tight enough that failover lands well under a second.
  int election_timeout_min_ticks = 10;
  int election_timeout_max_ticks = 20;
  int heartbeat_ticks = 3;
  size_t max_entries_per_append = 64;
  /// fsync raft hard state + log appends (see DurableRaftStorageOptions).
  bool fsync = false;
  /// Admission gate: a SUBMIT is answered OVERLOAD when the propose→apply
  /// backlog (uncommitted proposals + committed-but-unapplied entries)
  /// exceeds this, so a slow disk or follower turns into backpressure at
  /// the edge instead of an unbounded queue.
  uint64_t max_apply_lag = 256;
  /// Cap on bytes buffered toward one peer; whole messages are dropped
  /// beyond it (raft retransmits by design, so drops cost latency, never
  /// correctness).
  size_t peer_outbuf_max_bytes = 8u << 20;
  /// Reconnect backoff to a dead peer.
  int reconnect_min_millis = 20;
  int reconnect_max_millis = 500;
  /// Seed for election-timeout randomization.
  uint64_t seed = 0;
  /// FailPoint site prefix, e.g. "n1." (the registry is process-global and
  /// chaos tests run whole clusters in one process). Sites:
  ///   <scope>raft.append   drop outbound AppendEntries (partition out)
  ///   <scope>raft.vote     ignore inbound VoteRequests (deaf voter)
  ///   <scope>raft.persist  fail hard-state/log persistence
  ///   <scope>raft.apply    stall the applier (one sleep per armed hit)
  ///   <scope>repl.send     drop any outbound peer message
  ///   <scope>repl.recv     drop any inbound peer message
  /// Arming repl.send + repl.recv together is a full partition of the node.
  std::string failpoint_scope;
  /// Observability sink for the `freeway_raft_*` family. Null disables.
  MetricsRegistry* metrics = nullptr;
};

/// Bridges the pure RaftNode to the serving stack: a driver thread owns
/// consensus (ticks, inbound steps, proposals, peer sockets) and an applier
/// thread feeds committed entries to the server's state machine. The
/// server interacts through thread-safe edges only:
///
///   Deliver()       reactor workers hand in decoded raft frames;
///   ProposeBatch()  workers submit admitted batches for replication,
///                   carrying an AckToken so the deferred ACK can find its
///                   connection after the entry commits AND applies;
///   apply callback  runs on the applier thread for every committed entry,
///                   in commit order, identically on leader and followers —
///                   determinism here is what makes the per-node ingest
///                   logs bit-identical;
///   ack callback    runs on the applier thread after apply, once per
///                   token registered for the entry (leader only).
///
/// ACK ordering contract: ProposeBatch never ACKs; the ack callback fires
/// only after the entry is (a) majority-replicated and (b) applied locally
/// (ingest-logged + watermark-advanced + runtime-enqueued). A client that
/// saw an ACK can therefore survive the death of any minority of nodes
/// without the batch existing anywhere less durable than a quorum of logs.
///
/// Outgoing messages to each peer ride one persistent connection this node
/// dials (responses included — the response to a message received on an
/// inbound connection goes out over this node's own outbound link, so
/// inbound frames never need reply routing). Links reconnect with backoff
/// and drop whole messages when their buffer caps out; raft's retry
/// machinery absorbs both.
///
/// Restart exactly-once: commands are re-applied from the raft log after a
/// crash, so the applier skips the first `initial_applied_batches` kBatch
/// commands (the server passes its recovered IngestLog `last_lsn()`, which
/// in replicated operation counts exactly the batch applies that already
/// reached the log). Dead-letter and truncate commands re-apply; both are
/// harmless to repeat.
class Replicator {
 public:
  /// Everything the applier needs to route a deferred ACK back out through
  /// the owning reactor worker once the batch's entry applies.
  struct AckToken {
    size_t worker_index = 0;
    uint64_t conn_id = 0;
    uint64_t stream_id = 0;
    int64_t batch_index = 0;
    uint64_t client_id = 0;
    uint64_t sequence = 0;
  };

  using ApplyFn = std::function<void(const ReplicatedCommand& command)>;
  using AckFn = std::function<void(const AckToken& token)>;

  Replicator(ReplicationOptions options, ApplyFn apply, AckFn ack);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Opens durable state and starts the driver + applier threads.
  /// `initial_applied_batches`: kBatch commands already applied before this
  /// process started (the recovered IngestLog last_lsn()); that many are
  /// skipped during raft-log re-apply.
  Status Start(uint64_t initial_applied_batches);

  /// Stops both threads and closes peer links. Pending (unapplied) tokens
  /// are dropped — their clients resend and the dedup layer absorbs it.
  void Stop();

  /// Thread-safe view of consensus state (updated by the driver loop).
  bool IsLeader() const {
    return role_cache_.load(std::memory_order_acquire) ==
           static_cast<int>(RaftRole::kLeader);
  }
  RaftRole role() const {
    return static_cast<RaftRole>(role_cache_.load(std::memory_order_acquire));
  }
  uint64_t term() const { return term_cache_.load(std::memory_order_acquire); }
  uint64_t leader_id() const {
    return leader_cache_.load(std::memory_order_acquire);
  }
  uint64_t commit_index() const {
    return commit_cache_.load(std::memory_order_acquire);
  }
  uint64_t applied_index() const {
    return applied_index_.load(std::memory_order_acquire);
  }

  /// The endpoint of `node_id` from the peer table (NotFound when absent —
  /// e.g. the id is this node or the leader is unknown).
  Result<ReplicationPeer> PeerOf(uint64_t node_id) const;

  /// Propose→apply backlog, for the admission gate.
  uint64_t PendingLoad() const;

  /// Queues one admitted batch for replication (workers, any thread).
  /// Returns FailedPrecondition when this node is not the leader. A batch
  /// whose (client_id, sequence) is already in flight is NOT proposed
  /// again — the token joins the existing proposal's ack list, which is
  /// what keeps a resend that lands between propose and commit from
  /// entering the log twice.
  Status ProposeBatch(const IngestRecord& record, const AckToken& token);

  /// Queues a non-batch command (dead letters, truncate marks). Leader
  /// only; no ack token.
  Status ProposeCommand(const ReplicatedCommand& command);

  /// Hands in one decoded inbound raft frame (reactor workers); its
  /// entries are moved, not copied, through to the raft log.
  void Deliver(RaftMessage message);

  /// Cluster-wide dead letters applied so far (kDeadLetter commands), on
  /// leader and followers alike.
  std::vector<DeadLetter> ReplicatedDeadLetters() const;

  uint64_t elections_started() const {
    return elections_cache_.load(std::memory_order_acquire);
  }

 private:
  /// One proposal waiting to be handed to RaftNode (queued) or waiting for
  /// commit+apply (indexed).
  struct Pending {
    std::vector<char> command;
    std::vector<AckToken> tokens;
    uint64_t client_id = 0;
    uint64_t sequence = 0;
    std::chrono::steady_clock::time_point proposed_at;
  };

  /// Outgoing link to one peer (driver thread only).
  struct PeerLink {
    ReplicationPeer peer;
    int fd = -1;
    bool connecting = false;
    std::vector<char> outbuf;
    size_t out_pos = 0;
    std::chrono::steady_clock::time_point next_attempt{};
    int backoff_millis = 0;
  };

  void DriverLoop();
  void ApplierLoop();
  /// Moves queued proposals into RaftNode (leader) or drops them (not).
  void DrainProposals();
  /// Encodes node outbox messages onto peer links.
  void ShipMessages();
  /// Non-blocking connect/write maintenance of every link.
  void FlushLinks();
  void CloseLink(PeerLink& link, const char* why);
  void PublishCaches();
  void DropAllPendingLocked();

  ReplicationOptions options_;
  ApplyFn apply_;
  AckFn ack_;

  std::unique_ptr<DurableRaftStorage> storage_;
  std::unique_ptr<RaftNode> node_;  // driver thread only (after Start)
  std::vector<PeerLink> links_;     // driver thread only

  /// Shared edge: inbox, propose queue, pending tables.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<RaftMessage> inbox_;
  std::deque<std::shared_ptr<Pending>> propose_queue_;
  /// raft index → proposal awaiting apply (leader bookkeeping).
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> proposed_;
  /// (client_id, sequence) → in-flight proposal, for resend coalescing.
  std::map<std::pair<uint64_t, uint64_t>, std::shared_ptr<Pending>>
      in_flight_;

  /// Applier edge.
  std::mutex apply_mutex_;
  std::condition_variable apply_cv_;
  std::deque<RaftEntry> apply_queue_;

  /// Cluster-wide dead-letter view (kDeadLetter applies).
  mutable std::mutex dlq_mutex_;
  std::vector<DeadLetter> replicated_dead_letters_;

  std::thread driver_;
  std::thread applier_;
  std::atomic<bool> stop_{false};
  std::mutex lifecycle_mutex_;  ///< Serializes Start/Stop (Stop races Stop).
  bool started_ = false;

  /// Lock-free state mirrors for the serving hot path.
  std::atomic<int> role_cache_{static_cast<int>(RaftRole::kFollower)};
  std::atomic<uint64_t> term_cache_{0};
  std::atomic<uint64_t> leader_cache_{0};
  std::atomic<uint64_t> commit_cache_{0};
  std::atomic<uint64_t> elections_cache_{0};
  std::atomic<uint64_t> applied_index_{0};
  std::atomic<uint64_t> queued_proposals_{0};
  uint64_t initial_applied_batches_ = 0;
  uint64_t batches_seen_ = 0;  // applier thread only

  /// freeway_raft_* handles; null while options_.metrics is null.
  Gauge* metric_term_ = nullptr;
  Gauge* metric_role_ = nullptr;
  Gauge* metric_commit_ = nullptr;
  Gauge* metric_applied_ = nullptr;
  Gauge* metric_apply_lag_ = nullptr;
  Counter* metric_elections_ = nullptr;
  Counter* metric_proposals_ = nullptr;
  Counter* metric_applied_entries_ = nullptr;
  Counter* metric_messages_out_ = nullptr;
  Counter* metric_messages_in_ = nullptr;
  Counter* metric_messages_dropped_ = nullptr;
  /// Entries put on peer links, counted once per AppendEntries carrying
  /// them: divided by committed entries and peers it is the re-send factor.
  Counter* metric_entries_sent_ = nullptr;
  Histogram* metric_commit_seconds_ = nullptr;
};

}  // namespace freeway

#endif  // FREEWAYML_REPLICATION_REPLICATOR_H_
