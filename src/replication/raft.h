#ifndef FREEWAYML_REPLICATION_RAFT_H_
#define FREEWAYML_REPLICATION_RAFT_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace freeway {

/// One replicated log entry. `index` is 1-based and dense; `term` is the
/// leader term that created the entry. `command` is opaque to the consensus
/// core (the replicator encodes ingest batches, dead letters, and truncate
/// marks into it); an empty command is the no-op barrier a fresh leader
/// appends to commit entries from prior terms.
struct RaftEntry {
  uint64_t index = 0;
  uint64_t term = 0;
  std::vector<char> command;
};

enum class RaftMessageType : uint8_t {
  kVoteRequest = 0,
  kVoteResponse = 1,
  kAppendEntries = 2,
  kAppendResponse = 3,
};

/// A consensus message between two nodes. One struct covers all four types
/// (unused fields stay zero) so the transport and the wire codec stay
/// simple; `type` says which fields are meaningful.
struct RaftMessage {
  RaftMessageType type = RaftMessageType::kVoteRequest;
  uint64_t from = 0;
  uint64_t to = 0;
  uint64_t term = 0;

  /// kVoteRequest: candidate's log position (the up-to-date check).
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;

  /// kVoteResponse.
  bool vote_granted = false;

  /// kAppendEntries: log-matching anchor, piggybacked commit index, and the
  /// entries themselves (empty for a pure heartbeat).
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  uint64_t leader_commit = 0;
  std::vector<RaftEntry> entries;

  /// kAppendResponse: on success `match_index` is the follower's highest
  /// index known to match the leader; on failure `conflict_index` is the
  /// follower's hint of where to rewind next_index (first index of the
  /// conflicting term, or last_index+1 when the follower's log is short),
  /// which backtracks a whole term per round trip instead of one entry.
  bool success = false;
  uint64_t match_index = 0;
  uint64_t conflict_index = 0;
};

const char* RaftMessageTypeName(RaftMessageType type);

enum class RaftRole : uint8_t { kFollower = 0, kCandidate = 1, kLeader = 2 };

const char* RaftRoleName(RaftRole role);

/// Persistent raft state: current term, the vote cast in it, and the log.
///
/// This base class keeps everything in memory (tests use it directly as a
/// volatile store); `DurableRaftStorage` overrides the Persist* hooks to
/// write through to disk, and may drop the payloads of applied entries
/// from memory (ReadBack then re-reads them from disk). Terms are kept for
/// every index, as runs, so TermAt never touches disk.
/// RaftNode calls SetHardState *before* handing out any message that the
/// new term/vote made possible, preserving the raft durability contract.
///
/// Node ids are nonzero; voted_for == 0 means "no vote cast this term".
class RaftStorage {
 public:
  virtual ~RaftStorage() = default;

  uint64_t current_term() const { return term_; }
  uint64_t voted_for() const { return voted_for_; }

  /// Updates term/vote and persists them (hook). Failpoint (durable
  /// subclass): "<scope>raft.persist".
  Status SetHardState(uint64_t term, uint64_t voted_for);

  /// Index of the last entry; 0 when the log is empty.
  uint64_t last_index() const { return last_index_; }
  /// Term of the entry at `index`; 0 for index 0 (the sentinel before the
  /// log) and for indexes past the end.
  uint64_t TermAt(uint64_t index) const;
  /// Entry at `index` (1-based; must be in [1, last_index()]).
  RaftEntry At(uint64_t index) const;
  /// Copies entries [from, from+max_count) clamped to the log's end.
  std::vector<RaftEntry> EntriesFrom(uint64_t from, size_t max_count) const;

  /// Appends entries (must continue the log densely) and persists them.
  Status Append(std::vector<RaftEntry> entries);
  /// Drops every entry with index >= from_index and persists the cut.
  Status TruncateSuffix(uint64_t from_index);

  /// Entries whose payload is held in memory (observability/tests).
  size_t resident_entries() const { return resident_.size(); }

 protected:
  virtual Status PersistHardState() { return Status::OK(); }
  virtual Status PersistAppend(const RaftEntry& entry) {
    (void)entry;
    return Status::OK();
  }
  virtual Status PersistTruncateSuffix(uint64_t from_index) {
    (void)from_index;
    return Status::OK();
  }
  /// Re-reads an entry whose payload is not resident. Only a subclass that
  /// drops payloads can be asked; the base class never does.
  virtual RaftEntry ReadBack(uint64_t index) const;

  /// Index of the first entry whose payload is in `resident_`.
  uint64_t first_resident() const {
    return last_index_ - resident_.size() + 1;
  }
  /// Extends the log's extent and term runs by entry `index` (the caller
  /// keeps or drops its payload).
  void ExtendTo(uint64_t index, uint64_t term);

  uint64_t term_ = 0;
  uint64_t voted_for_ = 0;
  uint64_t last_index_ = 0;
  /// Entries [first_resident(), last_index_], payloads included.
  std::deque<RaftEntry> resident_;
  /// (first index, term) of each run of equal-term entries, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> term_runs_;
};

/// Configuration of one consensus node.
struct RaftConfig {
  /// This node's id (nonzero).
  uint64_t node_id = 0;
  /// The other members' ids (excluding node_id). Empty means a single-node
  /// cluster, which elects itself and commits immediately.
  std::vector<uint64_t> peer_ids;
  /// Election timeout, in ticks, randomized uniformly per timeout reset in
  /// [min, max] — randomization is what breaks split-vote livelock.
  int election_timeout_min_ticks = 10;
  int election_timeout_max_ticks = 20;
  /// Leader heartbeat cadence in ticks; must be well under the election
  /// minimum or healthy followers start spurious elections.
  int heartbeat_ticks = 3;
  /// Max entries shipped per AppendEntries (and so per peer per
  /// TakeMessages() drain), bounding frame sizes.
  size_t max_entries_per_append = 64;
  /// Seed for the election-timeout randomization (deterministic tests).
  uint64_t seed = 0;
  /// Prefix for FailPoint site names ("n0." makes sites "n0.raft.append"
  /// etc.), letting in-process multi-node tests target one node even though
  /// the FailPoint registry is process-global.
  std::string failpoint_scope;
};

/// Deterministic single-threaded raft consensus core (etcd-raft shape):
/// the owner drives logical time with Tick(), feeds inbound messages to
/// Step(), proposes commands with Propose(), and after each of those drains
/// TakeMessages() (to send) and TakeCommitted() (to apply). The core does
/// no I/O of its own beyond the storage persistence hooks, so it is
/// unit-testable as a pure state machine and transport-agnostic.
///
/// Correctness notes (the parts of raft that are easy to get wrong):
///  - term/vote are persisted via storage *before* the message they enable
///    leaves the outbox;
///  - a new leader appends a no-op entry for its term so prior-term entries
///    commit through the current-term-majority rule (§5.4.2);
///  - commit index only advances over entries of the current term;
///  - AppendEntries conflicts return a first-index-of-conflicting-term hint
///    so the leader rewinds a term at a time.
///
/// Replication is pipelined: Propose only appends, and each TakeMessages()
/// ships every peer one AppendEntries with all entries it has not been
/// sent yet (up to max_entries_per_append), advancing that peer's
/// next_index optimistically. A success response never moves next_index
/// back; a rejection rewinds it to the follower's hint; and a peer that
/// made no progress for a whole heartbeat interval with entries in flight
/// is rewound to match_index + 1, so a lost message costs a heartbeat of
/// latency, never liveness.
///
/// FailPoint sites (all prefixed with config.failpoint_scope):
///   raft.append — erroring drops an outbound AppendEntries on the floor;
///   raft.vote   — erroring drops an inbound VoteRequest (the node goes
///                 deaf to elections, simulating a partitioned voter).
class RaftNode {
 public:
  /// `storage` must outlive the node and already be loaded (for the durable
  /// subclass: Open() called). The node adopts its term/vote/log as the
  /// restart state.
  RaftNode(RaftConfig config, RaftStorage* storage);

  /// Advances logical time by one tick: followers/candidates count toward
  /// an election timeout, the leader toward its next heartbeat round.
  Status Tick();

  /// Processes one inbound message (its entries are moved into the log).
  Status Step(RaftMessage msg);

  /// Appends `command` to the replicated log (leader only) and returns its
  /// index. FailedPrecondition when this node is not the leader.
  Result<uint64_t> Propose(std::vector<char> command);

  /// Drains the outbox of messages to transmit. On the leader this is also
  /// where AppendEntries are built: one per peer that has unsent entries
  /// or a heartbeat due.
  std::vector<RaftMessage> TakeMessages();

  /// Drains newly committed entries, in index order, each exactly once.
  std::vector<RaftEntry> TakeCommitted();

  RaftRole role() const { return role_; }
  uint64_t term() const { return storage_->current_term(); }
  uint64_t node_id() const { return config_.node_id; }
  uint64_t commit_index() const { return commit_index_; }
  /// The current leader as far as this node knows; 0 when unknown (e.g.
  /// mid-election). A leader reports itself.
  uint64_t leader_id() const { return leader_id_; }
  uint64_t last_log_index() const { return storage_->last_index(); }

  /// Number of elections this node has started (observability).
  uint64_t elections_started() const { return elections_started_; }

 private:
  /// The leader's view of one follower.
  struct Progress {
    /// Next index to ship; past everything already sent.
    uint64_t next = 1;
    /// Highest index known to be replicated on the follower.
    uint64_t match = 0;
    /// `match` and `next` at the previous heartbeat: the entries in flight
    /// then, if none was acknowledged since, have been lost.
    uint64_t heartbeat_match = 0;
    uint64_t heartbeat_next = 1;
  };

  size_t ClusterSize() const { return config_.peer_ids.size() + 1; }
  size_t Majority() const { return ClusterSize() / 2 + 1; }

  void ResetElectionTimer();
  Status BecomeFollower(uint64_t term, uint64_t leader);
  Status StartElection();
  Status BecomeLeader();
  void SendAppend(uint64_t peer, Progress& progress);
  void MaybeAdvanceCommit();
  void DeliverCommitted();
  Status HandleVoteRequest(const RaftMessage& msg);
  Status HandleVoteResponse(const RaftMessage& msg);
  Status HandleAppendEntries(RaftMessage& msg);
  Status HandleAppendResponse(const RaftMessage& msg);
  void Emit(RaftMessage msg);

  RaftConfig config_;
  RaftStorage* storage_;
  Rng rng_;

  RaftRole role_ = RaftRole::kFollower;
  uint64_t leader_id_ = 0;
  uint64_t commit_index_ = 0;
  /// Last commit handed out through TakeCommitted().
  uint64_t delivered_index_ = 0;

  int election_elapsed_ = 0;
  int election_timeout_ = 0;
  int heartbeat_elapsed_ = 0;
  /// Every peer gets an AppendEntries at the next TakeMessages().
  bool heartbeat_due_ = false;

  std::set<uint64_t> votes_granted_;
  /// Leader bookkeeping, keyed by peer id.
  std::unordered_map<uint64_t, Progress> progress_;

  std::vector<RaftMessage> outbox_;
  std::vector<RaftEntry> committed_out_;
  uint64_t elections_started_ = 0;
};

}  // namespace freeway

#endif  // FREEWAYML_REPLICATION_RAFT_H_
