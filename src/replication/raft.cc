#include "replication/raft.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "fault/failpoint.h"

namespace freeway {

const char* RaftMessageTypeName(RaftMessageType type) {
  switch (type) {
    case RaftMessageType::kVoteRequest:
      return "VOTE_REQUEST";
    case RaftMessageType::kVoteResponse:
      return "VOTE_RESPONSE";
    case RaftMessageType::kAppendEntries:
      return "APPEND_ENTRIES";
    case RaftMessageType::kAppendResponse:
      return "APPEND_RESPONSE";
  }
  return "UNKNOWN";
}

const char* RaftRoleName(RaftRole role) {
  switch (role) {
    case RaftRole::kFollower:
      return "follower";
    case RaftRole::kCandidate:
      return "candidate";
    case RaftRole::kLeader:
      return "leader";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// RaftStorage (in-memory base)

Status RaftStorage::SetHardState(uint64_t term, uint64_t voted_for) {
  term_ = term;
  voted_for_ = voted_for;
  return PersistHardState();
}

uint64_t RaftStorage::TermAt(uint64_t index) const {
  if (index == 0 || index > last_index_) return 0;
  // The last run starting at or before `index` holds it.
  auto run = std::upper_bound(
      term_runs_.begin(), term_runs_.end(), index,
      [](uint64_t i, const std::pair<uint64_t, uint64_t>& r) {
        return i < r.first;
      });
  return std::prev(run)->second;
}

RaftEntry RaftStorage::At(uint64_t index) const {
  FREEWAY_DCHECK(index >= 1 && index <= last_index_)
      << "raft log index " << index << " out of range (last " << last_index_
      << ")";
  if (index < first_resident()) return ReadBack(index);
  return resident_[index - first_resident()];
}

RaftEntry RaftStorage::ReadBack(uint64_t index) const {
  FREEWAY_DCHECK(false) << "raft log entry " << index
                        << " is not resident and this storage cannot "
                           "read it back";
  return RaftEntry{};
}

std::vector<RaftEntry> RaftStorage::EntriesFrom(uint64_t from,
                                                size_t max_count) const {
  std::vector<RaftEntry> out;
  if (from == 0) from = 1;
  for (uint64_t i = from; i <= last_index_ && out.size() < max_count; ++i) {
    out.push_back(At(i));
  }
  return out;
}

Status RaftStorage::Append(std::vector<RaftEntry> entries) {
  for (RaftEntry& e : entries) {
    if (e.index != last_index_ + 1) {
      return Status::InvalidArgument("raft log append not dense: index " +
                                     std::to_string(e.index) + " after " +
                                     std::to_string(last_index_));
    }
    RETURN_IF_ERROR(PersistAppend(e));
    ExtendTo(e.index, e.term);
    resident_.push_back(std::move(e));
  }
  return Status::OK();
}

Status RaftStorage::TruncateSuffix(uint64_t from_index) {
  if (from_index > last_index_) return Status::OK();
  if (from_index == 0) from_index = 1;
  RETURN_IF_ERROR(PersistTruncateSuffix(from_index));
  const uint64_t kept = from_index - 1;
  const uint64_t first = first_resident();
  resident_.resize(kept >= first ? kept - first + 1 : 0);
  while (!term_runs_.empty() && term_runs_.back().first > kept) {
    term_runs_.pop_back();
  }
  last_index_ = kept;
  return Status::OK();
}

void RaftStorage::ExtendTo(uint64_t index, uint64_t term) {
  if (term_runs_.empty() || term_runs_.back().second != term) {
    term_runs_.emplace_back(index, term);
  }
  last_index_ = index;
}

// ---------------------------------------------------------------------------
// RaftNode

RaftNode::RaftNode(RaftConfig config, RaftStorage* storage)
    : config_(std::move(config)),
      storage_(storage),
      rng_(config_.seed ^ (config_.node_id * 0x9E3779B97F4A7C15ull)) {
  FREEWAY_DCHECK(config_.node_id != 0) << "raft node id must be nonzero";
  FREEWAY_DCHECK(config_.election_timeout_min_ticks >= 2)
      << "election timeout too short";
  FREEWAY_DCHECK(config_.election_timeout_max_ticks >=
                 config_.election_timeout_min_ticks)
      << "election timeout range inverted";
  ResetElectionTimer();
}

void RaftNode::ResetElectionTimer() {
  election_elapsed_ = 0;
  int span = config_.election_timeout_max_ticks -
             config_.election_timeout_min_ticks + 1;
  election_timeout_ = config_.election_timeout_min_ticks +
                      static_cast<int>(rng_.NextBelow(
                          static_cast<uint64_t>(span)));
}

void RaftNode::Emit(RaftMessage msg) {
  msg.from = config_.node_id;
  msg.term = storage_->current_term();
  if (msg.type == RaftMessageType::kAppendEntries) {
    Status fp = failpoint::Check(config_.failpoint_scope + "raft.append");
    if (!fp.ok()) return;  // chaos: the append vanishes in the network
  }
  outbox_.push_back(std::move(msg));
}

Status RaftNode::Tick() {
  if (role_ == RaftRole::kLeader) {
    if (++heartbeat_elapsed_ >= config_.heartbeat_ticks) {
      heartbeat_elapsed_ = 0;
      heartbeat_due_ = true;
      for (auto& [peer, p] : progress_) {
        // Entries in flight at the previous heartbeat and still not one of
        // them acknowledged: they (or their responses) were lost.
        const bool stalled =
            p.match == p.heartbeat_match && p.heartbeat_next > p.match + 1;
        p.heartbeat_match = p.match;
        p.heartbeat_next = p.next;
        if (stalled) p.next = p.match + 1;
      }
    }
    return Status::OK();
  }
  if (++election_elapsed_ >= election_timeout_) {
    return StartElection();
  }
  return Status::OK();
}

Status RaftNode::BecomeFollower(uint64_t term, uint64_t leader) {
  if (term > storage_->current_term()) {
    RETURN_IF_ERROR(storage_->SetHardState(term, 0));
  }
  role_ = RaftRole::kFollower;
  leader_id_ = leader;
  votes_granted_.clear();
  ResetElectionTimer();
  return Status::OK();
}

Status RaftNode::StartElection() {
  // New term, vote for self — persisted before any VoteRequest leaves.
  RETURN_IF_ERROR(
      storage_->SetHardState(storage_->current_term() + 1, config_.node_id));
  role_ = RaftRole::kCandidate;
  leader_id_ = 0;
  ++elections_started_;
  votes_granted_.clear();
  votes_granted_.insert(config_.node_id);
  ResetElectionTimer();
  if (votes_granted_.size() >= Majority()) {
    return BecomeLeader();  // single-node cluster
  }
  for (uint64_t peer : config_.peer_ids) {
    RaftMessage msg;
    msg.type = RaftMessageType::kVoteRequest;
    msg.to = peer;
    msg.last_log_index = storage_->last_index();
    msg.last_log_term = storage_->TermAt(storage_->last_index());
    Emit(std::move(msg));
  }
  return Status::OK();
}

Status RaftNode::BecomeLeader() {
  role_ = RaftRole::kLeader;
  leader_id_ = config_.node_id;
  heartbeat_elapsed_ = 0;
  progress_.clear();
  for (uint64_t peer : config_.peer_ids) {
    Progress& p = progress_[peer];
    p.next = storage_->last_index() + 1;
    p.heartbeat_next = p.next;
  }
  FREEWAY_LOG(kInfo) << "raft node " << config_.node_id
                     << " elected leader for term "
                     << storage_->current_term();
  // No-op barrier entry: committing it (current term, majority) commits
  // everything before it, including entries from prior terms that the
  // commit rule alone could never advance over.
  RaftEntry noop;
  noop.index = storage_->last_index() + 1;
  noop.term = storage_->current_term();
  std::vector<RaftEntry> entries;
  entries.push_back(std::move(noop));
  RETURN_IF_ERROR(storage_->Append(std::move(entries)));
  MaybeAdvanceCommit();  // single-node: commit immediately
  heartbeat_due_ = true;  // announce the new term at once
  return Status::OK();
}

void RaftNode::SendAppend(uint64_t peer, Progress& p) {
  RaftMessage msg;
  msg.type = RaftMessageType::kAppendEntries;
  msg.to = peer;
  msg.prev_log_index = p.next - 1;
  msg.prev_log_term = storage_->TermAt(p.next - 1);
  msg.leader_commit = commit_index_;
  msg.entries = storage_->EntriesFrom(p.next, config_.max_entries_per_append);
  // Optimistic: the entries count as in flight from here on. If they are
  // lost, a rejection or the heartbeat stall rule rewinds `next`.
  p.next += msg.entries.size();
  Emit(std::move(msg));
}

Result<uint64_t> RaftNode::Propose(std::vector<char> command) {
  if (role_ != RaftRole::kLeader) {
    return Status::FailedPrecondition("not the raft leader");
  }
  RaftEntry entry;
  entry.index = storage_->last_index() + 1;
  entry.term = storage_->current_term();
  entry.command = std::move(command);
  uint64_t index = entry.index;
  std::vector<RaftEntry> entries;
  entries.push_back(std::move(entry));
  RETURN_IF_ERROR(storage_->Append(std::move(entries)));
  MaybeAdvanceCommit();  // single-node cluster commits on append
  return index;  // shipped by the next TakeMessages()
}

Status RaftNode::Step(RaftMessage msg) {
  // A higher term always demotes; the message is then handled in it.
  if (msg.term > storage_->current_term()) {
    uint64_t leader =
        msg.type == RaftMessageType::kAppendEntries ? msg.from : 0;
    RETURN_IF_ERROR(BecomeFollower(msg.term, leader));
  }
  switch (msg.type) {
    case RaftMessageType::kVoteRequest:
      return HandleVoteRequest(msg);
    case RaftMessageType::kVoteResponse:
      return HandleVoteResponse(msg);
    case RaftMessageType::kAppendEntries:
      return HandleAppendEntries(msg);
    case RaftMessageType::kAppendResponse:
      return HandleAppendResponse(msg);
  }
  return Status::InvalidArgument("unknown raft message type");
}

Status RaftNode::HandleVoteRequest(const RaftMessage& msg) {
  Status fp = failpoint::Check(config_.failpoint_scope + "raft.vote");
  if (!fp.ok()) return Status::OK();  // chaos: deaf to this election

  RaftMessage reply;
  reply.type = RaftMessageType::kVoteResponse;
  reply.to = msg.from;
  reply.vote_granted = false;

  if (msg.term < storage_->current_term()) {
    Emit(std::move(reply));
    return Status::OK();
  }
  // Election restriction (§5.4.1): only grant to candidates whose log is at
  // least as up to date as ours.
  uint64_t our_last = storage_->last_index();
  uint64_t our_last_term = storage_->TermAt(our_last);
  bool up_to_date =
      msg.last_log_term > our_last_term ||
      (msg.last_log_term == our_last_term && msg.last_log_index >= our_last);
  bool can_vote =
      storage_->voted_for() == 0 || storage_->voted_for() == msg.from;
  if (up_to_date && can_vote) {
    // Persist the vote before the response can leave this node.
    RETURN_IF_ERROR(
        storage_->SetHardState(storage_->current_term(), msg.from));
    reply.vote_granted = true;
    ResetElectionTimer();
  }
  Emit(std::move(reply));
  return Status::OK();
}

Status RaftNode::HandleVoteResponse(const RaftMessage& msg) {
  if (role_ != RaftRole::kCandidate || msg.term < storage_->current_term()) {
    return Status::OK();
  }
  if (msg.vote_granted) {
    votes_granted_.insert(msg.from);
    if (votes_granted_.size() >= Majority()) {
      return BecomeLeader();
    }
  }
  return Status::OK();
}

Status RaftNode::HandleAppendEntries(RaftMessage& msg) {
  RaftMessage reply;
  reply.type = RaftMessageType::kAppendResponse;
  reply.to = msg.from;
  reply.success = false;

  if (msg.term < storage_->current_term()) {
    reply.conflict_index = 0;  // stale leader: term alone explains it
    Emit(std::move(reply));
    return Status::OK();
  }
  // Equal term: the sender is the legitimate leader. A candidate in the
  // same term steps down.
  RETURN_IF_ERROR(BecomeFollower(storage_->current_term(), msg.from));

  if (msg.prev_log_index > storage_->last_index()) {
    // Log too short: ask the leader to rewind to just past our end.
    reply.conflict_index = storage_->last_index() + 1;
    Emit(std::move(reply));
    return Status::OK();
  }
  if (msg.prev_log_index > 0 &&
      storage_->TermAt(msg.prev_log_index) != msg.prev_log_term) {
    // Conflicting term at the anchor: hint its first index so the leader
    // skips the whole term in one step.
    uint64_t conflict_term = storage_->TermAt(msg.prev_log_index);
    uint64_t first = msg.prev_log_index;
    while (first > 1 && storage_->TermAt(first - 1) == conflict_term) {
      --first;
    }
    reply.conflict_index = first;
    Emit(std::move(reply));
    return Status::OK();
  }

  // Anchor matches. Append entries, truncating on the first divergence.
  // Entries we already hold with the same term are skipped (duplicate or
  // reordered AppendEntries must be idempotent).
  uint64_t last_new = msg.prev_log_index;
  std::vector<RaftEntry> fresh;
  for (RaftEntry& e : msg.entries) {
    if (fresh.empty() && e.index <= storage_->last_index()) {
      if (storage_->TermAt(e.index) == e.term) {
        last_new = e.index;
        continue;
      }
      // Divergence: a committed entry can never diverge (Log Matching +
      // Leader Completeness), so the cut is always above commit_index_.
      RETURN_IF_ERROR(storage_->TruncateSuffix(e.index));
    }
    last_new = e.index;
    fresh.push_back(std::move(e));
  }
  RETURN_IF_ERROR(storage_->Append(std::move(fresh)));
  if (msg.leader_commit > commit_index_) {
    commit_index_ = std::min(msg.leader_commit, last_new);
    DeliverCommitted();
  }
  reply.success = true;
  reply.match_index = last_new;
  Emit(std::move(reply));
  return Status::OK();
}

Status RaftNode::HandleAppendResponse(const RaftMessage& msg) {
  if (role_ != RaftRole::kLeader || msg.term < storage_->current_term()) {
    return Status::OK();
  }
  auto it = progress_.find(msg.from);
  if (it == progress_.end()) return Status::OK();
  Progress& p = it->second;
  if (msg.success) {
    // Responses may arrive late or out of order: match only grows, and
    // next never falls back over entries that are still in flight.
    if (msg.match_index > p.match) {
      p.match = msg.match_index;
      MaybeAdvanceCommit();
    }
    p.next = std::max(p.next, p.match + 1);
    return Status::OK();
  }
  // Rejected: rewind using the follower's hint, never below what it is
  // known to hold; the next TakeMessages() re-ships from there.
  uint64_t rewound = p.next > 1 ? p.next - 1 : 1;
  if (msg.conflict_index > 0) {
    rewound = std::min(rewound, msg.conflict_index);
  }
  p.next = std::max(rewound, p.match + 1);
  return Status::OK();
}

void RaftNode::MaybeAdvanceCommit() {
  if (role_ != RaftRole::kLeader) return;
  for (uint64_t n = storage_->last_index(); n > commit_index_; --n) {
    // Only entries of the current term commit by counting (§5.4.2).
    if (storage_->TermAt(n) != storage_->current_term()) break;
    size_t count = 1;  // self
    for (const auto& [peer, p] : progress_) {
      if (p.match >= n) ++count;
    }
    if (count >= Majority()) {
      commit_index_ = n;
      DeliverCommitted();
      break;
    }
  }
}

void RaftNode::DeliverCommitted() {
  while (delivered_index_ < commit_index_) {
    ++delivered_index_;
    committed_out_.push_back(storage_->At(delivered_index_));
  }
}

std::vector<RaftMessage> RaftNode::TakeMessages() {
  if (role_ == RaftRole::kLeader) {
    for (uint64_t peer : config_.peer_ids) {
      Progress& p = progress_[peer];
      if (heartbeat_due_ || p.next <= storage_->last_index()) {
        SendAppend(peer, p);
      }
    }
    heartbeat_due_ = false;
  }
  std::vector<RaftMessage> out;
  out.swap(outbox_);
  return out;
}

std::vector<RaftEntry> RaftNode::TakeCommitted() {
  std::vector<RaftEntry> out;
  out.swap(committed_out_);
  return out;
}

}  // namespace freeway
