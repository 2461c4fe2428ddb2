#include "replication/replicator.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include "common/logging.h"
#include "common/rng.h"
#include "fault/failpoint.h"
#include "net/socket_util.h"
#include "net/wire.h"

// This translation unit is the only part of src/replication/ that touches
// sockets and the wire codec; it compiles into freeway_net (see
// src/net/CMakeLists.txt) so freeway_replication itself stays free of the
// transport dependency and the library graph stays acyclic.

namespace freeway {

namespace {

using Clock = std::chrono::steady_clock;

/// How long the applier naps while the `<scope>raft.apply` failpoint holds
/// it. Short enough that chaos tests measuring failover don't see the nap
/// as extra latency once the site disarms.
constexpr auto kApplyStallNap = std::chrono::microseconds(200);

}  // namespace

Replicator::Replicator(ReplicationOptions options, ApplyFn apply, AckFn ack)
    : options_(std::move(options)),
      apply_(std::move(apply)),
      ack_(std::move(ack)) {
  if (options_.metrics != nullptr) {
    MetricsRegistry& m = *options_.metrics;
    metric_term_ = m.GetGauge("freeway_raft_term");
    metric_role_ = m.GetGauge("freeway_raft_role");
    metric_commit_ = m.GetGauge("freeway_raft_commit_index");
    metric_applied_ = m.GetGauge("freeway_raft_applied_index");
    metric_apply_lag_ = m.GetGauge("freeway_raft_apply_lag");
    metric_elections_ = m.GetCounter("freeway_raft_elections_total");
    metric_proposals_ = m.GetCounter("freeway_raft_proposals_total");
    metric_applied_entries_ = m.GetCounter("freeway_raft_entries_applied_total");
    metric_messages_out_ =
        m.GetCounter("freeway_raft_messages_total{dir=\"out\"}");
    metric_messages_in_ =
        m.GetCounter("freeway_raft_messages_total{dir=\"in\"}");
    metric_messages_dropped_ = m.GetCounter("freeway_raft_messages_dropped_total");
    metric_entries_sent_ = m.GetCounter("freeway_raft_entries_sent_total");
    metric_commit_seconds_ = m.GetHistogram("freeway_raft_commit_seconds");
  }
}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start(uint64_t initial_applied_batches) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (started_) return Status::FailedPrecondition("replicator already started");
  if (options_.node_id == 0) {
    return Status::InvalidArgument("replication.node_id must be nonzero");
  }
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("replication.data_dir is required");
  }
  for (const ReplicationPeer& peer : options_.peers) {
    if (peer.node_id == 0 || peer.node_id == options_.node_id) {
      return Status::InvalidArgument("replication peer ids must be nonzero and "
                                     "distinct from this node's");
    }
  }

  DurableRaftStorageOptions storage_options;
  storage_options.directory = options_.data_dir;
  storage_options.fsync = options_.fsync;
  storage_options.failpoint_scope = options_.failpoint_scope;
  storage_options.metrics = options_.metrics;
  storage_ = std::make_unique<DurableRaftStorage>(storage_options);
  RETURN_IF_ERROR(storage_->Open());

  RaftConfig config;
  config.node_id = options_.node_id;
  for (const ReplicationPeer& peer : options_.peers) {
    config.peer_ids.push_back(peer.node_id);
  }
  config.election_timeout_min_ticks = options_.election_timeout_min_ticks;
  config.election_timeout_max_ticks = options_.election_timeout_max_ticks;
  config.heartbeat_ticks = options_.heartbeat_ticks;
  config.max_entries_per_append = options_.max_entries_per_append;
  // Pass the base seed through unmixed — RaftNode already folds node_id
  // into its RNG. Mixing here too would cancel that fold (x ^ k ^ k == x)
  // and hand every node the identical election-timeout sequence, which is
  // a recipe for persistent split votes.
  config.seed = options_.seed;
  config.failpoint_scope = options_.failpoint_scope;
  node_ = std::make_unique<RaftNode>(config, storage_.get());

  links_.clear();
  links_.reserve(options_.peers.size());
  for (const ReplicationPeer& peer : options_.peers) {
    PeerLink link;
    link.peer = peer;
    link.backoff_millis = options_.reconnect_min_millis;
    links_.push_back(std::move(link));
  }

  initial_applied_batches_ = initial_applied_batches;
  batches_seen_ = 0;
  applied_index_.store(0, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  driver_ = std::thread([this] { DriverLoop(); });
  applier_ = std::thread([this] { ApplierLoop(); });
  started_ = true;
  FREEWAY_LOG(kInfo) << "replicator node " << options_.node_id << " started ("
                     << options_.peers.size() + 1 << "-node cluster, term "
                     << storage_->current_term() << ", log "
                     << storage_->last_index() << " entries, skipping "
                     << initial_applied_batches
                     << " already-applied batch commands)";
  return Status::OK();
}

void Replicator::Stop() {
  // Both the owner's Stop() and worker 0's graceful stop call this;
  // the lifecycle mutex makes the second caller a clean no-op.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!started_) return;
  {
    std::scoped_lock lock(mutex_, apply_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  apply_cv_.notify_all();
  if (driver_.joinable()) driver_.join();
  if (applier_.joinable()) applier_.join();
  for (PeerLink& link : links_) {
    if (link.fd >= 0) net::CloseFd(link.fd);
    link.fd = -1;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    DropAllPendingLocked();
    inbox_.clear();
  }
  started_ = false;
}

Result<ReplicationPeer> Replicator::PeerOf(uint64_t node_id) const {
  for (const ReplicationPeer& peer : options_.peers) {
    if (peer.node_id == node_id) return peer;
  }
  return Status::NotFound("no peer with node id " + std::to_string(node_id));
}

uint64_t Replicator::PendingLoad() const {
  const uint64_t queued = queued_proposals_.load(std::memory_order_acquire);
  const uint64_t commit = commit_cache_.load(std::memory_order_acquire);
  const uint64_t applied = applied_index_.load(std::memory_order_acquire);
  const uint64_t unapplied = commit > applied ? commit - applied : 0;
  std::lock_guard<std::mutex> lock(mutex_);
  return queued + proposed_.size() + unapplied;
}

Status Replicator::ProposeBatch(const IngestRecord& record,
                                const AckToken& token) {
  if (!IsLeader()) return Status::FailedPrecondition("not the leader");
  ReplicatedCommand command;
  command.kind = CommandKind::kBatch;
  command.record = record;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (record.client_id != 0) {
      auto it = in_flight_.find({record.client_id, record.sequence});
      if (it != in_flight_.end()) {
        // A resend raced the original between propose and apply: one log
        // entry, two ACKs. This coalescing (not the dedup index, which only
        // learns about the batch at apply time) is what keeps the resend
        // from doubling the entry.
        it->second->tokens.push_back(token);
        return Status::OK();
      }
    }
    auto pending = std::make_shared<Pending>();
    pending->command = EncodeCommand(command);
    pending->tokens.push_back(token);
    pending->client_id = record.client_id;
    pending->sequence = record.sequence;
    pending->proposed_at = Clock::now();
    if (record.client_id != 0) {
      in_flight_.emplace(std::make_pair(record.client_id, record.sequence),
                         pending);
    }
    propose_queue_.push_back(std::move(pending));
    queued_proposals_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (metric_proposals_ != nullptr) metric_proposals_->Inc();
  cv_.notify_all();
  return Status::OK();
}

Status Replicator::ProposeCommand(const ReplicatedCommand& command) {
  if (!IsLeader()) return Status::FailedPrecondition("not the leader");
  auto pending = std::make_shared<Pending>();
  pending->command = EncodeCommand(command);
  pending->proposed_at = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    propose_queue_.push_back(std::move(pending));
    queued_proposals_.fetch_add(1, std::memory_order_acq_rel);
  }
  if (metric_proposals_ != nullptr) metric_proposals_->Inc();
  cv_.notify_all();
  return Status::OK();
}

void Replicator::Deliver(RaftMessage message) {
  if (!failpoint::Check(options_.failpoint_scope + "repl.recv").ok()) {
    if (metric_messages_dropped_ != nullptr) {
      metric_messages_dropped_->Inc();
    }
    return;
  }
  if (metric_messages_in_ != nullptr) metric_messages_in_->Inc();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inbox_.push_back(std::move(message));
  }
  cv_.notify_all();
}

std::vector<DeadLetter> Replicator::ReplicatedDeadLetters() const {
  std::lock_guard<std::mutex> lock(dlq_mutex_);
  return replicated_dead_letters_;
}

void Replicator::DriverLoop() {
  const auto tick = std::chrono::milliseconds(options_.tick_millis);
  auto tick_deadline = Clock::now() + tick;
  RaftRole previous_role = node_->role();
  while (true) {
    std::vector<RaftMessage> inbox;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_until(lock, tick_deadline, [this] {
        return stop_.load(std::memory_order_acquire) || !inbox_.empty() ||
               !propose_queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      inbox.swap(inbox_);
    }
    for (RaftMessage& message : inbox) {
      Status status = node_->Step(std::move(message));
      if (!status.ok()) {
        FREEWAY_LOG(kWarning) << "raft step failed on node "
                              << options_.node_id << ": " << status.message();
      }
    }
    const auto now = Clock::now();
    if (now >= tick_deadline) {
      Status status = node_->Tick();
      if (!status.ok()) {
        FREEWAY_LOG(kWarning) << "raft tick failed on node "
                              << options_.node_id << ": " << status.message();
      }
      tick_deadline += tick;
      if (tick_deadline < now) tick_deadline = now + tick;
    }
    const RaftRole current_role = node_->role();
    if (previous_role == RaftRole::kLeader &&
        current_role != RaftRole::kLeader) {
      // Step-down: every un-ACKed proposal is now in doubt (a successor may
      // or may not commit it). Drop the tokens — the clients time out,
      // resend, and either the dedup index re-ACKs (it did commit) or the
      // new leader appends it fresh.
      std::lock_guard<std::mutex> lock(mutex_);
      DropAllPendingLocked();
    }
    previous_role = current_role;
    DrainProposals();
    // Publish before the applier can see the newly committed entries, so
    // that no reader ever observes applied_index() > commit_index().
    PublishCaches();
    std::vector<RaftEntry> committed = node_->TakeCommitted();
    if (!committed.empty()) {
      {
        std::lock_guard<std::mutex> lock(apply_mutex_);
        for (RaftEntry& entry : committed) {
          apply_queue_.push_back(std::move(entry));
        }
      }
      apply_cv_.notify_all();
    }
    ShipMessages();
    FlushLinks();
    // Applied payloads are on disk; only unapplied ones stay in memory.
    storage_->ReleaseThrough(applied_index_.load(std::memory_order_acquire));
  }
}

void Replicator::DrainProposals() {
  std::deque<std::shared_ptr<Pending>> queue;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue.swap(propose_queue_);
    queued_proposals_.store(0, std::memory_order_release);
  }
  if (queue.empty()) return;
  const bool leader = node_->role() == RaftRole::kLeader;
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::shared_ptr<Pending>& pending : queue) {
    if (!leader) {
      if (pending->client_id != 0) {
        in_flight_.erase({pending->client_id, pending->sequence});
      }
      continue;
    }
    Result<uint64_t> index = node_->Propose(pending->command);
    if (!index.ok()) {
      if (pending->client_id != 0) {
        in_flight_.erase({pending->client_id, pending->sequence});
      }
      continue;
    }
    proposed_.emplace(index.value(), std::move(pending));
  }
}

void Replicator::ShipMessages() {
  for (RaftMessage& message : node_->TakeMessages()) {
    if (!failpoint::Check(options_.failpoint_scope + "repl.send").ok()) {
      if (metric_messages_dropped_ != nullptr) {
        metric_messages_dropped_->Inc();
      }
      continue;
    }
    PeerLink* link = nullptr;
    for (PeerLink& candidate : links_) {
      if (candidate.peer.node_id == message.to) {
        link = &candidate;
        break;
      }
    }
    if (link == nullptr) continue;
    const std::vector<char> frame = EncodeRaftMessage(message);
    const size_t buffered = link->outbuf.size() - link->out_pos;
    if (buffered + frame.size() > options_.peer_outbuf_max_bytes) {
      // The peer is dead or drowning; raft retransmits on its own timers,
      // so dropping whole messages here costs latency, never correctness.
      if (metric_messages_dropped_ != nullptr) {
        metric_messages_dropped_->Inc();
      }
      continue;
    }
    link->outbuf.insert(link->outbuf.end(), frame.begin(), frame.end());
    if (metric_messages_out_ != nullptr) {
      metric_messages_out_->Inc();
      metric_entries_sent_->Inc(message.entries.size());
    }
  }
}

void Replicator::FlushLinks() {
  const auto now = Clock::now();
  for (PeerLink& link : links_) {
    if (link.fd < 0) {
      if (now < link.next_attempt) continue;
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        CloseLink(link, "socket");
        continue;
      }
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(link.peer.port);
      if (::inet_pton(AF_INET, link.peer.host.c_str(), &addr.sin_addr) != 1) {
        net::CloseFd(fd);
        CloseLink(link, "bad peer address");
        continue;
      }
      if (!net::SetNonBlocking(fd, true).ok()) {
        net::CloseFd(fd);
        CloseLink(link, "nonblocking");
        continue;
      }
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        link.fd = fd;
        link.connecting = false;
      } else if (errno == EINPROGRESS) {
        link.fd = fd;
        link.connecting = true;
      } else {
        net::CloseFd(fd);
        CloseLink(link, "connect");
        continue;
      }
    }
    if (link.connecting) {
      pollfd pfd{link.fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, 0);
      if (ready == 0) continue;  // still connecting
      int error = 0;
      socklen_t len = sizeof(error);
      if (ready < 0 ||
          ::getsockopt(link.fd, SOL_SOCKET, SO_ERROR, &error, &len) != 0 ||
          error != 0) {
        CloseLink(link, "connect");
        continue;
      }
      link.connecting = false;
      const int one = 1;
      ::setsockopt(link.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      // A fresh link means the peer may have missed everything buffered for
      // the old one; raft's timers re-drive whatever mattered.
      link.backoff_millis = options_.reconnect_min_millis;
    }
    while (link.out_pos < link.outbuf.size()) {
      const ssize_t n =
          ::send(link.fd, link.outbuf.data() + link.out_pos,
                 link.outbuf.size() - link.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        link.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      CloseLink(link, "send");
      break;
    }
    if (link.out_pos == link.outbuf.size() && link.out_pos > 0) {
      link.outbuf.clear();
      link.out_pos = 0;
    } else if (link.out_pos > (1u << 20)) {
      link.outbuf.erase(link.outbuf.begin(),
                        link.outbuf.begin() +
                            static_cast<std::ptrdiff_t>(link.out_pos));
      link.out_pos = 0;
    }
  }
}

void Replicator::CloseLink(PeerLink& link, const char* why) {
  if (link.fd >= 0) {
    FREEWAY_LOG(kDebug) << "peer link " << options_.node_id << "→"
                        << link.peer.node_id << " closed (" << why << ")";
    net::CloseFd(link.fd);
  }
  link.fd = -1;
  link.connecting = false;
  // Unflushed bytes are stale the moment the connection dies; the peer will
  // be re-driven by raft timers once the link returns.
  link.outbuf.clear();
  link.out_pos = 0;
  link.next_attempt =
      Clock::now() + std::chrono::milliseconds(link.backoff_millis);
  link.backoff_millis =
      std::min(options_.reconnect_max_millis, link.backoff_millis * 2);
  if (link.backoff_millis <= 0) {
    link.backoff_millis = options_.reconnect_min_millis;
  }
}

void Replicator::PublishCaches() {
  const RaftRole role = node_->role();
  role_cache_.store(static_cast<int>(role), std::memory_order_release);
  term_cache_.store(node_->term(), std::memory_order_release);
  leader_cache_.store(node_->leader_id(), std::memory_order_release);
  commit_cache_.store(node_->commit_index(), std::memory_order_release);
  elections_cache_.store(node_->elections_started(),
                         std::memory_order_release);
  if (metric_term_ != nullptr) {
    metric_term_->Set(static_cast<double>(node_->term()));
    metric_role_->Set(static_cast<double>(role));
    metric_commit_->Set(static_cast<double>(node_->commit_index()));
    const uint64_t applied = applied_index_.load(std::memory_order_acquire);
    metric_applied_->Set(static_cast<double>(applied));
    const uint64_t commit = node_->commit_index();
    metric_apply_lag_->Set(
        static_cast<double>(commit > applied ? commit - applied : 0));
    // Counters only move forward; re-sync from the node's own tally.
    const uint64_t elections = node_->elections_started();
    while (metric_elections_->Value() < static_cast<int64_t>(elections)) {
      metric_elections_->Inc();
    }
  }
}

void Replicator::DropAllPendingLocked() {
  propose_queue_.clear();
  proposed_.clear();
  in_flight_.clear();
  queued_proposals_.store(0, std::memory_order_release);
}

void Replicator::ApplierLoop() {
  const std::string apply_site = options_.failpoint_scope + "raft.apply";
  while (true) {
    RaftEntry entry;
    {
      std::unique_lock<std::mutex> lock(apply_mutex_);
      apply_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !apply_queue_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      entry = std::move(apply_queue_.front());
      apply_queue_.pop_front();
    }
    // Chaos hook: an armed raft.apply stalls the applier (one nap per armed
    // hit), widening the window where an entry is committed cluster-wide
    // but not yet ACKed — the window failover tests need to hit.
    while (!failpoint::Check(apply_site).ok()) {
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(kApplyStallNap);
    }
    ReplicatedCommand command;
    Status decoded = DecodeCommand(entry.command, &command);
    if (!decoded.ok()) {
      // Unreachable for entries this cluster encoded; a failure here means
      // the log is corrupt beyond what CRCs caught. Loudly skip — stopping
      // the applier would wedge the whole node.
      FREEWAY_LOG(kError) << "undecodable committed entry " << entry.index
                          << ": " << decoded.message();
    } else {
      bool skip = false;
      if (command.kind == CommandKind::kBatch) {
        ++batches_seen_;
        // Crash-recovery replay: the first `initial_applied_batches_` batch
        // commands already reached this node's IngestLog before the
        // restart (last_lsn() counted them), so re-applying would double
        // every batch. Skipping by ordinal is exact because apply order is
        // the log order and replicated mode never writes reverts.
        skip = batches_seen_ <= initial_applied_batches_;
      }
      if (!skip && command.kind != CommandKind::kNoop) {
        if (command.kind == CommandKind::kDeadLetter) {
          std::lock_guard<std::mutex> lock(dlq_mutex_);
          replicated_dead_letters_.push_back(command.dead_letter);
        }
        apply_(command);
      }
    }
    applied_index_.store(entry.index, std::memory_order_release);
    if (metric_applied_entries_ != nullptr) {
      metric_applied_entries_->Inc();
    }
    std::vector<AckToken> tokens;
    Clock::time_point proposed_at{};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = proposed_.find(entry.index);
      if (it != proposed_.end()) {
        tokens = std::move(it->second->tokens);
        proposed_at = it->second->proposed_at;
        if (it->second->client_id != 0) {
          in_flight_.erase({it->second->client_id, it->second->sequence});
        }
        proposed_.erase(it);
      }
    }
    if (!tokens.empty() && metric_commit_seconds_ != nullptr) {
      metric_commit_seconds_->Observe(
          std::chrono::duration<double>(Clock::now() - proposed_at).count());
    }
    for (const AckToken& token : tokens) {
      ack_(token);
    }
  }
}

}  // namespace freeway
