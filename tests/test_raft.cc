#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/failpoint.h"
#include "replication/raft.h"
#include "replication/raft_storage.h"

namespace freeway {
namespace {

namespace fs = std::filesystem;

std::vector<char> Cmd(const std::string& s) {
  return std::vector<char>(s.begin(), s.end());
}

std::string CmdStr(const RaftEntry& e) {
  return std::string(e.command.begin(), e.command.end());
}

/// In-memory N-node cluster: instant, lossless message delivery except for
/// explicitly partitioned nodes. Time is driven tick by tick, so every
/// schedule a test produces is deterministic and replayable.
class Cluster {
 public:
  explicit Cluster(size_t n, uint64_t seed = 7) {
    for (size_t i = 0; i < n; ++i) {
      storages_.push_back(std::make_unique<RaftStorage>());
    }
    for (size_t i = 0; i < n; ++i) {
      RaftConfig config;
      config.node_id = i + 1;
      for (size_t j = 0; j < n; ++j) {
        if (j != i) config.peer_ids.push_back(j + 1);
      }
      config.election_timeout_min_ticks = 10;
      config.election_timeout_max_ticks = 20;
      config.heartbeat_ticks = 2;
      config.seed = seed;
      config.failpoint_scope = "c" + std::to_string(i + 1) + ".";
      nodes_.push_back(
          std::make_unique<RaftNode>(config, storages_[i].get()));
    }
  }

  RaftNode& node(size_t i) { return *nodes_[i]; }
  size_t size() const { return nodes_.size(); }

  void Partition(uint64_t id) { partitioned_.insert(id); }
  void Heal(uint64_t id) { partitioned_.erase(id); }

  /// Collects outboxes and delivers until no messages are in flight.
  void Deliver() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& node : nodes_) {
        for (RaftMessage& msg : node->TakeMessages()) {
          if (partitioned_.count(msg.from) || partitioned_.count(msg.to)) {
            continue;
          }
          ASSERT_GE(msg.to, 1u);
          ASSERT_LE(msg.to, nodes_.size());
          ASSERT_TRUE(nodes_[msg.to - 1]->Step(msg).ok());
          progress = true;
        }
      }
    }
  }

  /// Steps each message on its destination and returns what those nodes
  /// send in reply (one hop, no further delivery).
  std::vector<RaftMessage> Hop(const std::vector<RaftMessage>& messages) {
    std::vector<RaftMessage> replies;
    for (const RaftMessage& msg : messages) {
      RaftNode& target = *nodes_[msg.to - 1];
      EXPECT_TRUE(target.Step(msg).ok());
      for (RaftMessage& reply : target.TakeMessages()) {
        replies.push_back(std::move(reply));
      }
    }
    return replies;
  }

  void TickAll() {
    for (auto& node : nodes_) ASSERT_TRUE(node->Tick().ok());
  }

  /// Ticks + delivers until exactly one un-partitioned leader exists.
  RaftNode* ElectLeader(int max_ticks = 400) {
    for (int t = 0; t < max_ticks; ++t) {
      TickAll();
      Deliver();
      RaftNode* leader = nullptr;
      size_t leaders = 0;
      uint64_t max_term = 0;
      for (auto& node : nodes_) {
        max_term = std::max(max_term, node->term());
      }
      for (auto& node : nodes_) {
        if (node->role() == RaftRole::kLeader &&
            node->term() == max_term &&
            !partitioned_.count(node->node_id())) {
          ++leaders;
          leader = node.get();
        }
      }
      if (leaders == 1) return leader;
    }
    ADD_FAILURE() << "no leader elected within " << max_ticks << " ticks";
    return nullptr;
  }

  /// Drains committed entries from every node into per-node histories.
  void DrainCommitted(std::vector<std::vector<RaftEntry>>* histories) {
    histories->resize(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      for (RaftEntry& e : nodes_[i]->TakeCommitted()) {
        (*histories)[i].push_back(std::move(e));
      }
    }
  }

 private:
  std::vector<std::unique_ptr<RaftStorage>> storages_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::set<uint64_t> partitioned_;
};

TEST(RaftSingleNode, ElectsItselfAndCommitsImmediately) {
  Cluster cluster(1);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->node_id(), 1u);
  EXPECT_EQ(leader->leader_id(), 1u);

  auto index = leader->Propose(Cmd("a"));
  ASSERT_TRUE(index.ok());
  // Entry 1 is the election no-op; the proposal is entry 2, committed at
  // append time in a single-node cluster.
  EXPECT_EQ(*index, 2u);
  EXPECT_EQ(leader->commit_index(), 2u);

  std::vector<std::vector<RaftEntry>> histories;
  cluster.DrainCommitted(&histories);
  ASSERT_EQ(histories[0].size(), 2u);
  EXPECT_TRUE(histories[0][0].command.empty());
  EXPECT_EQ(CmdStr(histories[0][1]), "a");
}

TEST(RaftElection, ThreeNodesConvergeOnOneLeader) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  size_t leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).role() == RaftRole::kLeader) ++leaders;
    EXPECT_EQ(cluster.node(i).leader_id(), leader->node_id());
    EXPECT_EQ(cluster.node(i).term(), leader->term());
  }
  EXPECT_EQ(leaders, 1u);
}

TEST(RaftElection, FollowerRefusesVoteForStaleLog) {
  // A node whose log is behind must not win an election (§5.4.1).
  RaftStorage voter_storage;
  ASSERT_TRUE(voter_storage.SetHardState(2, 0).ok());
  ASSERT_TRUE(voter_storage
                  .Append({{1, 1, Cmd("x")}, {2, 2, Cmd("y")}})
                  .ok());
  RaftConfig config;
  config.node_id = 1;
  config.peer_ids = {2};
  RaftNode voter(config, &voter_storage);

  RaftMessage req;
  req.type = RaftMessageType::kVoteRequest;
  req.from = 2;
  req.to = 1;
  req.term = 3;
  req.last_log_index = 1;  // shorter log, older term
  req.last_log_term = 1;
  ASSERT_TRUE(voter.Step(req).ok());
  auto out = voter.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, RaftMessageType::kVoteResponse);
  EXPECT_FALSE(out[0].vote_granted);

  // Same term, up-to-date log: granted — and the grant is sticky within
  // the term (no second vote for a different candidate).
  req.last_log_index = 2;
  req.last_log_term = 2;
  ASSERT_TRUE(voter.Step(req).ok());
  out = voter.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].vote_granted);
  EXPECT_EQ(voter_storage.voted_for(), 2u);

  RaftMessage other = req;
  other.from = 3;
  ASSERT_TRUE(voter.Step(other).ok());
  out = voter.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].vote_granted);
}

TEST(RaftReplication, CommitsInOrderOnAllNodes) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  for (const char* cmd : {"a", "b", "c", "d", "e"}) {
    ASSERT_TRUE(leader->Propose(Cmd(cmd)).ok());
  }
  cluster.Deliver();
  // The final commit index reaches followers on the next heartbeat round.
  for (int t = 0; t < 3; ++t) {
    cluster.TickAll();
    cluster.Deliver();
  }

  std::vector<std::vector<RaftEntry>> histories;
  cluster.DrainCommitted(&histories);
  // Every node applied: the election no-op + 5 proposals, same order.
  for (size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(histories[i].size(), 6u) << "node " << i + 1;
    EXPECT_TRUE(histories[i][0].command.empty());
    const std::string expect[] = {"a", "b", "c", "d", "e"};
    for (size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(CmdStr(histories[i][k + 1]), expect[k]) << "node " << i + 1;
      EXPECT_EQ(histories[i][k + 1].index, k + 2);
    }
    EXPECT_EQ(cluster.node(i).commit_index(), 6u);
  }
}

TEST(RaftReplication, NoCommitWithoutMajority) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  // Cut off both followers: proposals append locally but never commit.
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).node_id() != leader->node_id()) {
      cluster.Partition(cluster.node(i).node_id());
    }
  }
  uint64_t before = leader->commit_index();
  ASSERT_TRUE(leader->Propose(Cmd("isolated")).ok());
  for (int t = 0; t < 30; ++t) {
    cluster.TickAll();
    cluster.Deliver();
  }
  EXPECT_EQ(leader->commit_index(), before);
}

TEST(RaftReplication, LaggingFollowerCatchesUpToExactCommitIndex) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  uint64_t lagger = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.node(i).node_id() != leader->node_id()) {
      lagger = cluster.node(i).node_id();
      break;
    }
  }
  cluster.Partition(lagger);
  for (int k = 0; k < 100; ++k) {
    ASSERT_TRUE(leader->Propose(Cmd("c" + std::to_string(k))).ok());
  }
  cluster.Deliver();
  ASSERT_EQ(leader->commit_index(), 101u);  // no-op + 100

  cluster.Heal(lagger);
  for (int t = 0; t < 50 && cluster.node(lagger - 1).commit_index() !=
                                leader->commit_index();
       ++t) {
    cluster.TickAll();
    cluster.Deliver();
  }
  EXPECT_EQ(cluster.node(lagger - 1).commit_index(), leader->commit_index());
  EXPECT_EQ(cluster.node(lagger - 1).last_log_index(),
            leader->last_log_index());
}

TEST(RaftFailover, NewLeaderElectedAndDivergentTailDiscarded) {
  Cluster cluster(3);
  RaftNode* old_leader = cluster.ElectLeader();
  ASSERT_NE(old_leader, nullptr);
  ASSERT_TRUE(old_leader->Propose(Cmd("committed")).ok());
  cluster.Deliver();
  uint64_t committed_index = old_leader->commit_index();

  // Partition the leader; it keeps appending entries that can never commit.
  cluster.Partition(old_leader->node_id());
  ASSERT_TRUE(old_leader->Propose(Cmd("lost-1")).ok());
  ASSERT_TRUE(old_leader->Propose(Cmd("lost-2")).ok());

  RaftNode* new_leader = cluster.ElectLeader();
  ASSERT_NE(new_leader, nullptr);
  ASSERT_NE(new_leader->node_id(), old_leader->node_id());
  EXPECT_GT(new_leader->term(), old_leader->term());
  ASSERT_TRUE(new_leader->Propose(Cmd("after-failover")).ok());
  cluster.Deliver();
  EXPECT_GT(new_leader->commit_index(), committed_index);

  // Heal: the deposed leader steps down, truncates its divergent tail
  // (conflict backtracking), and converges on the new leader's log.
  cluster.Heal(old_leader->node_id());
  for (int t = 0; t < 60 && old_leader->commit_index() !=
                                new_leader->commit_index();
       ++t) {
    cluster.TickAll();
    cluster.Deliver();
  }
  EXPECT_EQ(old_leader->role(), RaftRole::kFollower);
  EXPECT_EQ(old_leader->commit_index(), new_leader->commit_index());
  EXPECT_EQ(old_leader->last_log_index(), new_leader->last_log_index());
  std::vector<std::vector<RaftEntry>> histories;
  cluster.DrainCommitted(&histories);
  // All nodes committed the same sequence; nobody ever committed "lost-*".
  for (const auto& history : histories) {
    for (const auto& e : history) {
      EXPECT_NE(CmdStr(e), "lost-1");
      EXPECT_NE(CmdStr(e), "lost-2");
    }
  }
}

TEST(RaftFailover, ConflictHintRewindsWholeTerm) {
  // Follower log: terms [1, 2, 2, 2]; leader probes at prev=4 with term 3.
  // The follower must hint conflict_index=2 (first index of term 2), so the
  // leader rewinds the whole term in one round trip.
  RaftStorage storage;
  ASSERT_TRUE(storage.SetHardState(3, 0).ok());
  ASSERT_TRUE(storage
                  .Append({{1, 1, Cmd("a")},
                           {2, 2, Cmd("b")},
                           {3, 2, Cmd("c")},
                           {4, 2, Cmd("d")}})
                  .ok());
  RaftConfig config;
  config.node_id = 2;
  config.peer_ids = {1};
  RaftNode follower(config, &storage);

  RaftMessage append;
  append.type = RaftMessageType::kAppendEntries;
  append.from = 1;
  append.to = 2;
  append.term = 3;
  append.prev_log_index = 4;
  append.prev_log_term = 3;
  ASSERT_TRUE(follower.Step(append).ok());
  auto out = follower.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, RaftMessageType::kAppendResponse);
  EXPECT_FALSE(out[0].success);
  EXPECT_EQ(out[0].conflict_index, 2u);

  // Leader retries at the hint with its own tail; the conflicting suffix
  // is truncated and replaced.
  append.prev_log_index = 1;
  append.prev_log_term = 1;
  append.entries = {{2, 3, Cmd("B")}, {3, 3, Cmd("C")}};
  append.leader_commit = 3;
  ASSERT_TRUE(follower.Step(append).ok());
  out = follower.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].success);
  EXPECT_EQ(out[0].match_index, 3u);
  EXPECT_EQ(storage.last_index(), 3u);
  EXPECT_EQ(storage.TermAt(2), 3u);
  EXPECT_EQ(follower.commit_index(), 3u);
}

TEST(RaftChaos, VoteFailpointMakesNodeDeafToElections) {
  failpoint::DisarmAll();
  RaftStorage storage;
  RaftConfig config;
  config.node_id = 1;
  config.peer_ids = {2, 3};
  config.failpoint_scope = "t1.";
  RaftNode voter(config, &storage);

  failpoint::Arm("t1.raft.vote",
                 {StatusCode::kUnavailable, "chaos", 0, SIZE_MAX});
  RaftMessage req;
  req.type = RaftMessageType::kVoteRequest;
  req.from = 2;
  req.to = 1;
  req.term = 5;
  req.last_log_index = 0;
  req.last_log_term = 0;
  ASSERT_TRUE(voter.Step(req).ok());
  EXPECT_TRUE(voter.TakeMessages().empty());  // no response at all
  failpoint::DisarmAll();
  ASSERT_TRUE(voter.Step(req).ok());
  auto out = voter.TakeMessages();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].vote_granted);
}

// ---------------------------------------------------------------------------
// Pipelined replication

/// AppendEntries in `messages`, keyed by destination.
std::map<uint64_t, std::vector<RaftMessage>> AppendsByPeer(
    const std::vector<RaftMessage>& messages) {
  std::map<uint64_t, std::vector<RaftMessage>> by_peer;
  for (const RaftMessage& msg : messages) {
    if (msg.type == RaftMessageType::kAppendEntries) {
      by_peer[msg.to].push_back(msg);
    }
  }
  return by_peer;
}

TEST(RaftPipelining, QueuedProposalsShipInOneAppendPerPeer) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  const uint64_t first = leader->last_log_index() + 1;
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(leader->Propose(Cmd("p" + std::to_string(k))).ok());
  }
  // A per-proposal broadcast would ship sum(min(k, 64)) = 2080 entries to
  // each peer here; one drain ships each of the 64 exactly once.
  const std::vector<RaftMessage> out = leader->TakeMessages();
  const auto by_peer = AppendsByPeer(out);
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(by_peer.size(), 2u);
  for (const auto& [peer, appends] : by_peer) {
    ASSERT_EQ(appends.size(), 1u) << "peer " << peer;
    const RaftMessage& append = appends[0];
    EXPECT_EQ(append.prev_log_index, first - 1);
    ASSERT_EQ(append.entries.size(), 64u);
    EXPECT_EQ(append.entries.front().index, first);
    EXPECT_EQ(append.entries.back().index, first + 63);
  }
  // Nothing is left to ship until a response or a heartbeat.
  EXPECT_TRUE(leader->TakeMessages().empty());

  cluster.Hop(cluster.Hop(out));  // followers append; leader takes acks
  EXPECT_EQ(leader->commit_index(), first + 63);
}

TEST(RaftPipelining, SuccessResponsesNeverReShipInFlightEntries) {
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  for (int k = 0; k < 10; ++k) ASSERT_TRUE(leader->Propose(Cmd("a")).ok());
  const std::vector<RaftMessage> wave1 = leader->TakeMessages();
  for (int k = 0; k < 10; ++k) ASSERT_TRUE(leader->Propose(Cmd("b")).ok());
  const std::vector<RaftMessage> wave2 = leader->TakeMessages();
  ASSERT_EQ(wave1.size(), 2u);
  ASSERT_EQ(wave2.size(), 2u);
  for (const RaftMessage& msg : wave2) {
    // The second wave starts where the first ended: no overlap.
    EXPECT_EQ(msg.prev_log_index, wave1[0].entries.back().index);
    EXPECT_EQ(msg.entries.size(), 10u);
  }
  // Both waves reach the followers; their acks come back, the first
  // wave's while the second is still unacknowledged.
  const std::vector<RaftMessage> acks1 = cluster.Hop(wave1);
  const std::vector<RaftMessage> acks2 = cluster.Hop(wave2);
  ASSERT_TRUE(leader != nullptr);
  for (const RaftMessage& ack : acks1) ASSERT_TRUE(leader->Step(ack).ok());
  EXPECT_TRUE(AppendsByPeer(leader->TakeMessages()).empty())
      << "an ack re-shipped entries that were still in flight";
  // Out of order: the newer ack, then the older one again.
  for (const RaftMessage& ack : acks2) ASSERT_TRUE(leader->Step(ack).ok());
  for (const RaftMessage& ack : acks1) ASSERT_TRUE(leader->Step(ack).ok());
  EXPECT_TRUE(AppendsByPeer(leader->TakeMessages()).empty())
      << "a stale ack moved next_index backwards";
  EXPECT_EQ(leader->commit_index(), leader->last_log_index());
}

/// Ticks only `node` until its next heartbeat round is due.
void TickToHeartbeat(RaftNode& node) {
  for (int t = 0; t < 2; ++t) ASSERT_TRUE(node.Tick().ok());
}

TEST(RaftPipelining, DroppedAppendIsReShippedAfterOneHeartbeat) {
  failpoint::DisarmAll();
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  const std::string site =
      "c" + std::to_string(leader->node_id()) + ".raft.append";
  // Both peers' copies of the entry vanish in the network.
  failpoint::Arm(site, {StatusCode::kUnavailable, "chaos", 0, 2});
  auto index = leader->Propose(Cmd("lost-once"));
  ASSERT_TRUE(index.ok());
  cluster.Deliver();
  EXPECT_LT(leader->commit_index(), *index);

  // The heartbeat anchors at the optimistic next index; the followers
  // reject it, and the rewind re-ships the entry at once.
  TickToHeartbeat(*leader);
  cluster.Deliver();
  EXPECT_EQ(leader->commit_index(), *index);
  failpoint::DisarmAll();
}

TEST(RaftPipelining, PeerWithoutProgressForAHeartbeatIsRewound) {
  failpoint::DisarmAll();
  Cluster cluster(3);
  RaftNode* leader = cluster.ElectLeader();
  ASSERT_NE(leader, nullptr);
  const uint64_t match = leader->last_log_index();
  const std::string site =
      "c" + std::to_string(leader->node_id()) + ".raft.append";
  // The entry's appends and the next heartbeat round are all lost.
  failpoint::Arm(site, {StatusCode::kUnavailable, "chaos", 0, 4});
  ASSERT_TRUE(leader->Propose(Cmd("x")).ok());
  EXPECT_TRUE(leader->TakeMessages().empty());
  TickToHeartbeat(*leader);
  EXPECT_TRUE(leader->TakeMessages().empty());
  // A whole heartbeat interval without progress: the next round rewinds
  // to match + 1 and carries the lost entry itself.
  TickToHeartbeat(*leader);
  const auto by_peer = AppendsByPeer(leader->TakeMessages());
  ASSERT_EQ(by_peer.size(), 2u);
  for (const auto& [peer, appends] : by_peer) {
    ASSERT_EQ(appends.size(), 1u);
    EXPECT_EQ(appends[0].prev_log_index, match) << "peer " << peer;
    ASSERT_EQ(appends[0].entries.size(), 1u) << "peer " << peer;
    EXPECT_EQ(CmdStr(appends[0].entries[0]), "x");
  }
  failpoint::DisarmAll();
}

// ---------------------------------------------------------------------------
// DurableRaftStorage

class DurableRaftStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("freeway_raft_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
    failpoint::DisarmAll();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    fs::remove_all(dir_);
  }

  DurableRaftStorageOptions Options() {
    DurableRaftStorageOptions options;
    options.directory = dir_.string();
    return options;
  }

  fs::path dir_;
};

TEST_F(DurableRaftStorageTest, HardStateAndLogSurviveRestart) {
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    EXPECT_EQ(storage.current_term(), 0u);
    ASSERT_TRUE(storage.SetHardState(7, 3).ok());
    ASSERT_TRUE(storage
                    .Append({{1, 6, Cmd("alpha")}, {2, 7, Cmd("beta")}})
                    .ok());
  }
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  EXPECT_EQ(storage.current_term(), 7u);
  EXPECT_EQ(storage.voted_for(), 3u);
  ASSERT_EQ(storage.last_index(), 2u);
  EXPECT_EQ(storage.TermAt(1), 6u);
  EXPECT_EQ(CmdStr(storage.At(2)), "beta");
}

TEST_F(DurableRaftStorageTest, TruncateSuffixSurvivesRestart) {
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage
                    .Append({{1, 1, Cmd("a")},
                             {2, 1, Cmd("b")},
                             {3, 2, Cmd("c")}})
                    .ok());
    ASSERT_TRUE(storage.TruncateSuffix(2).ok());
    ASSERT_EQ(storage.last_index(), 1u);
    // Appending after a truncate must land where the cut was made.
    ASSERT_TRUE(storage.Append({{2, 3, Cmd("B")}}).ok());
  }
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  ASSERT_EQ(storage.last_index(), 2u);
  EXPECT_EQ(CmdStr(storage.At(1)), "a");
  EXPECT_EQ(CmdStr(storage.At(2)), "B");
  EXPECT_EQ(storage.TermAt(2), 3u);
}

TEST_F(DurableRaftStorageTest, TornLogTailIsTruncatedOnOpen) {
  fs::path log_path;
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(
        storage.Append({{1, 1, Cmd("keep")}, {2, 1, Cmd("torn")}}).ok());
    log_path = dir_ / "raft-log.dat";
  }
  // Cut the last record mid-payload: a crash during append.
  const uint64_t full = fs::file_size(log_path);
  fs::resize_file(log_path, full - 5);

  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  EXPECT_EQ(storage.last_index(), 1u);
  EXPECT_EQ(CmdStr(storage.At(1)), "keep");
  EXPECT_GT(storage.torn_bytes_truncated(), 0u);
  // The log is usable again at the cut point.
  ASSERT_TRUE(storage.Append({{2, 2, Cmd("fresh")}}).ok());
}

/// Lowers this process's RLIMIT_FSIZE with SIGXFSZ ignored, so a write
/// crossing `limit` stops short (then fails with EFBIG) instead of killing
/// the process. The destructor restores the limit and the disposition.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t limit) {
    ok_ = ::getrlimit(RLIMIT_FSIZE, &saved_) == 0;
    saved_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    struct rlimit lowered = saved_;
    lowered.rlim_cur = limit;
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &lowered) == 0;
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, saved_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

  bool ok() const { return ok_; }

 private:
  struct rlimit saved_ {};
  void (*saved_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

TEST_F(DurableRaftStorageTest, ShortWriteIsRolledBack) {
  const fs::path log_path = dir_ / "raft-log.dat";
  const std::vector<char> big(3000, 'x');
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage.Append({{1, 1, Cmd("first")}}).ok());
    const uint64_t size = fs::file_size(log_path);
    {
      // Entry 2's record crosses the limit: the write stops partway.
      FileSizeLimit limit(size + 1000);
      ASSERT_TRUE(limit.ok());
      EXPECT_FALSE(storage.Append({{2, 1, big}}).ok());
    }
    EXPECT_EQ(storage.last_index(), 1u);
    EXPECT_EQ(fs::file_size(log_path), size) << "partial record left behind";
    ASSERT_TRUE(storage.Append({{2, 1, big}}).ok());
    storage.ReleaseThrough(2);  // At(2) now reads the record from disk.
    EXPECT_EQ(storage.At(2).command, big);
  }
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  EXPECT_EQ(storage.last_index(), 2u);
  EXPECT_EQ(storage.torn_bytes_truncated(), 0u);
  EXPECT_EQ(storage.At(2).command, big);
}

TEST_F(DurableRaftStorageTest, CorruptHardStateFailsOpen) {
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage.SetHardState(3, 1).ok());
  }
  // Flip a byte inside the CRC-covered region.
  fs::path state_path = dir_ / "raft-state.dat";
  {
    std::vector<char> bytes(28);
    FILE* f = fopen(state_path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    bytes[10] ^= 0x40;
    fseek(f, 0, SEEK_SET);
    ASSERT_EQ(fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    fclose(f);
  }
  DurableRaftStorage storage(Options());
  Status st = storage.Open();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST_F(DurableRaftStorageTest, PersistFailpointSurfacesAsError) {
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  failpoint::Arm("raft.persist", {StatusCode::kIoError, "disk gone", 0, 1});
  Status st = storage.SetHardState(1, 1);
  EXPECT_FALSE(st.ok());
  // One-shot failpoint: the next persist succeeds.
  EXPECT_TRUE(storage.SetHardState(1, 1).ok());
}

TEST_F(DurableRaftStorageTest, NodeRestartKeepsVoteAndLog) {
  // A restarted node must come back in the same term with the same vote —
  // forgetting either can double-vote and elect two leaders.
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    RaftConfig config;
    config.node_id = 1;
    config.peer_ids = {};  // single node: elects itself
    RaftNode node(config, &storage);
    for (int t = 0; t < 30 && node.role() != RaftRole::kLeader; ++t) {
      ASSERT_TRUE(node.Tick().ok());
    }
    ASSERT_EQ(node.role(), RaftRole::kLeader);
    ASSERT_TRUE(node.Propose(Cmd("durable")).ok());
  }
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  EXPECT_GE(storage.current_term(), 1u);
  EXPECT_EQ(storage.voted_for(), 1u);
  RaftConfig config;
  config.node_id = 1;
  RaftNode node(config, &storage);
  EXPECT_EQ(node.last_log_index(), 2u);  // no-op + proposal
  // Re-elects in a higher term and the old entries commit under it.
  for (int t = 0; t < 30 && node.role() != RaftRole::kLeader; ++t) {
    ASSERT_TRUE(node.Tick().ok());
  }
  ASSERT_EQ(node.role(), RaftRole::kLeader);
  auto committed = node.TakeCommitted();
  ASSERT_EQ(committed.size(), 3u);  // old no-op, "durable", new no-op
  EXPECT_EQ(CmdStr(committed[1]), "durable");
}

TEST_F(DurableRaftStorageTest, ReleasedEntriesReadBackBitIdentical) {
  std::vector<RaftEntry> written;
  for (uint64_t i = 1; i <= 40; ++i) {
    RaftEntry e;
    e.index = i;
    e.term = 1 + i / 16;
    e.command.resize(i % 7 == 0 ? 0 : 100 + 37 * i);
    for (size_t b = 0; b < e.command.size(); ++b) {
      e.command[b] = static_cast<char>((i * 131 + b * 7) & 0xFF);
    }
    written.push_back(e);
  }
  auto expect_all = [&](const RaftStorage& storage, const char* when) {
    ASSERT_EQ(storage.last_index(), written.size()) << when;
    for (const RaftEntry& e : written) {
      const RaftEntry got = storage.At(e.index);
      EXPECT_EQ(got.index, e.index) << when;
      EXPECT_EQ(got.term, e.term) << when;
      EXPECT_EQ(storage.TermAt(e.index), e.term) << when;
      EXPECT_EQ(got.command, e.command) << when << ", entry " << e.index;
    }
    const std::vector<RaftEntry> range = storage.EntriesFrom(20, 64);
    ASSERT_EQ(range.size(), written.size() - 19) << when;
    for (const RaftEntry& e : range) {
      EXPECT_EQ(e.command, written[e.index - 1].command) << when;
    }
  };
  {
    DurableRaftStorage storage(Options());
    ASSERT_TRUE(storage.Open().ok());
    ASSERT_TRUE(storage.Append(written).ok());
    EXPECT_EQ(storage.resident_entries(), 40u);
    storage.ReleaseThrough(30);
    EXPECT_EQ(storage.resident_entries(), 10u);
    expect_all(storage, "after release");
    // Releasing backwards is a no-op; past the end clamps.
    storage.ReleaseThrough(5);
    EXPECT_EQ(storage.resident_entries(), 10u);
    // Unapplied entries above the floor may still be cut and replaced.
    ASSERT_TRUE(storage.TruncateSuffix(39).ok());
    written.resize(38);
    RaftEntry replacement{39, 9, Cmd("replacement")};
    ASSERT_TRUE(storage.Append({replacement}).ok());
    written.push_back(replacement);
    expect_all(storage, "after cut above the floor");
  }
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  // A restart loads terms and offsets, never payloads.
  EXPECT_EQ(storage.resident_entries(), 0u);
  expect_all(storage, "after reopen");
  RaftEntry next{40, 9, Cmd("after reopen")};
  ASSERT_TRUE(storage.Append({next}).ok());
  written.push_back(next);
  EXPECT_EQ(storage.resident_entries(), 1u);
  expect_all(storage, "after append past reopen");
}

TEST_F(DurableRaftStorageTest, TruncatingReleasedEntriesIsFatal) {
  DurableRaftStorage storage(Options());
  ASSERT_TRUE(storage.Open().ok());
  ASSERT_TRUE(storage
                  .Append({{1, 1, Cmd("a")}, {2, 1, Cmd("b")},
                           {3, 1, Cmd("c")}})
                  .ok());
  storage.ReleaseThrough(2);
  EXPECT_DEATH((void)storage.TruncateSuffix(2), "would cut applied entries");
  EXPECT_TRUE(storage.TruncateSuffix(3).ok());
}

TEST(RaftStorageTest, VolatileStorageKeepsEveryPayload) {
  RaftStorage storage;
  ASSERT_TRUE(storage.Append({{1, 1, Cmd("a")}, {2, 2, Cmd("b")}}).ok());
  EXPECT_EQ(storage.resident_entries(), 2u);
  EXPECT_EQ(CmdStr(storage.At(1)), "a");
  EXPECT_EQ(storage.TermAt(2), 2u);
  ASSERT_TRUE(storage.TruncateSuffix(1).ok());
  EXPECT_EQ(storage.last_index(), 0u);
  EXPECT_EQ(storage.TermAt(1), 0u);
}

}  // namespace
}  // namespace freeway
