#ifndef FREEWAYML_REPLICATION_RAFT_STORAGE_H_
#define FREEWAYML_REPLICATION_RAFT_STORAGE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "fault/durable_file.h"
#include "obs/metrics.h"
#include "replication/raft.h"

namespace freeway {

/// Configuration of the on-disk raft state.
struct DurableRaftStorageOptions {
  /// Directory holding `raft-state.dat` and `raft-log.dat` (created on
  /// first use). Each cluster node needs its own directory.
  std::string directory;
  /// fsync hard-state and log writes. Off matches the ingest-log default
  /// posture (survives process crashes, not power loss).
  bool fsync = false;
  /// FailPoint site prefix; the persistence site is "<scope>raft.persist".
  std::string failpoint_scope;
  /// Sink for `freeway_raft_append_seconds` (every durable entry append,
  /// leader and follower alike). Null disables.
  MetricsRegistry* metrics = nullptr;
};

/// RaftStorage that writes through to disk.
///
/// Both files follow DESIGN.md "Durable files". Hard state
/// (`raft-state.dat`, 28 CRC-checked bytes) is rewritten by atomic replace
/// on every term/vote change, so a crash mid-write leaves the previous
/// state intact and the node can never come back having forgotten a vote
/// it handed out.
///
/// The log (`raft-log.dat`) is a framed-record file:
///
///   u32 magic 'FWRL' | u32 format version                (header)
///   one frame per entry
///
/// A failed append is rolled back, so an append that reported OK is never
/// lost behind a partial record. Open() applies the torn-tail rule to the
/// whole log — the same frame scan as the ingest log's last segment — and
/// also cuts at a frame that passes its CRC but does not decode as an
/// entry. TruncateSuffix cuts the file at the entry's recorded byte offset,
/// which is how a follower discards uncommitted entries that conflict with
/// a new leader. The log keeps its full prefix (no compaction): a rejoining
/// follower can always be caught up from index 1, at the cost of disk
/// proportional to total committed traffic. Compaction via learner
/// snapshots is an explicit non-goal of this revision (see DESIGN.md).
///
/// Memory holds only the payloads of entries not yet applied here:
/// ReleaseThrough(applied) drops the rest, and Open() loads none (a
/// restart re-applies from disk). Terms and record offsets stay in memory
/// for every entry, so a released entry is one pread away — which is how
/// the leader catches up a lagging follower. Committed entries are never
/// truncated, so cutting at or below the release floor is a fatal
/// invariant violation.
///
/// Not internally synchronized: RaftNode drives it from one thread (the
/// replicator's driver thread).
class DurableRaftStorage : public RaftStorage {
 public:
  explicit DurableRaftStorage(DurableRaftStorageOptions options);
  ~DurableRaftStorage() override;

  DurableRaftStorage(const DurableRaftStorage&) = delete;
  DurableRaftStorage& operator=(const DurableRaftStorage&) = delete;

  /// Recovers hard state and log from `directory`, truncating a torn log
  /// tail. Must be called once before the storage is handed to a RaftNode.
  Status Open();

  /// Bytes cut from a torn tail by Open() (observability/tests).
  uint64_t torn_bytes_truncated() const { return torn_bytes_truncated_; }

  /// Drops the in-memory payloads of entries through `applied` (clamped to
  /// the log's end); they stay readable from disk.
  void ReleaseThrough(uint64_t applied);

 protected:
  Status PersistHardState() override;
  Status PersistAppend(const RaftEntry& entry) override;
  Status PersistTruncateSuffix(uint64_t from_index) override;
  RaftEntry ReadBack(uint64_t index) const override;

 private:
  Status LoadHardState();
  Status LoadLog();

  DurableRaftStorageOptions options_;
  bool opened_ = false;
  FrameAppender log_;
  /// Byte offset where entry `i+1` starts in raft-log.dat; the next append
  /// goes at entry_offsets_.back() (always size()+1 elements once open).
  std::vector<uint64_t> entry_offsets_;
  uint64_t torn_bytes_truncated_ = 0;
  /// Highest index released: entries through it have been applied, hence
  /// committed, and must never be truncated.
  uint64_t release_floor_ = 0;
  Histogram* metric_append_seconds_ = nullptr;
};

}  // namespace freeway

#endif  // FREEWAYML_REPLICATION_RAFT_STORAGE_H_
