#ifndef FREEWAYML_FAULT_CHECKPOINT_H_
#define FREEWAYML_FAULT_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace freeway {

/// Options for the on-disk checkpoint store.
struct CheckpointStoreOptions {
  /// Directory all checkpoint files live in (created on first use).
  std::string directory;
  /// Validated versions kept per name; older ones are pruned after each
  /// successful write. >= 1. Keeping two means a crash *during* a write can
  /// never leave a name without a restorable version.
  size_t keep_versions = 2;
  /// fsync file contents before the atomic rename (and the directory after
  /// it), so a renamed checkpoint is durable, not just visible.
  bool fsync = true;
};

/// One stored checkpoint version.
struct CheckpointInfo {
  uint64_t sequence = 0;
  std::string path;
};

/// Versioned, checksummed, atomic on-disk checkpoint store.
///
/// Disk format per file (`<name>-<seq>.ckpt`):
///   u32 magic 'FWCP'  |  u32 format version  |  u64 payload size
///   u32 CRC-32 of the payload  |  u32 zero  |  payload bytes
///
/// Writes are atomic replaces (DESIGN.md "Durable files"), so a reader
/// never observes a partial checkpoint: a file either has its final name
/// and validates, or it does not exist. Reads re-verify magic, version, size, and CRC, so
/// truncation and bit flips are rejected with a clean Status — corruption
/// can never produce a silent partial restore.
///
/// Thread-safe: concurrent Write/ReadLatest calls (e.g. different runtime
/// shards sharing one store) serialize on an internal mutex.
///
/// The store keeps an in-memory index of every stored version, built from
/// one directory scan at first use and maintained by Write from then on.
/// The directory-mode runtime parks hundreds of thousands of streams
/// through a single store; re-listing the directory per operation would
/// make parking stream k cost O(k) — O(N^2) across a working-set sweep.
/// Consequence of the index: the store assumes it owns its directory.
/// Checkpoint files added behind a live store's back are not observed
/// until a new store instance scans the directory (mutating file
/// *contents* is still seen immediately — reads validate from disk).
/// Files *removed* behind its back self-heal on read: when ReadLatest
/// finds an indexed file missing from disk it drops the index and rescans
/// once, so external pruning degrades to one extra directory listing
/// instead of a permanent failure.
class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointStoreOptions options);

  /// Writes `payload` as the next version of `name` and prunes versions
  /// beyond `keep_versions`. Failpoint site: "checkpoint.write".
  Status Write(const std::string& name, const std::vector<char>& payload);

  /// Returns the payload of the newest version of `name` that validates.
  /// A corrupt newest version is skipped (each rejection is clean) and the
  /// next-older one is tried; fails only when no version validates.
  Result<std::vector<char>> ReadLatest(const std::string& name) const;

  /// Reads and validates one checkpoint file. Failpoint site:
  /// "checkpoint.read".
  static Result<std::vector<char>> ReadFile(const std::string& path);

  /// Stored versions of `name`, ascending by sequence.
  Result<std::vector<CheckpointInfo>> List(const std::string& name) const;

  const CheckpointStoreOptions& options() const { return options_; }

 private:
  /// Builds versions_ from one full directory scan. No-op once scanned; a
  /// not-yet-existing directory yields an empty index without latching, so
  /// a directory created by a later Write is still scanned.
  Status EnsureScannedLocked() const;
  Result<std::vector<CheckpointInfo>> ListLocked(
      const std::string& name) const;

  CheckpointStoreOptions options_;
  mutable std::mutex mutex_;
  mutable bool scanned_ = false;
  /// Stored versions per name, ascending by sequence (the newest version is
  /// .back(), and the next write sequence is .back().sequence + 1).
  mutable std::map<std::string, std::vector<CheckpointInfo>> versions_;
};

}  // namespace freeway

#endif  // FREEWAYML_FAULT_CHECKPOINT_H_
