#ifndef FREEWAYML_INGEST_INGEST_LOG_H_
#define FREEWAYML_INGEST_INGEST_LOG_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "fault/durable_file.h"
#include "ingest/dedup.h"
#include "obs/metrics.h"
#include "stream/batch.h"
#include "stream/batch_codec.h"

namespace freeway {

/// Configuration of the durable ingest log.
struct IngestLogOptions {
  /// Directory all segment files live in (created on first use).
  std::string directory;
  /// A segment at or above this size is sealed and a fresh one started on
  /// the next append. Small segments make checkpoint-anchored truncation
  /// fine-grained; the 4 MiB default seals every few hundred batches.
  size_t segment_max_bytes = 4u << 20;
  /// fsync every appended record (and segment files through rotation).
  /// Off by default — the log then survives process crashes (the kernel
  /// still has the bytes) but not power loss, matching the checkpoint
  /// store's default posture.
  bool fsync = false;
  /// Open for replay only: Open() validates and indexes the existing
  /// segments but never creates, truncates, or appends — safe to point at
  /// a live server's log directory from another process.
  bool read_only = false;
  /// Observability sink for the `freeway_ingest_*` family. Null disables.
  MetricsRegistry* metrics = nullptr;
};

/// One logged submit: everything the server needs to re-run admission for
/// this batch offline (replay) or after a restart.
struct IngestRecord {
  /// Log sequence number, assigned by Append (monotone from 1).
  uint64_t lsn = 0;
  /// Exactly-once identity; both 0 for untracked (legacy) submits.
  uint64_t client_id = 0;
  uint64_t sequence = 0;
  /// SUBMIT routing fields (wire SubmitMessage).
  uint64_t stream_id = 0;
  uint32_t tenant_id = 0;
  uint8_t priority = 1;
  Batch batch;
};

/// The IngestRecord fields every logged or replicated SUBMIT carries —
/// client_id, sequence, stream_id, tenant_id, priority (as u32), batch —
/// in that order. Shared by the ingest log's batch record and the
/// replicated batch command. The LSN is not among them.
void WriteIngestRecord(const IngestRecord& record, SnapshotWriter* writer);
/// Reads the fields WriteIngestRecord wrote; a priority above 255 is
/// rejected.
Status ReadIngestRecord(SnapshotReader* reader, IngestRecord* record);

/// Counters describing the log's life so far (recovery results included).
struct IngestLogStats {
  uint64_t appends = 0;
  uint64_t reverts = 0;
  uint64_t rotations = 0;
  uint64_t segments_pruned = 0;
  /// Records read back successfully by Open().
  uint64_t recovered_records = 0;
  /// Bytes cut from a torn tail by Open().
  uint64_t torn_bytes_truncated = 0;
  /// Segment files currently on disk.
  size_t segments = 0;
};

/// Durable append-only write-ahead log of admitted SUBMITs.
///
/// The log is a directory of segment files (`ingest-<base_lsn>.seg`), each
/// created by an atomic replace, so a reader never observes a segment
/// without its header, and then appended to as a framed-record file
/// (DESIGN.md "Durable files" has the frame, the atomic-replace and the
/// torn-tail rules). Segment layout:
///
///   u32 magic 'FWIG' | u32 format version | u64 base_lsn    (header)
///   one frame per record
///
/// Record payloads are batch_codec sections: a batch record ('IBAT', the
/// logged SubmitMessage plus its LSN), a revert record ('IRVT', a batch
/// whose admission was rejected *after* logging — overload — so its
/// client watermark must retreat), and a watermark snapshot ('IWMK', the
/// full DedupIndex table, written at the head of every rotated segment).
/// Because every segment starts with a watermark snapshot, recovery never
/// needs segments older than the oldest retained one: snapshot + replay
/// of the remaining records rebuilds the exact dedup state, which is what
/// makes checkpoint-anchored truncation (TruncateBefore) safe.
///
/// Open() applies the torn-tail rule to the *last* segment only: appending
/// resumes after its last good record. A bad frame in any earlier segment
/// is real corruption and fails Open — sealed segments are never written
/// again, so a tear cannot explain it — and so is a sealed segment whose
/// records stop short of its successor's base LSN. A frame that passes
/// its CRC but does not parse fails Open wherever it is.
///
/// Thread-safe: Append/AppendRevert/Rotate/TruncateBefore serialize on an
/// internal mutex (reactor workers on different connections append
/// concurrently). Replay() re-reads from disk and may run on a live log.
class IngestLog {
 public:
  explicit IngestLog(IngestLogOptions options);
  ~IngestLog();

  IngestLog(const IngestLog&) = delete;
  IngestLog& operator=(const IngestLog&) = delete;

  /// Recovers the directory: scans/validates every segment, truncates a
  /// torn tail, rebuilds `dedup` (snapshot + record replay) when non-null,
  /// and readies the newest segment for appending (read_only skips the
  /// write side). Must be called once before anything else.
  Status Open(DedupIndex* dedup);

  /// Durably appends one batch record; returns its LSN. The record's own
  /// `lsn` field is ignored (the log stamps it). This is the exactly-once
  /// commit point: callers advance the client watermark only after Append
  /// returns OK, and ACK only after that (ack-after-log).
  /// Failpoint site: "ingest.append".
  Result<uint64_t> Append(const IngestRecord& record);

  /// Appends a revert record: the batch record at `cancelled_lsn` (the
  /// value Append returned for it) was rejected at admission, so replay
  /// must skip it and recovery must not count it against the client's
  /// watermark. Returns the revert's own LSN.
  Result<uint64_t> AppendRevert(uint64_t cancelled_lsn, uint64_t client_id,
                                uint64_t sequence);

  /// Seals the active segment and starts a fresh one headed by a watermark
  /// snapshot. With `TruncateBefore(last_lsn())` right after, this is the
  /// checkpoint-anchor protocol: once every shard's checkpoint covers all
  /// admitted batches, the whole history collapses to one snapshot-only
  /// segment.
  Status Rotate();

  /// Prunes sealed segments whose records all have LSN <= `lsn` (the
  /// active segment is never pruned). Callers pass the LSN their runtime
  /// checkpoints are known to cover. `keep_sealed_segments` retains that
  /// many of the newest sealed segments past the anchor — the
  /// `ingest.retention_segments` knob, giving offline replay tooling a
  /// bounded recent-history window even under aggressive steady-state
  /// truncation.
  Status TruncateBefore(uint64_t lsn, size_t keep_sealed_segments = 0);

  /// fsyncs the active segment now (regardless of the fsync option).
  Status Sync();

  /// Replays every surviving batch record in LSN order: records cancelled
  /// by a revert are skipped, so the callback sees exactly the batches an
  /// uncrashed server admitted, in admission order. Reads from disk; works
  /// in read_only mode and on a live log.
  Status Replay(
      const std::function<Status(const IngestRecord& record)>& fn) const;

  /// LSN of the last appended record; 0 when the log is empty.
  uint64_t last_lsn() const;

  IngestLogStats stats() const;

  const IngestLogOptions& options() const { return options_; }

 private:
  struct Segment {
    uint64_t base_lsn = 0;
    std::string path;
  };

  Status OpenLocked(DedupIndex* dedup);
  /// Creates `ingest-<base_lsn>.seg` via tmp+rename (header + watermark
  /// snapshot when a dedup index is attached) and opens it for appending.
  Status StartSegmentLocked(uint64_t base_lsn);
  Status AppendPayloadLocked(const std::vector<char>& payload);
  Status RotateLocked();
  uint64_t NextLsnLocked() { return next_lsn_++; }

  IngestLogOptions options_;

  mutable std::mutex mutex_;
  bool opened_ = false;
  std::vector<Segment> segments_;
  /// The newest segment's append side (closed in read_only mode).
  FrameAppender active_;
  uint64_t next_lsn_ = 1;
  DedupIndex* dedup_ = nullptr;
  IngestLogStats stats_;

  /// freeway_ingest_* handles; null while options_.metrics is null.
  Counter* metric_appends_ = nullptr;
  Counter* metric_reverts_ = nullptr;
  Counter* metric_rotations_ = nullptr;
  Counter* metric_pruned_ = nullptr;
  Histogram* metric_append_bytes_ = nullptr;
  Histogram* metric_append_seconds_ = nullptr;
};

}  // namespace freeway

#endif  // FREEWAYML_INGEST_INGEST_LOG_H_
