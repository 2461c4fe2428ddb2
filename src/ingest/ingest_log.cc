#include "ingest/ingest_log.h"

#include <fcntl.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "fault/failpoint.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kSegmentMagic = 0x47495746;  // 'FWIG'
constexpr uint32_t kSegmentFormatVersion = 1;
constexpr size_t kSegmentHeaderBytes = 16;
/// A record payload above this is corruption, not data — the same bound as
/// the wire protocol's kMaxFramePayload, since every batch record is a
/// logged SUBMIT.
constexpr uint32_t kMaxRecordPayload = 64u << 20;

/// Record payload section tags.
constexpr uint32_t kTagBatchRecord = 0x54414249;   // 'IBAT'
constexpr uint32_t kTagRevertRecord = 0x54565249;  // 'IRVT'
constexpr uint32_t kTagWatermarks = 0x4B4D5749;    // 'IWMK'

/// Parses "ingest-<base_lsn>.seg" into the base LSN.
bool ParseSegmentFilename(const std::string& filename, uint64_t* base_lsn) {
  std::string stem;
  return ParseNumberedFileName(filename, ".seg", &stem, base_lsn) &&
         stem == "ingest";
}

/// One parsed record payload. Revert records reuse `record.client_id` /
/// `record.sequence` and name the batch record they cancel by LSN;
/// watermark records carry the raw snapshot bytes for
/// DedupIndex::LoadState.
struct LogRecord {
  uint32_t tag = 0;
  uint64_t lsn = 0;
  uint64_t cancelled_lsn = 0;
  IngestRecord record;
  std::vector<char> watermarks;
};

std::vector<char> EncodeBatchRecord(const IngestRecord& record, uint64_t lsn) {
  SnapshotWriter writer;
  writer.WriteSection(kTagBatchRecord);
  writer.WriteU64(lsn);
  WriteIngestRecord(record, &writer);
  return writer.Take();
}

std::vector<char> EncodeRevertRecord(uint64_t lsn, uint64_t cancelled_lsn,
                                     uint64_t client_id, uint64_t sequence) {
  SnapshotWriter writer;
  writer.WriteSection(kTagRevertRecord);
  writer.WriteU64(lsn);
  writer.WriteU64(cancelled_lsn);
  writer.WriteU64(client_id);
  writer.WriteU64(sequence);
  return writer.Take();
}

std::vector<char> EncodeWatermarkRecord(uint64_t covered_lsn,
                                        const DedupIndex& dedup) {
  SnapshotWriter writer;
  writer.WriteSection(kTagWatermarks);
  writer.WriteU64(covered_lsn);
  dedup.SaveState(&writer);
  return writer.Take();
}

/// Parses one CRC-verified record payload. Failure here is *not* a torn
/// tail — the CRC already passed — so callers treat it as hard corruption.
Status ParseRecordPayload(std::span<const char> payload, LogRecord* out) {
  SnapshotReader reader(payload);
  uint32_t tag = 0;
  RETURN_IF_ERROR(reader.ReadU32(&tag));
  uint32_t version = 0;
  RETURN_IF_ERROR(reader.ReadU32(&version));
  if (version != 1) {
    return Status::InvalidArgument("ingest: unsupported record version " +
                                   std::to_string(version));
  }
  out->tag = tag;
  RETURN_IF_ERROR(reader.ReadU64(&out->lsn));
  switch (tag) {
    case kTagBatchRecord: {
      RETURN_IF_ERROR(ReadIngestRecord(&reader, &out->record));
      RETURN_IF_ERROR(reader.ExpectEnd());
      out->record.lsn = out->lsn;
      return Status::OK();
    }
    case kTagRevertRecord: {
      RETURN_IF_ERROR(reader.ReadU64(&out->cancelled_lsn));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.client_id));
      RETURN_IF_ERROR(reader.ReadU64(&out->record.sequence));
      RETURN_IF_ERROR(reader.ExpectEnd());
      return Status::OK();
    }
    case kTagWatermarks: {
      // The rest of the payload is the DedupIndex snapshot, handed back
      // verbatim for LoadState.
      out->watermarks.assign(payload.end() - reader.remaining(),
                             payload.end());
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("ingest: unknown record tag " +
                                     std::to_string(tag));
  }
}

/// Everything one pass over a segment file learns.
struct SegmentScan {
  uint64_t base_lsn = 0;
  std::vector<LogRecord> records;
  /// Byte offset just past the last intact record. Below file_size only
  /// when the scan stopped early (see tail_error).
  uint64_t valid_end = 0;
  uint64_t file_size = 0;
  /// Why the scan stopped before the end of the file: the first invalid
  /// frame (see FrameReader), a torn tail. OK when the whole file parsed.
  Status tail_error = Status::OK();
};

/// Scans one segment. In a `sealed` segment (any but the newest) an
/// invalid frame is corruption, not a torn tail: sealed segments are never
/// written again, so a tear cannot explain it.
Result<SegmentScan> ScanSegmentFile(const std::string& path, bool sealed) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    return Status::IoError(ErrnoMessage("ingest: cannot open", path));
  }
  SegmentScan scan;
  ASSIGN_OR_RETURN(scan.file_size, FileSize(fd.get(), path));
  char header[kSegmentHeaderBytes];
  RETURN_IF_ERROR(ReadFileHead(fd.get(), header, kSegmentMagic,
                               kSegmentFormatVersion, path));
  std::memcpy(&scan.base_lsn, header + 8, 8);

  FrameReader frames(fd.get(), path, kSegmentHeaderBytes, scan.file_size,
                     kMaxRecordPayload);
  while (true) {
    ASSIGN_OR_RETURN(const bool more, frames.Next());
    if (!more) break;
    LogRecord record;
    // CRC-valid bytes that fail to parse are hard corruption everywhere
    // (a tear cannot survive the CRC), so this is not a tail_error.
    RETURN_IF_ERROR(ParseRecordPayload(frames.payload(), &record));
    scan.records.push_back(std::move(record));
  }
  scan.valid_end = frames.valid_end();
  scan.tail_error = frames.tail_error();
  if (sealed && !scan.tail_error.ok()) {
    return Status(scan.tail_error.code(), "ingest: corrupt sealed segment: " +
                                              scan.tail_error.message());
  }
  return scan;
}

}  // namespace

void WriteIngestRecord(const IngestRecord& record, SnapshotWriter* writer) {
  writer->WriteU64(record.client_id);
  writer->WriteU64(record.sequence);
  writer->WriteU64(record.stream_id);
  writer->WriteU32(record.tenant_id);
  writer->WriteU32(record.priority);
  writer->WriteBatch(record.batch);
}

Status ReadIngestRecord(SnapshotReader* reader, IngestRecord* record) {
  RETURN_IF_ERROR(reader->ReadU64(&record->client_id));
  RETURN_IF_ERROR(reader->ReadU64(&record->sequence));
  RETURN_IF_ERROR(reader->ReadU64(&record->stream_id));
  RETURN_IF_ERROR(reader->ReadU32(&record->tenant_id));
  uint32_t priority = 0;
  RETURN_IF_ERROR(reader->ReadU32(&priority));
  if (priority > 255) {
    return Status::InvalidArgument("ingest record: priority " +
                                   std::to_string(priority) +
                                   " out of range");
  }
  record->priority = static_cast<uint8_t>(priority);
  return reader->ReadBatch(&record->batch);
}

IngestLog::IngestLog(IngestLogOptions options) : options_(std::move(options)) {
  if (options_.segment_max_bytes < kSegmentHeaderBytes + kLogFrameHeaderBytes) {
    options_.segment_max_bytes = kSegmentHeaderBytes + kLogFrameHeaderBytes;
  }
  if (options_.metrics != nullptr) {
    MetricsRegistry* registry = options_.metrics;
    metric_appends_ = registry->GetCounter("freeway_ingest_appends_total");
    metric_reverts_ = registry->GetCounter("freeway_ingest_reverts_total");
    metric_rotations_ = registry->GetCounter("freeway_ingest_rotations_total");
    metric_pruned_ =
        registry->GetCounter("freeway_ingest_segments_pruned_total");
    metric_append_bytes_ = registry->GetHistogram(
        "freeway_ingest_append_bytes", Histogram::DefaultSizeBounds());
    metric_append_seconds_ =
        registry->GetHistogram("freeway_ingest_append_seconds");
  }
}

IngestLog::~IngestLog() = default;

Status IngestLog::Open(DedupIndex* dedup) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (opened_) return Status::FailedPrecondition("ingest: log already open");
  RETURN_IF_ERROR(OpenLocked(dedup));
  opened_ = true;
  return Status::OK();
}

Status IngestLog::OpenLocked(DedupIndex* dedup) {
  dedup_ = dedup;
  if (options_.directory.empty()) {
    return Status::InvalidArgument("ingest: log directory is empty");
  }
  if (!options_.read_only) {
    RETURN_IF_ERROR(CreateDirectories(options_.directory));
  }

  std::vector<Segment> segments;
  std::error_code ec;
  fs::directory_iterator it(options_.directory, ec);
  if (ec) {
    if (options_.read_only && !fs::exists(options_.directory)) {
      // Nothing captured yet: an empty log, not an error.
      return Status::OK();
    }
    return Status::IoError("ingest: cannot list directory " +
                           options_.directory + ": " + ec.message());
  }
  for (const auto& entry : it) {
    const std::string filename = entry.path().filename().string();
    uint64_t base_lsn = 0;
    if (ParseSegmentFilename(filename, &base_lsn)) {
      segments.push_back({base_lsn, entry.path().string()});
      continue;
    }
    // A leftover .tmp is a rotation the process died inside; the renamed
    // segment never existed, so the bytes are garbage.
    if (!options_.read_only && filename.size() > 4 &&
        filename.compare(filename.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.base_lsn < b.base_lsn;
            });

  next_lsn_ = 1;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool sealed = i + 1 != segments.size();
    ASSIGN_OR_RETURN(SegmentScan scan,
                     ScanSegmentFile(segments[i].path, sealed));
    if (scan.base_lsn != segments[i].base_lsn) {
      return Status::InvalidArgument(
          "ingest: segment " + segments[i].path + " header claims base LSN " +
          std::to_string(scan.base_lsn));
    }
    if (!scan.tail_error.ok()) {
      stats_.torn_bytes_truncated += scan.file_size - scan.valid_end;
      FREEWAY_LOG(kWarning) << "ingest: truncating torn tail of "
                            << segments[i].path << " ("
                            << (scan.file_size - scan.valid_end)
                            << " bytes): " << scan.tail_error.message();
    }
    uint64_t end_lsn = segments[i].base_lsn;
    for (const LogRecord& record : scan.records) {
      ++stats_.recovered_records;
      switch (record.tag) {
        case kTagBatchRecord:
          if (dedup_ != nullptr) {
            dedup_->Advance(record.record.client_id, record.record.sequence);
          }
          end_lsn = std::max(end_lsn, record.lsn + 1);
          break;
        case kTagRevertRecord:
          if (dedup_ != nullptr) {
            dedup_->Revert(record.record.client_id, record.record.sequence);
          }
          end_lsn = std::max(end_lsn, record.lsn + 1);
          break;
        case kTagWatermarks:
          // Every segment head snapshots the full table, superseding
          // whatever the records before it rebuilt.
          if (dedup_ != nullptr) {
            SnapshotReader reader(record.watermarks);
            RETURN_IF_ERROR(dedup_->LoadState(&reader));
          }
          break;
      }
    }
    // A sealed segment ends exactly where its successor begins (rotation
    // starts the next segment at the next LSN). A sealed segment cut at a
    // record boundary parses cleanly, so only this catches it.
    if (sealed && end_lsn != segments[i + 1].base_lsn) {
      return Status::InvalidArgument(
          "ingest: corrupt sealed segment: " + segments[i].path +
          " ends before LSN " + std::to_string(end_lsn) +
          " but the next segment starts at LSN " +
          std::to_string(segments[i + 1].base_lsn));
    }
    // A snapshot-only segment (fresh after an anchored truncation) carries
    // the next LSN in its header.
    next_lsn_ = std::max(next_lsn_, end_lsn);
    if (!sealed && !options_.read_only) {
      RETURN_IF_ERROR(active_.Open(segments[i].path, scan.file_size,
                                   /*create=*/false));
      if (!scan.tail_error.ok()) {
        RETURN_IF_ERROR(active_.Truncate(scan.valid_end, /*fsync=*/false));
      }
    }
  }
  segments_ = std::move(segments);

  if (!options_.read_only && segments_.empty()) {
    RETURN_IF_ERROR(StartSegmentLocked(next_lsn_));
  }
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::StartSegmentLocked(uint64_t base_lsn) {
  active_.Close();
  const std::string path =
      (fs::path(options_.directory) /
       ("ingest-" + std::to_string(base_lsn) + ".seg"))
          .string();

  SnapshotWriter header;
  header.WriteSection(kSegmentMagic, kSegmentFormatVersion);
  header.WriteU64(base_lsn);
  std::vector<char> head = header.Take();
  if (dedup_ != nullptr) {
    // Head snapshot: everything the table learned from records below
    // base_lsn, so recovery never needs the pruned segments.
    AppendFrame(EncodeWatermarkRecord(base_lsn == 0 ? 0 : base_lsn - 1,
                                      *dedup_),
                &head);
  }
  RETURN_IF_ERROR(WriteFileAtomically(path, {head}, options_.fsync));
  RETURN_IF_ERROR(active_.Open(path, head.size(), /*create=*/false));
  segments_.push_back({base_lsn, path});
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::AppendPayloadLocked(const std::vector<char>& payload) {
  if (active_.size() >= options_.segment_max_bytes) {
    RETURN_IF_ERROR(RotateLocked());
  }
  const uint64_t start = active_.size();
  Status written = active_.Append(payload, options_.fsync);
  if (!written.ok()) {
    // The appender rolled the partial record back. If that failed too it
    // stopped appending, and so must this log: the torn tail is for the
    // next Open() to truncate, and rotating past it would seal it.
    if (!active_.appendable()) opened_ = false;
    return written;
  }
  if (metric_append_bytes_ != nullptr) {
    metric_append_bytes_->Observe(static_cast<double>(active_.size() - start));
  }
  return Status::OK();
}

Result<uint64_t> IngestLog::Append(const IngestRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  FREEWAY_FAILPOINT("ingest.append");
  const auto start = std::chrono::steady_clock::now();
  const uint64_t lsn = next_lsn_;
  RETURN_IF_ERROR(AppendPayloadLocked(EncodeBatchRecord(record, lsn)));
  next_lsn_ = lsn + 1;
  ++stats_.appends;
  if (metric_appends_ != nullptr) metric_appends_->Inc();
  if (metric_append_seconds_ != nullptr) {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    metric_append_seconds_->Observe(elapsed.count());
  }
  return lsn;
}

Result<uint64_t> IngestLog::AppendRevert(uint64_t cancelled_lsn,
                                         uint64_t client_id,
                                         uint64_t sequence) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  const uint64_t lsn = next_lsn_;
  RETURN_IF_ERROR(AppendPayloadLocked(
      EncodeRevertRecord(lsn, cancelled_lsn, client_id, sequence)));
  next_lsn_ = lsn + 1;
  ++stats_.reverts;
  if (metric_reverts_ != nullptr) metric_reverts_->Inc();
  return lsn;
}

Status IngestLog::RotateLocked() {
  // An active segment that holds no record yet already starts at next_lsn_
  // under current watermarks. Starting it again would replace the file
  // under the same name and list it twice, and TruncateBefore would then
  // delete the active file along with the stale entry.
  if (active_.appendable() && segments_.back().base_lsn == next_lsn_) {
    return Status::OK();
  }
  RETURN_IF_ERROR(StartSegmentLocked(next_lsn_));
  ++stats_.rotations;
  if (metric_rotations_ != nullptr) metric_rotations_->Inc();
  return Status::OK();
}

Status IngestLog::Rotate() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  return RotateLocked();
}

Status IngestLog::TruncateBefore(uint64_t lsn, size_t keep_sealed_segments) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  if (options_.read_only) {
    return Status::FailedPrecondition("ingest: log is read-only");
  }
  // A sealed segment's records all sit below its successor's base LSN, so
  // it is prunable exactly when that base covers everything up to `lsn`.
  // The active segment always stays, plus `keep_sealed_segments` of the
  // newest sealed ones (the retention window).
  std::error_code ec;
  while (segments_.size() > 1 + keep_sealed_segments &&
         segments_[1].base_lsn <= lsn + 1) {
    fs::remove(segments_.front().path, ec);
    if (ec) {
      return Status::IoError("ingest: cannot remove " +
                             segments_.front().path + ": " + ec.message());
    }
    segments_.erase(segments_.begin());
    ++stats_.segments_pruned;
    if (metric_pruned_ != nullptr) metric_pruned_->Inc();
  }
  stats_.segments = segments_.size();
  return Status::OK();
}

Status IngestLog::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_.Sync();
}

Status IngestLog::Replay(
    const std::function<Status(const IngestRecord& record)>& fn) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!opened_) return Status::FailedPrecondition("ingest: log is not open");
  // Pass 1: collect the LSNs cancelled by revert records (each revert
  // names its batch record exactly, so re-appended sequences and untracked
  // submits need no pairing heuristics).
  std::unordered_set<uint64_t> reverted;
  for (size_t i = 0; i < segments_.size(); ++i) {
    ASSIGN_OR_RETURN(
        SegmentScan scan,
        ScanSegmentFile(segments_[i].path, i + 1 != segments_.size()));
    for (const LogRecord& record : scan.records) {
      if (record.tag == kTagRevertRecord) reverted.insert(record.cancelled_lsn);
    }
  }
  // Pass 2: yield the survivors in LSN order (segments are already sorted
  // and records within a segment are append-ordered).
  for (size_t i = 0; i < segments_.size(); ++i) {
    ASSIGN_OR_RETURN(
        SegmentScan scan,
        ScanSegmentFile(segments_[i].path, i + 1 != segments_.size()));
    for (const LogRecord& record : scan.records) {
      if (record.tag != kTagBatchRecord) continue;
      if (reverted.count(record.lsn) != 0) continue;
      RETURN_IF_ERROR(fn(record.record));
    }
  }
  return Status::OK();
}

uint64_t IngestLog::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_ - 1;
}

IngestLogStats IngestLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace freeway
