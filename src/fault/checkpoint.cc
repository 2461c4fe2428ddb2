#include "fault/checkpoint.h"

#include <fcntl.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "fault/durable_file.h"
#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kCheckpointMagic = 0x46574350;  // 'FWCP'
constexpr uint32_t kCheckpointFormatVersion = 1;

/// u32 magic | u32 version | u64 payload size | u32 payload CRC-32 | u32 0
/// (the padding of the original in-memory header struct, so the payload
/// still starts at byte 24).
constexpr size_t kCheckpointHeaderBytes = 24;

}  // namespace

CheckpointStore::CheckpointStore(CheckpointStoreOptions options)
    : options_(std::move(options)) {
  if (options_.keep_versions == 0) options_.keep_versions = 1;
}

Status CheckpointStore::EnsureScannedLocked() const {
  if (scanned_) return Status::OK();
  std::error_code ec;
  fs::directory_iterator it(options_.directory, ec);
  if (ec) {
    // A store directory nothing was written to yet simply holds no
    // versions (and stays unlatched so a later Write's mkdir is scanned);
    // only an existing-but-unlistable directory is an I/O error.
    if (!fs::exists(options_.directory)) return Status::OK();
    return Status::IoError("checkpoint: cannot list directory " +
                           options_.directory + ": " + ec.message());
  }
  versions_.clear();
  for (const auto& entry : it) {
    std::string name;
    uint64_t sequence = 0;
    if (!ParseNumberedFileName(entry.path().filename().string(), ".ckpt",
                               &name, &sequence)) {
      continue;
    }
    versions_[name].push_back({sequence, entry.path().string()});
  }
  for (auto& [name, versions] : versions_) {
    std::sort(versions.begin(), versions.end(),
              [](const CheckpointInfo& a, const CheckpointInfo& b) {
                return a.sequence < b.sequence;
              });
  }
  scanned_ = true;
  return Status::OK();
}

Result<std::vector<CheckpointInfo>> CheckpointStore::ListLocked(
    const std::string& name) const {
  RETURN_IF_ERROR(EnsureScannedLocked());
  auto it = versions_.find(name);
  if (it == versions_.end()) return std::vector<CheckpointInfo>{};
  return it->second;
}

Status CheckpointStore::Write(const std::string& name,
                              const std::vector<char>& payload) {
  FREEWAY_FAILPOINT("checkpoint.write");
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("checkpoint: invalid name \"" + name + "\"");
  }
  if (options_.directory.empty()) {
    return Status::InvalidArgument("checkpoint: store directory is empty");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(CreateDirectories(options_.directory));
  // The index resumes after whatever the directory already held at scan
  // time, so restarts never reuse a sequence number.
  RETURN_IF_ERROR(EnsureScannedLocked());
  std::vector<CheckpointInfo>& versions = versions_[name];
  const uint64_t sequence = versions.empty() ? 1 : versions.back().sequence + 1;

  SnapshotWriter header;
  header.WriteSection(kCheckpointMagic, kCheckpointFormatVersion);
  header.WriteU64(payload.size());
  header.WriteU32(Crc32(payload.data(), payload.size()));
  header.WriteU32(0);

  const fs::path final_path =
      fs::path(options_.directory) /
      (name + "-" + std::to_string(sequence) + ".ckpt");
  RETURN_IF_ERROR(WriteFileAtomically(
      final_path.string(), {header.buffer(), payload}, options_.fsync));
  versions.push_back({sequence, final_path.string()});

  // Prune only after the new version is durably in place.
  std::error_code ec;
  while (versions.size() > options_.keep_versions) {
    fs::remove(versions.front().path, ec);
    versions.erase(versions.begin());
  }
  return Status::OK();
}

Result<std::vector<char>> CheckpointStore::ReadFile(const std::string& path) {
  FREEWAY_FAILPOINT("checkpoint.read");
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("checkpoint: no such file " + path);
    }
    return Status::IoError(ErrnoMessage("checkpoint: cannot open", path));
  }

  std::array<char, kCheckpointHeaderBytes> header;
  RETURN_IF_ERROR(ReadFileHead(fd.get(), header, kCheckpointMagic,
                               kCheckpointFormatVersion, path));
  uint64_t payload_size = 0;
  uint32_t header_crc = 0;
  std::memcpy(&payload_size, header.data() + 8, 8);
  std::memcpy(&header_crc, header.data() + 16, 4);

  ASSIGN_OR_RETURN(const uint64_t file_size, FileSize(fd.get(), path));
  if (file_size - header.size() != payload_size) {
    return Status::InvalidArgument(
        "checkpoint: payload size mismatch in " + path + " (header says " +
        std::to_string(payload_size) + ", file holds " +
        std::to_string(file_size - header.size()) + ")");
  }

  std::vector<char> payload(payload_size);
  RETURN_IF_ERROR(
      ReadExact(fd.get(), header.size(), payload.data(), payload.size(), path));
  if (Crc32(payload.data(), payload.size()) != header_crc) {
    return Status::InvalidArgument("checkpoint: CRC mismatch in " + path);
  }
  return payload;
}

Result<std::vector<char>> CheckpointStore::ReadLatest(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Two passes: the in-memory index can name a file that no longer exists
  // when something pruned the directory behind the store's back (operator
  // clean-up, an overlapping store instance). A kNotFound from an *indexed*
  // path therefore invalidates the index and retries once against a fresh
  // scan. Only that exact signal rescans — a name absent from the index
  // stays a plain miss, so the directory-mode hot path (millions of
  // first-hydration misses) never pays O(directory) per lookup.
  for (int pass = 0; pass < 2; ++pass) {
    ASSIGN_OR_RETURN(std::vector<CheckpointInfo> versions, ListLocked(name));
    if (versions.empty()) {
      return Status::NotFound("checkpoint: no versions of \"" + name +
                              "\" in " + options_.directory);
    }
    Status last_error = Status::OK();
    bool index_stale = false;
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
      Result<std::vector<char>> payload = ReadFile(it->path);
      if (payload.ok()) return payload;
      last_error = payload.status();
      if (pass == 0 && last_error.code() == StatusCode::kNotFound) {
        index_stale = true;
        break;
      }
    }
    if (index_stale) {
      scanned_ = false;
      continue;
    }
    return Status(last_error.code(),
                  "checkpoint: no valid version of \"" + name +
                      "\"; newest rejection: " + last_error.message());
  }
  return Status::NotFound("checkpoint: no versions of \"" + name + "\" in " +
                          options_.directory + " (index was stale)");
}

Result<std::vector<CheckpointInfo>> CheckpointStore::List(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ListLocked(name);
}

}  // namespace freeway
