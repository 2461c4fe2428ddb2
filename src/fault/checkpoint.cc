#include "fault/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "fault/failpoint.h"
#include "stream/batch_codec.h"

namespace freeway {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kCheckpointMagic = 0x46574350;  // 'FWCP'
constexpr uint32_t kCheckpointFormatVersion = 1;

struct CheckpointHeader {
  uint32_t magic = kCheckpointMagic;
  uint32_t version = kCheckpointFormatVersion;
  uint64_t payload_size = 0;
  uint32_t crc32 = 0;
};

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// RAII fd so every error path below can early-return without leaking.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }
  int Release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("checkpoint: write failed for", path));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status ReadAll(int fd, char* data, size_t size, const std::string& path) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("checkpoint: read failed for", path));
    }
    if (n == 0) {
      return Status::InvalidArgument("checkpoint: truncated file " + path);
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  ScopedFd fd(::open(path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    return Status::IoError(ErrnoMessage("checkpoint: open for fsync", path));
  }
  if (::fsync(fd.get()) != 0) {
    return Status::IoError(ErrnoMessage("checkpoint: fsync failed for", path));
  }
  return Status::OK();
}

/// Parses "<name>-<seq>.ckpt" into its name and sequence. The split point
/// is the *last* '-' whose remainder is all digits, which inverts the
/// writer exactly even for names that themselves contain dashes and digits
/// ("stream-42-7.ckpt" is name "stream-42", sequence 7 — never name
/// "stream" with non-digit sequence "42-7").
bool ParseCheckpointFilename(const std::string& filename, std::string* name,
                             uint64_t* sequence) {
  const std::string suffix = ".ckpt";
  if (filename.size() <= suffix.size()) return false;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return false;
  }
  const std::string stem =
      filename.substr(0, filename.size() - suffix.size());
  const size_t dash = stem.rfind('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= stem.size()) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = dash + 1; i < stem.size(); ++i) {
    const char c = stem[i];
    if (c < '0' || c > '9') return false;
    if (value > (UINT64_MAX - (c - '0')) / 10) return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *name = stem.substr(0, dash);
  *sequence = value;
  return true;
}

}  // namespace

CheckpointStore::CheckpointStore(CheckpointStoreOptions options)
    : options_(std::move(options)) {
  if (options_.keep_versions == 0) options_.keep_versions = 1;
}

Status CheckpointStore::EnsureDirectory() const {
  if (options_.directory.empty()) {
    return Status::InvalidArgument("checkpoint: store directory is empty");
  }
  std::error_code ec;
  fs::create_directories(options_.directory, ec);
  if (ec) {
    return Status::IoError("checkpoint: cannot create directory " +
                           options_.directory + ": " + ec.message());
  }
  return Status::OK();
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
    if (!ParseCheckpointFilename(entry.path().filename().string(), &name,
                                 &sequence)) {
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
  std::lock_guard<std::mutex> lock(mutex_);
  RETURN_IF_ERROR(EnsureDirectory());
  // The index resumes after whatever the directory already held at scan
  // time, so restarts never reuse a sequence number.
  RETURN_IF_ERROR(EnsureScannedLocked());
  std::vector<CheckpointInfo>& versions = versions_[name];
  const uint64_t sequence = versions.empty() ? 1 : versions.back().sequence + 1;

  CheckpointHeader header;
  header.payload_size = payload.size();
  header.crc32 = Crc32(payload.data(), payload.size());

  const fs::path final_path =
      fs::path(options_.directory) /
      (name + "-" + std::to_string(sequence) + ".ckpt");
  const fs::path tmp_path = final_path.string() + ".tmp";

  {
    ScopedFd fd(::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) {
      return Status::IoError(
          ErrnoMessage("checkpoint: cannot create", tmp_path.string()));
    }
    RETURN_IF_ERROR(WriteAll(fd.get(),
                             reinterpret_cast<const char*>(&header),
                             sizeof(header), tmp_path.string()));
    RETURN_IF_ERROR(
        WriteAll(fd.get(), payload.data(), payload.size(), tmp_path.string()));
    if (options_.fsync && ::fsync(fd.get()) != 0) {
      return Status::IoError(
          ErrnoMessage("checkpoint: fsync failed for", tmp_path.string()));
    }
  }

  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::IoError("checkpoint: rename to " + final_path.string() +
                           " failed: " + ec.message());
  }
  if (options_.fsync) {
    RETURN_IF_ERROR(FsyncPath(options_.directory));
  }
  versions.push_back({sequence, final_path.string()});

  // Prune only after the new version is durably in place.
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

  CheckpointHeader header;
  RETURN_IF_ERROR(
      ReadAll(fd.get(), reinterpret_cast<char*>(&header), sizeof(header), path));
  if (header.magic != kCheckpointMagic) {
    return Status::InvalidArgument("checkpoint: bad magic in " + path);
  }
  if (header.version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "checkpoint: unsupported format version " +
        std::to_string(header.version) + " in " + path);
  }

  std::error_code ec;
  const uintmax_t file_size = fs::file_size(path, ec);
  if (ec) {
    return Status::IoError("checkpoint: cannot stat " + path + ": " +
                           ec.message());
  }
  if (file_size != sizeof(header) + header.payload_size) {
    return Status::InvalidArgument(
        "checkpoint: payload size mismatch in " + path + " (header says " +
        std::to_string(header.payload_size) + ", file holds " +
        std::to_string(file_size - sizeof(header)) + ")");
  }

  std::vector<char> payload(header.payload_size);
  if (!payload.empty()) {
    RETURN_IF_ERROR(ReadAll(fd.get(), payload.data(), payload.size(), path));
  }
  const uint32_t crc = Crc32(payload.data(), payload.size());
  if (crc != header.crc32) {
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
