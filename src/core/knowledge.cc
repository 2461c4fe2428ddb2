#include "core/knowledge.h"

#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "linalg/matrix.h"
#include "stream/batch_codec.h"

namespace freeway {

KnowledgeStore::KnowledgeStore(const KnowledgeStoreOptions& options)
    : options_(options) {
  FREEWAY_DCHECK(options_.capacity >= 2);
}

Status KnowledgeStore::SpillOldestHalf() {
  const size_t spill = hot_.size() / 2;
  std::FILE* file = nullptr;
  if (!options_.spill_path.empty()) {
    file = std::fopen(options_.spill_path.c_str(), "ab");
    if (file == nullptr) {
      return Status::IoError("cannot open spill file: " + options_.spill_path);
    }
  }
  for (size_t i = 0; i < spill; ++i) {
    const KnowledgeEntry& e = hot_.front();
    spilled_bytes_ += e.SpaceBytes();
    ++spilled_count_;
    if (file != nullptr) {
      const uint64_t rep_size = e.representation.size();
      const uint64_t param_size = e.parameters.size();
      std::fwrite(&rep_size, sizeof(rep_size), 1, file);
      std::fwrite(&param_size, sizeof(param_size), 1, file);
      std::fwrite(e.representation.data(), sizeof(double),
                  e.representation.size(), file);
      std::fwrite(e.parameters.data(), sizeof(double), e.parameters.size(),
                  file);
    }
    hot_.pop_front();
  }
  if (file != nullptr) std::fclose(file);
  return Status::OK();
}

Status KnowledgeStore::Preserve(KnowledgeEntry entry) {
  if (entry.representation.empty() || entry.parameters.empty()) {
    return Status::InvalidArgument(
        "KnowledgeStore::Preserve: empty representation or parameters");
  }
  if (hot_.size() >= options_.capacity) {
    RETURN_IF_ERROR(SpillOldestHalf());
  }
  hot_.push_back(std::move(entry));
  return Status::OK();
}

Status KnowledgeStore::PreserveOrRefresh(KnowledgeEntry entry,
                                         double dedup_radius) {
  if (dedup_radius > 0.0) {
    auto match = NearestMatch(entry.representation);
    if (match.ok() && match->distance <= dedup_radius) {
      hot_[match->entry_index] = std::move(entry);
      ++refresh_count_;
      return Status::OK();
    }
  }
  return Preserve(std::move(entry));
}

Result<KnowledgeMatch> KnowledgeStore::NearestMatch(
    const std::vector<double>& representation) const {
  KnowledgeMatch best;
  double best_distance = std::numeric_limits<double>::infinity();
  bool found = false;
  for (size_t i = 0; i < hot_.size(); ++i) {
    if (hot_[i].representation.size() != representation.size()) continue;
    const double d =
        vec::EuclideanDistance(hot_[i].representation, representation);
    if (d < best_distance) {
      best_distance = d;
      best.entry_index = i;
      found = true;
    }
  }
  if (!found) {
    return Status::NotFound("KnowledgeStore: no matching knowledge");
  }
  best.distance = best_distance;
  return best;
}

size_t KnowledgeStore::HotSpaceBytes() const {
  size_t total = 0;
  for (const KnowledgeEntry& e : hot_) total += e.SpaceBytes();
  return total;
}

Result<std::vector<KnowledgeEntry>> KnowledgeStore::ReadSpillFile(
    const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open spill file: " + path);
  }
  std::vector<KnowledgeEntry> entries;
  for (;;) {
    uint64_t rep_size = 0, param_size = 0;
    const size_t got = std::fread(&rep_size, sizeof(rep_size), 1, file);
    if (got != 1) break;  // Clean EOF.
    if (std::fread(&param_size, sizeof(param_size), 1, file) != 1) {
      std::fclose(file);
      return Status::IoError("spill file truncated (header): " + path);
    }
    KnowledgeEntry entry;
    entry.representation.resize(rep_size);
    entry.parameters.resize(param_size);
    if (std::fread(entry.representation.data(), sizeof(double), rep_size,
                   file) != rep_size ||
        std::fread(entry.parameters.data(), sizeof(double), param_size,
                   file) != param_size) {
      std::fclose(file);
      return Status::IoError("spill file truncated (payload): " + path);
    }
    entries.push_back(std::move(entry));
  }
  std::fclose(file);
  return entries;
}


namespace {
constexpr uint32_t kKnowledgeTag = 0x4b4e4f57;  // 'KNOW'
}  // namespace

void KnowledgeStore::SaveState(SnapshotWriter* writer) const {
  writer->WriteSection(kKnowledgeTag);
  writer->WriteU64(hot_.size());
  for (const KnowledgeEntry& entry : hot_) {
    writer->WriteDoubleVec(entry.representation);
    writer->WriteDoubleVec(entry.parameters);
    writer->WriteU32(static_cast<uint32_t>(entry.source));
    writer->WriteI64(entry.batch_index);
    writer->WriteDouble(entry.quality);
  }
  writer->WriteU64(spilled_count_);
  writer->WriteU64(spilled_bytes_);
  writer->WriteU64(refresh_count_);
}

Status KnowledgeStore::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kKnowledgeTag));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&count));
  std::deque<KnowledgeEntry> hot;
  for (uint64_t i = 0; i < count; ++i) {
    KnowledgeEntry entry;
    uint32_t source = 0;
    RETURN_IF_ERROR(reader->ReadDoubleVec(&entry.representation));
    RETURN_IF_ERROR(reader->ReadDoubleVec(&entry.parameters));
    RETURN_IF_ERROR(reader->ReadU32(&source));
    RETURN_IF_ERROR(reader->ReadI64(&entry.batch_index));
    RETURN_IF_ERROR(reader->ReadDouble(&entry.quality));
    if (source > static_cast<uint32_t>(KnowledgeSource::kLongModel)) {
      return Status::InvalidArgument(
          "KnowledgeStore: snapshot has an unknown source tag");
    }
    entry.source = static_cast<KnowledgeSource>(source);
    hot.push_back(std::move(entry));
  }
  uint64_t spilled_count = 0;
  uint64_t spilled_bytes = 0;
  uint64_t refresh_count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&spilled_count));
  RETURN_IF_ERROR(reader->ReadU64(&spilled_bytes));
  RETURN_IF_ERROR(reader->ReadU64(&refresh_count));
  hot_ = std::move(hot);
  spilled_count_ = spilled_count;
  spilled_bytes_ = spilled_bytes;
  refresh_count_ = refresh_count;
  return Status::OK();
}

}  // namespace freeway
