#include "core/exp_buffer.h"

#include "common/logging.h"
#include "stream/batch_codec.h"

namespace freeway {

ExpBuffer::ExpBuffer(size_t capacity, int64_t max_age_batches)
    : capacity_(capacity), max_age_batches_(max_age_batches) {
  FREEWAY_DCHECK(capacity_ >= 1);
}

void ExpBuffer::ExpireOld(int64_t current_batch_index) {
  if (max_age_batches_ <= 0) return;
  while (!batches_.empty() &&
         current_batch_index - batches_.front().index > max_age_batches_) {
    total_samples_ -= batches_.front().size();
    batches_.pop_front();
  }
}

Status ExpBuffer::EnforceCapacity() {
  // Drop whole oldest batches first, then trim the (new) front batch so the
  // retained samples are exactly the newest `capacity_`.
  while (total_samples_ > capacity_ && !batches_.empty() &&
         total_samples_ - batches_.front().size() >= capacity_) {
    total_samples_ -= batches_.front().size();
    batches_.pop_front();
  }
  if (total_samples_ > capacity_ && !batches_.empty()) {
    const size_t excess = total_samples_ - capacity_;
    Batch& front = batches_.front();
    auto trimmed = SliceBatch(front, excess, front.size());
    if (!trimmed.ok()) {
      if (trim_errors_ != nullptr) trim_errors_->Inc();
      return trimmed.status();
    }
    total_samples_ -= excess;
    front = std::move(trimmed).value();
  }
  return Status::OK();
}

Status ExpBuffer::Add(const Batch& batch) {
  if (!batch.labeled()) {
    return Status::InvalidArgument("ExpBuffer::Add: batch is unlabeled");
  }
  if (!batches_.empty() && batches_.front().dim() != batch.dim()) {
    return Status::InvalidArgument("ExpBuffer::Add: dimension mismatch");
  }
  if (batch.size() >= capacity_) {
    // The new batch alone fills the buffer: keep only its newest samples.
    ASSIGN_OR_RETURN(
        Batch tail, SliceBatch(batch, batch.size() - capacity_, batch.size()));
    batches_.clear();
    batches_.push_back(std::move(tail));
    total_samples_ = capacity_;
  } else {
    batches_.push_back(batch);
    total_samples_ += batch.size();
    RETURN_IF_ERROR(EnforceCapacity());
  }
  ExpireOld(batch.index);
  return Status::OK();
}

Result<Batch> ExpBuffer::Snapshot() const {
  if (batches_.empty()) {
    return Status::FailedPrecondition("ExpBuffer is empty");
  }
  std::vector<const Batch*> parts;
  parts.reserve(batches_.size());
  for (const Batch& b : batches_) parts.push_back(&b);
  return ConcatBatches(parts);
}


namespace {
constexpr uint32_t kExpBufferTag = 0x45585042;  // 'EXPB'
}  // namespace

void ExpBuffer::SaveState(SnapshotWriter* writer) const {
  writer->WriteSection(kExpBufferTag);
  writer->WriteU64(batches_.size());
  for (const Batch& batch : batches_) writer->WriteBatch(batch);
}

Status ExpBuffer::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kExpBufferTag));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&count));
  std::deque<Batch> batches;
  size_t total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Batch batch;
    RETURN_IF_ERROR(reader->ReadBatch(&batch));
    if (!batch.labeled()) {
      return Status::InvalidArgument(
          "ExpBuffer: snapshot holds an unlabeled batch");
    }
    total += batch.size();
    batches.push_back(std::move(batch));
  }
  batches_ = std::move(batches);
  total_samples_ = total;
  // The snapshot may come from a buffer with a larger capacity; trim down
  // to this buffer's own limit before anyone reads the experience.
  return EnforceCapacity();
}

}  // namespace freeway
