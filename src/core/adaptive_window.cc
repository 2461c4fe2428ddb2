#include "core/adaptive_window.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "core/disorder.h"
#include "stream/batch_codec.h"

namespace freeway {

AdaptiveStreamingWindow::AdaptiveStreamingWindow(
    const AdaptiveWindowOptions& options)
    : options_(options) {
  FREEWAY_DCHECK(options_.max_batches >= 2);
  FREEWAY_DCHECK(options_.min_weight > 0.0 && options_.min_weight < 1.0);
}

void AdaptiveStreamingWindow::CheckItemCount() const {
#ifndef NDEBUG
  size_t total = 0;
  for (const Entry& e : entries_) total += e.batch.size();
  FREEWAY_DCHECK(total == num_items_);
#endif
}

bool AdaptiveStreamingWindow::Full() const {
  return entries_.size() >= options_.max_batches ||
         num_items_ >= options_.max_items;
}

void AdaptiveStreamingWindow::SetDecayBoost(double boost) {
  decay_boost_ = boost < 1.0 ? 1.0 : boost;
}

Result<bool> AdaptiveStreamingWindow::Add(const Batch& batch) {
  if (!batch.labeled()) {
    return Status::InvalidArgument("ASW only holds labeled training batches");
  }
  if (batch.size() == 0) {
    return Status::InvalidArgument("ASW: empty batch");
  }

  const std::vector<double> new_mean = batch.Mean();

  if (!entries_.empty()) {
    // Alg. 1 lines 6-12: shift of every resident batch to the newcomer,
    // then the disorder of the distance sequence ordered most-recent-first.
    // Under a directional drift the most recent batch is nearest and the
    // oldest farthest, so this ordering is sorted (disorder ~ 0); localized
    // jitter scrambles it (disorder ~ 1/2 or higher) — matching the paper's
    // reading of Eq. 11.
    std::vector<double> shifts;
    shifts.reserve(entries_.size());
    for (const Entry& e : entries_) {
      shifts.push_back(vec::EuclideanDistance(e.mean, new_mean));
    }
    std::vector<double> recency_ordered(shifts.rbegin(), shifts.rend());
    disorder_ = NormalizedDisorder(recency_ordered);

    // Distance ranks: rank 0 = nearest to the newcomer.
    std::vector<size_t> order(shifts.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&shifts](size_t a, size_t b) {
      return shifts[a] < shifts[b];
    });
    std::vector<size_t> rank(shifts.size());
    for (size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;

    // Alg. 1 lines 13-16: decay each resident by f(rank, disorder).
    const double denom = shifts.size() > 1
                             ? static_cast<double>(shifts.size() - 1)
                             : 1.0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double rank_frac = static_cast<double>(rank[i]) / denom;
      double decay = options_.base_decay + options_.rank_decay * rank_frac +
                     options_.disorder_decay * disorder_;
      decay *= decay_boost_;
      if (decay > 0.95) decay = 0.95;
      entries_[i].weight *= (1.0 - decay);
    }
    // Evict fully-decayed batches, keeping the running item count in step.
    std::erase_if(entries_, [this](const Entry& e) {
      if (e.weight < options_.min_weight) {
        num_items_ -= e.batch.size();
        return true;
      }
      return false;
    });
  } else {
    disorder_ = 0.0;
  }

  Entry entry;
  entry.batch = batch;
  entry.mean = new_mean;
  entry.weight = 1.0;
  num_items_ += entry.batch.size();
  entries_.push_back(std::move(entry));
  CheckItemCount();

  return Full();
}

Result<Batch> AdaptiveStreamingWindow::TakeTrainingData() {
  if (entries_.empty()) {
    return Status::FailedPrecondition("ASW: window is empty");
  }

  // Weighted view: each batch contributes ceil(weight * rows) rows.
  std::vector<Batch> slices;
  slices.reserve(entries_.size());
  for (const Entry& e : entries_) {
    const size_t rows = static_cast<size_t>(
        std::ceil(e.weight * static_cast<double>(e.batch.size())));
    const size_t take = rows > e.batch.size() ? e.batch.size() : rows;
    if (take == 0) continue;
    ASSIGN_OR_RETURN(Batch slice, SliceBatch(e.batch, 0, take));
    slices.push_back(std::move(slice));
  }
  std::vector<const Batch*> ptrs;
  ptrs.reserve(slices.size());
  for (const Batch& s : slices) ptrs.push_back(&s);
  ASSIGN_OR_RETURN(Batch merged, ConcatBatches(ptrs));

  // Keep the newest batch to seed the next window with the live
  // distribution; drop everything older.
  Entry last = std::move(entries_.back());
  entries_.clear();
  last.weight = 1.0;
  num_items_ = last.batch.size();
  entries_.push_back(std::move(last));
  disorder_ = 0.0;
  CheckItemCount();

  return merged;
}

std::vector<double> AdaptiveStreamingWindow::Centroid() const {
  if (entries_.empty()) return {};
  const size_t dim = entries_.front().mean.size();
  std::vector<double> centroid(dim, 0.0);
  double total_weight = 0.0;
  for (const Entry& e : entries_) {
    vec::Axpy(e.weight, e.mean, centroid);
    total_weight += e.weight;
  }
  if (total_weight > 0.0) {
    for (auto& v : centroid) v /= total_weight;
  }
  return centroid;
}


namespace {
constexpr uint32_t kAdaptiveWindowTag = 0x41535721;  // 'ASW!'
}  // namespace

void AdaptiveStreamingWindow::SaveState(SnapshotWriter* writer) const {
  writer->WriteSection(kAdaptiveWindowTag);
  writer->WriteU64(entries_.size());
  for (const Entry& entry : entries_) {
    writer->WriteBatch(entry.batch);
    writer->WriteDoubleVec(entry.mean);
    writer->WriteDouble(entry.weight);
  }
  writer->WriteDouble(disorder_);
  writer->WriteDouble(decay_boost_);
}

Status AdaptiveStreamingWindow::LoadState(SnapshotReader* reader) {
  RETURN_IF_ERROR(reader->ExpectSection(kAdaptiveWindowTag));
  uint64_t count = 0;
  RETURN_IF_ERROR(reader->ReadU64(&count));
  std::deque<Entry> entries;
  size_t num_items = 0;
  for (uint64_t i = 0; i < count; ++i) {
    Entry entry;
    RETURN_IF_ERROR(reader->ReadBatch(&entry.batch));
    RETURN_IF_ERROR(reader->ReadDoubleVec(&entry.mean));
    RETURN_IF_ERROR(reader->ReadDouble(&entry.weight));
    if (!entry.batch.labeled()) {
      return Status::InvalidArgument(
          "AdaptiveStreamingWindow: snapshot holds an unlabeled batch");
    }
    num_items += entry.batch.size();
    entries.push_back(std::move(entry));
  }
  RETURN_IF_ERROR(reader->ReadDouble(&disorder_));
  RETURN_IF_ERROR(reader->ReadDouble(&decay_boost_));
  entries_ = std::move(entries);
  num_items_ = num_items;
  CheckItemCount();
  return Status::OK();
}

}  // namespace freeway
