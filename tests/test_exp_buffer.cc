#include "core/exp_buffer.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "stream/batch_codec.h"

namespace freeway {
namespace {

Batch SimpleBatch(size_t n, size_t dim, double fill, int label,
                  int64_t index) {
  Batch b;
  b.index = index;
  b.features = Matrix(n, dim, fill);
  b.labels.assign(n, label);
  return b;
}

TEST(ExpBufferTest, StartsEmpty) {
  ExpBuffer buffer(16);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.Snapshot().ok());
}

TEST(ExpBufferTest, AddAndSnapshot) {
  ExpBuffer buffer(16);
  ASSERT_TRUE(buffer.Add(SimpleBatch(4, 3, 1.0, 2, 0)).ok());
  EXPECT_EQ(buffer.size(), 4u);
  auto snap = buffer.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 4u);
  EXPECT_EQ(snap->dim(), 3u);
  EXPECT_EQ(snap->labels, (std::vector<int>{2, 2, 2, 2}));
}

TEST(ExpBufferTest, CapacityKeepsNewest) {
  ExpBuffer buffer(6);
  ASSERT_TRUE(buffer.Add(SimpleBatch(4, 2, 1.0, 0, 0)).ok());
  ASSERT_TRUE(buffer.Add(SimpleBatch(4, 2, 2.0, 1, 1)).ok());
  EXPECT_EQ(buffer.size(), 6u);
  auto snap = buffer.Snapshot();
  ASSERT_TRUE(snap.ok());
  // Oldest two samples (fill 1.0, label 0) displaced.
  EXPECT_EQ(snap->labels, (std::vector<int>{0, 0, 1, 1, 1, 1}));
  EXPECT_DOUBLE_EQ(snap->features.At(5, 0), 2.0);
}

TEST(ExpBufferTest, RejectsUnlabeledAndDimMismatch) {
  ExpBuffer buffer(16);
  Batch unlabeled;
  unlabeled.features = Matrix(2, 3);
  EXPECT_FALSE(buffer.Add(unlabeled).ok());

  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 3, 0.0, 0, 0)).ok());
  EXPECT_FALSE(buffer.Add(SimpleBatch(2, 4, 0.0, 0, 1)).ok());
}

TEST(ExpBufferTest, ExpirationByAge) {
  ExpBuffer buffer(100, /*max_age_batches=*/3);
  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 2, 1.0, 0, 0)).ok());
  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 2, 2.0, 1, 1)).ok());
  EXPECT_EQ(buffer.size(), 4u);
  // Batch index 4: samples from batch 0 (age 4 > 3) expire; batch 1
  // (age 3) survives.
  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 2, 3.0, 0, 4)).ok());
  auto snap = buffer.Snapshot();
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->size(), 4u);  // Batch-0 pair gone; batches 1 and 4 remain.
  EXPECT_EQ(snap->labels, (std::vector<int>{1, 1, 0, 0}));
}

TEST(ExpBufferTest, NoExpirationWhenDisabled) {
  ExpBuffer buffer(100, /*max_age_batches=*/0);
  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 2, 1.0, 0, 0)).ok());
  ASSERT_TRUE(buffer.Add(SimpleBatch(2, 2, 2.0, 1, 1000)).ok());
  EXPECT_EQ(buffer.size(), 4u);
}

TEST(ExpBufferTest, CapacityInvariantHoldsAcrossManyAdds) {
  // EnforceCapacity's Status now propagates through Add; on the success
  // path the buffer must never exceed its capacity, whatever mix of batch
  // sizes arrives.
  ExpBuffer buffer(10);
  for (int i = 0; i < 20; ++i) {
    const size_t n = 1 + static_cast<size_t>(i % 7);
    ASSERT_TRUE(buffer.Add(SimpleBatch(n, 2, 1.0 * i, i % 2, i)).ok());
    EXPECT_LE(buffer.size(), 10u) << "after add " << i;
  }
  EXPECT_EQ(buffer.size(), 10u);
}

TEST(ExpBufferTest, TrimErrorCounterStaysZeroOnHealthyTraffic) {
  MetricsRegistry registry;
  Counter* trim_errors =
      registry.GetCounter("freeway_expbuffer_trim_errors_total");
  ExpBuffer buffer(6);
  buffer.set_trim_errors_counter(trim_errors);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(buffer.Add(SimpleBatch(4, 2, 1.0 * i, 0, i)).ok());
  }
  // Plenty of trims happened (capacity 6, 32 samples offered), all clean.
  EXPECT_EQ(buffer.size(), 6u);
  EXPECT_EQ(trim_errors->Value(), 0u);
}

TEST(ExpBufferTest, SaveLoadStateRoundTrips) {
  ExpBuffer original(16);
  ASSERT_TRUE(original.Add(SimpleBatch(4, 3, 1.0, 0, 0)).ok());
  ASSERT_TRUE(original.Add(SimpleBatch(4, 3, 2.0, 1, 1)).ok());
  SnapshotWriter writer;
  original.SaveState(&writer);

  ExpBuffer restored(16);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(restored.LoadState(&reader).ok());
  EXPECT_EQ(restored.size(), original.size());
  auto a = original.Snapshot();
  auto b = restored.Snapshot();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  for (size_t i = 0; i < a->features.rows(); ++i) {
    for (size_t j = 0; j < a->features.cols(); ++j) {
      EXPECT_EQ(a->features.At(i, j), b->features.At(i, j));
    }
  }
}

TEST(ExpBufferTest, RestoreIntoSmallerBufferEnforcesCapacity) {
  // Snapshot taken by a buffer holding 12 samples...
  ExpBuffer big(16);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(big.Add(SimpleBatch(4, 2, 1.0 * i, i % 2, i)).ok());
  }
  ASSERT_EQ(big.size(), 12u);
  SnapshotWriter writer;
  big.SaveState(&writer);

  // ...restored into a buffer configured for 6: the restore itself trims
  // down to capacity (keeping the newest experience) instead of leaving an
  // over-full buffer behind.
  ExpBuffer small(6);
  SnapshotReader reader(writer.buffer());
  ASSERT_TRUE(small.LoadState(&reader).ok());
  EXPECT_EQ(small.size(), 6u);
  auto snap = small.Snapshot();
  ASSERT_TRUE(snap.ok());
  // The oldest batch (fill 0.0) was dropped; the newest (fill 2.0) stayed.
  EXPECT_EQ(snap->features.At(snap->features.rows() - 1, 0), 2.0);
}

TEST(ExpBufferTest, LoadStateRejectsUnlabeledBatches) {
  SnapshotWriter writer;
  Batch unlabeled;
  unlabeled.index = 0;
  unlabeled.features = Matrix(4, 2, 1.0);
  writer.WriteSection(0x45585042);     // 'EXPB'
  writer.WriteU64(1);                  // One batch follows...
  writer.WriteBatch(unlabeled);        // ...but it carries no labels.
  ExpBuffer buffer(16);
  SnapshotReader reader(writer.buffer());
  EXPECT_FALSE(buffer.LoadState(&reader).ok());
}

}  // namespace
}  // namespace freeway
