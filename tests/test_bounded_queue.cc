#include "runtime/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace freeway {
namespace {

using Queue = BoundedQueue<int>;

TEST(BoundedQueueTest, FifoOrderAndConsumerActivation) {
  Queue queue(8);
  auto first = queue.PushBlocking(1);
  EXPECT_TRUE(first.accepted);
  EXPECT_TRUE(first.activate_consumer);  // Idle queue: caller must schedule.
  auto second = queue.PushBlocking(2);
  EXPECT_TRUE(second.accepted);
  EXPECT_FALSE(second.activate_consumer);  // Consumer already active.

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(queue.Pop(&out));  // Empty: consumer deactivates.

  // Deactivated consumer must be re-activated by the next push.
  EXPECT_TRUE(queue.PushBlocking(3).activate_consumer);
}

TEST(BoundedQueueTest, TracksHighWater) {
  Queue queue(8);
  for (int i = 0; i < 5; ++i) queue.PushBlocking(i);
  int out = 0;
  while (queue.Pop(&out)) {
  }
  EXPECT_EQ(queue.high_water(), 5u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedQueueTest, PushBlocksOnFullUntilPop) {
  Queue queue(2);
  queue.PushBlocking(1);
  queue.PushBlocking(2);

  std::atomic<bool> third_done{false};
  int64_t blocked_micros = 0;
  std::thread producer([&] {
    auto result = queue.PushBlocking(3);
    blocked_micros = result.blocked_micros;
    EXPECT_TRUE(result.accepted);
    third_done.store(true);
  });

  // Wait until the producer is parked on the full queue.
  while (queue.blocked_producers() == 0) std::this_thread::yield();
  EXPECT_FALSE(third_done.load());

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));  // Frees one slot.
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(queue.blocked_producers(), 0u);
  EXPECT_GT(blocked_micros, 0);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(BoundedQueueTest, SheddingEvictsOldestVictim) {
  Queue queue(3);
  queue.PushBlocking(10);  // victim (even)
  queue.PushBlocking(11);
  queue.PushBlocking(12);  // victim, but 10 is older

  auto result =
      queue.PushShedding(13, [](int value) { return value % 2 == 0; });
  EXPECT_TRUE(result.accepted);
  EXPECT_TRUE(result.shed);
  EXPECT_EQ(queue.size(), 3u);

  std::vector<int> drained;
  int out = 0;
  while (queue.Pop(&out)) drained.push_back(out);
  EXPECT_EQ(drained, (std::vector<int>{11, 12, 13}));
}

TEST(BoundedQueueTest, SheddingFallsBackToBlockingWithoutVictims) {
  Queue queue(2);
  queue.PushBlocking(1);
  queue.PushBlocking(3);  // No even (sheddable) items in the queue.

  std::atomic<bool> done{false};
  std::thread producer([&] {
    auto result = queue.PushShedding(5, [](int value) { return value % 2 == 0; });
    EXPECT_TRUE(result.accepted);
    EXPECT_FALSE(result.shed);
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(done.load());

  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  producer.join();
  EXPECT_TRUE(done.load());
}

TEST(BoundedQueueTest, CloseRejectsPushesAndWakesBlockedProducers) {
  Queue queue(1);
  queue.PushBlocking(1);

  std::atomic<bool> rejected{false};
  std::thread producer([&] {
    auto result = queue.PushBlocking(2);
    rejected.store(!result.accepted);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  producer.join();
  EXPECT_TRUE(rejected.load());
  EXPECT_FALSE(queue.PushBlocking(3).accepted);

  // Accepted items survive the close so shutdown can drain.
  int out = 0;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(queue.Pop(&out));
}

TEST(BoundedQueueTest, WaitIdleBlocksUntilConsumerDrains) {
  Queue queue(4);
  queue.PushBlocking(1);
  queue.PushBlocking(2);

  std::thread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    int out = 0;
    while (queue.Pop(&out)) {
    }
  });
  queue.WaitIdle();
  EXPECT_EQ(queue.size(), 0u);
  consumer.join();
}

TEST(BoundedQueueTest, ManyProducersOneConsumer) {
  Queue queue(16);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;

  std::atomic<bool> stop{false};
  std::vector<int> drained;
  std::thread consumer([&] {
    int out = 0;
    while (!stop.load() || queue.size() > 0) {
      if (queue.Pop(&out)) drained.push_back(out);
    }
    while (queue.Pop(&out)) drained.push_back(out);
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(queue.PushBlocking(p * kPerProducer + i).accepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  stop.store(true);
  consumer.join();

  ASSERT_EQ(drained.size(), static_cast<size_t>(kProducers * kPerProducer));
  // Per-producer FIFO: each producer's items appear in its own order.
  std::vector<int> last(kProducers, -1);
  for (int value : drained) {
    const int producer = value / kPerProducer;
    EXPECT_GT(value, last[producer]);
    last[producer] = value;
  }
}

TEST(BoundedQueueTest, CloseWhileProducerBlockedRejectsThatPush) {
  Queue queue(1);
  queue.PushBlocking(1);

  // Several producers park on the full queue; Close must wake every one of
  // them and reject every parked push — none may hang, none may enqueue.
  constexpr int kBlocked = 3;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kBlocked; ++p) {
    producers.emplace_back([&queue, &rejected, p] {
      if (!queue.PushBlocking(100 + p).accepted) rejected.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kBlocked);
  EXPECT_EQ(queue.size(), 1u);  // Only the pre-close item remains.
}

TEST(BoundedQueueTest, CloseWithItemsKeepsThemPoppableInOrder) {
  Queue queue(8);
  for (int i = 0; i < 5; ++i) queue.PushBlocking(i);
  queue.Close();
  EXPECT_TRUE(queue.closed());

  std::vector<int> drained;
  int out = 0;
  while (queue.Pop(&out)) drained.push_back(out);
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 2, 3, 4}));
  // Drained to empty: the queue reports idle immediately.
  queue.WaitIdle();
}

TEST(BoundedQueueTest, TakeAllRemovesEverythingAndFreesSpace) {
  Queue queue(2);
  queue.PushBlocking(1);
  queue.PushBlocking(2);

  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.PushBlocking(3).accepted);
    third_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());

  // TakeAll empties the queue without consuming: the blocked producer gets
  // its slot and the taken items come back to the caller untouched.
  std::deque<int> taken = queue.TakeAll();
  producer.join();
  EXPECT_TRUE(third_done.load());
  EXPECT_EQ(taken, (std::deque<int>{1, 2}));
  EXPECT_EQ(queue.size(), 1u);  // The unblocked push landed after the take.
}

TEST(BoundedQueueTest, TakeAllOnEmptyQueueUnblocksWaitIdle) {
  Queue queue(4);
  queue.PushBlocking(1);  // Consumer marked active, nothing ever drains it.
  std::deque<int> taken = queue.TakeAll();
  EXPECT_EQ(taken.size(), 1u);
  int out = 0;
  EXPECT_FALSE(queue.Pop(&out));  // Deactivates the consumer.
  queue.WaitIdle();               // Returns immediately: empty and idle.
}

}  // namespace
}  // namespace freeway
