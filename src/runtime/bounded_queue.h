#ifndef FREEWAYML_RUNTIME_BOUNDED_QUEUE_H_
#define FREEWAYML_RUNTIME_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/stopwatch.h"

namespace freeway {

/// Bounded multi-producer / single-consumer mailbox with on-demand consumer
/// scheduling — the per-shard batch queue behind StreamRuntime.
///
/// The consumer is not a dedicated thread: it is *activated* on demand.
/// A push into an idle queue returns `activate_consumer = true`, telling
/// the caller to schedule exactly one drain task; that task calls Pop in a
/// loop and, when Pop finds the queue empty, the consumer is atomically
/// deactivated (so the next push re-activates). This keeps ordering
/// trivially FIFO per queue, never parks a pool worker on an empty queue,
/// and makes the "is a worker running?" question race-free because
/// activation and queue state change under one lock.
///
/// Overload behaviour is chosen per push: PushBlocking applies
/// backpressure (the producer waits for space), PushShedding makes room by
/// removing the oldest item matching a victim predicate and falls back to
/// blocking when nothing qualifies. Close() rejects subsequent pushes and
/// wakes blocked producers; items already accepted remain poppable so a
/// shutdown can drain cleanly.
template <typename T>
class BoundedQueue {
 public:
  /// Outcome of one push.
  struct PushResult {
    /// False only when the queue was closed (item not enqueued).
    bool accepted = false;
    /// True when the caller must schedule a consumer drain task.
    bool activate_consumer = false;
    /// True when an existing item was shed to make room.
    bool shed = false;
    /// TryPush only: the queue was full (and open), so the item was
    /// rejected without waiting. Distinguishes overload from closure.
    bool rejected_full = false;
    /// Wall time this producer spent blocked waiting for space.
    int64_t blocked_micros = 0;
    /// The item removed by a shedding push (set exactly when `shed`), so
    /// the caller can release any accounting booked against it.
    std::optional<T> victim;
  };

  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Backpressure push: blocks while the queue is full (until space frees
  /// or the queue closes).
  PushResult PushBlocking(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    return PushLocked(std::move(lock), std::move(item));
  }

  /// Admission-control push: never waits. When the queue is full the item
  /// is rejected with `rejected_full = true` so the caller can propagate
  /// backpressure out-of-band (e.g. an OVERLOAD reply on a network
  /// connection) instead of stalling its thread. Closed queues reject with
  /// `rejected_full = false`, matching the other push flavours.
  PushResult TryPush(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      PushResult result;
      result.rejected_full = true;
      return result;
    }
    return PushLocked(std::move(lock), std::move(item));
  }

  /// Load-shedding push: when full, removes the oldest item for which
  /// `victim(item)` is true and enqueues in its place. When no item
  /// qualifies (e.g. the queue holds only must-keep work), degrades to the
  /// blocking behaviour.
  template <typename Pred>
  PushResult PushShedding(T item, Pred&& victim) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (victim(*it)) {
          T dropped = std::move(*it);
          items_.erase(it);
          PushResult result = PushLocked(std::move(lock), std::move(item));
          result.shed = true;
          result.victim = std::move(dropped);
          return result;
        }
      }
    }
    return PushLocked(std::move(lock), std::move(item));
  }

  /// Non-blocking load-shedding push: like PushShedding, but when the
  /// queue is full and no item qualifies as a victim (only must-keep work
  /// is queued) the item is rejected with `rejected_full = true` instead of
  /// degrading to backpressure — the TrySubmit flavour, for callers that
  /// must never stall.
  template <typename Pred>
  PushResult TryPushShedding(T item, Pred&& victim) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!closed_ && items_.size() >= capacity_) {
      for (auto it = items_.begin(); it != items_.end(); ++it) {
        if (victim(*it)) {
          T dropped = std::move(*it);
          items_.erase(it);
          PushResult result = PushLocked(std::move(lock), std::move(item));
          result.shed = true;
          result.victim = std::move(dropped);
          return result;
        }
      }
      PushResult result;
      result.rejected_full = true;
      return result;
    }
    return PushLocked(std::move(lock), std::move(item));
  }

  /// Consumer side: moves the oldest item into `*out` and returns true, or
  /// — when the queue is empty — deactivates the consumer and returns
  /// false. Only the currently activated consumer may call this.
  bool Pop(T* out) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) {
      consumer_active_ = false;
      idle_.notify_all();
      return false;
    }
    *out = std::move(items_.front());
    items_.pop_front();
    space_available_.notify_one();
    return true;
  }

  /// Rejects all subsequent pushes and wakes blocked producers. Already
  /// accepted items stay poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    space_available_.notify_all();
  }

  /// Removes and returns every queued item without consuming them — the
  /// no-drain shutdown path, where the caller accounts for the abandoned
  /// items instead of processing them. Wakes blocked producers (space
  /// freed) and idle waiters (queue now empty).
  std::deque<T> TakeAll() {
    std::deque<T> taken;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      taken.swap(items_);
      if (!consumer_active_) idle_.notify_all();
    }
    space_available_.notify_all();
    return taken;
  }

  /// Blocks until the queue is empty and the consumer has deactivated —
  /// i.e. all items accepted before the call are fully consumed.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return items_.empty() && !consumer_active_; });
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  /// Current fill fraction in [0, 1] — the queue-side pressure signal.
  double fill() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<double>(items_.size()) / static_cast<double>(capacity_);
  }

  /// Deepest the queue has ever been.
  size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

  size_t capacity() const { return capacity_; }

  /// Producers currently parked in a push, waiting for space.
  size_t blocked_producers() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocked_producers_;
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  /// Completes a push that already holds the lock: waits for space, then
  /// enqueues and decides consumer activation.
  PushResult PushLocked(std::unique_lock<std::mutex> lock, T item) {
    PushResult result;
    if (items_.size() >= capacity_ && !closed_) {
      Stopwatch blocked;
      ++blocked_producers_;
      space_available_.wait(
          lock, [this] { return items_.size() < capacity_ || closed_; });
      --blocked_producers_;
      result.blocked_micros = blocked.ElapsedMicros();
    }
    if (closed_) return result;
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) high_water_ = items_.size();
    result.accepted = true;
    if (!consumer_active_) {
      consumer_active_ = true;
      result.activate_consumer = true;
    }
    return result;
  }

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable space_available_;
  std::condition_variable idle_;
  std::deque<T> items_;
  size_t high_water_ = 0;
  size_t blocked_producers_ = 0;
  bool consumer_active_ = false;
  bool closed_ = false;
};

}  // namespace freeway

#endif  // FREEWAYML_RUNTIME_BOUNDED_QUEUE_H_
