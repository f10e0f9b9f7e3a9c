// Bounded blocking FIFO — the backpressure primitive of the async runtime.
// A fixed-capacity queue with blocking and non-blocking ends on both sides:
// push() parks the producer while the queue is full (that *is* the
// backpressure an acquisition front-end sees), try_push() refuses instead,
// pop()/try_pop() mirror them for the consumer. close() ends the stream
// gracefully: producers are refused from then on, consumers drain whatever
// is left and then read end-of-stream (nullopt). All operations are safe
// from any number of threads; FIFO order is preserved, which is what keeps
// async pipeline outputs in acquisition order without sequence sorting.
#ifndef US3D_RUNTIME_BOUNDED_QUEUE_H
#define US3D_RUNTIME_BOUNDED_QUEUE_H

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "common/annotated_mutex.h"
#include "common/contracts.h"
#include "obs/metrics.h"

namespace us3d::runtime {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    US3D_EXPECTS(capacity >= 1);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return capacity_;
  }

  /// Attaches a live occupancy gauge, updated under the queue lock on
  /// every enqueue/dequeue — a scrape always sees a depth the queue
  /// actually had, never a mid-transition value. Null detaches.
  void set_depth_gauge(std::shared_ptr<obs::Gauge> gauge) US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    depth_gauge_ = std::move(gauge);
    if (depth_gauge_) {
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
    }
  }

  /// Adjusts the bound at runtime (the adaptive queue-depth hook). Growing
  /// wakes blocked producers; shrinking below the current fill level never
  /// drops queued items — pushes are simply refused until consumers drain
  /// below the new bound. Dropping is a policy decision that belongs to
  /// the caller (see service::ShedPolicy), not to the queue.
  void set_capacity(std::size_t capacity) US3D_EXCLUDES(mutex_) {
    US3D_EXPECTS(capacity >= 1);
    {
      MutexLock lock(mutex_);
      capacity_ = capacity;
    }
    space_cv_.notify_all();
  }

  /// Blocks while the queue is full. Returns false (and drops `item`) if
  /// the queue is closed — the stream is over, nobody will pop it.
  bool push(T item) US3D_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.size() >= capacity_) space_cv_.wait(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      sample_depth_locked();
    }
    item_cv_.notify_one();
    return true;
  }

  /// Non-blocking push. On refusal (full or closed) `item` is left intact
  /// so the caller can retry, buffer, or shed load — real backpressure.
  bool try_push(T& item) US3D_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      sample_depth_locked();
    }
    item_cv_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty and open. Returns nullopt only at
  /// end-of-stream: closed *and* fully drained.
  std::optional<T> pop() US3D_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.empty()) item_cv_.wait(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
      sample_depth_locked();
    }
    space_cv_.notify_one();
    return item;
  }

  /// Non-blocking pop: nullopt when nothing is ready right now (which is
  /// not end-of-stream — check closed() to distinguish).
  std::optional<T> try_pop() US3D_EXCLUDES(mutex_) {
    std::optional<T> item;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return std::nullopt;
      item.emplace(std::move(items_.front()));
      items_.pop_front();
      sample_depth_locked();
    }
    space_cv_.notify_one();
    return item;
  }

  /// Ends the stream: subsequent pushes are refused, pops drain the
  /// remaining items and then return nullopt. Idempotent; wakes every
  /// blocked producer and consumer.
  void close() US3D_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    item_cv_.notify_all();
    space_cv_.notify_all();
  }

  bool closed() const US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }

  /// True when a try_push() would be refused for lack of room right now.
  bool full() const US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size() >= capacity_;
  }

 private:
  void sample_depth_locked() US3D_REQUIRES(mutex_) {
    if (depth_gauge_) {
      depth_gauge_->set(static_cast<std::int64_t>(items_.size()));
    }
  }

  mutable Mutex mutex_;
  CondVar item_cv_;   // signalled on push
  CondVar space_cv_;  // signalled on pop
  std::size_t capacity_ US3D_GUARDED_BY(mutex_);
  std::deque<T> items_ US3D_GUARDED_BY(mutex_);
  std::shared_ptr<obs::Gauge> depth_gauge_ US3D_GUARDED_BY(mutex_);
  bool closed_ US3D_GUARDED_BY(mutex_) = false;
};

}  // namespace us3d::runtime

#endif  // US3D_RUNTIME_BOUNDED_QUEUE_H
