// The one ring mechanism behind trace spans (obs/trace.h) and structured
// events (obs/event_log.h):
//  - SeqlockRing<Record>: a fixed-capacity drop-oldest ring with a single
//    recording thread and any number of concurrent snapshot readers. A
//    snapshot never blocks the owner and never returns a torn record;
//    records overwritten before a snapshot saw them are counted, never
//    silently lost.
//  - ThreadRings<Record, Meta>: the process-wide registry that gives every
//    recording thread its own ring, behind one runtime on/off switch that
//    costs one relaxed load per site while off (no ring is allocated until
//    a thread records with the switch on).
#ifndef US3D_OBS_SEQLOCK_RING_H
#define US3D_OBS_SEQLOCK_RING_H

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/contracts.h"

namespace us3d::obs {

/// True when the environment variable `name` is "1", "on", "ON" or "true".
inline bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  const std::string_view s(v);
  return s == "1" || s == "on" || s == "ON" || s == "true";
}

/// steady_clock now, in ns since its (unspecified) epoch.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seqlock over atomic words. The owner publishes record number w into
/// slot w % capacity: seq goes odd (2w+1) while the payload is being
/// replaced, then even (2(w+1)) once it is complete. A reader that sees
/// seq == 2(i+1) before AND after reading the payload got an untorn copy
/// of record i; any other observation means the slot was mid-overwrite
/// and the record counts as dropped. Every word, seq included, is accessed
/// only atomically (relaxed, through std::atomic_ref) so the concurrent
/// overwrite is well-defined for TSan, and the fences order the payload
/// against the seq edges.
///
/// Slots are plain words left uninitialized at construction, so
/// registering a ring costs no fill of the whole capacity: only the pages
/// records reach are ever touched. No slot is read before it is written,
/// because a snapshot reads only records below the published `writes_`.
template <typename Record>
class SeqlockRing {
  static_assert(std::is_trivially_copyable_v<Record>,
                "records are copied as raw words");
  static_assert(std::has_unique_object_representations_v<Record>,
                "records must have no padding: every word is payload");
  static_assert(sizeof(Record) % sizeof(std::uint64_t) == 0,
                "records are stored as whole 64-bit words");
  static constexpr std::size_t kWords = sizeof(Record) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;

 public:
  explicit SeqlockRing(std::size_t capacity)
      : capacity_(capacity), slots_(new Slot[capacity]) {
    US3D_EXPECTS(capacity > 0);
  }

  SeqlockRing(const SeqlockRing&) = delete;
  SeqlockRing& operator=(const SeqlockRing&) = delete;

  /// Owner thread only. Never blocks, never allocates.
  void push(const Record& record) {
    const std::uint64_t w = writes_.load(std::memory_order_relaxed);
    Slot& slot = slots_[w % capacity_];
    atomic(slot.seq).store(2 * w + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    store_words(slot, record, std::make_index_sequence<kWords>{});
    std::atomic_thread_fence(std::memory_order_release);
    atomic(slot.seq).store(2 * (w + 1), std::memory_order_relaxed);
    writes_.store(w + 1, std::memory_order_release);
  }

  /// Any thread. Appends the current window (oldest to newest) to `out`
  /// and returns the cumulative count of records dropped since the last
  /// reset (overwritten before this snapshot, plus records skipped
  /// because the owner was overwriting them during the read).
  std::uint64_t snapshot(std::vector<Record>& out) const {
    const std::uint64_t writes = writes_.load(std::memory_order_acquire);
    const std::uint64_t base = base_.load(std::memory_order_relaxed);
    std::uint64_t first = writes > capacity_ ? writes - capacity_ : 0;
    if (first < base) first = base;
    std::uint64_t dropped = first - base;  // overwritten before we looked
    for (std::uint64_t i = first; i < writes; ++i) {
      Slot& slot = slots_[i % capacity_];
      const std::uint64_t want = 2 * (i + 1);
      if (atomic(slot.seq).load(std::memory_order_acquire) != want) {
        ++dropped;  // already claimed by a newer record
        continue;
      }
      Words words{};
      for (std::size_t k = 0; k < kWords; ++k) {
        words[k] = atomic(slot.words[k]).load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (atomic(slot.seq).load(std::memory_order_relaxed) != want) {
        ++dropped;  // overwritten while we were reading
        continue;
      }
      out.push_back(std::bit_cast<Record>(words));
    }
    return dropped;
  }

  /// Any thread: discards the current window and zeroes the drop count.
  void reset() {
    base_.store(writes_.load(std::memory_order_acquire),
                std::memory_order_relaxed);
  }

 private:
  using AtomicWord = std::atomic_ref<std::uint64_t>;

  struct alignas(AtomicWord::required_alignment) Slot {
    std::uint64_t seq;
    std::uint64_t words[kWords];
  };

  static AtomicWord atomic(std::uint64_t& word) { return AtomicWord(word); }

  // Unrolled at compile time, each word read straight from the record:
  // the record path stays straight-line code with no staging copy.
  template <std::size_t... K>
  static void store_words(Slot& slot, const Record& record,
                          std::index_sequence<K...>) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&record);
    (atomic(slot.words[K]).store(word_at(bytes, K), std::memory_order_relaxed),
     ...);
  }
  static std::uint64_t word_at(const unsigned char* bytes, std::size_t k) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + k * sizeof word, sizeof word);
    return word;
  }

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> writes_{0};  ///< records ever pushed
  std::atomic<std::uint64_t> base_{0};    ///< reset watermark
};

/// Per-thread data a ThreadRings caller keeps next to each ring (none by
/// default).
struct NoThreadMeta {};

/// Process-wide registry of per-thread SeqlockRings. Each thread writes
/// only its own ring; a collect pass reads all of them from any thread.
/// Buffers outlive their threads, so records from joined threads stay
/// readable until reset() releases them. The thread_local handle is per
/// <Record, Meta> type, so each instantiation has exactly one (leaked,
/// process-wide) instance.
template <typename Record, typename Meta = NoThreadMeta>
class ThreadRings {
 public:
  /// One thread's ring. `meta` is default-constructed under the registry
  /// lock when the thread registers, so its construction order is the
  /// registration order.
  struct Buffer {
    explicit Buffer(std::size_t capacity) : ring(capacity) {}

    SeqlockRing<Record> ring;  // seqlock: atomics + fences, no mutex
    Meta meta;
    std::atomic<bool> retired{false};
  };

  /// Starts enabled when the environment variable `env_var` is set (see
  /// env_flag); `capacity` is the default ring size in records.
  ThreadRings(const char* env_var, std::size_t capacity)
      : capacity_(capacity), enabled_(env_flag(env_var)) {}

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Ring capacity for threads that register after this call.
  void set_thread_capacity(std::size_t records) US3D_EXCLUDES(mutex_) {
    US3D_EXPECTS(records > 0);
    MutexLock lock(mutex_);
    capacity_ = records;
  }
  std::size_t thread_capacity() const US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return capacity_;
  }

  /// This thread's buffer, registered (allocated) on first use.
  Buffer& local() US3D_EXCLUDES(mutex_) {
    Handle& handle = t_handle_;
    return handle.buffer ? *handle.buffer : register_this_thread(handle);
  }

  /// Recording path: one relaxed load while disabled.
  void record(const Record& record) {
    if (!enabled()) return;
    local().ring.push(record);
  }

  /// Calls fn(const Buffer&) for every registered buffer, in registration
  /// order, outside the registry lock.
  template <typename Fn>
  void for_each(Fn&& fn) const US3D_EXCLUDES(mutex_) {
    std::vector<std::shared_ptr<Buffer>> buffers;
    {
      MutexLock lock(mutex_);
      buffers = buffers_;
    }
    for (const auto& buffer : buffers) fn(static_cast<const Buffer&>(*buffer));
  }

  /// Discards every window and drop count. Retired buffers can never be
  /// written again, so they are released: a long-lived process that
  /// records in rounds stays bounded by its live thread count, not its
  /// historical one.
  void reset() US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (const auto& buffer : buffers_) buffer->ring.reset();
    std::erase_if(buffers_, [](const auto& b) {
      return b->retired.load(std::memory_order_acquire);
    });
  }

 private:
  // Keeps this thread's buffer alive and flags it retired at thread exit.
  struct Handle {
    std::shared_ptr<Buffer> buffer;
    ~Handle() {
      if (buffer) buffer->retired.store(true, std::memory_order_release);
    }
  };
  static inline thread_local Handle t_handle_;

  Buffer& register_this_thread(Handle& handle) US3D_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    handle.buffer = std::make_shared<Buffer>(capacity_);
    buffers_.push_back(handle.buffer);
    return *handle.buffer;
  }

  mutable Mutex mutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_ US3D_GUARDED_BY(mutex_);
  std::size_t capacity_ US3D_GUARDED_BY(mutex_);
  std::atomic<bool> enabled_;
};

}  // namespace us3d::obs

#endif  // US3D_OBS_SEQLOCK_RING_H
