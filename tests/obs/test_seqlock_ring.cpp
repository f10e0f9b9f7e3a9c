// SeqlockRing contracts, run over both record types that use it (trace
// spans and structured events): the ring keeps the newest window and
// counts what it dropped, the drop count accumulates across snapshots
// until reset(), and a snapshot taken while the owner thread is pushing
// never returns a torn record. The torn-read stress is this module's
// thread-sanitizer target.
#include "obs/seqlock_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/event_log.h"
#include "obs/trace.h"

namespace us3d::obs {
namespace {

/// Builds record number i and checks that a record is internally
/// consistent: its fields are correlated functions of i, so a payload
/// mixed from two generations of one slot breaks the correlation.
template <typename Record>
struct RecordOf;

template <>
struct RecordOf<SpanRecord> {
  static SpanRecord make(std::uint64_t i) {
    SpanRecord r;
    r.name = "owner";
    r.t0_ns = i;
    r.t1_ns = i * 2 + 1;
    r.arg1_name = "i";
    r.arg1 = static_cast<std::int64_t>(i);
    return r;
  }
  static std::uint64_t index(const SpanRecord& r) { return r.t0_ns; }
  static bool consistent(const SpanRecord& r) {
    return std::string_view(r.name) == "owner" &&
           r.t1_ns == r.t0_ns * 2 + 1 &&
           r.arg1 == static_cast<std::int64_t>(r.t0_ns);
  }
};

template <>
struct RecordOf<EventRecord> {
  static EventRecord make(std::uint64_t i) {
    EventRecord r;
    r.severity = EventSeverity::kInfo;
    r.name = "stress";
    r.t_ns = i;
    r.arg1_name = "i";
    r.arg1 = static_cast<std::int64_t>(i);
    r.arg2_name = "neg";
    r.arg2 = -static_cast<std::int64_t>(i);
    return r;
  }
  static std::uint64_t index(const EventRecord& r) { return r.t_ns; }
  static bool consistent(const EventRecord& r) {
    return r.arg2 == -r.arg1 && r.t_ns == static_cast<std::uint64_t>(r.arg1);
  }
};

template <typename Record>
class SeqlockRingTest : public ::testing::Test {
 protected:
  using Of = RecordOf<Record>;

  static void push_range(SeqlockRing<Record>& ring, std::uint64_t from,
                         std::uint64_t to) {
    for (std::uint64_t i = from; i < to; ++i) ring.push(Of::make(i));
  }
};

struct RecordName {
  template <typename Record>
  static std::string GetName(int) {
    return std::is_same_v<Record, SpanRecord> ? "SpanRecord" : "EventRecord";
  }
};

using RecordTypes = ::testing::Types<SpanRecord, EventRecord>;
TYPED_TEST_SUITE(SeqlockRingTest, RecordTypes, RecordName);

TYPED_TEST(SeqlockRingTest, KeepsTheNewestWindowAndCountsDrops) {
  using Of = typename TestFixture::Of;
  SeqlockRing<TypeParam> ring(4);
  this->push_range(ring, 0, 10);
  std::vector<TypeParam> out;
  EXPECT_EQ(ring.snapshot(out), 6u);  // 10 pushed, 4 kept
  ASSERT_EQ(out.size(), 4u);
  // Oldest-first window over the newest records, copied back intact.
  EXPECT_EQ(Of::index(out.front()), 6u);
  EXPECT_EQ(Of::index(out.back()), 9u);
  for (const TypeParam& r : out) EXPECT_TRUE(Of::consistent(r));

  ring.reset();
  out.clear();
  EXPECT_EQ(ring.snapshot(out), 0u);
  EXPECT_TRUE(out.empty());
}

TYPED_TEST(SeqlockRingTest, DropCountIsCumulativeAcrossSnapshots) {
  using Of = typename TestFixture::Of;
  SeqlockRing<TypeParam> ring(2);
  this->push_range(ring, 0, 5);
  std::vector<TypeParam> out;
  EXPECT_EQ(ring.snapshot(out), 3u);
  this->push_range(ring, 5, 7);
  out.clear();
  EXPECT_EQ(ring.snapshot(out), 5u);  // 7 pushed, 2 kept
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(Of::index(out.back()), 6u);
}

// One owner thread pushes correlated records as fast as it can while two
// readers snapshot continuously. Any record a reader returns must be
// internally consistent; a slot overwritten mid-read may only be counted
// as dropped.
TYPED_TEST(SeqlockRingTest, ConcurrentSnapshotNeverReadsATornRecord) {
  using Of = typename TestFixture::Of;
  constexpr std::uint64_t kPushes = 200000;
  SeqlockRing<TypeParam> ring(8);
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> torn{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&ring, &stop, &torn] {
      std::vector<TypeParam> out;
      while (!stop.load(std::memory_order_acquire)) {
        out.clear();
        ring.snapshot(out);
        for (const TypeParam& r : out) {
          if (!Of::consistent(r)) torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  this->push_range(ring, 0, kPushes);
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);

  // After the dust settles the ring still accounts exactly.
  std::vector<TypeParam> out;
  const std::uint64_t dropped = ring.snapshot(out);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(dropped, kPushes - 8u);
  EXPECT_EQ(Of::index(out.back()), kPushes - 1);
}

}  // namespace
}  // namespace us3d::obs
