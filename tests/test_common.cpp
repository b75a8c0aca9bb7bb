// Unit and property tests for the common substrate: RNG, serialization
// buffers, counters.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/buffer.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/timer.hpp"
#include "src/core/interval.hpp"

namespace sdsm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.next_below(1), 0u);
  }
}

TEST(Rng, NextInCoversInclusiveBounds) {
  Rng r(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformityRoughCheck) {
  Rng r(5);
  std::vector<int> buckets(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++buckets[r.next_below(10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 100);  // within 10% of expectation
  }
}

TEST(Buffer, PodRoundTrip) {
  Writer w;
  w.put<std::uint32_t>(0xdeadbeef);
  w.put<double>(3.5);
  w.put<std::int8_t>(-7);
  auto bytes = w.take();
  Reader r(bytes);
  EXPECT_EQ(r.get<std::uint32_t>(), 0xdeadbeefu);
  EXPECT_EQ(r.get<double>(), 3.5);
  EXPECT_EQ(r.get<std::int8_t>(), -7);
  EXPECT_TRUE(r.done());
}

TEST(Buffer, SpanRoundTrip) {
  const std::vector<std::int32_t> in{1, -2, 3, -4, 5};
  Writer w;
  w.put_span<std::int32_t>(in);
  auto bytes = w.take();
  Reader r(bytes);
  EXPECT_EQ(r.get_vector<std::int32_t>(), in);
  EXPECT_TRUE(r.done());
}

TEST(Buffer, EmptySpanRoundTrip) {
  Writer w;
  w.put_span<std::uint64_t>({});
  auto bytes = w.take();
  Reader r(bytes);
  EXPECT_TRUE(r.get_vector<std::uint64_t>().empty());
  EXPECT_TRUE(r.done());
}

TEST(Buffer, StringRoundTrip) {
  Writer w;
  w.put_string("hello irregular world");
  w.put_string("");
  auto bytes = w.take();
  Reader r(bytes);
  EXPECT_EQ(r.get_string(), "hello irregular world");
  EXPECT_EQ(r.get_string(), "");
}

TEST(Buffer, RawBytes) {
  const char raw[4] = {'a', 'b', 'c', 'd'};
  Writer w;
  w.put<std::uint32_t>(4);
  w.put_raw(raw, 4);
  auto bytes = w.take();
  Reader r(bytes);
  const auto n = r.get<std::uint32_t>();
  char out[4];
  r.get_raw(out, n);
  EXPECT_EQ(std::memcmp(raw, out, 4), 0);
}

TEST(Buffer, MixedSequenceRoundTripProperty) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Writer w;
    std::vector<std::uint64_t> expect;
    const int n = 1 + static_cast<int>(rng.next_below(40));
    for (int i = 0; i < n; ++i) {
      const auto v = rng.next_u64();
      expect.push_back(v);
      w.put<std::uint64_t>(v);
    }
    auto bytes = w.take();
    Reader r(bytes);
    for (const auto v : expect) {
      EXPECT_EQ(r.get<std::uint64_t>(), v);
    }
    EXPECT_TRUE(r.done());
  }
}

// Lengths and counts read off the wire are checked against the bytes left
// before anything of that size is allocated, so a hostile or truncated
// frame fails the precondition instead of reaching std::vector with the
// announced size (std::length_error or std::bad_alloc).
TEST(BufferDeathTest, VectorLengthThatWrapsIsRejected) {
  Writer w;
  w.put<std::uint64_t>(std::uint64_t{1} << 61);  // x 8 bytes wraps to 0
  w.put<std::uint64_t>(0);
  const auto bytes = w.take();
  ASSERT_EQ(bytes.size(), 16u);
  EXPECT_DEATH(
      {
        Reader r(bytes);
        (void)r.get_vector<double>();
      },
      "precondition failed");
}

TEST(BufferDeathTest, MetasCountBeyondThePayloadIsRejected) {
  Writer w;
  w.put<std::uint32_t>(0xFFFFFFFFu);
  const auto bytes = w.take();
  EXPECT_DEATH(
      {
        Reader r(bytes);
        (void)core::deserialize_metas(r);
      },
      "precondition failed");
}

TEST(BufferDeathTest, NoticeCountBeyondThePayloadIsRejected) {
  core::IntervalMeta m;
  m.id = core::IntervalId{1, 2};
  m.vc = core::VectorClock(4);
  Writer w;
  m.serialize(w);
  auto bytes = w.take();
  // No notices: the encoding ends in the uint32 notice count.
  const std::uint32_t count = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + bytes.size() - sizeof(count), &count,
              sizeof(count));
  EXPECT_DEATH(
      {
        Reader r(bytes);
        (void)core::IntervalMeta::deserialize(r);
      },
      "precondition failed");
}

TEST(Counter, ConcurrentAdds) {
  Counter c;
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.get(), 80000u);
}

TEST(DsmStats, EveryCounterSnapshotsSubtractsAddsAndResets) {
  // Every counter gets its own value, so an operation that skips an entry
  // of SDSM_DSM_COUNTERS or crosses two of them shows as a mismatch.
  DsmStats s;
  std::uint64_t i = 0;
  for (const DsmCounter& c : kDsmCounters) (s.*c.live).add(1000 * ++i);
  const DsmStats::Snapshot before = s.snapshot();
  i = 0;
  for (const DsmCounter& c : kDsmCounters) (s.*c.live).add(++i);
  const DsmStats::Snapshot after = s.snapshot();
  const DsmStats::Snapshot delta = after - before;
  DsmStats::Snapshot sum = before;
  sum += delta;
  s.reset();
  const DsmStats::Snapshot cleared = s.snapshot();
  i = 0;
  for (const DsmCounter& c : kDsmCounters) {
    SCOPED_TRACE(std::string(c.name));
    ++i;
    EXPECT_EQ(before.*c.value, 1000 * i);
    EXPECT_EQ(after.*c.value, 1001 * i);
    EXPECT_EQ(delta.*c.value, i);
    EXPECT_EQ(sum.*c.value, after.*c.value);
    EXPECT_EQ(cleared.*c.value, 0u);
  }
  // The named fields are the listed ones.
  EXPECT_EQ(delta.read_faults, 1u);
  EXPECT_EQ(after.diff_apply_ns, 1001 * std::size(kDsmCounters));
}

TEST(DsmStats, CounterListIsWellFormed) {
  std::set<std::string_view> names;
  for (const DsmCounter& c : kDsmCounters) {
    SCOPED_TRACE(std::string(c.name));
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate name";
    // Timers are the *_ns entries: measured in ns and never exact-gated.
    const bool timer = c.name.ends_with("_ns");
    EXPECT_EQ(c.unit == "ns", timer);
    EXPECT_EQ(c.gate, timer ? "lower" : "exact");
    EXPECT_TRUE(c.unit == "count" || c.unit == "B" || c.unit == "ns");
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.elapsed_ms(), 15.0);
  t.reset();
  EXPECT_LT(t.elapsed_ms(), 15.0);
}

}  // namespace
}  // namespace sdsm
