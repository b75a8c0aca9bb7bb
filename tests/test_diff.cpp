// Tests for the twin/diff machinery: RLE encoding round-trips, whole-page
// capture, merge behaviour of concurrent diffs, and size properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/diff.hpp"

namespace sdsm::core {
namespace {

constexpr std::size_t kPage = 4096;

std::vector<std::byte> page_of(unsigned char fill) {
  return std::vector<std::byte>(kPage, std::byte{fill});
}

TEST(Diff, NoChangesProducesEmptyDiff) {
  auto twin = page_of(7);
  auto cur = twin;
  Diff d = Diff::create(cur, twin);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.num_runs(), 0u);
}

TEST(Diff, SingleByteChange) {
  auto twin = page_of(0);
  auto cur = twin;
  cur[100] = std::byte{0xff};
  Diff d = Diff::create(cur, twin);
  EXPECT_EQ(d.num_runs(), 1u);

  auto target = page_of(0);
  d.apply(target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, ApplyRestoresModifiedPage) {
  auto twin = page_of(3);
  auto cur = twin;
  for (std::size_t i = 10; i < 50; ++i) cur[i] = std::byte{0xaa};
  for (std::size_t i = 1000; i < 1200; ++i) cur[i] = std::byte{0xbb};
  Diff d = Diff::create(cur, twin);

  auto target = page_of(3);
  d.apply(target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, GapsAreNeverBridged) {
  // Runs must carry modified bytes only: bridging the 2-byte gap below
  // would ship this writer's (possibly stale) copy of bytes a concurrent
  // writer may own, corrupting the multiple-writer merge.
  auto twin = page_of(0);
  auto cur = twin;
  cur[10] = std::byte{1};
  cur[13] = std::byte{1};
  Diff d = Diff::create(cur, twin);
  EXPECT_EQ(d.num_runs(), 2u);
  // A concurrent writer's update to the gap byte must survive the apply.
  auto target = page_of(0);
  target[11] = std::byte{42};
  d.apply(target);
  EXPECT_EQ(target[10], std::byte{1});
  EXPECT_EQ(target[11], std::byte{42});
  EXPECT_EQ(target[13], std::byte{1});
}

TEST(Diff, LargeGapsStaySeparateRuns) {
  auto twin = page_of(0);
  auto cur = twin;
  cur[10] = std::byte{1};
  cur[500] = std::byte{1};
  Diff d = Diff::create(cur, twin);
  EXPECT_EQ(d.num_runs(), 2u);
}

TEST(Diff, EncodedSizeTracksModificationSize) {
  auto twin = page_of(0);
  auto small = twin;
  small[0] = std::byte{1};
  auto large = twin;
  for (std::size_t i = 0; i < 2048; ++i) large[i] = std::byte{2};
  EXPECT_LT(Diff::create(small, twin).encoded_size(),
            Diff::create(large, twin).encoded_size());
  // A small diff is far cheaper than a page.
  EXPECT_LT(Diff::create(small, twin).encoded_size(), 64u);
}

TEST(Diff, WholePageCapture) {
  auto cur = page_of(9);
  Diff d = Diff::whole(cur);
  EXPECT_TRUE(d.is_whole(kPage));
  EXPECT_EQ(d.num_runs(), 1u);
  auto target = page_of(0);
  d.apply(target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, IsWholeFalseForPartialDiffs) {
  auto twin = page_of(0);
  auto cur = twin;
  cur[5] = std::byte{1};
  EXPECT_FALSE(Diff::create(cur, twin).is_whole(kPage));
}

TEST(Diff, FullPageModificationIsDetectedAsWhole) {
  auto twin = page_of(0);
  auto cur = page_of(1);
  Diff d = Diff::create(cur, twin);
  EXPECT_TRUE(d.is_whole(kPage));
}

TEST(Diff, WireRoundTrip) {
  auto twin = page_of(0);
  auto cur = twin;
  for (std::size_t i = 100; i < 300; i += 7) cur[i] = std::byte{0x5c};
  Diff d = Diff::create(cur, twin);
  Diff d2 = Diff::from_bytes(d.bytes());
  auto target = page_of(0);
  d2.apply(target);
  EXPECT_EQ(target, cur);
}

TEST(Diff, ConcurrentDisjointDiffsMerge) {
  // Two writers of the same page touching disjoint halves: applying both
  // diffs to a third copy must merge the writes (multiple-writer protocol).
  auto base = page_of(0);
  auto w1 = base;
  auto w2 = base;
  for (std::size_t i = 0; i < kPage / 2; i += 3) w1[i] = std::byte{0x11};
  for (std::size_t i = kPage / 2; i < kPage; i += 5) w2[i] = std::byte{0x22};
  Diff d1 = Diff::create(w1, base);
  Diff d2 = Diff::create(w2, base);

  auto merged = base;
  d1.apply(merged);
  d2.apply(merged);
  for (std::size_t i = 0; i < kPage / 2; ++i) {
    EXPECT_EQ(merged[i], (i % 3 == 0) ? std::byte{0x11} : std::byte{0});
  }
  for (std::size_t i = kPage / 2; i < kPage; ++i) {
    EXPECT_EQ(merged[i], ((i - kPage / 2) % 5 == 0) ? std::byte{0x22}
                                                    : std::byte{0});
  }

  // Order must not matter for disjoint writes.
  auto merged2 = base;
  d2.apply(merged2);
  d1.apply(merged2);
  EXPECT_EQ(merged, merged2);
}

TEST(Diff, SequentialDiffsComposeInOrder) {
  auto v0 = page_of(0);
  auto v1 = v0;
  v1[10] = std::byte{1};
  Diff d01 = Diff::create(v1, v0);
  auto v2 = v1;
  v2[10] = std::byte{2};
  v2[20] = std::byte{3};
  Diff d12 = Diff::create(v2, v1);

  auto target = v0;
  d01.apply(target);
  d12.apply(target);
  EXPECT_EQ(target, v2);
}

class DiffProperty : public ::testing::TestWithParam<int> {};

TEST_P(DiffProperty, RandomPatternsRoundTrip) {
  sdsm::Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    auto twin = page_of(0);
    for (auto& b : twin) {
      b = std::byte{static_cast<unsigned char>(rng.next_below(256))};
    }
    auto cur = twin;
    const auto nmods = rng.next_below(400);
    for (std::uint64_t m = 0; m < nmods; ++m) {
      cur[rng.next_below(kPage)] =
          std::byte{static_cast<unsigned char>(rng.next_below(256))};
    }
    Diff d = Diff::create(cur, twin);
    auto target = twin;
    d.apply(target);
    EXPECT_EQ(target, cur);
    // Wire round trip preserves behaviour.
    auto target2 = twin;
    Diff::from_bytes(d.bytes()).apply(target2);
    EXPECT_EQ(target2, cur);
  }
}

TEST_P(DiffProperty, DiffNeverLargerThanPagePlusOverhead) {
  sdsm::Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 1);
  auto twin = page_of(0);
  auto cur = twin;
  for (auto& b : cur) {
    if (rng.next_bool(0.5)) {
      b = std::byte{static_cast<unsigned char>(1 + rng.next_below(255))};
    }
  }
  Diff d = Diff::create(cur, twin);
  // Worst case: alternating single modified bytes, one header per byte.
  EXPECT_LE(d.encoded_size(), 5 * kPage + 8);
}

TEST_P(DiffProperty, CarriesOnlyModifiedBytes) {
  // The multiple-writer merge property: two concurrent writers modify
  // disjoint random byte sets of one page; applying both diffs (in either
  // order) over any base must yield both writers' bytes.  This fails if a
  // diff ever encodes an unmodified byte (e.g. bridged gaps).
  sdsm::Rng rng(static_cast<std::uint64_t>(GetParam()) * 3301 + 7);
  auto twin = page_of(0);
  auto a = twin;
  auto b = twin;
  std::vector<int> owner(kPage, 0);  // 0: untouched, 1: writer A, 2: writer B
  for (std::size_t i = 0; i < kPage; ++i) {
    const auto r = rng.next_below(4);
    if (r == 1) {
      owner[i] = 1;
      a[i] = std::byte{static_cast<unsigned char>(1 + rng.next_below(255))};
    } else if (r == 2) {
      owner[i] = 2;
      b[i] = std::byte{static_cast<unsigned char>(1 + rng.next_below(255))};
    }
  }
  const Diff da = Diff::create(a, twin);
  const Diff db = Diff::create(b, twin);
  for (const bool a_first : {true, false}) {
    auto merged = twin;
    (a_first ? da : db).apply(merged);
    (a_first ? db : da).apply(merged);
    for (std::size_t i = 0; i < kPage; ++i) {
      const std::byte want =
          owner[i] == 1 ? a[i] : (owner[i] == 2 ? b[i] : twin[i]);
      ASSERT_EQ(merged[i], want) << "byte " << i << " owner " << owner[i]
                                 << " a_first " << a_first;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffProperty, ::testing::Range(0, 6));

// --- Word scan against the byte-loop oracle ---------------------------------
//
// Diff::create scans eight bytes at a time.  Run segmentation is a function
// of the data alone, so its encoding must be byte-identical to what the
// plain byte-at-a-time loop below produces, on every input.

/// The reference encoder: one byte at a time, a run extended only while the
/// bytes differ, laid out in Diff's wire format ([u32 nruns], then per run
/// [u16 offset][u16 len, 0 = 65536][len bytes], little-endian).
std::vector<std::uint8_t> byte_loop_encoding(
    const std::vector<std::byte>& cur, const std::vector<std::byte>& twin) {
  std::vector<std::uint8_t> out(4, 0);
  const auto put_u16 = [&out](std::size_t x) {
    out.push_back(static_cast<std::uint8_t>(x & 0xff));
    out.push_back(static_cast<std::uint8_t>((x >> 8) & 0xff));
  };
  std::uint32_t nruns = 0;
  std::size_t i = 0;
  while (i < cur.size()) {
    if (cur[i] == twin[i]) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < cur.size() && cur[end] != twin[end]) ++end;
    put_u16(i);
    put_u16(end - i == 65536 ? 0 : end - i);
    for (std::size_t k = i; k < end; ++k) {
      out.push_back(std::to_integer<std::uint8_t>(cur[k]));
    }
    ++nruns;
    i = end;
  }
  for (int b = 0; b < 4; ++b) {
    out[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>((nruns >> (8 * b)) & 0xff);
  }
  return out;
}

/// Asserts the word scan's encoding equals the oracle's, plus a round-trip
/// apply.
void expect_matches_oracle(const std::vector<std::byte>& cur,
                           const std::vector<std::byte>& twin) {
  const Diff word = Diff::create(cur, twin);
  ASSERT_EQ(word.bytes(), byte_loop_encoding(cur, twin));
  auto target = twin;
  word.apply(target);
  EXPECT_EQ(target, cur);
}

TEST(DiffScan, CleanPageEncodesEmpty) {
  const auto twin = page_of(7);
  expect_matches_oracle(twin, twin);
  EXPECT_TRUE(Diff::create(twin, twin).empty());
}

TEST(DiffScan, SingleByteFlipsAtWordBoundaries) {
  // Offsets straddling every interesting uint64 lane position: word
  // starts, word ends, the page edges, and bytes adjacent to each.
  const std::size_t offsets[] = {0,    1,    6,    7,    8,    9,
                                 15,   16,   17,   31,   32,   63,
                                 64,   4087, 4088, 4094, 4095};
  for (const std::size_t off : offsets) {
    auto twin = page_of(0x40);
    auto cur = twin;
    cur[off] ^= std::byte{0xff};
    SCOPED_TRACE(off);
    expect_matches_oracle(cur, twin);
    EXPECT_EQ(Diff::create(cur, twin).num_runs(), 1u);
  }
}

TEST(DiffScan, RunsStraddlingWordBoundaries) {
  // A run crossing a word boundary, a word-aligned whole-word run, and a
  // pair of runs whose one-byte gap sits inside a single word — the case
  // where the word scan must not fuse what the byte scan splits.
  struct Run {
    std::size_t begin, end;
  };
  const std::vector<std::vector<Run>> cases = {
      {{5, 11}},            // crosses the 8-byte boundary
      {{8, 16}},            // exactly one aligned word
      {{0, 8}, {9, 17}},    // gap byte 8: first byte of the second word
      {{3, 4}, {5, 6}},     // two runs, gap inside one word
      {{60, 68}, {70, 90}}, // mixed: straddle, gap, long run
  };
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    auto twin = page_of(0x11);
    auto cur = twin;
    for (const Run& r : cases[ci]) {
      for (std::size_t i = r.begin; i < r.end; ++i) cur[i] = std::byte{0xee};
    }
    SCOPED_TRACE(ci);
    expect_matches_oracle(cur, twin);
    EXPECT_EQ(Diff::create(cur, twin).num_runs(),
              cases[ci].size());
  }
}

TEST(DiffScan, PageAlignedRunsAgree) {
  // Whole page-aligned stretches dirty — the fast path the word scan
  // exists for (both the all-equal skip and the all-different extension).
  for (const std::size_t quarter : {0u, 1u, 2u, 3u}) {
    auto twin = page_of(0);
    auto cur = twin;
    for (std::size_t i = quarter * (kPage / 4); i < (quarter + 1) * (kPage / 4);
         ++i) {
      cur[i] = std::byte{0x99};
    }
    SCOPED_TRACE(quarter);
    expect_matches_oracle(cur, twin);
  }
}

TEST(DiffScan, FullyDirtyPageAgreesAndIsWhole) {
  const auto twin = page_of(0);
  const auto cur = page_of(1);
  expect_matches_oracle(cur, twin);
  EXPECT_TRUE(Diff::create(cur, twin).is_whole(kPage));
}

TEST(DiffScan, AlternatingBytesAgree) {
  // Worst case for the run encoder: every other byte modified, so every
  // word holds four one-byte runs and the word scan degenerates to the
  // byte loop without ever bridging a gap.
  auto twin = page_of(0);
  auto cur = twin;
  for (std::size_t i = 0; i < kPage; i += 2) cur[i] = std::byte{0x77};
  expect_matches_oracle(cur, twin);
  EXPECT_EQ(Diff::create(cur, twin).num_runs(), kPage / 2);
}

TEST(DiffScan, SubWordBuffersAgree) {
  // Buffers shorter than one uint64 (and every length around it) exercise
  // the byte-loop tails of both scan helpers.
  sdsm::Rng rng(1234);
  for (std::size_t n = 0; n <= 2 * sizeof(std::uint64_t) + 1; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<std::byte> twin(n), cur(n);
      for (std::size_t i = 0; i < n; ++i) {
        twin[i] = std::byte{static_cast<unsigned char>(rng.next_below(4))};
        cur[i] = std::byte{static_cast<unsigned char>(rng.next_below(4))};
      }
      SCOPED_TRACE(n);
      expect_matches_oracle(cur, twin);
    }
  }
}

TEST(DiffScan, MaxRegionFullyDirtyUsesLenZeroEncoding) {
  // 65536 dirty bytes: the one case where run_len wraps to the encoded 0.
  const std::vector<std::byte> twin(65536, std::byte{0});
  const std::vector<std::byte> cur(65536, std::byte{1});
  expect_matches_oracle(cur, twin);
  EXPECT_TRUE(Diff::create(cur, twin).is_whole(65536));
}

class DiffScanRandom : public ::testing::TestWithParam<int> {};

TEST_P(DiffScanRandom, RandomPairsEncodeIdentically) {
  sdsm::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7907 + 3);
  for (int trial = 0; trial < 20; ++trial) {
    auto twin = page_of(0);
    for (auto& b : twin) {
      b = std::byte{static_cast<unsigned char>(rng.next_below(256))};
    }
    auto cur = twin;
    // Mix point writes and short memset-style stretches, like real kernels.
    const auto npoint = rng.next_below(300);
    for (std::uint64_t m = 0; m < npoint; ++m) {
      cur[rng.next_below(kPage)] =
          std::byte{static_cast<unsigned char>(rng.next_below(256))};
    }
    const auto nstretch = rng.next_below(8);
    for (std::uint64_t s = 0; s < nstretch; ++s) {
      const std::size_t begin = rng.next_below(kPage);
      const std::size_t len = 1 + rng.next_below(128);
      for (std::size_t i = begin; i < std::min(kPage, begin + len); ++i) {
        cur[i] = std::byte{static_cast<unsigned char>(rng.next_below(256))};
      }
    }
    expect_matches_oracle(cur, twin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffScanRandom, ::testing::Range(0, 6));

}  // namespace
}  // namespace sdsm::core
