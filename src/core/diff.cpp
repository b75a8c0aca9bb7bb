#include "src/core/diff.hpp"

#include <cstring>

namespace sdsm::core {

namespace {

constexpr std::size_t kRunHeader = 4;  // u16 offset + u16 len

void put_u16(std::vector<std::uint8_t>& v, std::uint16_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xff));
  v.push_back(static_cast<std::uint8_t>(x >> 8));
}

void put_u32(std::vector<std::uint8_t>& v, std::uint32_t x) {
  v.push_back(static_cast<std::uint8_t>(x & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 8) & 0xff));
  v.push_back(static_cast<std::uint8_t>((x >> 16) & 0xff));
  v.push_back(static_cast<std::uint8_t>(x >> 24));
}

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::size_t run_len(std::uint16_t encoded_len) {
  return encoded_len == 0 ? 65536 : encoded_len;
}

// --- Scan helpers ------------------------------------------------------------
//
// Both helpers step eight bytes at a time via unaligned uint64 loads and fall
// back to a byte loop only inside the word where the answer lives (and for
// the sub-word tail), so the run boundaries they find are exactly the ones
// a byte-at-a-time loop finds.

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t x;
  std::memcpy(&x, p, sizeof(x));
  return x;
}

// The classic zero-byte test: bit 7 of a lane survives only when that lane's
// byte is 0x00.  Endianness-agnostic because we never ask WHICH lane — the
// byte loop that follows re-finds the boundary exactly.
bool has_zero_byte(std::uint64_t x) {
  constexpr std::uint64_t kLo = 0x0101010101010101ull;
  constexpr std::uint64_t kHi = 0x8080808080808080ull;
  return ((x - kLo) & ~x & kHi) != 0;
}

/// First index in [i, n) where current and twin differ, or n.
std::size_t word_find_diff(const std::byte* cur, const std::byte* twin,
                           std::size_t i, std::size_t n) {
  while (i + sizeof(std::uint64_t) <= n) {
    if (load_u64(cur + i) == load_u64(twin + i)) {
      i += sizeof(std::uint64_t);
      continue;
    }
    while (cur[i] == twin[i]) ++i;
    return i;
  }
  while (i < n && cur[i] == twin[i]) ++i;
  return i;
}

/// First index in [i, n) where current and twin agree, or n.  Skips whole
/// words while every byte differs (the XOR has no zero byte).
std::size_t word_find_match(const std::byte* cur, const std::byte* twin,
                            std::size_t i, std::size_t n) {
  while (i + sizeof(std::uint64_t) <= n) {
    const std::uint64_t x = load_u64(cur + i) ^ load_u64(twin + i);
    if (has_zero_byte(x)) {
      while (cur[i] != twin[i]) ++i;
      return i;
    }
    i += sizeof(std::uint64_t);
  }
  while (i < n && cur[i] != twin[i]) ++i;
  return i;
}

}  // namespace

Diff Diff::create(std::span<const std::byte> current,
                  std::span<const std::byte> twin) {
  SDSM_REQUIRE(current.size() == twin.size());
  SDSM_REQUIRE(current.size() <= 65536);

  Diff d;
  put_u32(d.encoded_, 0);  // run count patched below
  std::uint32_t nruns = 0;

  const std::size_t n = current.size();
  const std::byte* cur = current.data();
  const std::byte* twn = twin.data();

  auto emit = [&](std::size_t i, std::size_t end) {
    const std::size_t len = end - i;
    put_u16(d.encoded_, static_cast<std::uint16_t>(i));
    put_u16(d.encoded_, static_cast<std::uint16_t>(len == 65536 ? 0 : len));
    const auto* bytes = reinterpret_cast<const std::uint8_t*>(cur);
    d.encoded_.insert(d.encoded_.end(), bytes + i, bytes + end);
    ++nruns;
  };

  std::size_t i = word_find_diff(cur, twn, 0, n);
  while (i < n) {
    const std::size_t end = word_find_match(cur, twn, i + 1, n);
    emit(i, end);
    i = word_find_diff(cur, twn, end, n);
  }

  std::memcpy(d.encoded_.data(), &nruns, sizeof(nruns));
  return d;
}

Diff Diff::whole(std::span<const std::byte> current) {
  SDSM_REQUIRE(!current.empty() && current.size() <= 65536);
  Diff d;
  put_u32(d.encoded_, 1);
  put_u16(d.encoded_, 0);
  put_u16(d.encoded_,
          static_cast<std::uint16_t>(current.size() == 65536 ? 0 : current.size()));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(current.data());
  d.encoded_.insert(d.encoded_.end(), bytes, bytes + current.size());
  return d;
}

Diff Diff::from_bytes(std::vector<std::uint8_t> encoded) {
  SDSM_REQUIRE(encoded.size() >= 4);
  Diff d;
  d.encoded_ = std::move(encoded);
  return d;
}

void Diff::apply(std::span<std::byte> page) const {
  const std::uint32_t nruns = num_runs();
  std::size_t pos = 4;
  for (std::uint32_t r = 0; r < nruns; ++r) {
    SDSM_REQUIRE(pos + kRunHeader <= encoded_.size());
    const std::size_t off = get_u16(encoded_.data() + pos);
    const std::size_t len = run_len(get_u16(encoded_.data() + pos + 2));
    pos += kRunHeader;
    SDSM_REQUIRE(pos + len <= encoded_.size());
    SDSM_REQUIRE(off + len <= page.size());
    std::memcpy(page.data() + off, encoded_.data() + pos, len);
    pos += len;
  }
  SDSM_ENSURE(pos == encoded_.size());
}

bool Diff::is_whole(std::size_t page_size) const {
  if (num_runs() != 1) return false;
  const std::size_t off = get_u16(encoded_.data() + 4);
  const std::size_t len = run_len(get_u16(encoded_.data() + 6));
  return off == 0 && len == page_size;
}

std::uint32_t Diff::num_runs() const {
  if (encoded_.size() < 4) return 0;
  return get_u32(encoded_.data());
}

}  // namespace sdsm::core
