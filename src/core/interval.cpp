#include "src/core/interval.hpp"

namespace sdsm::core {

void IntervalMeta::serialize(Writer& w) const {
  w.put<std::uint32_t>(id.node);
  w.put<std::uint32_t>(id.seq);
  vc.serialize(w);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(notices.size()));
  for (const auto& n : notices) {
    w.put<std::uint32_t>(n.page);
    // Flag byte: bit 0 = whole page, bit 1 = inline diff follows, bit 2 =
    // census size field follows.  The static policy never sets bits 1-2,
    // so its encoding is byte-for-byte the historical {0, 1} byte.
    std::uint8_t flags = n.whole_page ? 1 : 0;
    if (!n.inline_diff.empty()) flags |= 2;
    if (n.inline_diff.empty() && n.diff_bytes != 0) flags |= 4;
    w.put<std::uint8_t>(flags);
    if (flags & 2) {
      w.put<std::uint32_t>(static_cast<std::uint32_t>(n.inline_diff.size()));
      w.put_raw(n.inline_diff.data(), n.inline_diff.size());
    } else if (flags & 4) {
      w.put<std::uint32_t>(n.diff_bytes);
    }
  }
}

IntervalMeta IntervalMeta::deserialize(Reader& r) {
  IntervalMeta m;
  m.id.node = r.get<std::uint32_t>();
  m.id.seq = r.get<std::uint32_t>();
  m.vc = VectorClock::deserialize(r);
  // No reserve: every count below is read off the wire, so each element
  // must be decoded (and bounds-checked) before it is stored.
  const auto n = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n; ++i) {
    WriteNotice wn;
    wn.page = r.get<std::uint32_t>();
    const auto flags = r.get<std::uint8_t>();
    wn.whole_page = (flags & 1) != 0;
    if (flags & 2) {
      const auto size = r.get<std::uint32_t>();
      SDSM_REQUIRE(size <= r.remaining());
      wn.inline_diff.resize(size);
      r.get_raw(wn.inline_diff.data(), size);
      wn.diff_bytes = size;
    } else if (flags & 4) {
      wn.diff_bytes = r.get<std::uint32_t>();
    }
    m.notices.push_back(std::move(wn));
  }
  return m;
}

void serialize_metas(Writer& w, const std::vector<IntervalMeta>& metas) {
  w.put<std::uint32_t>(static_cast<std::uint32_t>(metas.size()));
  for (const auto& m : metas) m.serialize(w);
}

std::vector<IntervalMeta> deserialize_metas(Reader& r) {
  const auto n = r.get<std::uint32_t>();
  std::vector<IntervalMeta> out;  // no reserve(n): n is off the wire
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(IntervalMeta::deserialize(r));
  }
  return out;
}

}  // namespace sdsm::core
