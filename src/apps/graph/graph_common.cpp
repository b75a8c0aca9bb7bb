#include "src/apps/graph/graph_common.hpp"

#include <algorithm>

#include "src/common/rng.hpp"

namespace sdsm::apps::graph {

Csr build_graph(const Params& p) {
  SDSM_REQUIRE(p.num_vertices >= 2);
  SDSM_REQUIRE(p.isolated >= 0 && p.isolated <= p.num_vertices - 2);
  SDSM_REQUIRE(p.source >= 0 && p.source < p.num_vertices - p.isolated);
  const std::int64_t core = p.num_vertices - p.isolated;

  // Undirected edges, ring(s) + random chords, duplicates included.  Each
  // vertex adds at most one ring edge and chords_per_vertex chords.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  edges.reserve(static_cast<std::size_t>(p.num_vertices) *
                static_cast<std::size_t>(1 + p.chords_per_vertex));
  const auto add = [&edges](std::int64_t a, std::int64_t b) {
    if (a == b) return;
    edges.emplace_back(static_cast<std::int32_t>(a),
                       static_cast<std::int32_t>(b));
  };
  for (std::int64_t v = 0; v < core; ++v) add(v, (v + 1) % core);
  Rng rng(p.seed);
  for (std::int64_t v = 0; v < core; ++v) {
    for (int c = 0; c < p.chords_per_vertex; ++c) {
      add(v, rng.next_in(0, core - 1));
    }
  }
  // The isolated component: its own ring plus chords (a lone pair/vertex
  // degenerates into a single edge or an edgeless vertex, both legal).
  // Chorded like the core so its diameter — and the step count label
  // propagation needs to settle it — stays logarithmic.
  for (std::int64_t v = 0; v + 1 < p.isolated; ++v) {
    add(core + v, core + v + 1);
  }
  if (p.isolated >= 3) {
    add(core, core + p.isolated - 1);
    for (std::int64_t v = 0; v < p.isolated; ++v) {
      for (int c = 0; c < p.chords_per_vertex; ++c) {
        add(core + v, core + rng.next_in(0, p.isolated - 1));
      }
    }
  }

  // Both directions of every edge into a CSR, then each row (about
  // 2 + 2 * chords_per_vertex entries) sorted and deduplicated in place
  // and compacted, so every row comes out ascending and unique.
  const auto nv = static_cast<std::size_t>(p.num_vertices);
  Csr adj;
  adj.offsets.assign(nv + 1, 0);
  for (const auto& [a, b] : edges) {
    ++adj.offsets[static_cast<std::size_t>(a) + 1];
    ++adj.offsets[static_cast<std::size_t>(b) + 1];
  }
  for (std::size_t v = 1; v <= nv; ++v) adj.offsets[v] += adj.offsets[v - 1];
  adj.values.resize(static_cast<std::size_t>(adj.offsets.back()));
  std::vector<std::int64_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const auto& [a, b] : edges) {
    adj.values[static_cast<std::size_t>(fill[static_cast<std::size_t>(a)]++)] =
        b;
    adj.values[static_cast<std::size_t>(fill[static_cast<std::size_t>(b)]++)] =
        a;
  }

  const auto first = adj.values.begin();
  std::int64_t out = 0;
  for (std::size_t v = 0; v < nv; ++v) {
    const auto lo = first + adj.offsets[v];
    const auto hi = first + adj.offsets[v + 1];
    std::sort(lo, hi);
    const auto end = std::unique(lo, hi);
    adj.offsets[v] = out;
    for (auto it = lo; it != end; ++it) {
      adj.values[static_cast<std::size_t>(out++)] = *it;
    }
  }
  adj.offsets[nv] = out;
  adj.values.resize(static_cast<std::size_t>(out));
  return adj;
}

double int_vector_checksum(std::span<const double> x) {
  // Values are integers <= num_vertices, so s, s2, and s + s2 are exact
  // integers well below 2^53: every partial sum is exact, which is what
  // makes the digest genuinely order- AND partition-insensitive (backends
  // sum per-node digests; a non-integer weighting would round differently
  // per partition and break the bit-exact cross-backend comparison).
  double s = 0, s2 = 0;
  for (const double v : x) {
    s += v;
    s2 += v * v;
  }
  return s + s2;
}

void frontier_capacity(const Csr& adj,
                       const std::vector<part::Range>& owner_range,
                       std::int64_t* max_items, std::int64_t* max_refs) {
  *max_items = 1;
  *max_refs = 1;
  for (const part::Range& r : owner_range) {
    *max_items = std::max(*max_items, r.size());
    if (r.size() > 0) {
      const std::int64_t refs =
          r.size() + (adj.offsets[static_cast<std::size_t>(r.end)] -
                      adj.offsets[static_cast<std::size_t>(r.begin)]);
      *max_refs = std::max(*max_refs, refs);
    }
  }
}

}  // namespace sdsm::apps::graph
