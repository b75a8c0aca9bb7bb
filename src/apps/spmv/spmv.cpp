#include "src/apps/spmv/spmv.hpp"

#include <algorithm>
#include <memory>

#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::apps::spmv {

std::vector<Edge> build_graph(const Params& p) {
  SDSM_REQUIRE(p.num_rows > 2 && p.edges_per_vertex > 0);
  const auto m = static_cast<std::int64_t>(p.edges_per_vertex);
  Rng rng(p.seed);

  // Endpoint pool: every edge appends both endpoints, so a uniform pick
  // from the pool is a degree-proportional pick over vertices — the
  // classic preferential-attachment construction.  The seed clique has
  // m(m+1)/2 edges and every later vertex at most m, so num_rows * m
  // bounds the edge count.
  const auto max_edges = static_cast<std::size_t>(p.num_rows * m);
  std::vector<std::int32_t> pool;
  pool.reserve(2 * max_edges);
  std::vector<Edge> edges;
  edges.reserve(max_edges);

  auto add_edge = [&](std::int32_t u, std::int32_t v) {
    const auto [a, b] = std::minmax(u, v);
    edges.push_back(Edge{a, b, 0.5 + 0.5 * rng.next_double()});
    pool.push_back(u);
    pool.push_back(v);
  };

  // Seed clique over the first m+1 vertices.
  const std::int64_t seed_n = std::min<std::int64_t>(m + 1, p.num_rows);
  for (std::int32_t u = 0; u < seed_n; ++u) {
    for (std::int32_t v = u + 1; v < seed_n; ++v) add_edge(u, v);
  }

  std::vector<std::int32_t> targets;
  targets.reserve(static_cast<std::size_t>(m));
  for (std::int64_t t = seed_n; t < p.num_rows; ++t) {
    const auto self = static_cast<std::int32_t>(t);
    targets.clear();
    auto unusable = [&](std::int32_t v) {
      return v == self ||  // no self-loops (self enters the pool with its
                           // first edge) and no duplicate parallel edges
             std::find(targets.begin(), targets.end(), v) != targets.end();
    };
    for (int e = 0; e < m; ++e) {
      // Degree-proportional target, with a bounded retry.
      std::int32_t v = pool[rng.next_below(pool.size())];
      for (int retry = 0; retry < 8 && unusable(v); ++retry) {
        v = pool[rng.next_below(pool.size())];
      }
      if (unusable(v)) continue;
      targets.push_back(v);
      add_edge(self, v);
    }
  }

  pool = {};  // freed before the sort allocates its index arrays

  // Sort by (a, b) with a stable counting sort on a alone.  Within one a
  // the edges were emitted with ascending, distinct b: the clique's (u, v)
  // by ascending v, then each later vertex t's (v, t) in t order.  Each
  // edge's slot is computed first and the list is permuted in place, so
  // only one copy of the edges is ever live.
  SDSM_REQUIRE(edges.size() <= UINT32_MAX);
  std::vector<std::uint32_t> slot(static_cast<std::size_t>(p.num_rows) + 1,
                                  0);
  for (const Edge& e : edges) ++slot[static_cast<std::size_t>(e.a) + 1];
  for (std::size_t v = 1; v < slot.size(); ++v) slot[v] += slot[v - 1];
  std::vector<std::uint32_t> dest(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    dest[i] = slot[static_cast<std::size_t>(edges[i].a)]++;
  }
  // Each swap puts one edge in its final slot.
  for (std::uint32_t i = 0; i < dest.size(); ++i) {
    while (dest[i] != i) {
      const std::uint32_t j = dest[i];
      std::swap(edges[i], edges[j]);
      std::swap(dest[i], dest[j]);
    }
  }
  return edges;
}

std::vector<double> initial_state(const Params& p) {
  std::vector<double> x(static_cast<std::size_t>(p.num_rows));
  for (std::size_t i = 0; i < x.size(); ++i) {
    SplitMix64 sm(p.seed ^ (0x9e3779b9u + i));
    x[i] = static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
  }
  return x;
}

double max_weighted_degree(const Params& p, std::span<const Edge> edges) {
  std::vector<double> deg(static_cast<std::size_t>(p.num_rows), 0.0);
  for (const Edge& e : edges) {
    deg[static_cast<std::size_t>(e.a)] += e.w;
    deg[static_cast<std::size_t>(e.b)] += e.w;
  }
  return *std::max_element(deg.begin(), deg.end());
}

double state_checksum(std::span<const double> x) {
  double s = 0, s2 = 0;
  for (const double v : x) {
    s += v;
    s2 += v * v;
  }
  return s + s2;
}

namespace {

/// One edge-wise y = L x accumulation: diffusion flow from the high
/// endpoint to the low one.
inline void apply_edge(double w, double xa, double xb, double& fa,
                       double& fb) {
  const double d = w * (xa - xb);
  fa -= d;
  fb += d;
}

}  // namespace

AppRunResult run_seq(const Params& p) {
  const auto edges = build_graph(p);
  auto x = initial_state(p);
  std::vector<double> f(x.size());

  auto step_fn = [&] {
    std::fill(f.begin(), f.end(), 0.0);
    for (const Edge& e : edges) {
      apply_edge(e.w, x[static_cast<std::size_t>(e.a)],
                 x[static_cast<std::size_t>(e.b)],
                 f[static_cast<std::size_t>(e.a)],
                 f[static_cast<std::size_t>(e.b)]);
    }
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += f[i] * p.dt;
  };

  for (int step = 0; step < p.warmup_steps; ++step) step_fn();
  const Timer wall;
  for (int step = 0; step < p.num_steps; ++step) step_fn();

  AppRunResult r;
  r.seconds = wall.elapsed_s();
  r.checksum = state_checksum(x);
  return r;
}

api::KernelSpec<double> make_kernel(const Params& p) {
  // Built once, shared by every node's build_items closure.
  auto edges = std::make_shared<const std::vector<Edge>>(build_graph(p));

  api::KernelSpec<double> spec;
  spec.name = "spmv";
  spec.num_elements = p.num_rows;
  spec.owner_range = part::block_partition(p.num_rows, p.nprocs);
  spec.initial_state = initial_state(p);
  spec.num_steps = p.num_steps;
  spec.warmup_steps = p.warmup_steps;
  spec.update_interval = 0;
  spec.rebuild_reads = api::RebuildReads::kNothing;
  spec.structure_cacheable = true;  // static matrix structure, pure builder

  const auto owner_range = spec.owner_range;
  std::int64_t max_items = 1;
  {
    std::vector<std::int64_t> per_node(p.nprocs, 0);
    for (const Edge& e : *edges) {
      ++per_node[api::owner_of(owner_range, e.a)];
    }
    for (const std::int64_t c : per_node) max_items = std::max(max_items, c);
  }
  spec.max_items_per_node = max_items;
  spec.max_refs_per_node = 2 * max_items;  // uniform edge rows

  spec.build_items = [edges, owner_range](api::IrregularNode& node,
                                          std::span<const double>) {
    api::WorkItems items;
    for (const Edge& e : *edges) {
      if (api::owner_of(owner_range, e.a) != node.id()) continue;
      items.refs.push_back(e.a);
      items.refs.push_back(e.b);
      items.payload.push_back(e.w);
    }
    items.finish_uniform(2);
    return items;
  };

  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double>& ctx) {
    for (std::size_t k = 0; k < ctx.num_items(); ++k) {
      const auto edge = ctx.refs_of(k);
      const auto a = static_cast<std::size_t>(edge[0]);
      const auto b = static_cast<std::size_t>(edge[1]);
      apply_edge(ctx.payload[k], ctx.x[a], ctx.x[b], ctx.f[a], ctx.f[b]);
    }
  };

  spec.update = [dt = p.dt](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += f[i] * dt;
  };

  spec.checksum = [](std::span<const double> x) { return state_checksum(x); };
  return spec;
}

api::BackendOptions default_options() {
  api::BackendOptions o;
  o.table = chaos::TableKind::kReplicated;
  return o;
}

api::KernelResult run(api::Backend backend, const Params& p,
                      const api::BackendOptions& options) {
  return api::run_kernel(backend, make_kernel(p), options);
}

}  // namespace sdsm::apps::spmv
