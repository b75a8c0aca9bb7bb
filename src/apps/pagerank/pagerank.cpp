#include "src/apps/pagerank/pagerank.hpp"

#include <algorithm>
#include <memory>

#include "src/common/timer.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::apps::pagerank {

Adjacency build_adjacency(const Params& p) {
  spmv::Params gp;
  gp.num_rows = p.num_vertices;
  gp.edges_per_vertex = p.edges_per_vertex;
  gp.seed = p.seed;
  const auto edges = spmv::build_graph(gp);

  Adjacency adj;
  std::vector<std::int64_t> degree(static_cast<std::size_t>(p.num_vertices),
                                   0);
  for (const spmv::Edge& e : edges) {
    ++degree[static_cast<std::size_t>(e.a)];
    ++degree[static_cast<std::size_t>(e.b)];
  }
  adj.offsets.resize(static_cast<std::size_t>(p.num_vertices) + 1, 0);
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    adj.offsets[static_cast<std::size_t>(v) + 1] =
        adj.offsets[static_cast<std::size_t>(v)] +
        degree[static_cast<std::size_t>(v)];
  }
  adj.values.resize(static_cast<std::size_t>(adj.offsets.back()));
  std::vector<std::int64_t> fill(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const spmv::Edge& e : edges) {
    adj.values[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.a)]++)] =
        e.b;
    adj.values[static_cast<std::size_t>(fill[static_cast<std::size_t>(e.b)]++)] =
        e.a;
  }
  return adj;
}

std::vector<double> initial_ranks(const Params& p) {
  return std::vector<double>(static_cast<std::size_t>(p.num_vertices),
                             1.0 / static_cast<double>(p.num_vertices));
}

double rank_checksum(std::span<const double> x) {
  double s = 0, s2 = 0;
  for (const double v : x) {
    s += v;
    s2 += v * v;
  }
  return s + 1e3 * s2;
}

namespace {

/// One push step into a zeroed accumulator: v spreads x[v] evenly over its
/// neighbours.  Degree-0 vertices (possible, if vanishingly rare, in the
/// generator) push nothing.
void push_all(const Adjacency& adj, std::span<const double> x,
              std::span<double> f) {
  for (std::size_t v = 0; v < x.size(); ++v) {
    const auto row = adj.row(v);
    if (row.empty()) continue;
    const double share = x[v] / static_cast<double>(row.size());
    for (const std::int32_t nb : row) {
      f[static_cast<std::size_t>(nb)] += share;
    }
  }
}

/// One damped power-iteration step.
void seq_step(const Adjacency& adj, std::vector<double>& x,
              std::vector<double>& f, double base, double damping) {
  std::fill(f.begin(), f.end(), 0.0);
  push_all(adj, x, f);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = base + damping * f[i];
}

/// The shared sequential iteration; `timed_seconds` (when non-null)
/// receives the wall time of the non-warmup steps.
std::vector<double> iterate(const Params& p, double* timed_seconds) {
  const Adjacency adj = build_adjacency(p);
  auto x = initial_ranks(p);
  std::vector<double> f(x.size());
  const double base = (1.0 - p.damping) / static_cast<double>(p.num_vertices);

  for (int s = 0; s < p.warmup_steps; ++s) {
    seq_step(adj, x, f, base, p.damping);
  }
  const Timer wall;
  for (int s = 0; s < p.num_steps; ++s) {
    seq_step(adj, x, f, base, p.damping);
  }
  if (timed_seconds != nullptr) *timed_seconds = wall.elapsed_s();
  return x;
}

}  // namespace

std::vector<double> seq_ranks(const Params& p) {
  return iterate(p, nullptr);
}

AppRunResult run_seq(const Params& p) {
  AppRunResult r;
  const auto x = iterate(p, &r.seconds);
  r.checksum = rank_checksum(x);
  return r;
}

api::KernelSpec<double> make_kernel(const Params& p) {
  // Built once, shared by every node's build_items closure.
  auto adj = std::make_shared<const Adjacency>(build_adjacency(p));

  api::KernelSpec<double> spec;
  spec.name = "pagerank";
  spec.num_elements = p.num_vertices;
  spec.owner_range = part::block_partition(p.num_vertices, p.nprocs);
  spec.initial_state = initial_ranks(p);
  spec.num_steps = p.num_steps;
  spec.warmup_steps = p.warmup_steps;
  spec.update_interval = 0;  // static graph
  spec.rebuild_reads = api::RebuildReads::kNothing;
  spec.structure_cacheable = true;  // static edge lists, pure builder

  // Capacity: true per-node row/ref counts — hubs make the reference sums
  // wildly uneven across nodes, which is exactly what the CSR shape
  // absorbs without padding.
  std::int64_t max_items = 1, max_refs = 1;
  for (const part::Range& r : spec.owner_range) {
    max_items = std::max(max_items, r.size());
    if (r.size() > 0) {
      const std::int64_t refs =
          r.size() + (adj->offsets[static_cast<std::size_t>(r.end)] -
                      adj->offsets[static_cast<std::size_t>(r.begin)]);
      max_refs = std::max(max_refs, refs);
    }
  }
  spec.max_items_per_node = max_items;
  spec.max_refs_per_node = max_refs;

  const auto owner_range = spec.owner_range;
  spec.build_items = [adj, owner_range](api::IrregularNode& node,
                                        std::span<const double>) {
    const part::Range mine = owner_range[node.id()];
    api::WorkItems items;
    for (std::int64_t v = mine.begin; v < mine.end; ++v) {
      items.refs.push_back(v);
      for (const std::int32_t nb : adj->row(static_cast<std::size_t>(v))) {
        items.refs.push_back(nb);
      }
      items.end_row();
    }
    return items;
  };

  // The push body: out-degree is the row length minus the self reference —
  // no payload needed.
  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double>& ctx) {
    for (std::size_t i = 0; i < ctx.num_items(); ++i) {
      const auto row = ctx.refs_of(i);
      if (row.size() < 2) continue;  // isolated vertex: nothing to push
      const double share = ctx.x[static_cast<std::size_t>(row[0])] /
                           static_cast<double>(row.size() - 1);
      for (std::size_t j = 1; j < row.size(); ++j) {
        ctx.f[static_cast<std::size_t>(row[j])] += share;
      }
    }
  };

  spec.update = [base = (1.0 - p.damping) / static_cast<double>(p.num_vertices),
                 d = p.damping](std::span<double> x,
                                std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = base + d * f[i];
  };

  spec.checksum = [](std::span<const double> x) { return rank_checksum(x); };
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

}  // namespace sdsm::apps::pagerank
