#include "src/apps/graph/bfs.hpp"

#include <algorithm>
#include <memory>

#include "src/common/timer.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::apps::bfs {

namespace {

std::vector<double> initial_distances(const Params& p) {
  std::vector<double> dist(static_cast<std::size_t>(p.num_vertices),
                           graph::unreached(p));
  dist[static_cast<std::size_t>(p.source)] = 0.0;
  return dist;
}

}  // namespace

std::vector<double> seq_distances(const Params& p, std::int64_t* steps_run) {
  const Csr adj = graph::build_graph(p);
  auto dist = initial_distances(p);
  std::vector<double> f(dist.size());
  std::int64_t ran = 0;
  for (int s = 0; s < p.warmup_steps + p.num_steps; ++s) {
    // Mirror the kernel exactly: frontier pushes level s+1 into a
    // min-accumulator seeded with the identity, owners keep the min.
    std::fill(f.begin(), f.end(), graph::unreached(p));
    for (std::int64_t v = 0; v < p.num_vertices; ++v) {
      if (dist[static_cast<std::size_t>(v)] != static_cast<double>(s)) {
        continue;
      }
      for (const std::int32_t nb : adj.row(static_cast<std::size_t>(v))) {
        f[static_cast<std::size_t>(nb)] =
            std::min(f[static_cast<std::size_t>(nb)],
                     static_cast<double>(s) + 1.0);
      }
    }
    for (std::size_t i = 0; i < dist.size(); ++i) {
      dist[i] = std::min(dist[i], f[i]);
    }
    ++ran;
    if (p.use_convergence) {
      bool next_empty = true;
      for (const double d : dist) {
        if (d == static_cast<double>(s) + 1.0) {
          next_empty = false;
          break;
        }
      }
      if (next_empty) break;
    }
  }
  if (steps_run != nullptr) {
    *steps_run = std::max<std::int64_t>(0, ran - p.warmup_steps);
  }
  return dist;
}

AppRunResult run_seq(const Params& p) {
  AppRunResult r;
  const Timer wall;
  const auto dist = seq_distances(p);
  r.seconds = wall.elapsed_s();
  r.checksum = graph::int_vector_checksum(dist);
  return r;
}

api::KernelSpec<double> make_kernel(const Params& p) {
  auto adj = std::make_shared<const Csr>(graph::build_graph(p));

  api::KernelSpec<double> spec;
  spec.name = "bfs";
  spec.num_elements = p.num_vertices;
  spec.owner_range = part::block_partition(p.num_vertices, p.nprocs);
  spec.initial_state = initial_distances(p);
  spec.num_steps = p.num_steps;
  spec.warmup_steps = p.warmup_steps;
  spec.update_interval = 0;
  spec.rebuild_when = [](int) { return true; };  // the frontier IS the list
  // ...and it reads the distances of its own vertices only.
  spec.rebuild_reads = api::RebuildReads::kOwnBlock;
  // structure_cacheable stays false: the builder advances a captured level
  // counter across calls, so replaying cached frontiers would desync it.
  spec.reduce = api::Reduce::kMin;
  spec.f_identity = graph::unreached(p);
  graph::frontier_capacity(*adj, spec.owner_range, &spec.max_items_per_node,
                           &spec.max_refs_per_node);

  // The per-node BFS level, advanced at every rebuild; the spec is
  // single-use because of it.
  auto level = std::make_shared<std::vector<std::int64_t>>(p.nprocs, 0);
  const auto owner_range = spec.owner_range;
  spec.build_items = [adj, owner_range, level](api::IrregularNode& node,
                                               std::span<const double> all_x) {
    const std::int64_t l = (*level)[node.id()]++;
    const part::Range mine = owner_range[node.id()];
    api::WorkItems items;
    for (std::int64_t v = mine.begin; v < mine.end; ++v) {
      if (all_x[static_cast<std::size_t>(v)] != static_cast<double>(l)) {
        continue;
      }
      items.refs.push_back(v);
      for (const std::int32_t nb : adj->row(static_cast<std::size_t>(v))) {
        items.refs.push_back(nb);
      }
      items.end_row();
    }
    return items;  // empty when this node owns no frontier vertex
  };

  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double>& ctx) {
    for (std::size_t i = 0; i < ctx.num_items(); ++i) {
      const auto row = ctx.refs_of(i);
      const double d = ctx.x[static_cast<std::size_t>(row[0])] + 1.0;
      for (std::size_t j = 1; j < row.size(); ++j) {
        auto& fq = ctx.f[static_cast<std::size_t>(row[j])];
        fq = std::min(fq, d);
      }
    }
  };

  spec.update = [](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::min(x[i], f[i]);
  };

  if (p.use_convergence) {
    // Next frontier empty on this node: no owned vertex sits at the level
    // the next step would expand (the counter already points there).
    spec.converged = [level](api::IrregularNode& node,
                             std::span<const double> x_owned) {
      const auto next = static_cast<double>((*level)[node.id()]);
      for (const double d : x_owned) {
        if (d == next) return false;
      }
      return true;
    };
  }

  spec.checksum = [](std::span<const double> x) {
    return graph::int_vector_checksum(x);
  };
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

}  // namespace sdsm::apps::bfs
