#include "src/apps/moldyn/moldyn_kernel.hpp"

#include <algorithm>

namespace sdsm::apps::moldyn {

api::KernelSpec<double3> make_kernel(const Params& p, const System& sys) {
  api::KernelSpec<double3> spec;
  spec.name = "moldyn";
  spec.num_elements = p.num_molecules;
  spec.owner_range = sys.owner_range;
  spec.initial_state = sys.pos0;
  spec.num_steps = p.num_steps;
  spec.warmup_steps = 0;  // the paper times the rebuilds too (Table 1)
  spec.update_interval = p.update_interval;
  // A pair's partner may be any node's molecule, so the builder reads
  // every position.
  spec.rebuild_reads = api::RebuildReads::kAll;
  // Pair lists are a pure function of the positions at rebuild time, so a
  // repeat run over the same initial system replays the same structures.
  spec.structure_cacheable = true;

  // Capacity: the initial interaction list plus 25% headroom for drift.
  // Pairs are uniform two-reference rows, so the ref bound is 2x the item
  // bound.
  {
    const auto groups = build_pairs(p, sys, sys.pos0);
    std::size_t max_pairs = 16;
    for (const auto& g : groups) max_pairs = std::max(max_pairs, g.size());
    spec.max_items_per_node =
        static_cast<std::int64_t>(max_pairs + max_pairs / 4);
    spec.max_refs_per_node = 2 * spec.max_items_per_node;
  }

  spec.build_items = [p, sys](api::IrregularNode& node,
                              std::span<const double3> all_x) {
    const std::vector<Pair> mine = build_pairs_of(p, sys, all_x, node.id());
    api::WorkItems items;
    items.refs.reserve(2 * mine.size());
    for (const Pair& pr : mine) {
      items.refs.push_back(pr.a);
      items.refs.push_back(pr.b);
    }
    items.finish_uniform(2);
    return items;
  };

  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double3>& ctx) {
    for (std::size_t i = 0; i < ctx.num_items(); ++i) {
      const auto pair = ctx.refs_of(i);
      const auto a = static_cast<std::size_t>(pair[0]);
      const auto b = static_cast<std::size_t>(pair[1]);
      const double3 fk = pair_force(ctx.x[a], ctx.x[b]);
      ctx.f[a] += fk;
      ctx.f[b] -= fk;
    }
  };

  spec.update = [dt = p.dt](std::span<double3> x,
                            std::span<const double3> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += f[i] * dt;
  };

  spec.checksum = [](std::span<const double3> x) {
    return position_checksum(x);
  };
  return spec;
}

api::BackendOptions default_options() {
  api::BackendOptions o;
  o.table = chaos::TableKind::kDistributed;
  return o;
}

api::KernelResult run(api::Backend backend, const Params& p, const System& sys,
                      const api::BackendOptions& options) {
  return api::run_kernel(backend, make_kernel(p, sys), options);
}

}  // namespace sdsm::apps::moldyn
