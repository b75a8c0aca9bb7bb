#include "src/apps/nbf/nbf_kernel.hpp"

#include <algorithm>

namespace sdsm::apps::nbf {

namespace {

/// Shared shape + callbacks; only the row construction differs between the
/// unpadded CSR kernel and the padded fixed-arity emulation.
api::KernelSpec<double> make_base(const Params& p) {
  api::KernelSpec<double> spec;
  spec.name = "nbf";
  spec.num_elements = p.molecules;
  spec.owner_range = part::block_partition(p.molecules, p.nprocs);
  spec.initial_state = initial_coordinates(p);
  spec.num_steps = p.timed_steps;
  spec.warmup_steps = p.warmup_steps;
  spec.update_interval = 0;  // static partner list
  spec.rebuild_reads = api::RebuildReads::kNothing;
  spec.structure_cacheable = true;  // static partner lists, pure builder

  std::int64_t max_block = 0;
  for (const part::Range& r : spec.owner_range) {
    max_block = std::max(max_block, r.size());
  }
  spec.max_items_per_node = std::max<std::int64_t>(max_block, 1);

  // The molecule-vs-partner force exchange, written once against CSR rows:
  // row k is [molecule, partner...] of any length.  Padding rows with the
  // molecule itself is harmless (pair_force(x, x) == 0), which is exactly
  // how the padded variant reuses this body unchanged.
  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double>& ctx) {
    for (std::size_t i = 0; i < ctx.num_items(); ++i) {
      const auto row = ctx.refs_of(i);
      if (row.empty()) continue;
      const auto li = static_cast<std::size_t>(row[0]);
      const double xi = ctx.x[li];
      for (std::size_t j = 1; j < row.size(); ++j) {
        const auto lq = static_cast<std::size_t>(row[j]);
        const double d = pair_force(xi, ctx.x[lq]);
        ctx.f[li] += d;
        ctx.f[lq] -= d;
      }
    }
  };

  spec.update = [dt = p.dt](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += f[i] * dt;
  };

  spec.checksum = [](std::span<const double> x) {
    return coordinate_checksum(x);
  };
  return spec;
}

}  // namespace

api::KernelSpec<double> make_kernel(const Params& p) {
  api::KernelSpec<double> spec = make_base(p);

  // Unpadded reference capacity: the worst per-node sum of actual row
  // lengths (each molecule contributes 1 + its own partner count).
  {
    std::int64_t worst = 1;
    for (const part::Range& r : spec.owner_range) {
      std::int64_t sum = 0;
      for (std::int64_t i = r.begin; i < r.end; ++i) {
        sum += 1 + partner_count(p, i);
      }
      worst = std::max(worst, sum);
    }
    spec.max_refs_per_node = worst;
  }

  const auto owner_range = spec.owner_range;
  spec.build_items = [p, owner_range](api::IrregularNode& node,
                                      std::span<const double> /*all_x*/) {
    const part::Range mine = owner_range[node.id()];
    api::WorkItems items;
    for (std::int64_t i = mine.begin; i < mine.end; ++i) {
      items.refs.push_back(i);
      const int count = partner_count(p, i);
      for (int j = 0; j < count; ++j) {
        items.refs.push_back(partner_of(p, i, j));
      }
      items.end_row();
    }
    return items;
  };
  return spec;
}

api::KernelSpec<double> make_padded_kernel(const Params& p) {
  api::KernelSpec<double> spec = make_base(p);
  const auto arity = static_cast<std::size_t>(p.partners) + 1;
  spec.max_refs_per_node =
      spec.max_items_per_node * static_cast<std::int64_t>(arity);

  const auto owner_range = spec.owner_range;
  spec.build_items = [p, owner_range, arity](api::IrregularNode& node,
                                             std::span<const double>) {
    const part::Range mine = owner_range[node.id()];
    api::WorkItems items;
    items.refs.reserve(static_cast<std::size_t>(mine.size()) * arity);
    for (std::int64_t i = mine.begin; i < mine.end; ++i) {
      items.refs.push_back(i);
      const int count = partner_count(p, i);
      for (int j = 0; j < count; ++j) {
        items.refs.push_back(partner_of(p, i, j));
      }
      // Fixed-arity padding: self-references, zero force contribution.
      for (int j = count; j < p.partners; ++j) items.refs.push_back(i);
    }
    items.finish_uniform(arity);
    return items;
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

}  // namespace sdsm::apps::nbf
