#include "src/apps/graph/cc.hpp"

#include <algorithm>
#include <memory>

#include "src/common/timer.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::apps::cc {

namespace {

std::vector<double> initial_labels(const Params& p) {
  std::vector<double> labels(static_cast<std::size_t>(p.num_vertices));
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    labels[static_cast<std::size_t>(v)] = static_cast<double>(v);
  }
  return labels;
}

}  // namespace

std::vector<double> seq_labels(const Params& p, std::int64_t* steps_run) {
  const Csr adj = graph::build_graph(p);
  auto labels = initial_labels(p);
  std::vector<double> stash;  // labels at the start of the current step
  std::vector<double> prev;   // labels at the start of the previous step
  std::vector<double> f(labels.size());
  std::int64_t ran = 0;
  for (int s = 0; s < p.warmup_steps + p.num_steps; ++s) {
    // Build: frontier = labels that changed during the previous step.
    prev = std::move(stash);
    stash = labels;
    std::fill(f.begin(), f.end(), graph::unreached(p));
    for (std::int64_t v = 0; v < p.num_vertices; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!prev.empty() && labels[vi] == prev[vi]) continue;
      for (const std::int32_t nb : adj.row(vi)) {
        f[static_cast<std::size_t>(nb)] =
            std::min(f[static_cast<std::size_t>(nb)], labels[vi]);
      }
    }
    for (std::size_t i = 0; i < labels.size(); ++i) {
      labels[i] = std::min(labels[i], f[i]);
    }
    ++ran;
    if (p.use_convergence && labels == stash) break;
  }
  if (steps_run != nullptr) {
    *steps_run = std::max<std::int64_t>(0, ran - p.warmup_steps);
  }
  return labels;
}

AppRunResult run_seq(const Params& p) {
  AppRunResult r;
  const Timer wall;
  const auto labels = seq_labels(p);
  r.seconds = wall.elapsed_s();
  r.checksum = graph::int_vector_checksum(labels);
  return r;
}

api::KernelSpec<double> make_kernel(const Params& p) {
  auto adj = std::make_shared<const Csr>(graph::build_graph(p));

  api::KernelSpec<double> spec;
  spec.name = "cc";
  spec.num_elements = p.num_vertices;
  spec.owner_range = part::block_partition(p.num_vertices, p.nprocs);
  spec.initial_state = initial_labels(p);
  spec.num_steps = p.num_steps;
  spec.warmup_steps = p.warmup_steps;
  spec.update_interval = 0;
  spec.rebuild_when = [](int) { return true; };  // frontier changes per step
  spec.rebuild_reads = api::RebuildReads::kOwnBlock;  // own labels only
  // structure_cacheable stays false: the builder compares against a label
  // stash it mutates per call, so its outputs are not replayable artifacts.
  spec.reduce = api::Reduce::kMin;
  spec.f_identity = graph::unreached(p);
  graph::frontier_capacity(*adj, spec.owner_range, &spec.max_items_per_node,
                           &spec.max_refs_per_node);

  // Per-node label stash from the last rebuild — both the frontier test
  // and the convergence test compare against it.
  auto stash =
      std::make_shared<std::vector<std::vector<double>>>(p.nprocs);
  const auto owner_range = spec.owner_range;
  spec.build_items = [adj, owner_range, stash](api::IrregularNode& node,
                                               std::span<const double> all_x) {
    const part::Range mine = owner_range[node.id()];
    auto& prev = (*stash)[node.id()];
    api::WorkItems items;
    for (std::int64_t v = mine.begin; v < mine.end; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!prev.empty() &&
          all_x[vi] == prev[static_cast<std::size_t>(v - mine.begin)]) {
        continue;  // label settled: not in the frontier
      }
      items.refs.push_back(v);
      for (const std::int32_t nb : adj->row(vi)) items.refs.push_back(nb);
      items.end_row();
    }
    prev.assign(all_x.begin() + mine.begin, all_x.begin() + mine.end);
    return items;
  };

  spec.compute = [](api::IrregularNode&, const api::KernelCtx<double>& ctx) {
    for (std::size_t i = 0; i < ctx.num_items(); ++i) {
      const auto row = ctx.refs_of(i);
      const double l = ctx.x[static_cast<std::size_t>(row[0])];
      for (std::size_t j = 1; j < row.size(); ++j) {
        auto& fq = ctx.f[static_cast<std::size_t>(row[j])];
        fq = std::min(fq, l);
      }
    }
  };

  spec.update = [](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::min(x[i], f[i]);
  };

  if (p.use_convergence) {
    // No owned label moved since the stash (= start of this step) on any
    // node: globally converged.
    spec.converged = [stash](api::IrregularNode& node,
                             std::span<const double> x_owned) {
      const auto& prev = (*stash)[node.id()];
      SDSM_REQUIRE(prev.size() == x_owned.size());
      return std::equal(x_owned.begin(), x_owned.end(), prev.begin());
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

}  // namespace sdsm::apps::cc
