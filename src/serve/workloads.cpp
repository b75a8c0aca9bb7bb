#include "src/serve/workloads.hpp"

#include "src/apps/graph/bfs.hpp"
#include "src/apps/graph/cc.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/quickstart/quickstart.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/common/assert.hpp"
#include "src/common/buffer.hpp"

namespace sdsm::serve {

namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

/// Digest of the resolved parameters: kernel name + every field that
/// shapes the graph or the step schedule + nprocs.
template <typename... Fields>
std::uint64_t fingerprint_of(const std::string& kernel, std::uint32_t nprocs,
                             Fields... fields) {
  Writer w;
  w.put_string(kernel);
  w.put<std::uint32_t>(nprocs);
  (w.put(fields), ...);
  return fnv1a(w.bytes());
}

}  // namespace

bool known_kernel(std::string_view name) {
  for (const std::string& k : kernel_names()) {
    if (k == name) return true;
  }
  return false;
}

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names = {
      "moldyn", "nbf", "spmv", "pagerank", "bfs", "cc", "quickstart"};
  return names;
}

std::string request_error(const JobRequest& req) {
  if (!known_kernel(req.kernel)) {
    return "unknown kernel '" + req.kernel + "'";
  }
  const auto out_of_range = [](const char* field, auto value) {
    return "unknown " + std::string(field) + " " +
           std::to_string(static_cast<int>(value));
  };
  if (req.backend > api::Backend::kHybrid) {
    return out_of_range("backend", req.backend);
  }
  if (req.schedule > api::RoundSchedule::kTournament) {
    return out_of_range("schedule", req.schedule);
  }
  if (req.coherence > coherence::CoherencePolicy::kAdaptive) {
    return out_of_range("coherence", req.coherence);
  }
  if (req.transport > net::TransportKind::kSocket) {
    return out_of_range("transport", req.transport);
  }
  if (req.backend == api::Backend::kHybrid &&
      req.coherence != coherence::CoherencePolicy::kStatic) {
    return "coherence: the hybrid backend runs under static coherence only";
  }
  return "";
}

PreparedJob prepare_job(const JobRequest& req, std::uint32_t nprocs) {
  const GraphSpec& g = req.graph;
  PreparedJob job;

  if (req.kernel == "moldyn") {
    apps::moldyn::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.num_molecules = g.num_elements;
    if (g.num_steps > 0) p.num_steps = g.num_steps;
    if (g.update_interval > 0) p.update_interval = g.update_interval;
    if (g.seed != 0) p.seed = g.seed;
    const apps::moldyn::System sys = apps::moldyn::make_system(p);
    job.is_double3 = true;
    job.spec3 = apps::moldyn::make_kernel(p, sys);
    job.base_options = apps::moldyn::default_options();
    job.fingerprint =
        fingerprint_of(req.kernel, nprocs, p.num_molecules, p.num_steps,
                       p.update_interval, p.box, p.cutoff, p.dt, p.seed);
  } else if (req.kernel == "nbf") {
    apps::nbf::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.molecules = g.num_elements;
    if (g.num_steps > 0) p.timed_steps = g.num_steps;
    if (g.warmup_steps >= 0) p.warmup_steps = g.warmup_steps;
    if (g.partners > 0) p.partners = g.partners;
    job.spec = apps::nbf::make_kernel(p);
    job.base_options = apps::nbf::default_options();
    job.fingerprint =
        fingerprint_of(req.kernel, nprocs, p.molecules, p.partners,
                       p.min_partners, p.spread, p.timed_steps,
                       p.warmup_steps, p.dt);
  } else if (req.kernel == "spmv") {
    apps::spmv::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.num_rows = g.num_elements;
    if (g.num_steps > 0) p.num_steps = g.num_steps;
    if (g.warmup_steps >= 0) p.warmup_steps = g.warmup_steps;
    if (g.edges_per_vertex > 0) p.edges_per_vertex = g.edges_per_vertex;
    if (g.seed != 0) p.seed = g.seed;
    job.spec = apps::spmv::make_kernel(p);
    job.base_options = apps::spmv::default_options();
    job.fingerprint =
        fingerprint_of(req.kernel, nprocs, p.num_rows, p.edges_per_vertex,
                       p.num_steps, p.warmup_steps, p.dt, p.seed);
  } else if (req.kernel == "pagerank") {
    apps::pagerank::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.num_vertices = g.num_elements;
    if (g.num_steps > 0) p.num_steps = g.num_steps;
    if (g.warmup_steps >= 0) p.warmup_steps = g.warmup_steps;
    if (g.edges_per_vertex > 0) p.edges_per_vertex = g.edges_per_vertex;
    if (g.seed != 0) p.seed = g.seed;
    job.spec = apps::pagerank::make_kernel(p);
    job.base_options = apps::pagerank::default_options();
    job.fingerprint =
        fingerprint_of(req.kernel, nprocs, p.num_vertices, p.edges_per_vertex,
                       p.num_steps, p.warmup_steps, p.damping, p.seed);
  } else if (req.kernel == "quickstart") {
    apps::quickstart::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.num_elements = g.num_elements;
    if (g.num_steps > 0) p.num_steps = g.num_steps;
    if (g.warmup_steps >= 0) p.warmup_steps = g.warmup_steps;
    job.spec = apps::quickstart::make_kernel(p);
    job.base_options = apps::quickstart::default_options();
    job.fingerprint = fingerprint_of(req.kernel, nprocs, p.num_elements,
                                     p.num_steps, p.warmup_steps);
  } else if (req.kernel == "bfs" || req.kernel == "cc") {
    apps::graph::Params p;
    p.nprocs = nprocs;
    if (g.num_elements > 0) p.num_vertices = g.num_elements;
    if (g.num_steps > 0) p.num_steps = g.num_steps;
    if (g.warmup_steps >= 0) p.warmup_steps = g.warmup_steps;
    if (g.chords_per_vertex > 0) p.chords_per_vertex = g.chords_per_vertex;
    if (g.seed != 0) p.seed = g.seed;
    if (req.kernel == "bfs") {
      job.spec = apps::bfs::make_kernel(p);
      job.base_options = apps::bfs::default_options();
    } else {
      job.spec = apps::cc::make_kernel(p);
      job.base_options = apps::cc::default_options();
    }
    job.fingerprint = fingerprint_of(
        req.kernel, nprocs, p.num_vertices, p.chords_per_vertex, p.isolated,
        p.source, p.num_steps, p.warmup_steps,
        static_cast<std::uint8_t>(p.use_convergence ? 1 : 0), p.seed);
  } else {
    SDSM_REQUIRE_MSG(false, "prepare_job: unknown kernel (admission must "
                            "check request_error first)");
  }
  job.cacheable = job.is_double3 ? job.spec3.structure_cacheable
                                 : job.spec.structure_cacheable;
  job.base_options.transport = req.transport;
  job.base_options.round_schedule = req.schedule;
  job.base_options.cross_step_prefetch = req.cross_step_prefetch;
  job.base_options.coherence = req.coherence;
  return job;
}

}  // namespace sdsm::serve
