#include "src/api/tmk_backend.hpp"

#include "src/api/plan/dsm_driver.hpp"
#include "src/common/assert.hpp"

// The step loop, strategies, and accounting live in the plan layer:
// plan::run_dsm drives every DSM-substrate backend (base, optimized,
// hybrid) through the one StepDriver, dispatching on the backend kind.
// This file only adapts the IrregularRuntime surface.

namespace sdsm::api {

TmkBackend::TmkBackend(std::uint32_t num_nodes, Backend kind,
                       BackendOptions options)
    : num_nodes_(num_nodes), kind_(kind), options_(options) {
  SDSM_REQUIRE_MSG(kind == Backend::kTmkBase ||
                       kind == Backend::kTmkOptimized ||
                       kind == Backend::kHybrid,
                   "TmkBackend: not a DSM backend kind");
}

core::DsmConfig TmkBackend::dsm_config(std::uint32_t num_nodes,
                                       const BackendOptions& options) {
  core::DsmConfig cfg;
  cfg.num_nodes = num_nodes;
  cfg.region_bytes = options.region_bytes;
  cfg.transport = options.transport;
  cfg.wire = options.wire;
  cfg.write_all_enabled = options.write_all_enabled;
  cfg.coherence = options.coherence;
  return cfg;
}

KernelResult TmkBackend::run(const KernelSpec<double>& spec) {
  core::DsmRuntime rt(dsm_config(num_nodes_, options_));
  return plan::run_dsm(rt, spec, nullptr, options_, num_nodes_, kind_);
}

KernelResult TmkBackend::run(const KernelSpec<double3>& spec) {
  core::DsmRuntime rt(dsm_config(num_nodes_, options_));
  return plan::run_dsm(rt, spec, nullptr, options_, num_nodes_, kind_);
}

KernelResult TmkBackend::run_on(core::DsmRuntime& rt,
                                const KernelSpec<double>& spec,
                                RunSession* session) {
  return plan::run_dsm(rt, spec, session, options_, num_nodes_, kind_);
}

KernelResult TmkBackend::run_on(core::DsmRuntime& rt,
                                const KernelSpec<double3>& spec,
                                RunSession* session) {
  return plan::run_dsm(rt, spec, session, options_, num_nodes_, kind_);
}

}  // namespace sdsm::api
