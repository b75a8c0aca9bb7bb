#include "src/api/chaos_backend.hpp"

#include "src/api/plan/msg_driver.hpp"

// The inspector/executor step loop and accounting live in the plan layer:
// plan::run_msg drives the all-message backend (state and indirection both
// under the inspector) through the one StepDriver.  This file only adapts
// the IrregularRuntime surface.

namespace sdsm::api {

KernelResult ChaosBackend::run(const KernelSpec<double>& spec) {
  chaos::ChaosRuntime rt(num_nodes_, options_.wire, options_.transport);
  return plan::run_msg(rt, spec, nullptr, options_, num_nodes_);
}

KernelResult ChaosBackend::run(const KernelSpec<double3>& spec) {
  chaos::ChaosRuntime rt(num_nodes_, options_.wire, options_.transport);
  return plan::run_msg(rt, spec, nullptr, options_, num_nodes_);
}

KernelResult ChaosBackend::run_on(chaos::ChaosRuntime& rt,
                                  const KernelSpec<double>& spec,
                                  RunSession* session) {
  return plan::run_msg(rt, spec, session, options_, num_nodes_);
}

KernelResult ChaosBackend::run_on(chaos::ChaosRuntime& rt,
                                  const KernelSpec<double3>& spec,
                                  RunSession* session) {
  return plan::run_msg(rt, spec, session, options_, num_nodes_);
}

}  // namespace sdsm::api
