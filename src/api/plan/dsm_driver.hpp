// The DSM-substrate driver: every ExecutionPlan with at least one region
// under AccessStrategy::kPageDsm.
//
// Two assignments run here (dsm_driver.cpp):
//
//  - run_page_dsm: both regions under the page protocol — demand paging
//    (base) or Validate aggregation (optimized), with the reduction under
//    the serial or tournament round schedule.
//
//  - run_hybrid: the mixed assignment (Backend::kHybrid).  The state
//    partition stays under the Tmk page protocol — per-node page-aligned
//    slices, owner WRITE_ALL updates, rebuild state reads via aggregated
//    Validate — while the indirection region runs the shared
//    InspectorGather strategy (plan/inspector_gather.hpp) over the DSM
//    node's app-data plane (plan/dsm_exchange.hpp).  Its two hooks are the
//    only hybrid-specific code.
//
// Both share one runner for the warmup/timed sections, the statistics cut
// and the result.  run_dsm() dispatches between them from the resolved
// ExecutionPlan; it is defined for the element types TmkBackend exposes
// (double, double3).
#pragma once

#include <cstdint>

#include "src/api/kernel.hpp"
#include "src/api/reuse.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::api::plan {

template <typename T>
KernelResult run_dsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes, Backend kind);

}  // namespace sdsm::api::plan
