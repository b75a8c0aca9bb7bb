// The DSM-substrate driver: the backends that run over core::DsmNode.
//
// Two runners live here (dsm_driver.cpp):
//
//  - run_page_dsm (kTmkBase, kTmkOptimized): the state and the
//    indirection both under the page protocol — demand paging (base) or
//    Validate aggregation (optimized), with the reduction under the
//    serial or tournament round schedule.
//
//  - run_hybrid (kHybrid): the state partition stays under the Tmk page
//    protocol — per-node page-aligned slices, owner WRITE_ALL updates,
//    rebuild state reads via aggregated Validate — while the indirection
//    reads and reductions run the shared InspectorGather strategy
//    (plan/inspector_gather.hpp) over the DSM node's app-data plane
//    (plan/dsm_exchange.hpp).  Its two hooks are the only hybrid-specific
//    code.
//
// Both share one runner for the warmup/timed sections, the statistics cut
// and the result.  run_dsm() dispatches between them on the backend kind;
// it is defined for the element types TmkBackend exposes (double,
// double3).
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
