// The message-substrate driver: the CHAOS backend, state and indirection
// both under the inspector/executor.
//
// run_msg is a thin runner over the shared InspectorGather strategy
// (plan/inspector_gather.hpp) with neither hook set: rebuild state reads
// are allgathers over the CHAOS fabric and the owner update stays private.
// It owns only the section timing and the result.  Defined in
// msg_driver.cpp for the element types ChaosBackend exposes (double,
// double3).
#pragma once

#include <cstdint>

#include "src/api/kernel.hpp"
#include "src/api/reuse.hpp"
#include "src/chaos/chaos_runtime.hpp"

namespace sdsm::api::plan {

template <typename T>
KernelResult run_msg(chaos::ChaosRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes);

}  // namespace sdsm::api::plan
