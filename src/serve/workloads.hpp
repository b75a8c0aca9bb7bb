// The serving layer's kernel registry: checks a JobRequest, and resolves
// its kernel name + GraphSpec into a concrete KernelSpec, the job's
// backend options, and the schedule-cache fingerprint.
//
// The fingerprint is an FNV-1a digest of the kernel name, every resolved
// workload parameter, and nprocs — two requests collide exactly when they
// would build the identical graph and run the identical kernel, which is
// precisely when replaying cached schedules is sound.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/api.hpp"
#include "src/serve/job.hpp"

namespace sdsm::serve {

/// A materialized job: exactly one of `spec` / `spec3` is populated
/// (moldyn is the one double3 kernel).
struct PreparedJob {
  bool is_double3 = false;
  api::KernelSpec<double> spec;
  api::KernelSpec<double3> spec3;

  bool cacheable = false;  ///< spec.structure_cacheable
  std::uint64_t fingerprint = 0;
  /// The workload's default_options() (CHAOS table kind etc.) with the
  /// request's transport, schedule, prefetch and coherence applied.
  api::BackendOptions base_options;
};

/// True when `name` is a kernel this server can run.
bool known_kernel(std::string_view name);

/// All kernel names, for usage messages.
const std::vector<std::string>& kernel_names();

/// Why an engine would refuse `req`, naming the field, or "" when it can
/// run: an unknown kernel; a backend, schedule, coherence or transport
/// value outside its enum; or the hybrid backend under adaptive
/// coherence.  Admission (KernelServer::submit) and the process-mode
/// worker both reject on it, so no accepted request aborts an engine.
std::string request_error(const JobRequest& req);

/// Resolves the request against `nprocs` nodes.  The request must pass
/// request_error (checked at admission).
PreparedJob prepare_job(const JobRequest& req, std::uint32_t nprocs);

}  // namespace sdsm::serve
