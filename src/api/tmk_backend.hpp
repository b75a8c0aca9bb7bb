// TreadMarks-backed execution of irregular kernels, in the paper's two
// configurations: base (demand paging does all the communication) and
// optimized (compiler-driven Validate aggregation).
//
// In optimized mode the backend does not hand-write its Validate calls for
// the compute loop: every KernelSpec shares one mini-Fortran shape (K
// references per item through LIST select the X reads and F reductions),
// so that generic kernel is run through the real front-end once — parse,
// section analysis, Validate insertion — and the resulting statement is
// lowered to runtime descriptors with each node's loop bounds.  This is
// the paper's Parascope -> TreadMarks tool path, applied uniformly to
// every workload the API hosts.
#pragma once

#include "src/api/runtime.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::api {

struct RunSession;

class TmkBackend final : public IrregularRuntime {
 public:
  /// Any DSM-substrate backend kind: kTmkBase, kTmkOptimized, or kHybrid
  /// (see src/api/plan/dsm_driver.hpp).  kChaos is a precondition failure.
  TmkBackend(std::uint32_t num_nodes, Backend kind, BackendOptions options);

  Backend backend() const override { return kind_; }
  std::uint32_t num_nodes() const override { return num_nodes_; }

  KernelResult run(const KernelSpec<double>& spec) override;
  KernelResult run(const KernelSpec<double3>& spec) override;

  /// Executes on a caller-owned (long-lived) runtime instead of building a
  /// fresh one: the serving path.  The runtime must match this backend's
  /// node count and have an empty shared heap (reset_arena() between
  /// jobs).  `session`, when non-null, supplies the schedule-cache hooks
  /// (src/api/reuse.hpp); statistics are delta-scoped, so the runtime's
  /// cumulative counters are never reset.
  KernelResult run_on(core::DsmRuntime& rt, const KernelSpec<double>& spec,
                      RunSession* session);
  KernelResult run_on(core::DsmRuntime& rt, const KernelSpec<double3>& spec,
                      RunSession* session);

  /// The DsmConfig run() would build from these options — exposed so a
  /// serving engine constructs its long-lived runtime identically.
  static core::DsmConfig dsm_config(std::uint32_t num_nodes,
                                    const BackendOptions& options);

 private:
  std::uint32_t num_nodes_;
  Backend kind_;
  BackendOptions options_;
};

}  // namespace sdsm::api
