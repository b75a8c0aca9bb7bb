// StepDriver: the one copy of the outer step loop.
//
// drive_steps() is the rebuild-cadence / step-execution / convergence loop
// of every backend, parameterized by a per-node Strategy object that knows
// how one backend realizes each phase.  A Strategy is a NodeTally (the
// per-node bookkeeping below) with three phase methods:
//
//   void rebuild(int global_step);
//       Structure (re)build for this step.  Called only when
//       spec.rebuild_needed(global_step) says so.
//   void execute_step(int global_step);
//       The computational step: gather/compute/reduce/update under the
//       backend's strategy.
//   bool finish_step(int global_step, bool last_in_section);
//       Step epilogue — convergence verdict exchange, step barrier, any
//       cross-step prefetch (suppressed when last_in_section).  Returns
//       true when the kernel has globally converged.
//
// The loop runs a *section* (warmup or timed) of at most `steps` steps;
// `done` persists across sections so a kernel converged during warmup
// never executes a timed step.
#pragma once

#include <cstdint>

#include "src/api/plan/fold.hpp"

namespace sdsm::api::plan {

/// The per-node bookkeeping every strategy keeps: drive_steps advances
/// `steps_run` and `done`; the runners set `timed` at the warm/timed cut
/// and read the rest after the timed section.
struct NodeTally {
  std::int64_t steps_run = 0;  ///< steps executed (warmup + timed)
  bool done = false;           ///< globally converged: no further steps
  bool timed = false;          ///< inside the timed section
  /// Structure builds: every rebuild under the page protocol, fresh
  /// inspector runs (cache replays excluded) under the inspector.
  std::int64_t rebuilds = 0;
  double inspector_seconds = 0;  ///< inspector time (inspector-gather only)
  NodeAccount account;           ///< checksum + last-built structure shape
};

template <typename Spec, typename Strategy>
void drive_steps(const Spec& spec, Strategy& strat, int steps,
                 int first_global_step) {
  for (int s = 0; s < steps && !strat.done; ++s) {
    const int global_step = first_global_step + s;
    if (spec.rebuild_needed(global_step)) strat.rebuild(global_step);
    strat.execute_step(global_step);
    strat.done =
        strat.finish_step(global_step, /*last_in_section=*/s + 1 >= steps);
    ++strat.steps_run;
  }
}

}  // namespace sdsm::api::plan
