#include "src/api/plan/msg_driver.hpp"

#include <algorithm>
#include <vector>

#include "src/api/plan/inspector_gather.hpp"
#include "src/common/timer.hpp"
#include "src/common/vec.hpp"

namespace sdsm::api::plan {

template <typename T>
KernelResult run_msg(chaos::ChaosRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes) {
  spec.require_valid(num_nodes);
  const std::uint32_t nprocs = num_nodes;
  SDSM_REQUIRE(rt.num_nodes() == nprocs);

  const std::shared_ptr<const chaos::TranslationTable> table =
      table_for(spec.owner_range, options.table, session);

  std::vector<NodeTally> tally(nprocs);
  std::int64_t warm_steps = 0;  // node 0's; steps are globally uniform
  std::vector<double> timed_seconds(nprocs, 0.0);
  // Fabric totals at the two quiescent cuts: taken by node 0 while every
  // other node is blocked inside the barrier, so the counts are
  // deterministic.
  struct Totals {
    std::uint64_t messages = 0, bytes = 0, barriers = 0;
  };
  Totals start, end;
  const auto take = [&rt](Totals& t) {
    t = {rt.total_messages(), rt.network().stats().bytes(),
         rt.total_barriers()};
  };

  // No stats reset: all accounting below is snapshot-delta scoped, so a
  // warm shared runtime's cumulative totals survive each job.
  rt.run([&](chaos::ChaosNode& cn) {
    const NodeId me = cn.id();
    NodeHandle<chaos::ChaosNode> node(cn);
    InspectorGather<T> strat(spec, options, *table, session, cn, node,
                             rt.network().stats());

    drive_steps(spec, strat, spec.warmup_steps, 0);
    if (me == 0) warm_steps = strat.steps_run;
    cn.barrier([&] { take(start); });

    strat.timed = true;
    const Timer timer;
    drive_steps(spec, strat, spec.num_steps, spec.warmup_steps);
    timed_seconds[me] = timer.elapsed_s();
    cn.barrier([&] { take(end); });

    strat.record_checksum();
    tally[me] = strat;
  });

  KernelResult res;
  res.backend = Backend::kChaos;
  for (const double t : timed_seconds) res.seconds = std::max(res.seconds, t);
  // Between the two snapshots lie the timed steps plus exactly one barrier
  // release (N-1 messages) and one barrier arrival (N-1).
  res.messages = end.messages - start.messages - 2 * (nprocs - 1);
  res.bytes = end.bytes - start.bytes;
  res.megabytes = static_cast<double>(res.bytes) / 1e6;
  // Barrier arrivals between the snapshots: the timed steps' barriers plus
  // the end snapshot's own (fully counted at its quiescent point, like the
  // start's is in `start`).  Measured, not asserted: CHAOS synchronizes
  // through its gather/scatter exchanges, so this is normally the one
  // step-closing barrier — and the bench column will say so the day that
  // stops being true.
  res.steps_run = tally[0].steps_run - warm_steps;
  if (res.steps_run > 0) {
    res.barriers_per_step =
        static_cast<double>(end.barriers - start.barriers - nprocs) / nprocs /
        static_cast<double>(res.steps_run);
  }
  std::vector<NodeAccount> accounts(nprocs);
  double insp = 0;
  for (NodeId q = 0; q < nprocs; ++q) {
    accounts[q] = tally[q].account;
    insp += tally[q].inspector_seconds;
  }
  fold_accounts(res, accounts);
  res.overhead_seconds = insp / nprocs;
  res.rebuilds = tally[0].rebuilds;
  return res;
}

// ChaosBackend exposes exactly these element types.
template KernelResult run_msg(chaos::ChaosRuntime&, const KernelSpec<double>&,
                              RunSession*, const BackendOptions&,
                              std::uint32_t);
template KernelResult run_msg(chaos::ChaosRuntime&, const KernelSpec<double3>&,
                              RunSession*, const BackendOptions&,
                              std::uint32_t);

}  // namespace sdsm::api::plan
