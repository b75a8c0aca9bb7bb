// Tests for sdsm::proc, the real multi-process deployment.
//
// The headline assertions are the PR's acceptance contract: a Tmk job run
// as spawned worker processes (cross-process page faults over the
// MeshTransport) produces a checksum bit-exact with — and message, byte,
// and barrier counts exactly equal to — a threaded socket run of the
// identical job.  The failure-path tests drive the launcher's robustness
// machinery through the worker's SDSM_PROC_TEST_* hooks: a worker crash
// mid-run, a rendezvous timeout, and an arena base collision must each
// fail the run with an explicit diagnostic instead of hanging ctest.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/api/api.hpp"
#include "src/proc/proc.hpp"
#include "src/proc/report.hpp"
#include "src/serve/workloads.hpp"

namespace sdsm::proc {
namespace {

constexpr std::uint32_t kNprocs = 4;

serve::JobRequest spmv_request(api::Backend b) {
  serve::JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 4;
  req.graph.edges_per_vertex = 4;
  req.backend = b;
  req.transport = net::TransportKind::kSocket;
  return req;
}

serve::JobRequest moldyn_request(api::Backend b) {
  serve::JobRequest req;
  req.kernel = "moldyn";
  req.graph.num_elements = 512;
  req.graph.num_steps = 8;
  req.graph.update_interval = 4;  // rebuilds inside the timed loop
  req.backend = b;
  req.transport = net::TransportKind::kSocket;
  return req;
}

/// The threaded reference: the byte-identical job, materialized by the
/// same prepare_job the workers call, on the threaded socket fabric (every
/// request here asks for the socket transport).
api::KernelResult run_threaded(const serve::JobRequest& req,
                               std::uint32_t nprocs) {
  const serve::PreparedJob prepared = serve::prepare_job(req, nprocs);
  if (prepared.is_double3) {
    return api::run_kernel(req.backend, prepared.spec3,
                           prepared.base_options);
  }
  return api::run_kernel(req.backend, prepared.spec, prepared.base_options);
}

/// Entries of /proc/self/fd.  run_job opens a rendezvous listener and a
/// pidfd per worker, so the count before and after a job, on success and
/// on every failure path, must agree.
std::size_t open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

void expect_parity(const serve::JobRequest& req) {
  LaunchOptions lopt;
  lopt.nprocs = kNprocs;
  const std::size_t fds = open_fds();
  const LaunchResult lr = run_job(req, lopt);
  EXPECT_EQ(open_fds(), fds);
  ASSERT_TRUE(lr.ok) << lr.error;

  const api::KernelResult t = run_threaded(req, kNprocs);

  // Bit-exact checksum: workers compute the same owned-slice sums and the
  // launcher folds them in node order, the threaded loop's FP order.
  EXPECT_EQ(lr.result.checksum, t.checksum);
  // Exact wire parity: same protocol, frame for frame.
  EXPECT_EQ(lr.result.messages, t.messages);
  EXPECT_EQ(lr.result.bytes, t.bytes);
  EXPECT_EQ(lr.result.barriers_per_step, t.barriers_per_step);
  // Globally uniform step accounting agrees too.
  EXPECT_EQ(lr.result.steps_run, t.steps_run);
  EXPECT_EQ(lr.result.rebuilds, t.rebuilds);
  EXPECT_EQ(lr.result.refs, t.refs);
  EXPECT_EQ(lr.result.max_row, t.max_row);
  EXPECT_EQ(lr.result.backend, t.backend);
  // Every protocol count, summed over the workers, equals the threaded
  // run's (the timers are wall time and differ).
  for (const DsmCounter& c : kDsmCounters) {
    if (c.gate != "exact") continue;
    EXPECT_EQ(lr.result.tmk.*c.value, t.tmk.*c.value) << c.name;
  }
}

// --- Wire parity: the acceptance contract ----------------------------------

TEST(ProcParity, SpmvTmkBase) {
  expect_parity(spmv_request(api::Backend::kTmkBase));
}

TEST(ProcParity, SpmvTmkOptimized) {
  expect_parity(spmv_request(api::Backend::kTmkOptimized));
}

// The request's coherence reaches both sides: the workers and the threaded
// reference run the same adaptive job, so every count still matches.
TEST(ProcParity, SpmvTmkOptimizedAdaptive) {
  serve::JobRequest req = spmv_request(api::Backend::kTmkOptimized);
  req.coherence = coherence::CoherencePolicy::kAdaptive;
  expect_parity(req);
}

TEST(ProcParity, MoldynTmkBase) {
  expect_parity(moldyn_request(api::Backend::kTmkBase));
}

TEST(ProcParity, MoldynTmkOptimized) {
  expect_parity(moldyn_request(api::Backend::kTmkOptimized));
}

TEST(ProcParity, QuickstartTmkOptimized) {
  serve::JobRequest req;
  req.kernel = "quickstart";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 4;
  req.backend = api::Backend::kTmkOptimized;
  req.transport = net::TransportKind::kSocket;
  expect_parity(req);
}

// --- Worker report codec ---------------------------------------------------

TEST(WorkerReport, RoundTripsEveryField) {
  WorkerReport in;
  in.node = 3;
  in.ok = true;
  api::KernelResult& k = in.result;
  k.backend = api::Backend::kTmkOptimized;
  k.checksum = 1.25;
  k.seconds = 0.5;
  k.messages = 11;
  k.megabytes = 0.012;
  k.bytes = 12000;
  k.overhead_seconds = 0.25;
  k.diff_create_seconds = 0.125;
  k.diff_apply_seconds = 0.0625;
  k.rebuilds = 2;
  k.steps_run = 8;
  k.refs = 4096;
  k.max_row = 9;
  k.barriers_per_step = 4.5;
  std::uint64_t v = 101;
  for (const DsmCounter& c : kDsmCounters) k.tmk.*c.value = v++;

  Writer w;
  encode(w, in);
  const std::vector<std::uint8_t> bytes = w.take();
  Reader r(bytes);
  const WorkerReport out = decode_report(r);
  EXPECT_TRUE(r.done());

  EXPECT_EQ(out.node, in.node);
  EXPECT_EQ(out.ok, in.ok);
  const api::KernelResult& o = out.result;
  EXPECT_EQ(o.backend, k.backend);
  EXPECT_EQ(o.checksum, k.checksum);
  EXPECT_EQ(o.seconds, k.seconds);
  EXPECT_EQ(o.messages, k.messages);
  EXPECT_EQ(o.megabytes, k.megabytes);
  EXPECT_EQ(o.bytes, k.bytes);
  EXPECT_EQ(o.overhead_seconds, k.overhead_seconds);
  EXPECT_EQ(o.diff_create_seconds, k.diff_create_seconds);
  EXPECT_EQ(o.diff_apply_seconds, k.diff_apply_seconds);
  EXPECT_EQ(o.rebuilds, k.rebuilds);
  EXPECT_EQ(o.steps_run, k.steps_run);
  EXPECT_EQ(o.refs, k.refs);
  EXPECT_EQ(o.max_row, k.max_row);
  EXPECT_EQ(o.barriers_per_step, k.barriers_per_step);
  for (const DsmCounter& c : kDsmCounters) {
    EXPECT_EQ(o.tmk.*c.value, k.tmk.*c.value) << c.name;
  }
}

// --- Launcher admission ----------------------------------------------------

TEST(ProcLauncher, RejectsChaos) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  const LaunchResult lr = run_job(spmv_request(api::Backend::kChaos), lopt);
  EXPECT_FALSE(lr.ok);
  EXPECT_NE(lr.error.find("CHAOS"), std::string::npos) << lr.error;
}

TEST(ProcLauncher, SingleWorkerRuns) {
  LaunchOptions lopt;
  lopt.nprocs = 1;
  serve::JobRequest req = spmv_request(api::Backend::kTmkOptimized);
  const LaunchResult lr = run_job(req, lopt);
  ASSERT_TRUE(lr.ok) << lr.error;
  const api::KernelResult t = run_threaded(req, 1);
  EXPECT_EQ(lr.result.checksum, t.checksum);
  EXPECT_EQ(lr.result.messages, t.messages);  // zero: no peers
  EXPECT_EQ(lr.result.bytes, t.bytes);
}

// --- Failure paths: fail loud, never hang ----------------------------------

TEST(ProcFailure, WorkerKilledMidRun) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 60;
  lopt.extra_env.push_back("SDSM_PROC_TEST_CRASH_NODE=1");
  const std::size_t fds = open_fds();
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_EQ(open_fds(), fds);
  EXPECT_FALSE(lr.ok);
  // The error names the dead worker and its exit status.
  EXPECT_NE(lr.error.find("worker 1"), std::string::npos) << lr.error;
  EXPECT_NE(lr.error.find("42"), std::string::npos) << lr.error;
}

TEST(ProcFailure, RendezvousTimeout) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 6;  // worker rendezvous deadline: 3 s
  lopt.extra_env.push_back("SDSM_PROC_TEST_STALL_NODE=1");
  const std::size_t fds = open_fds();
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_EQ(open_fds(), fds);
  EXPECT_FALSE(lr.ok);
  // Node 0's own deadline fires first and its diagnostic surfaces in the
  // launcher error (via the failure report / stderr tail), naming the
  // missing peer count — a clean error, not a SIGKILL after a hang.
  EXPECT_NE(lr.error.find("rendezvous timeout"), std::string::npos)
      << lr.error;
}

TEST(ProcFailure, ArenaBaseCollision) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 60;
  lopt.extra_env.push_back("SDSM_PROC_TEST_COLLIDE=1");
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_FALSE(lr.ok);
  EXPECT_NE(lr.error.find("arena base collision"), std::string::npos)
      << lr.error;
}

}  // namespace
}  // namespace sdsm::proc
