// The unified-API bench: every workload (moldyn, nbf, spmv, pagerank, and
// the frontier-driven bfs/cc pair) on every backend through sdsm::api,
// one row per (workload, backend).  Alongside the human table it writes
// BENCH_api.json — the machine-readable perf trajectory successive changes
// diff against (see bench/compare_bench.py).  Rows carry the CSR
// shape columns (refs, max_row) so degree skew — and what padding it
// would cost — is auditable from the JSON alone, plus a rebuilds column
// so rebuild-heavy workloads (frontier rows rebuild every step) are
// auditable too.
//
// Two nbf groups quantify the variable-arity redesign: "nbf-var" runs the
// deterministic variable-degree partner lists unpadded, "nbf-var padded"
// runs the same physics the only way the former fixed-arity API allowed —
// every row padded to the maximum with self references.  Both count their
// one-time list costs (warmup_steps = 0), so the padded index array's
// extra pages are visible in the message/byte columns, not hidden in an
// untimed warmup.
//
// `--transport=inproc|socket` selects the fabric: the default in-process
// channels keep the committed baseline comparable; the socket fabric
// carries the same traffic over real TCP so wire cost is measured.  The
// socket run writes BENCH_api_socket.json so the two trajectories never
// overwrite each other.
//
// `--group=<filter>[,<filter>...]` runs only the groups whose name
// contains one of the (comma-separated) filters — e.g. `--group=proc`,
// `--group=fault,serve`, or `--group=coherence` (the adaptive-coherence
// A/B groups) — so a new group can be exercised in seconds without the
// full sweep.  A filtered run never writes the bench JSON:
// the committed baseline holds every group, and overwriting it with a
// subset would fail the exact gate on the missing rows.  `--help` lists
// every flag.
#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>

#include "bench/bench_params.hpp"
#include "src/apps/graph/bfs.hpp"
#include "src/apps/graph/cc.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/common/timer.hpp"
#include "src/core/dsm.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/options.hpp"
#include "src/proc/proc.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace {

using namespace sdsm;
using namespace sdsm::apps;

/// True when `group` passes the --group filter: no filter, or any of the
/// comma-separated filter tokens is a substring of the group name.
bool group_enabled(const harness::Options& opt, std::string_view group) {
  const std::optional<std::string> filter = opt.value("group");
  if (!filter) return true;
  const std::string_view f = *filter;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = f.find(',', pos);
    const std::string_view tok =
        f.substr(pos, comma == std::string_view::npos ? f.size() - pos
                                                      : comma - pos);
    if (!tok.empty() && group.find(tok) != std::string_view::npos) return true;
    if (comma == std::string_view::npos) return false;
    pos = comma + 1;
  }
}

/// Any of `groups` enabled — gates a block whose (shared, expensive)
/// sequential baseline feeds several groups.
bool any_group_enabled(const harness::Options& opt,
                       std::initializer_list<std::string_view> groups) {
  for (const std::string_view g : groups) {
    if (group_enabled(opt, g)) return true;
  }
  return false;
}

void add_row(harness::Table& table, const char* group, api::Backend b,
             double seq_seconds, double seq_checksum,
             const api::BackendOptions& opts, const api::KernelResult& r) {
  char note[96];
  std::snprintf(note, sizeof(note), "checksum %s, %lld rebuilds",
                checksum_close(seq_checksum, r.checksum) ? "OK" : "MISMATCH",
                static_cast<long long>(r.rebuilds));
  // The schedule column names the reduction-round engine; CHAOS has no
  // notion of reduction rounds, so its rows carry "-".
  const char* schedule = b == api::Backend::kChaos
                             ? "-"
                             : api::round_schedule_name(opts.round_schedule);
  harness::Row row{group, api::backend_name(b), r.seconds,
                   harness::speedup(seq_seconds, r.seconds), r.messages,
                   r.megabytes, r.overhead_seconds, note, seq_seconds,
                   r.refs, r.max_row, schedule, r.barriers_per_step,
                   r.rebuilds};
  row.diff_create_seconds = r.diff_create_seconds;
  row.diff_apply_seconds = r.diff_apply_seconds;
  row.tmk = r.tmk;
  table.add(std::move(row));
}

void add_rows(
    harness::Table& table, const std::vector<api::Backend>& backends,
    const char* group, double seq_seconds, double seq_checksum,
    const api::BackendOptions& opts,
    const std::function<api::KernelResult(api::Backend)>& run_one) {
  for (const api::Backend b : backends) {
    add_row(table, group, b, seq_seconds, seq_checksum, opts, run_one(b));
  }
}

/// The tournament-schedule A/B rows: Tmk backends only (CHAOS ignores the
/// schedule, so rerunning it would duplicate its serial row), cross-step
/// prefetch on — traffic is provably identical with it off, and the bench
/// exercises the full fused pipeline the rows exist to measure.
void add_tournament_rows(
    harness::Table& table, const std::vector<api::Backend>& backends,
    const char* group, double seq_seconds, double seq_checksum,
    api::BackendOptions opts,
    const std::function<api::KernelResult(api::Backend,
                                          const api::BackendOptions&)>& run_one) {
  opts.round_schedule = api::RoundSchedule::kTournament;
  opts.cross_step_prefetch = true;
  for (const api::Backend b :
       {api::Backend::kTmkBase, api::Backend::kTmkOptimized}) {
    if (std::find(backends.begin(), backends.end(), b) == backends.end()) {
      continue;
    }
    add_row(table, group, b, seq_seconds, seq_checksum, opts, run_one(b, opts));
  }
}

/// One serving-layer job outcome as a table row.  `seconds` is the job's
/// run time (queue wait excluded), so serve rows are comparable to the
/// one-shot rows of the same workload.
void add_serve_row(harness::Table& table, const char* group,
                   double seq_seconds, double seq_checksum,
                   const serve::JobStats& s) {
  char note[112];
  std::snprintf(note, sizeof(note),
                "checksum %s, %lld inspector runs, %llu structure msgs",
                checksum_close(seq_checksum, s.checksum) ? "OK" : "MISMATCH",
                static_cast<long long>(s.inspector_runs),
                static_cast<unsigned long long>(s.structure_messages));
  harness::Row row;
  row.group = group;
  row.variant = api::backend_name(s.backend);
  row.seconds = s.run_seconds;
  row.speedup = harness::speedup(seq_seconds, s.run_seconds);
  row.messages = s.messages;
  row.megabytes = s.megabytes;
  row.note = note;
  row.seq_seconds = seq_seconds;
  row.schedule = s.backend == api::Backend::kChaos ? "-" : "serial";
  row.rebuilds = s.rebuilds;
  table.add(row);
}

/// The serving-layer groups.  Workers = 1 throughout: a single worker
/// makes the miss-then-hit order (and therefore every cache_hits and
/// message count) deterministic, which is what lets compare_bench.py gate
/// these rows exactly.
void add_serve_groups(harness::Table& table,
                      const std::vector<api::Backend>& backends,
                      net::TransportKind transport) {
  // --- one-shot vs serve-miss vs serve-hit: moldyn 2048x12 ----------------
  moldyn::Params p;
  p.num_molecules = 2048;
  p.num_steps = 12;
  p.update_interval = 6;
  p.nprocs = bench::kNodes;
  const auto sys = moldyn::make_system(p);
  const auto seq = moldyn::run_seq(p, sys);

  serve::ServerConfig cfg;
  cfg.nprocs = bench::kNodes;
  cfg.workers = 1;
  cfg.queue_capacity = 32;
  serve::KernelServer server(cfg);
  serve::Client client = serve::Client::in_proc(server);

  serve::JobRequest req;
  req.kernel = "moldyn";
  req.graph.num_elements = p.num_molecules;
  req.graph.num_steps = p.num_steps;
  req.graph.update_interval = p.update_interval;
  req.transport = transport;

  api::BackendOptions opts = moldyn::default_options();
  opts.transport = transport;

  std::vector<api::KernelResult> one_shot;
  std::vector<serve::JobStats> miss, hit;
  for (const api::Backend b : backends) {
    req.backend = b;
    one_shot.push_back(moldyn::run(b, p, sys, opts));
    miss.push_back(client.run(req));   // cold cache: inspector runs
    hit.push_back(client.run(req));    // warm cache: executor-only
  }
  for (std::size_t i = 0; i < backends.size(); ++i) {
    add_row(table, "serve moldyn 2048x12 one-shot", backends[i], seq.seconds,
            seq.checksum, opts, one_shot[i]);
  }
  for (const serve::JobStats& s : miss) {
    add_serve_row(table, "serve moldyn 2048x12 miss", seq.seconds,
                  seq.checksum, s);
  }
  for (const serve::JobStats& s : hit) {
    add_serve_row(table, "serve moldyn 2048x12 hit", seq.seconds,
                  seq.checksum, s);
  }

  // --- throughput: mixed job stream, second half all cache hits -----------
  serve::ServerConfig tcfg;
  tcfg.nprocs = bench::kNodes;
  tcfg.workers = 1;
  tcfg.queue_capacity = 32;
  serve::KernelServer tserver(tcfg);
  serve::Client tclient = serve::Client::in_proc(tserver);

  std::vector<serve::JobRequest> stream;
  for (int round = 0; round < 2; ++round) {
    for (const bool is_moldyn : {true, false}) {
      for (const api::Backend b :
           {api::Backend::kTmkOptimized, api::Backend::kChaos}) {
        if (std::find(backends.begin(), backends.end(), b) ==
            backends.end()) {
          continue;
        }
        serve::JobRequest r;
        r.backend = b;
        r.transport = transport;
        if (is_moldyn) {
          r.kernel = "moldyn";
          r.graph.num_elements = 1024;
          r.graph.num_steps = 8;
          r.graph.update_interval = 4;
        } else {
          r.kernel = "pagerank";
          r.graph.num_elements = 4096;
          r.graph.num_steps = 8;
          r.graph.edges_per_vertex = 4;
        }
        stream.push_back(r);
      }
    }
  }
  if (stream.empty()) return;

  const Timer stream_timer;
  std::vector<std::uint64_t> ids;
  for (const serve::JobRequest& r : stream) {
    const serve::SubmitResult sub = tclient.submit(r);
    if (sub.accepted) ids.push_back(sub.job_id);
  }
  std::uint64_t total_messages = 0;
  double total_mb = 0;
  bool all_ok = true;
  for (const std::uint64_t id : ids) {
    const serve::JobStats s = tclient.wait(id);
    all_ok = all_ok && s.ok;
    total_messages += s.messages;
    total_mb += s.megabytes;
  }
  const double elapsed = stream_timer.elapsed_s();
  const serve::ServerStats st = tserver.stats();

  char note[96];
  std::snprintf(note, sizeof(note), "%s, %llu completed of %llu submitted",
                all_ok ? "all jobs OK" : "JOB FAILED",
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.submitted));
  harness::Row row;
  row.group = "serve throughput mixed stream";
  row.variant = "1 worker";
  row.seconds = elapsed;
  row.messages = total_messages;
  row.megabytes = total_mb;
  row.note = note;
  row.jobs_per_sec =
      elapsed > 0 ? static_cast<double>(ids.size()) / elapsed : 0;
  row.cache_hits = static_cast<std::int64_t>(st.cache_hits);
  table.add(row);
}

/// The fault-latency microbench: SIGSEGV -> page-resident time on the
/// demand-paging path.  Node 0 dirties kPages pages; after the barrier
/// node 1 reads one double per page — every read is a cold fault (segv,
/// diff fetch from the modifier, apply, remap) — then reads them again
/// warm (resident, no fault).  The per-page averages land in the seconds
/// column; the message count (one request + one reply per cold fault,
/// zero warm) is deterministic and exact-gated.
void add_fault_latency_rows(harness::Table& table) {
  constexpr std::size_t kPages = 256;
  core::DsmConfig cfg;
  cfg.num_nodes = 2;
  cfg.region_bytes = 4u << 20;
  core::DsmRuntime rt(cfg);
  const std::size_t stride = rt.page_size() / sizeof(double);
  const auto arr = rt.alloc_global<double>(kPages * stride);

  double cold_s = 0, warm_s = 0, sink = 0;
  const net::NetStats::Snapshot before = rt.network().stats().snapshot();
  rt.run([&](core::DsmNode& self) {
    double* p = self.ptr(arr);
    if (self.id() == 0) {
      for (std::size_t pg = 0; pg < kPages; ++pg) {
        p[pg * stride] = static_cast<double>(pg + 1);
      }
    }
    self.barrier();
    if (self.id() == 1) {
      double s = 0;
      const Timer cold;
      for (std::size_t pg = 0; pg < kPages; ++pg) s += p[pg * stride];
      cold_s = cold.elapsed_s();
      const Timer warm;
      for (std::size_t pg = 0; pg < kPages; ++pg) s += p[pg * stride];
      warm_s = warm.elapsed_s();
      sink = s;
    }
    self.barrier();
  });
  const net::NetStats::Snapshot delta =
      rt.network().stats().snapshot() - before;

  char note[96];
  std::snprintf(note, sizeof(note), "segv->resident per page, checksum %.0f",
                sink);
  harness::Row cold_row;
  cold_row.group = "fault latency 256 pages";
  cold_row.variant = "cold";
  cold_row.seconds = cold_s / kPages;
  cold_row.messages = delta.messages();  // the faults' fetch round trips
  cold_row.megabytes = delta.megabytes();
  cold_row.note = note;
  table.add(cold_row);

  harness::Row warm_row;
  warm_row.group = "fault latency 256 pages";
  warm_row.variant = "warm";
  warm_row.seconds = warm_s / kPages;
  warm_row.note = "resident re-read, no fault, no traffic";
  table.add(warm_row);
}

/// The process-mode deployment rows: the identical spmv job as spawned
/// worker processes (sdsm::proc) and as node threads on the socket
/// fabric.  The counters of the two rows must be identical — the
/// wire-parity acceptance criterion, exact-gated by compare_bench — and
/// the seconds column carries the real fork + rendezvous + TCP-mesh
/// deployment cost.
void add_proc_rows(harness::Table& table,
                   const std::vector<api::Backend>& backends) {
  constexpr std::uint32_t kProcNodes = 4;
  serve::JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 4096;
  req.graph.num_steps = 8;
  req.graph.edges_per_vertex = 4;
  req.transport = net::TransportKind::kSocket;

  for (const api::Backend b : backends) {
    if (b == api::Backend::kChaos) continue;  // threads-only backend
    req.backend = b;

    const serve::PreparedJob prepared = serve::prepare_job(req, kProcNodes);
    const api::BackendOptions& opts = prepared.base_options;
    const api::KernelResult tr = api::run_kernel(b, prepared.spec, opts);

    proc::LaunchOptions lopt;
    lopt.nprocs = kProcNodes;
    const proc::LaunchResult lr = proc::run_job(req, lopt);

    add_row(table, "proc spmv 4096x8 threads", b, 0, tr.checksum, opts, tr);
    if (!lr.ok) {
      // No processes row: the exact gate fails loudly on the missing row.
      std::fprintf(stderr, "proc row %s: %s\n", api::backend_name(b),
                   lr.error.c_str());
    } else {
      const bool parity = lr.result.checksum == tr.checksum &&
                          lr.result.messages == tr.messages &&
                          lr.result.bytes == tr.bytes;
      char note[96];
      std::snprintf(note, sizeof(note), "parity vs threads %s",
                    parity ? "OK" : "MISMATCH");
      harness::Row row;
      row.group = "proc spmv 4096x8 processes";
      row.variant = api::backend_name(b);
      row.seconds = lr.result.seconds;
      row.messages = lr.result.messages;
      row.megabytes = lr.result.megabytes;
      row.overhead_seconds = lr.result.overhead_seconds;
      row.diff_create_seconds = lr.result.diff_create_seconds;
      row.diff_apply_seconds = lr.result.diff_apply_seconds;
      row.note = note;
      row.refs = lr.result.refs;
      row.max_row = lr.result.max_row;
      row.barriers_per_step = lr.result.barriers_per_step;
      row.rebuilds = lr.result.rebuilds;
      row.tmk = lr.result.tmk;
      table.add(row);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  if (opt.flag("help")) {
    std::printf(
        "bench_api: the unified-API benchmark sweep.  A full run rewrites\n"
        "the committed baseline (BENCH_api.json; BENCH_api_socket.json on\n"
        "the socket fabric) — see docs/benchmarks.md for every column and\n"
        "the regeneration procedure.\n"
        "\n"
        "  --transport=inproc|socket\n"
        "      message fabric (default inproc; the socket run writes\n"
        "      BENCH_api_socket.json so the trajectories never collide)\n"
        "  --backend=chaos|tmk-base|tmk-optimized|hybrid\n"
        "      restrict the backend sweep; comma-separate or repeat the\n"
        "      flag for a subset (default the paper's three; hybrid joins\n"
        "      the sweep only when named — its dedicated \"hybrid ...\"\n"
        "      groups run regardless)\n"
        "  --schedule=serial|tournament\n"
        "      Tmk reduction-round engine for binaries that honor it; the\n"
        "      bench runs its own serial-vs-tournament A/B groups instead\n"
        "  --mode=threads|processes\n"
        "      deployment mode for binaries that honor it; the bench runs\n"
        "      its own threads-vs-processes parity groups instead\n"
        "  --coherence=static|adaptive\n"
        "      page-coherence policy for binaries that honor it; the bench\n"
        "      runs its own static-vs-adaptive A/B (the \"coherence ...\n"
        "      adaptive\" groups) instead\n"
        "  --group=<filter>[,<filter>...]\n"
        "      run only the groups whose name contains one of the filters,\n"
        "      e.g. --group=proc, --group=fault,serve, --group=coherence\n"
        "      (the adaptive-coherence A/B groups), or --group=hybrid\n"
        "      (the mixed-assignment hybrid-backend groups).  A filtered\n"
        "      run never rewrites the bench JSON: the committed baseline\n"
        "      holds every group, and a subset would fail the exact gate\n"
        "      on the missing rows\n"
        "  --help\n"
        "      this text\n");
    return 0;
  }
  const net::TransportKind transport = opt.transport;
  const auto base = [&](api::BackendOptions o) {
    o.transport = transport;
    return o;
  };
  std::printf(
      "sdsm::api backend sweep: 6 workloads (+ the nbf padded-vs-CSR "
      "comparison, the moldyn/pagerank/bfs/cc tournament-schedule A/B, the "
      "moldyn/pagerank adaptive-coherence A/B, "
      "the moldyn/pagerank hybrid-backend rows, "
      "and the serving-layer one-shot/miss/hit + throughput groups) "
      "x 3 backends, %u nodes, %s transport.\n\n",
      bench::kNodes, net::transport_name(transport));
  harness::Table table("Unified API - all workloads x all backends");

  if (any_group_enabled(opt, {"moldyn 4096x24", "moldyn 4096x24 tournament",
                              "coherence moldyn 4096x24 adaptive",
                              "coherence moldyn 4096x24 adaptive tournament",
                              "hybrid moldyn 4096x24"})) {
    moldyn::Params p;
    p.num_molecules = 4096;
    p.num_steps = 24;
    p.update_interval = 12;
    p.nprocs = bench::kNodes;
    const auto sys = moldyn::make_system(p);
    const auto seq = moldyn::run_seq(p, sys);
    const api::BackendOptions opts = base(moldyn::default_options());
    add_rows(table, opt.backends, "moldyn 4096x24", seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return moldyn::run(b, p, sys, opts); });
    add_tournament_rows(table, opt.backends, "moldyn 4096x24 tournament", seq.seconds,
                        seq.checksum, opts,
                        [&](api::Backend b, const api::BackendOptions& o) {
                          return moldyn::run(b, p, sys, o);
                        });
    // The adaptive-coherence A/B: identical workload, heat-driven
    // replicate/migrate/ghost on.  Checksums must match the static rows
    // bit-exactly; the win shows up in the message column.
    api::BackendOptions aopts = opts;
    aopts.coherence = coherence::CoherencePolicy::kAdaptive;
    add_rows(table, opt.backends, "coherence moldyn 4096x24 adaptive",
             seq.seconds, seq.checksum, aopts,
             [&](api::Backend b) { return moldyn::run(b, p, sys, aopts); });
    add_tournament_rows(table, opt.backends,
                        "coherence moldyn 4096x24 adaptive tournament",
                        seq.seconds, seq.checksum, aopts,
                        [&](api::Backend b, const api::BackendOptions& o) {
                          return moldyn::run(b, p, sys, o);
                        });
    // The mixed-assignment backend: indirection reads via inspector-built
    // gather schedules, the state partition under the page protocol.  Not
    // part of the three-way sweep (kAllBackends), so the row is added
    // unconditionally here.  The checksum must match every single-strategy
    // row of this workload bit-exactly; the message column — hybrid vs
    // the best single backend above — is the point of the row
    // (exact-gated).
    add_rows(table, {api::Backend::kHybrid}, "hybrid moldyn 4096x24",
             seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return moldyn::run(b, p, sys, opts); });
  }
  if (group_enabled(opt, "nbf 16384x32")) {
    nbf::Params p;
    p.molecules = 16384;
    p.partners = 32;
    p.timed_steps = 10;
    p.nprocs = bench::kNodes;
    const auto seq = nbf::run_seq(p);
    const api::BackendOptions opts = base(nbf::default_options());
    add_rows(table, opt.backends, "nbf 16384x32", seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return nbf::run(b, p, opts); });
  }
  if (any_group_enabled(opt, {"nbf-var 16384x8..32",
                              "nbf-var 16384x8..32 padded"})) {
    // The variable-arity comparison: per-molecule partner counts in
    // [8, 32], one-time list costs counted (warmup_steps = 0).
    nbf::Params p;
    p.molecules = 16384;
    p.partners = 32;
    p.min_partners = 8;
    p.timed_steps = 10;
    p.warmup_steps = 0;
    p.nprocs = bench::kNodes;
    const auto seq = nbf::run_seq(p);
    const api::BackendOptions opts = base(nbf::default_options());
    add_rows(table, opt.backends, "nbf-var 16384x8..32", seq.seconds, seq.checksum, opts,
             [&](api::Backend b) {
               return api::run_kernel(b, nbf::make_kernel(p), opts);
             });
    add_rows(table, opt.backends, "nbf-var 16384x8..32 padded", seq.seconds, seq.checksum,
             opts, [&](api::Backend b) {
               return api::run_kernel(b, nbf::make_padded_kernel(p), opts);
             });
  }
  if (group_enabled(opt, "spmv 16384x8")) {
    spmv::Params p;
    p.num_rows = 16384;
    p.edges_per_vertex = 8;
    p.num_steps = 16;
    p.nprocs = bench::kNodes;
    const auto seq = spmv::run_seq(p);
    const api::BackendOptions opts = base(spmv::default_options());
    add_rows(table, opt.backends, "spmv 16384x8", seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return spmv::run(b, p, opts); });
  }
  if (any_group_enabled(opt, {"pagerank 16384x8", "pagerank 16384x8 tournament",
                              "coherence pagerank 16384x8 adaptive",
                              "coherence pagerank 16384x8 adaptive tournament",
                              "hybrid pagerank 16384x8"})) {
    pagerank::Params p;
    p.num_vertices = 16384;
    p.edges_per_vertex = 8;
    p.num_steps = 16;
    p.nprocs = bench::kNodes;
    const auto seq = pagerank::run_seq(p);
    const api::BackendOptions opts = base(pagerank::default_options());
    add_rows(table, opt.backends, "pagerank 16384x8", seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return pagerank::run(b, p, opts); });
    add_tournament_rows(table, opt.backends, "pagerank 16384x8 tournament", seq.seconds,
                        seq.checksum, opts,
                        [&](api::Backend b, const api::BackendOptions& o) {
                          return pagerank::run(b, p, o);
                        });
    api::BackendOptions aopts = opts;
    aopts.coherence = coherence::CoherencePolicy::kAdaptive;
    add_rows(table, opt.backends, "coherence pagerank 16384x8 adaptive",
             seq.seconds, seq.checksum, aopts,
             [&](api::Backend b) { return pagerank::run(b, p, aopts); });
    add_tournament_rows(table, opt.backends,
                        "coherence pagerank 16384x8 adaptive tournament",
                        seq.seconds, seq.checksum, aopts,
                        [&](api::Backend b, const api::BackendOptions& o) {
                          return pagerank::run(b, p, o);
                        });
    // Mixed assignment on the power-law graph (see the moldyn hybrid
    // group): bit-exact checksum against the sweep rows, exact-gated
    // traffic.
    add_rows(table, {api::Backend::kHybrid}, "hybrid pagerank 16384x8",
             seq.seconds, seq.checksum, opts,
             [&](api::Backend b) { return pagerank::run(b, p, opts); });
  }

  if (any_group_enabled(opt, {"bfs 16384x4", "bfs 16384x4 tournament",
                              "cc 16384x4", "cc 16384x4 tournament"})) {
    // The frontier-driven graph rows: the item list changes EVERY step
    // (rebuilds == steps run, visible in the rebuilds column), so rebuild
    // cost — per-step allgathers on CHAOS, per-step Read_indices and
    // touch-matrix re-brackets on the DSM — dominates the trajectory
    // instead of reduction cost.  The isolated tail (owned entirely by
    // the last node) keeps one frontier permanently empty.
    graph::Params p;
    p.num_vertices = 16384;
    p.chords_per_vertex = 4;
    p.isolated = 2048;  // = 16384 / 8 nodes: node 7 owns exactly the tail
    p.num_steps = 24;
    p.nprocs = bench::kNodes;
    if (any_group_enabled(opt, {"bfs 16384x4", "bfs 16384x4 tournament"})) {
      const auto seq = bfs::run_seq(p);
      const api::BackendOptions opts = base(bfs::default_options());
      add_rows(table, opt.backends, "bfs 16384x4", seq.seconds, seq.checksum, opts,
               [&](api::Backend b) { return bfs::run(b, p, opts); });
      add_tournament_rows(table, opt.backends, "bfs 16384x4 tournament", seq.seconds,
                          seq.checksum, opts,
                          [&](api::Backend b, const api::BackendOptions& o) {
                            return bfs::run(b, p, o);
                          });
    }
    if (any_group_enabled(opt, {"cc 16384x4", "cc 16384x4 tournament"})) {
      const auto seq = cc::run_seq(p);
      const api::BackendOptions opts = base(cc::default_options());
      add_rows(table, opt.backends, "cc 16384x4", seq.seconds, seq.checksum, opts,
               [&](api::Backend b) { return cc::run(b, p, opts); });
      add_tournament_rows(table, opt.backends, "cc 16384x4 tournament", seq.seconds,
                          seq.checksum, opts,
                          [&](api::Backend b, const api::BackendOptions& o) {
                            return cc::run(b, p, o);
                          });
    }
  }

  if (any_group_enabled(opt, {"serve moldyn 2048x12 one-shot",
                              "serve moldyn 2048x12 miss",
                              "serve moldyn 2048x12 hit",
                              "serve throughput mixed stream"})) {
    add_serve_groups(table, opt.backends, transport);
  }
  if (group_enabled(opt, "fault latency 256 pages")) {
    add_fault_latency_rows(table);
  }
  if (any_group_enabled(opt, {"proc spmv 4096x8 threads",
                              "proc spmv 4096x8 processes"})) {
    add_proc_rows(table, opt.backends);
  }

  table.print(std::cout);
  if (opt.value("group")) {
    std::printf("--group filter active: bench JSON left untouched "
                "(a full run re-baselines)\n");
    return 0;
  }
  const char* json = transport == net::TransportKind::kSocket
                         ? "BENCH_api_socket.json"
                         : "BENCH_api.json";
  if (table.write_json(json)) {
    std::printf("wrote %s\n", json);
  } else {
    std::printf("could not write %s\n", json);
  }
  return 0;
}
