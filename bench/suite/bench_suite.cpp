// bench_suite: one workload of the repo benchmark per process.
//
//   bench_suite --workload=<name> --seed=<n> --seconds=<s> --out=<file>
//               [--trace=<file>] [--smoke] [--work-dir=<dir>]
//
// Workloads (README.md says why each exists): moldyn-opt, moldyn-adaptive,
// pagerank-base, bfs-proc, serve-socket.  Every one runs 4 nodes, one job at
// a time (closed loop): one untimed warm-up job, then jobs until --seconds
// have passed and the request mix is complete (--smoke: 2 jobs, or one
// round of the serve mix).  Jobs go through the entry points
// users call — api::make_runtime(...)->run for the threaded batch
// workloads, proc::run_job for bfs-proc, a serve::Client socket connection
// for serve-socket — and every job is checked: its checksum against the
// single-threaded reference, its exact counters (messages, bytes, steps,
// rebuilds) against the first job of the same request.
//
// The raw samples go to --out as one JSON object; run_suite.py turns them
// into the metrics BENCHMARK.json names.  The binary computes no
// statistics itself.
//
// --trace=<file> runs each job untraced, then traced.  A traced job
// times the calls into each layer from outside the program: it wraps the
// KernelSpec callbacks (apps), hands a benchmark-owned core::DsmRuntime to
// TmkBackend::run_on and reads its DsmStats/NetStats deltas (api, core,
// coherence, net), or reads JobStats (serve, chaos) and the proc launch
// result.  Two probes run once per traced process: first-touch fault
// latency through the public DsmRuntime API (vm) and a ping-pong through
// net::make_transport (net).  The spans are written as Chrome trace-event
// JSON at exit.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/api/runtime.hpp"
#include "src/api/tmk_backend.hpp"
#include "src/apps/graph/bfs.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/dsm.hpp"
#include "src/harness/options.hpp"
#include "src/net/transport.hpp"
#include "src/proc/proc.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace {

using namespace sdsm;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kNodes = 4;
/// Inputs per batch workload run, drawn from the seed; jobs cycle through
/// them.  One input alone makes a run's numbers depend on that input's
/// structure: moldyn's RCB cut order alone moves its bytes and memory by
/// 20% and 10% from seed to seed.
constexpr std::uint64_t kInputs = 8;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// The input seed of an application run: a SplitMix64 spread of the
/// benchmark seed, so neighbouring seeds give unrelated inputs.  Never 0
/// (serve::GraphSpec reads 0 as "use the default").
std::uint64_t app_seed(std::uint64_t seed, std::uint64_t k = 0) {
  return SplitMix64(seed * 64 + k).next() | 1;
}

// --- JSON ------------------------------------------------------------------

std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Named numbers, emitted as one JSON object in insertion order.
struct Fields {
  std::vector<std::pair<std::string, double>> v;

  void set(std::string name, double value) {
    v.emplace_back(std::move(name), value);
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += json_str(v[i].first) + ":" + json_num(v[i].second);
    }
    return out + "}";
  }
};

std::string json_array(const std::vector<double>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ",";
    out += json_num(xs[i]);
  }
  return out + "]";
}

// --- Spans -----------------------------------------------------------------

/// In-memory span store, written as Chrome trace-event JSON at exit.  Each
/// span names its parent in args; tid 0 is the benchmark's main thread,
/// tid k+1 node k's compute thread.
class Tracer {
 public:
  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  void span(const char* name, std::uint32_t tid, Clock::time_point t0,
            Clock::time_point t1, std::uint64_t id, std::uint64_t parent,
            std::string args = {}) {
    std::lock_guard<std::mutex> g(mu_);
    spans_.push_back({name, tid, t0, t1, id, parent, std::move(args)});
  }

  bool write(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    std::lock_guard<std::mutex> g(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i > 0 ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << json_num(seconds_between(origin_, s.t0) * 1e6)
        << ",\"dur\":" << json_num(seconds_between(s.t0, s.t1) * 1e6)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
      if (!s.args.empty()) f << "," << s.args;
      f << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  struct Span {
    std::string name;
    std::uint32_t tid;
    Clock::time_point t0, t1;
    std::uint64_t id, parent;
    std::string args;
  };
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- Jobs and checks -------------------------------------------------------

/// One job's raw outcome.  `error` non-empty marks the job failed.
struct Job {
  int request = 0;     ///< which of the workload's requests ran
  double wall_s = 0;   ///< client-observed, whole job
  double timed_s = 0;  ///< the program's timed section
  std::int64_t steps = 0;
  std::string error;
  Fields layer;  ///< traced jobs only: per-layer values
};

/// Counters that are deterministic per request: every job of one request
/// must repeat them exactly.  The one exception is the byte count of a
/// CHAOS job: the message driver truncates a running megabyte total at the
/// start and end of the timed section (msg_driver.hpp), so each job's count
/// is within 1 B of the truth and two jobs may differ by 2 B.
struct Exact {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::int64_t steps = 0;
  std::int64_t rebuilds = 0;

  bool repeats(const Exact& o) const {
    const std::uint64_t db = bytes > o.bytes ? bytes - o.bytes : o.bytes - bytes;
    return messages == o.messages && db <= 2 && steps == o.steps &&
           rebuilds == o.rebuilds;
  }
};

class ExactCheck {
 public:
  /// Empty when `e` repeats the first job seen for `key`.
  std::string check(int key, const Exact& e) {
    const auto [it, fresh] = seen_.try_emplace(key, e);
    if (fresh || it->second.repeats(e)) return "";
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "exact counters changed on request %d: messages %llu->%llu "
                  "bytes %llu->%llu steps %lld->%lld",
                  key, static_cast<unsigned long long>(it->second.messages),
                  static_cast<unsigned long long>(e.messages),
                  static_cast<unsigned long long>(it->second.bytes),
                  static_cast<unsigned long long>(e.bytes),
                  static_cast<long long>(it->second.steps),
                  static_cast<long long>(e.steps));
    return buf;
  }

  /// Per-job traffic averaged over the requests seen, each weighted once
  /// (a run cycles through its requests, so each runs equally often).
  std::pair<double, double> traffic_per_job() const {
    double msgs = 0, bytes = 0;
    for (const auto& [key, e] : seen_) {
      msgs += static_cast<double>(e.messages);
      bytes += static_cast<double>(e.bytes);
    }
    const double n = seen_.empty() ? 1.0 : static_cast<double>(seen_.size());
    return {msgs / n, bytes / n};
  }

 private:
  std::map<int, Exact> seen_;
};

std::string checksum_error(double reference, double got) {
  if (apps::checksum_close(reference, got)) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf), "checksum %.17g, reference %.17g", got,
                reference);
  return buf;
}

double rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// The counter deltas a traced job span carries in its args.
std::string counter_args(std::uint64_t messages, std::uint64_t bytes,
                         std::int64_t steps) {
  return "\"messages\":" + std::to_string(messages) +
         ",\"bytes\":" + std::to_string(bytes) +
         ",\"steps\":" + std::to_string(steps);
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs the loop's k-th job; k picks its request.  `tracer` non-null
  /// makes it a traced job.
  virtual Job run(std::size_t k, Tracer* tracer) = 0;
  /// One untimed job before the loop: first-touch costs land here, and it
  /// fixes the exact counters every later job must repeat (empty = passed).
  virtual std::string warm_up() { return run(0, nullptr).error; }
  /// Once per process after the warm-up job: cross-checks that need more
  /// than one job (empty = passed).
  virtual std::string validate_once() { return ""; }
  /// The loop ends only after a whole number of these jobs, so every run
  /// sees the same request mix.
  virtual std::size_t jobs_per_round() const { return 1; }
  /// The percentile reported as job_s.tail: the highest with at least ten
  /// of a run's jobs beyond it (40-100 jobs per batch run).
  virtual int tail_percentile() const { return 75; }
  /// Set-up time samples not already covered by per-job setup.
  virtual std::vector<double> setup_samples() const { return {}; }
  virtual double peak_rss_mb() const { return rss_mb(RUSAGE_SELF); }
  /// Run-level per-layer values.
  virtual Fields layer_values() const { return {}; }
  virtual net::TransportKind fabric() const {
    return net::TransportKind::kInProc;
  }
  std::pair<double, double> traffic_per_job() const {
    return exact_.traffic_per_job();
  }

 protected:
  ExactCheck exact_;
};

// --- apps layer: wrapped callbacks -----------------------------------------

struct AppTimes {
  std::atomic<std::uint64_t> compute_ns{0};
  std::atomic<std::uint64_t> update_ns{0};
  std::atomic<std::uint64_t> build_ns{0};
};

/// Node thread id for spans of callbacks that receive no node handle
/// (update); set by the compute/build wrappers on the same thread.
thread_local std::uint32_t t_node_tid = 0;

void note_call(std::atomic<std::uint64_t>& sum, Tracer* spans,
               const char* name, Clock::time_point t0, std::uint64_t parent) {
  const Clock::time_point t1 = Clock::now();
  sum.fetch_add(static_cast<std::uint64_t>(
                    std::chrono::nanoseconds(t1 - t0).count()),
                std::memory_order_relaxed);
  if (spans != nullptr) {
    spans->span(name, t_node_tid, t0, t1, spans->new_id(), parent);
  }
}

/// A copy of `spec` whose callbacks time themselves into `times` (and, when
/// `spans` is set, record one span per call under `parent`).  The spans
/// include any page faults the callback takes.
template <typename T>
api::KernelSpec<T> wrap_callbacks(const api::KernelSpec<T>& spec,
                                  AppTimes& times, Tracer* spans,
                                  std::uint64_t parent) {
  api::KernelSpec<T> w = spec;
  w.build_items = [inner = spec.build_items, &times, spans, parent](
                      api::IrregularNode& node, std::span<const T> all_x) {
    t_node_tid = node.id() + 1;
    const Clock::time_point t0 = Clock::now();
    api::WorkItems items = inner(node, all_x);
    note_call(times.build_ns, spans, "apps.build_items", t0, parent);
    return items;
  };
  w.compute = [inner = spec.compute, &times, spans, parent](
                  api::IrregularNode& node, const api::KernelCtx<T>& ctx) {
    t_node_tid = node.id() + 1;
    const Clock::time_point t0 = Clock::now();
    inner(node, ctx);
    note_call(times.compute_ns, spans, "apps.compute", t0, parent);
  };
  if (spec.update) {
    w.update = [inner = spec.update, &times, spans, parent](
                   std::span<T> x, std::span<const T> f) {
      const Clock::time_point t0 = Clock::now();
      inner(x, f);
      note_call(times.update_ns, spans, "apps.update", t0, parent);
    };
  }
  return w;
}

// --- Threaded batch workloads (moldyn-opt, moldyn-adaptive, pagerank-base) -

/// One input of a batch workload: the kernel and its single-threaded
/// reference.
template <typename T>
struct Input {
  api::KernelSpec<T> spec;
  apps::AppRunResult seq;
};

template <typename T>
class ThreadsWorkload final : public Workload {
 public:
  ThreadsWorkload(std::vector<Input<T>> inputs, api::Backend backend,
                  api::BackendOptions opts)
      : inputs_(std::move(inputs)), backend_(backend), opts_(opts) {}

  Job run(std::size_t k, Tracer* tracer) override {
    const int in = static_cast<int>(k % inputs_.size());
    return tracer != nullptr ? run_traced(in, *tracer) : run_plain(in);
  }

  Fields layer_values() const override {
    double seq_ms = 0;
    for (const Input<T>& in : inputs_) {
      seq_ms += in.seq.seconds * 1e3 / in.spec.num_steps;
    }
    Fields f;
    f.set("apps.seq_step_ms", seq_ms / static_cast<double>(inputs_.size()));
    return f;
  }

 private:
  Job run_plain(int in) {
    Job j;
    const Timer wall;
    const api::KernelResult r =
        api::make_runtime(backend_, kNodes, opts_)->run(inputs_[in].spec);
    j.wall_s = wall.elapsed_s();
    finish(j, r, in);
    return j;
  }

  /// The same job with the runtime constructed, run and destroyed by the
  /// benchmark, so each layer's share is timed at its boundary.
  Job run_traced(int in, Tracer& tracer) {
    Job j;
    const std::uint64_t job_id = tracer.new_id();
    const std::uint64_t api_id = tracer.new_id();
    // Per-node callback spans only for the first traced job: enough to see
    // one job's step structure without a trace file that grows per job.
    Tracer* node_spans = traced_jobs_++ == 0 ? &tracer : nullptr;
    AppTimes app;
    const api::KernelSpec<T> wrapped =
        wrap_callbacks(inputs_[in].spec, app, node_spans, api_id);

    const Clock::time_point t_job = Clock::now();
    auto rt = std::make_unique<core::DsmRuntime>(
        api::TmkBackend::dsm_config(kNodes, opts_));
    const Clock::time_point t_init = Clock::now();
    const DsmStats::Snapshot s0 = rt->stats().snapshot();
    const net::NetStats::Snapshot n0 = rt->network().stats().snapshot();
    const api::KernelResult r =
        api::TmkBackend(kNodes, backend_, opts_).run_on(*rt, wrapped, nullptr);
    const Clock::time_point t_run = Clock::now();
    const DsmStats::Snapshot ds = rt->stats().snapshot() - s0;
    const net::NetStats::Snapshot dn = rt->network().stats().snapshot() - n0;
    rt.reset();
    const Clock::time_point t_end = Clock::now();

    tracer.span("core.init", 0, t_job, t_init, tracer.new_id(), job_id);
    tracer.span("api.run", 0, t_init, t_run, api_id, job_id);
    tracer.span("core.teardown", 0, t_run, t_end, tracer.new_id(), job_id);
    tracer.span("job", 0, t_job, t_end, job_id, 0,
                counter_args(r.messages, r.bytes, r.steps_run) +
                    ",\"read_faults\":" + std::to_string(ds.read_faults) +
                    ",\"write_faults\":" + std::to_string(ds.write_faults) +
                    ",\"barriers\":" + std::to_string(ds.barriers));

    j.wall_s = seconds_between(t_job, t_end);
    finish(j, r, in);

    Fields& L = j.layer;
    L.set("wall_s", j.wall_s);
    const double compute = ms(app.compute_ns), update = ms(app.update_ns),
                 build = ms(app.build_ns);
    L.set("apps.compute_ms", compute);
    L.set("apps.update_ms", update);
    L.set("apps.build_items_ms", build);
    L.set("api.self_ms", seconds_between(t_init, t_run) * 1e3 * kNodes -
                             (compute + update + build));
    L.set("api.overhead_ms", r.overhead_seconds * 1e3);
    L.set("api.rebuilds", static_cast<double>(r.rebuilds));
    L.set("api.steps_run", static_cast<double>(r.steps_run));
    L.set("api.barriers_per_step", r.barriers_per_step);
    L.set("core.init_ms", seconds_between(t_job, t_init) * 1e3);
    L.set("core.teardown_ms", seconds_between(t_run, t_end) * 1e3);
    L.set("core.barrier_ms", ms(ds.t_barrier_ns));
    L.set("core.fetch_ms", ms(ds.t_fetch_ns));
    L.set("core.fetch_wait_ms", ms(ds.t_wait_ns));
    L.set("core.close_ms", ms(ds.t_close_ns));
    L.set("core.metas_ms", ms(ds.t_metas_ns));
    L.set("core.scan_ms", ms(ds.scan_ns));
    L.set("core.diff_create_ms", ms(ds.diff_create_ns));
    L.set("core.diff_apply_ms", ms(ds.diff_apply_ns));
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"core.read_faults", ds.read_faults},
        {"core.write_faults", ds.write_faults},
        {"core.twins", ds.twins_created},
        {"core.diffs_created", ds.diffs_created},
        {"core.diffs_applied", ds.diffs_applied},
        {"core.diff_bytes", ds.diff_bytes},
        {"core.whole_pages", ds.whole_pages},
        {"core.pages_invalidated", ds.pages_invalidated},
        {"core.pages_prefetched", ds.pages_prefetched},
        {"core.validate_calls", ds.validate_calls},
        {"core.validate_recomputes", ds.validate_recomputes},
        {"core.mprotect_calls", ds.mprotect_calls},
        {"core.barriers", ds.barriers},
        {"coherence.replications", ds.replications},
        {"coherence.migrations", ds.migrations},
        {"coherence.ghost_promotions", ds.ghost_promotions},
    };
    for (const auto& [name, value] : counts) {
      L.set(name, static_cast<double>(value));
    }
    set_net_per_step(L, r);
    double max_msgs = 0, sum_msgs = 0;
    for (const net::Traffic& t : dn.per_node) {
      max_msgs = std::max(max_msgs, static_cast<double>(t.messages));
      sum_msgs += static_cast<double>(t.messages);
    }
    if (sum_msgs > 0) {
      L.set("net.node_msgs_max_over_mean",
            max_msgs * static_cast<double>(dn.per_node.size()) / sum_msgs);
    }
    return j;
  }

  static void set_net_per_step(Fields& L, const api::KernelResult& r) {
    if (r.steps_run <= 0) return;
    const auto steps = static_cast<double>(r.steps_run);
    L.set("net.messages_per_step", static_cast<double>(r.messages) / steps);
    L.set("net.kb_per_step", static_cast<double>(r.bytes) / 1e3 / steps);
  }

  void finish(Job& j, const api::KernelResult& r, int in) {
    j.request = in;
    j.timed_s = r.seconds;
    j.steps = r.steps_run;
    j.error = checksum_error(inputs_[in].seq.checksum, r.checksum);
    if (j.error.empty()) {
      j.error = exact_.check(in, {r.messages, r.bytes, r.steps_run, r.rebuilds});
    }
  }

  const std::vector<Input<T>> inputs_;
  const api::Backend backend_;
  const api::BackendOptions opts_;
  int traced_jobs_ = 0;
};

std::unique_ptr<Workload> make_moldyn(std::uint64_t seed,
                                      coherence::CoherencePolicy coherence) {
  std::vector<Input<double3>> inputs;
  for (std::uint64_t k = 0; k < kInputs; ++k) {
    // 4096 molecules = 16^3 lattice sites: each node's 1024 molecules fill
    // exactly 6 pages, so no page is shared across a partition boundary
    // and the message count is the same for every input.  (Non-cube counts
    // such as 3072 or 4335 split pages between nodes and make it vary.)
    apps::moldyn::Params p;
    p.num_molecules = 4096;
    p.num_steps = 20;
    p.update_interval = 10;
    p.seed = app_seed(seed, k);
    p.nprocs = kNodes;
    const apps::moldyn::System sys = apps::moldyn::make_system(p);
    inputs.push_back(
        {apps::moldyn::make_kernel(p, sys), apps::moldyn::run_seq(p, sys)});
  }
  api::BackendOptions opts = apps::moldyn::default_options();
  opts.coherence = coherence;
  return std::make_unique<ThreadsWorkload<double3>>(
      std::move(inputs), api::Backend::kTmkOptimized, opts);
}

std::unique_ptr<Workload> make_pagerank(std::uint64_t seed) {
  std::vector<Input<double>> inputs;
  for (std::uint64_t k = 0; k < kInputs; ++k) {
    apps::pagerank::Params p;
    p.num_vertices = 16384;
    p.edges_per_vertex = 8;
    p.num_steps = 10;
    p.seed = app_seed(seed, k);
    p.nprocs = kNodes;
    inputs.push_back(
        {apps::pagerank::make_kernel(p), apps::pagerank::run_seq(p)});
  }
  return std::make_unique<ThreadsWorkload<double>>(
      std::move(inputs), api::Backend::kTmkBase,
      apps::pagerank::default_options());
}

// --- bfs-proc: one worker process per node on the TCP mesh -----------------

class ProcWorkload final : public Workload {
 public:
  ProcWorkload(std::uint64_t seed, const std::string& work_dir) {
    for (std::uint64_t k = 0; k < kInputs; ++k) {
      serve::JobRequest req;
      req.kernel = "bfs";
      req.graph.num_elements = 16384;
      req.graph.chords_per_vertex = 4;
      req.graph.seed = app_seed(seed, k);
      req.backend = api::Backend::kTmkOptimized;
      req.schedule = api::RoundSchedule::kTournament;
      req.cross_step_prefetch = true;
      req.transport = net::TransportKind::kSocket;

      // The same parameters serve::prepare_job resolves from the request.
      apps::graph::Params p;
      p.num_vertices = req.graph.num_elements;
      p.chords_per_vertex = req.graph.chords_per_vertex;
      p.seed = req.graph.seed;
      p.nprocs = kNodes;
      const apps::AppRunResult seq = apps::bfs::run_seq(p);
      std::int64_t levels = 0;
      apps::bfs::seq_distances(p, &levels);
      seq_step_ms_ += seq.seconds * 1e3 /
                      static_cast<double>(std::max<std::int64_t>(levels, 1)) /
                      static_cast<double>(kInputs);
      requests_.push_back(req);
      references_.push_back(seq.checksum);
    }
    launch_.nprocs = kNodes;
    launch_.log_dir = work_dir + "/proc-logs";
    std::filesystem::create_directories(launch_.log_dir);
  }

  Job run(std::size_t k, Tracer* tracer) override {
    const int in = static_cast<int>(k % requests_.size());
    Job j;
    j.request = in;
    const Clock::time_point t0 = Clock::now();
    const proc::LaunchResult lr = proc::run_job(requests_[in], launch_);
    const Clock::time_point t1 = Clock::now();
    j.wall_s = seconds_between(t0, t1);
    if (!lr.ok) {
      j.error = "proc::run_job: " + lr.error;
      return j;
    }
    const api::KernelResult& r = lr.result;
    j.timed_s = r.seconds;
    j.steps = r.steps_run;
    j.error = checksum_error(references_[in], r.checksum);
    if (j.error.empty()) {
      j.error = exact_.check(in, {r.messages, r.bytes, r.steps_run, r.rebuilds});
    }
    if (in == 0 && !first_) first_ = r;
    if (tracer != nullptr) {
      const std::uint64_t job_id = tracer->new_id();
      tracer->span("proc.run_job", 0, t0, t1, tracer->new_id(), job_id);
      tracer->span("job", 0, t0, t1, job_id, 0,
                   counter_args(r.messages, r.bytes, r.steps_run));
      layer_from_result(j, r);
    }
    return j;
  }

  /// The threaded socket run of the first request must match its process
  /// run exactly: checksum, messages and bytes.
  std::string validate_once() override {
    if (!first_) return "bfs-proc: no process run to compare with";
    const serve::JobRequest& req = requests_[0];
    serve::PreparedJob prepared = serve::prepare_job(req, kNodes);
    api::BackendOptions opts = prepared.base_options;
    opts.transport = net::TransportKind::kSocket;
    opts.round_schedule = req.schedule;
    opts.cross_step_prefetch = req.cross_step_prefetch;
    const api::KernelResult t =
        api::make_runtime(req.backend, kNodes, opts)->run(prepared.spec);
    if (t.checksum == first_->checksum && t.messages == first_->messages &&
        t.bytes == first_->bytes) {
      return "";
    }
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "bfs-proc parity: threads %.17g/%llu msgs/%llu B vs "
                  "processes %.17g/%llu msgs/%llu B",
                  t.checksum, static_cast<unsigned long long>(t.messages),
                  static_cast<unsigned long long>(t.bytes), first_->checksum,
                  static_cast<unsigned long long>(first_->messages),
                  static_cast<unsigned long long>(first_->bytes));
    return buf;
  }

  double peak_rss_mb() const override { return rss_mb(RUSAGE_CHILDREN); }

  Fields layer_values() const override {
    Fields f;
    f.set("apps.seq_step_ms", seq_step_ms_);
    f.set("proc.worker_rss_mb", rss_mb(RUSAGE_CHILDREN));
    return f;
  }

  net::TransportKind fabric() const override {
    return net::TransportKind::kSocket;
  }

 private:
  /// Process mode reports only the KernelResult subset of the counters;
  /// the per-node and timer breakdowns stay inside the workers.
  static void layer_from_result(Job& j, const api::KernelResult& r) {
    Fields& L = j.layer;
    L.set("wall_s", j.wall_s);
    L.set("api.overhead_ms", r.overhead_seconds * 1e3);
    L.set("api.rebuilds", static_cast<double>(r.rebuilds));
    L.set("api.steps_run", static_cast<double>(r.steps_run));
    L.set("api.barriers_per_step", r.barriers_per_step);
    // KernelResult carries per-node means; the threaded rows sum nodes.
    L.set("core.diff_create_ms", r.diff_create_seconds * 1e3 * kNodes);
    L.set("core.diff_apply_ms", r.diff_apply_seconds * 1e3 * kNodes);
    const std::pair<const char*, std::uint64_t> counts[] = {
        {"core.read_faults", r.tmk.read_faults},
        {"core.twins", r.tmk.twins_created},
        {"core.diff_bytes", r.tmk.diff_bytes},
        {"core.whole_pages", r.tmk.whole_pages},
        {"core.pages_prefetched", r.tmk.pages_prefetched},
        {"core.validate_calls", r.tmk.validate_calls},
        {"core.validate_recomputes", r.tmk.validate_recomputes},
        {"coherence.replications", r.tmk.replications},
        {"coherence.migrations", r.tmk.migrations},
        {"coherence.ghost_promotions", r.tmk.ghost_promotions},
    };
    for (const auto& [name, value] : counts) {
      L.set(name, static_cast<double>(value));
    }
    if (r.steps_run > 0) {
      const auto steps = static_cast<double>(r.steps_run);
      L.set("net.messages_per_step", static_cast<double>(r.messages) / steps);
      L.set("net.kb_per_step", static_cast<double>(r.bytes) / 1e3 / steps);
    }
    L.set("proc.launch_ms", (j.wall_s - r.seconds) * 1e3);
  }

  std::vector<serve::JobRequest> requests_;
  std::vector<double> references_;
  double seq_step_ms_ = 0;
  proc::LaunchOptions launch_;
  std::optional<api::KernelResult> first_;
};

// --- serve-socket: one KernelServer, one closed-loop socket client ---------

/// Single-threaded reference checksum of a serve request, with the
/// parameters serve::prepare_job resolves from its GraphSpec.
double serve_reference(const serve::JobRequest& req) {
  const serve::GraphSpec& g = req.graph;
  if (req.kernel == "pagerank") {
    apps::pagerank::Params p;
    p.nprocs = kNodes;
    p.num_vertices = g.num_elements;
    p.num_steps = g.num_steps;
    p.edges_per_vertex = g.edges_per_vertex;
    p.seed = g.seed;
    return apps::pagerank::run_seq(p).checksum;
  }
  if (req.kernel == "spmv") {
    apps::spmv::Params p;
    p.nprocs = kNodes;
    p.num_rows = g.num_elements;
    p.num_steps = g.num_steps;
    p.edges_per_vertex = g.edges_per_vertex;
    p.seed = g.seed;
    return apps::spmv::run_seq(p).checksum;
  }
  if (req.kernel == "moldyn") {
    apps::moldyn::Params p;
    p.nprocs = kNodes;
    p.num_molecules = g.num_elements;
    p.num_steps = g.num_steps;
    p.update_interval = g.update_interval;
    p.seed = g.seed;
    return apps::moldyn::run_seq(p, apps::moldyn::make_system(p)).checksum;
  }
  apps::graph::Params p;  // bfs
  p.nprocs = kNodes;
  p.num_vertices = g.num_elements;
  p.chords_per_vertex = g.chords_per_vertex;
  p.seed = g.seed;
  return apps::bfs::run_seq(p).checksum;
}

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, bool smoke) {
    // Ten distinct requests, two inputs each: CHAOS pagerank, spmv and
    // moldyn (schedule-cache hits once warm), CHAOS bfs (never cacheable:
    // its inspector runs on every job), and Tmk-optimized spmv.
    for (std::uint64_t k = 0; k < 2; ++k) {
      const std::uint64_t s = app_seed(seed, k + 1);
      serve::JobRequest pr;
      pr.kernel = "pagerank";
      pr.graph = {.num_elements = 4096, .num_steps = 8, .edges_per_vertex = 4,
                  .seed = s};
      serve::JobRequest sp;
      sp.kernel = "spmv";
      sp.graph = {.num_elements = 4096, .num_steps = 8, .edges_per_vertex = 4,
                  .seed = s};
      serve::JobRequest md;
      md.kernel = "moldyn";
      md.graph = {.num_elements = 1024, .num_steps = 8, .update_interval = 4,
                  .seed = s};
      serve::JobRequest bf;
      bf.kernel = "bfs";
      bf.graph = {.num_elements = 4096, .chords_per_vertex = 2, .seed = s};
      for (serve::JobRequest* r : {&pr, &sp, &md, &bf}) {
        r->backend = api::Backend::kChaos;
        requests_.push_back(*r);
      }
      sp.backend = api::Backend::kTmkOptimized;
      requests_.push_back(sp);
    }
    for (const serve::JobRequest& r : requests_) {
      references_.push_back(serve_reference(r));
    }
    // 10 rounds, each a seed-shuffled permutation of the requests: 80
    // CHAOS jobs and 20 Tmk jobs per 100, and any 10 consecutive jobs from
    // a round boundary cover every request.
    Rng rng(app_seed(seed, 99));
    for (int round = 0; round < 10; ++round) {
      std::vector<int> perm(requests_.size());
      for (std::size_t i = 0; i < perm.size(); ++i) {
        perm[i] = static_cast<int>(i);
      }
      for (std::size_t i = perm.size() - 1; i > 0; --i) {
        std::swap(perm[i], perm[rng.next_below(i + 1)]);
      }
      schedule_.insert(schedule_.end(), perm.begin(), perm.end());
    }
    // Set-up (server start, connect, warming every request) is measured
    // several times; the last server carries the timed jobs.
    const int setups = smoke ? 1 : 3;
    for (int i = 0; i < setups; ++i) set_up();
  }

  ~ServeWorkload() override {
    client_.reset();  // close the connection before the server drains
    server_.reset();
  }

  /// Set-up already ran every request once on the last server.
  std::string warm_up() override { return warm_error_; }

  std::size_t jobs_per_round() const override { return requests_.size(); }
  /// 100+ jobs per run; p90 falls inside the Tmk jobs' cluster.
  int tail_percentile() const override { return 90; }

  Job run(std::size_t k, Tracer* tracer) override {
    Job j;
    j.request = schedule_[k % schedule_.size()];
    const Clock::time_point t0 = Clock::now();
    const serve::SubmitResult sub = client_->submit(requests_[j.request]);
    const Clock::time_point t1 = Clock::now();
    if (!sub.accepted) {
      ++rejected_;
      j.wall_s = seconds_between(t0, t1);
      j.error = "serve rejected: " + sub.reason;
      return j;
    }
    const serve::JobStats s = client_->wait(sub.job_id);
    const Clock::time_point t2 = Clock::now();
    j.wall_s = seconds_between(t0, t2);
    ++jobs_;
    if (!s.ok) {
      j.error = "serve job failed: " + s.error;
      return j;
    }
    cache_hits_ += s.cache_hit ? 1 : 0;
    const auto bytes = static_cast<std::uint64_t>(std::llround(s.megabytes * 1e6));
    j.timed_s = s.run_seconds;
    j.steps = s.steps_run;
    j.error = checksum_error(references_[j.request], s.checksum);
    if (j.error.empty()) {
      j.error = exact_.check(j.request, {s.messages, bytes, s.steps_run, s.rebuilds});
    }
    if (tracer != nullptr) {
      const std::uint64_t job_id = tracer->new_id();
      tracer->span("serve.submit", 0, t0, t1, tracer->new_id(), job_id);
      tracer->span("serve.wait", 0, t1, t2, tracer->new_id(), job_id,
                   "\"queue_ms\":" + json_num(s.queue_seconds * 1e3) +
                       ",\"run_ms\":" + json_num(s.run_seconds * 1e3));
      tracer->span("job", 0, t0, t2, job_id, 0,
                   counter_args(s.messages, bytes, s.steps_run) +
                       ",\"request\":" + std::to_string(j.request) +
                       ",\"cache_hit\":" + (s.cache_hit ? "true" : "false"));
      Fields& L = j.layer;
      L.set("wall_s", j.wall_s);
      L.set("serve.queue_ms", s.queue_seconds * 1e3);
      L.set("serve.run_ms", s.run_seconds * 1e3);
      L.set("serve.protocol_ms",
            (j.wall_s - s.queue_seconds - s.run_seconds) * 1e3);
      L.set("chaos.inspector_runs", static_cast<double>(s.inspector_runs));
      L.set("chaos.structure_messages",
            static_cast<double>(s.structure_messages));
      L.set("coherence.replications", static_cast<double>(s.replications));
      L.set("coherence.migrations", static_cast<double>(s.migrations));
      L.set("coherence.ghost_promotions",
            static_cast<double>(s.ghost_promotions));
      L.set("api.rebuilds", static_cast<double>(s.rebuilds));
      L.set("api.steps_run", static_cast<double>(s.steps_run));
      if (s.steps_run > 0) {
        const auto steps = static_cast<double>(s.steps_run);
        L.set("net.messages_per_step", static_cast<double>(s.messages) / steps);
        L.set("net.kb_per_step", static_cast<double>(bytes) / 1e3 / steps);
      }
    }
    return j;
  }

  std::vector<double> setup_samples() const override { return setup_s_; }

  Fields layer_values() const override {
    Fields f;
    if (jobs_ > 0) {
      f.set("serve.cache_hit_ratio", static_cast<double>(cache_hits_) /
                                         static_cast<double>(jobs_));
    }
    f.set("serve.rejected", static_cast<double>(rejected_));
    return f;
  }

 private:
  void set_up() {
    client_.reset();
    server_.reset();
    const Timer t;
    serve::ServerConfig cfg;
    cfg.nprocs = kNodes;
    cfg.workers = 1;
    cfg.listen = true;
    server_ = std::make_unique<serve::KernelServer>(cfg);
    client_.emplace(serve::Client::connect_local(server_->port()));
    for (std::size_t k = 0; k < requests_.size(); ++k) {
      const serve::JobStats s = client_->run(requests_[k]);
      std::string err = s.ok ? checksum_error(references_[k], s.checksum)
                             : "serve warm-up failed: " + s.error;
      if (!err.empty() && warm_error_.empty()) warm_error_ = std::move(err);
    }
    setup_s_.push_back(t.elapsed_s());
  }

  std::vector<serve::JobRequest> requests_;
  std::vector<double> references_;
  std::vector<int> schedule_;
  std::unique_ptr<serve::KernelServer> server_;
  std::optional<serve::Client> client_;
  std::vector<double> setup_s_;
  std::string warm_error_;
  std::uint64_t jobs_ = 0, cache_hits_ = 0, rejected_ = 0;
};

// --- Layer probes (traced runs) --------------------------------------------

/// First-touch fault latency through the public DsmRuntime API: node 0
/// dirties kPages pages, then node 1 times one read per page (a read fault:
/// SIGSEGV, diff fetch, apply) and one write per page (a write fault: twin,
/// unprotect), kRounds times.  Returns {read_us, write_us}; `error` is set
/// when a read returns the wrong value.
std::pair<std::vector<double>, std::vector<double>> fault_probe(
    std::string& error) {
  constexpr std::size_t kPages = 256;
  constexpr int kRounds = 8;
  core::DsmConfig cfg;
  cfg.num_nodes = 2;
  cfg.region_bytes = 4u << 20;
  core::DsmRuntime rt(cfg);
  const std::size_t stride = rt.page_size() / sizeof(double);
  const auto arr = rt.alloc_global<double>(kPages * stride);
  std::vector<double> read_us, write_us;
  read_us.reserve(kPages * kRounds);
  write_us.reserve(kPages * kRounds);
  std::size_t wrong = 0;
  rt.run([&](core::DsmNode& self) {
    volatile double* p = self.ptr(arr);
    for (int round = 0; round < kRounds; ++round) {
      if (self.id() == 0) {
        for (std::size_t pg = 0; pg < kPages; ++pg) {
          p[pg * stride] = static_cast<double>(round * 1000 + pg);
        }
      }
      self.barrier();
      if (self.id() == 1) {
        for (std::size_t pg = 0; pg < kPages; ++pg) {
          const Clock::time_point t0 = Clock::now();
          const double v = p[pg * stride];
          read_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
          if (v != static_cast<double>(round * 1000 + pg)) ++wrong;
        }
        for (std::size_t pg = 0; pg < kPages; ++pg) {
          const Clock::time_point t0 = Clock::now();
          p[pg * stride + 1] = static_cast<double>(round);
          write_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
        }
      }
      self.barrier();
    }
  });
  if (wrong > 0) {
    error = "fault probe: " + std::to_string(wrong) + " reads saw stale data";
  }
  return {std::move(read_us), std::move(write_us)};
}

/// Request/reply round trips between two nodes of a bare transport.
std::vector<double> rtt_probe(net::TransportKind kind) {
  constexpr int kTrips = 2000;
  const std::unique_ptr<net::Transport> tr = net::make_transport(kind, 2);
  std::thread echo([&tr] {
    for (;;) {
      net::Message m = tr->recv(net::Port::kService, 1);
      if (m.type == net::kControlStop) return;
      net::Message rep;
      rep.type = 2;
      rep.src = 1;
      rep.dst = 0;
      rep.request_id = m.request_id;
      tr->send(net::Port::kReply, std::move(rep));
    }
  });
  std::vector<double> us;
  us.reserve(kTrips);
  for (int i = 0; i < kTrips; ++i) {
    net::Message req;
    req.type = 1;
    req.src = 0;
    req.dst = 1;
    req.payload.assign(16, 0);
    const Clock::time_point t0 = Clock::now();
    tr->wait(tr->post(std::move(req)));
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  tr->stop_service(1);
  echo.join();
  return us;
}

// --- Driver ----------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& work_dir) {
  if (name == "moldyn-opt") {
    return make_moldyn(seed, coherence::CoherencePolicy::kStatic);
  }
  if (name == "moldyn-adaptive") {
    return make_moldyn(seed, coherence::CoherencePolicy::kAdaptive);
  }
  if (name == "pagerank-base") return make_pagerank(seed);
  if (name == "bfs-proc") {
    return std::make_unique<ProcWorkload>(seed, work_dir);
  }
  if (name == "serve-socket") {
    return std::make_unique<ServeWorkload>(seed, smoke);
  }
  return nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload=<moldyn-opt|moldyn-adaptive|"
               "pagerank-base|bfs-proc|serve-socket> --seed=<n> "
               "--seconds=<s> --out=<file> [--trace=<file>] [--smoke] "
               "[--work-dir=<dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  const std::optional<std::string> name = opt.value("workload");
  const std::optional<std::string> out = opt.value("out");
  const std::optional<std::string> trace_path = opt.value("trace");
  const bool smoke = opt.flag("smoke");
  std::uint64_t seed = 1;
  double seconds = 10;
  try {
    if (const auto v = opt.value("seed")) seed = std::stoull(*v);
    if (const auto v = opt.value("seconds")) seconds = std::stod(*v);
  } catch (const std::exception&) {
    return usage();
  }
  if (!name || !out || !(seconds > 0)) return usage();
  const std::string work_dir = opt.value("work-dir").value_or(".");

  const Timer setup_timer;
  std::unique_ptr<Workload> w = make_workload(*name, seed, smoke, work_dir);
  if (!w) return usage();
  std::unique_ptr<Tracer> tracer;
  if (trace_path) tracer = std::make_unique<Tracer>();

  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  const auto account = [&](const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < 8) errors.push_back(error);
  };

  account(w->warm_up());
  account(w->validate_once());
  std::fprintf(stderr, "%s seed %llu: set up and warmed in %.2f s\n",
               name->c_str(), static_cast<unsigned long long>(seed),
               setup_timer.elapsed_s());

  // Closed loop for --seconds (--smoke: 2 jobs), ended on a round boundary.
  // Traced runs run each job twice, untraced then traced, so the tracing
  // overhead is measured on the same requests under the same conditions.
  const std::size_t repeat = tracer ? 2 : 1;
  const std::size_t round = w->jobs_per_round() * repeat;
  std::vector<Job> jobs, traced;
  const Timer loop;
  for (std::size_t i = 0;; ++i) {
    const bool done = i % round == 0 &&
                      (smoke ? i >= 2 : i > 0 && loop.elapsed_s() >= seconds);
    if (done) break;
    const bool trace_this = tracer && i % 2 == 1;
    Job j = w->run(i / repeat, trace_this ? tracer.get() : nullptr);
    account(j.error);
    (trace_this ? traced : jobs).push_back(std::move(j));
  }
  const double loop_s = loop.elapsed_s();

  Fields layer = w->layer_values();
  std::string samples = "{}";
  if (tracer) {
    std::string probe_error;
    const auto [read_us, write_us] = fault_probe(probe_error);
    account(probe_error);
    samples = "{\"vm.read_fault_us\":" + json_array(read_us) +
              ",\"vm.write_fault_us\":" + json_array(write_us) +
              ",\"net.rtt_us\":" + json_array(rtt_probe(w->fabric())) + "}";
    if (!tracer->write(*trace_path)) {
      account("cannot write trace file " + *trace_path);
    }
  }

  std::string jobs_json = "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    Fields f;
    f.set("request", j.request);
    f.set("wall_s", j.wall_s);
    f.set("timed_s", j.timed_s);
    f.set("steps", static_cast<double>(j.steps));
    jobs_json += (i > 0 ? "," : "") + f.json();
  }
  jobs_json += "]";
  std::string traced_json = "[";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    traced_json += (i > 0 ? "," : "") + traced[i].layer.json();
  }
  traced_json += "]";
  std::string errors_json = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errors_json += (i > 0 ? "," : "") + json_str(errors[i]);
  }
  errors_json += "]";

  const auto [msgs_per_job, bytes_per_job] = w->traffic_per_job();
  Fields run;
  run.set("seed", static_cast<double>(seed));
  run.set("attempted", static_cast<double>(attempted));
  run.set("failed", static_cast<double>(failed));
  run.set("loop_s", loop_s);
  run.set("tail_percentile", w->tail_percentile());
  run.set("messages_per_job", msgs_per_job);
  run.set("bytes_per_job", bytes_per_job);
  run.set("peak_rss_mb", w->peak_rss_mb());

  std::ofstream f(*out);
  f << "{\"workload\":" << json_str(*name) << ",\"run\":" << run.json()
    << ",\"errors\":" << errors_json
    << ",\"setup_s\":" << json_array(w->setup_samples())
    << ",\"jobs\":" << jobs_json << ",\"traced\":" << traced_json
    << ",\"layer\":" << layer.json() << ",\"samples\":" << samples << "}\n";
  if (!f) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", out->c_str());
    return 1;
  }
  std::fprintf(stderr, "%s seed %llu: %zu jobs in %.2f s, %zu failed\n",
               name->c_str(), static_cast<unsigned long long>(seed),
               attempted, loop_s, failed);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "  error: %s\n", e.c_str());
  }
  return 0;
}
