// Tests for the persistent kernel-serving runtime (sdsm::serve): cache-hit
// parity (the PR's acceptance contract — bit-exact checksums, exact
// message/byte parity against a fresh one-shot run, zero inspector runs on
// the hit path, on every backend and both transports), admission
// backpressure, graceful-shutdown draining, the socket control protocol,
// fingerprint differentiation, warm-arena isolation between jobs, the
// snapshot-and-delta stats types, and the shared harness::Options parser.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "src/api/api.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/common/stats.hpp"
#include "src/harness/options.hpp"
#include "src/net/netstats.hpp"
#include "src/serve/client.hpp"
#include "src/serve/schedule_cache.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace sdsm::serve {
namespace {

constexpr std::uint32_t kNodes = 4;

ServerConfig small_server(std::size_t workers = 1) {
  ServerConfig cfg;
  cfg.nprocs = kNodes;
  cfg.workers = workers;
  cfg.queue_capacity = 16;
  return cfg;
}

JobRequest spmv_request(api::Backend b, net::TransportKind t) {
  JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 6;
  req.graph.edges_per_vertex = 4;
  req.backend = b;
  req.transport = t;
  return req;
}

JobRequest moldyn_request(api::Backend b, net::TransportKind t) {
  JobRequest req;
  req.kernel = "moldyn";
  req.graph.num_elements = 512;
  req.graph.num_steps = 8;
  req.graph.update_interval = 4;  // rebuilds inside the timed loop
  req.backend = b;
  req.transport = t;
  return req;
}

// --- Cache-hit parity: the acceptance contract -----------------------------

class CacheHitParity
    : public ::testing::TestWithParam<std::tuple<api::Backend,
                                                 net::TransportKind>> {};

// spmv: static structure, rebuild in the untimed warmup.  The hit path
// must be indistinguishable from the miss path in every timed metric.
TEST_P(CacheHitParity, SpmvBitExactAndTrafficIdentical) {
  const auto [backend, transport] = GetParam();
  KernelServer server(small_server());
  Client client = Client::in_proc(server);
  const JobRequest req = spmv_request(backend, transport);

  const JobStats miss = client.run(req);
  const JobStats hit = client.run(req);
  ASSERT_TRUE(miss.ok) << miss.error;
  ASSERT_TRUE(hit.ok) << hit.error;

  EXPECT_TRUE(miss.cache_eligible);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.inspector_runs, 0);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.inspector_runs, 0);

  EXPECT_EQ(hit.checksum, miss.checksum);  // bit-exact, not approximate

  // spmv's one rebuild happens during warmup, which the timed message
  // counters exclude — so hit and miss traffic must be *identical* on
  // every backend, and no structure traffic is attributed to timed steps.
  EXPECT_EQ(hit.messages, miss.messages);
  EXPECT_EQ(hit.megabytes, miss.megabytes);
  EXPECT_EQ(miss.structure_messages, 0u);
  EXPECT_EQ(hit.structure_messages, 0u);

  // A fresh one-shot run through the plain API, with the identical
  // composed options, is the external baseline both must match.
  apps::spmv::Params p;
  p.num_rows = 2048;
  p.num_steps = 6;
  p.edges_per_vertex = 4;
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::spmv::default_options();
  opts.transport = transport;
  const api::KernelResult one =
      api::run_kernel(backend, apps::spmv::make_kernel(p), opts);
  EXPECT_EQ(one.checksum, miss.checksum);
  EXPECT_EQ(one.messages, miss.messages);
  EXPECT_EQ(one.megabytes, miss.megabytes);
}

// moldyn: a whole-state rebuild read + rebuilds inside the timed loop —
// the hard case.  On the Tmk backends the hit path's traffic must still be
// identical (the replayed Validates and the volatile structure walk pay
// the same pages); on CHAOS the hit path saves exactly the structure
// traffic the miss path attributed.
TEST_P(CacheHitParity, MoldynTimedRebuilds) {
  const auto [backend, transport] = GetParam();
  KernelServer server(small_server());
  Client client = Client::in_proc(server);
  const JobRequest req = moldyn_request(backend, transport);

  const JobStats miss = client.run(req);
  const JobStats hit = client.run(req);
  ASSERT_TRUE(miss.ok) << miss.error;
  ASSERT_TRUE(hit.ok) << hit.error;

  EXPECT_GT(miss.inspector_runs, 0);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.inspector_runs, 0);
  EXPECT_EQ(hit.checksum, miss.checksum);
  EXPECT_EQ(hit.steps_run, miss.steps_run);

  if (backend == api::Backend::kChaos) {
    EXPECT_GT(miss.structure_messages, 0u);
    EXPECT_EQ(hit.structure_messages, 0u);
    EXPECT_EQ(hit.messages, miss.messages - miss.structure_messages);
  } else {
    EXPECT_EQ(miss.structure_messages, 0u);  // Tmk attributes none
    EXPECT_EQ(hit.messages, miss.messages);
    EXPECT_EQ(hit.megabytes, miss.megabytes);
  }

  // One-shot baseline: the serve miss run must be traffic-identical to a
  // cold runtime (the warm-arena reset contract).
  apps::moldyn::Params p;
  p.num_molecules = 512;
  p.num_steps = 8;
  p.update_interval = 4;
  p.nprocs = kNodes;
  const apps::moldyn::System sys = apps::moldyn::make_system(p);
  api::BackendOptions opts = apps::moldyn::default_options();
  opts.transport = transport;
  const api::KernelResult one = apps::moldyn::run(backend, p, sys, opts);
  EXPECT_EQ(one.checksum, miss.checksum);
  EXPECT_EQ(one.messages, miss.messages);
  EXPECT_EQ(one.megabytes, miss.megabytes);
}

// Named function instead of a lambda: commas inside a lambda body are not
// protected from the preprocessor by braces, which truncates the macro arg.
std::string cache_hit_parity_name(
    const ::testing::TestParamInfo<std::tuple<api::Backend,
                                              net::TransportKind>>& info) {
  const api::Backend b = std::get<0>(info.param);
  const net::TransportKind t = std::get<1>(info.param);
  std::string name = api::backend_name(b);
  for (char& c : name) {
    if (c == ' ' || c == '-') c = '_';
  }
  return name + (t == net::TransportKind::kSocket ? "_socket" : "_inproc");
}

INSTANTIATE_TEST_SUITE_P(
    AllBackendsBothTransports, CacheHitParity,
    ::testing::Combine(::testing::ValuesIn(api::kAllBackends),
                       ::testing::Values(net::TransportKind::kInProc,
                                         net::TransportKind::kSocket)),
    cache_hit_parity_name);

// --- Warm-arena isolation --------------------------------------------------

// Two different jobs back to back on one Tmk engine: the second must see a
// pristine arena (different kernel, different graph, different checksum
// lineage) and still match its own one-shot baseline exactly.  The first
// job's shared heap is the larger (spmv over 8192 rows spans 228 pages,
// pagerank over 2048 vertices 44), so the page table reset_arena cleared
// held metadata above the second job's heap, none of which may leak.
TEST(ServeIsolation, ArenaResetBetweenDifferentJobs) {
  KernelServer server(small_server());
  Client client = Client::in_proc(server);

  JobRequest big =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  big.graph.num_elements = 8192;
  const JobStats first = client.run(big);
  ASSERT_TRUE(first.ok) << first.error;

  JobRequest pr;
  pr.kernel = "pagerank";
  pr.graph.num_elements = 2048;
  pr.graph.num_steps = 6;
  pr.graph.edges_per_vertex = 4;
  pr.backend = api::Backend::kTmkOptimized;
  const JobStats second = client.run(pr);
  ASSERT_TRUE(second.ok) << second.error;

  apps::pagerank::Params p;
  p.num_vertices = 2048;
  p.num_steps = 6;
  p.edges_per_vertex = 4;
  p.nprocs = kNodes;
  const api::KernelResult one = apps::pagerank::run(
      api::Backend::kTmkOptimized, p, apps::pagerank::default_options());
  EXPECT_EQ(one.checksum, second.checksum);
  EXPECT_EQ(one.messages, second.messages);
  EXPECT_EQ(one.megabytes, second.megabytes);
}

// --- Engine keying: coherence ----------------------------------------------

// Jobs that differ only in coherence must not share a warm engine: the
// policy is baked into a Tmk engine's arena when it is constructed, and
// run_dsm refuses a runtime whose policy disagrees with the job's — so if
// the serve key ever stopped including coherence, the adaptive job below
// would abort instead of running.  Each variant must also reproduce its
// own one-shot run: the adaptive job a fresh adaptive runtime, and the
// static job after it the static job before it.
TEST(ServeEngineKey, CoherenceVariantsGetTheirOwnEngines) {
  KernelServer server(small_server());
  Client client = Client::in_proc(server);

  const JobRequest static_req =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  JobRequest adaptive_req = static_req;
  adaptive_req.coherence = coherence::CoherencePolicy::kAdaptive;

  const JobStats a = client.run(static_req);
  const JobStats b = client.run(adaptive_req);  // aborts on a's engine
  const JobStats c = client.run(static_req);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(b.ok) << b.error;
  ASSERT_TRUE(c.ok) << c.error;

  apps::spmv::Params p;
  p.num_rows = 2048;
  p.num_steps = 6;
  p.edges_per_vertex = 4;
  p.nprocs = kNodes;
  api::BackendOptions opts = apps::spmv::default_options();
  opts.coherence = coherence::CoherencePolicy::kAdaptive;
  const api::KernelResult one = api::run_kernel(
      api::Backend::kTmkOptimized, apps::spmv::make_kernel(p), opts);
  EXPECT_EQ(b.checksum, one.checksum);
  EXPECT_EQ(b.messages, one.messages);

  EXPECT_EQ(c.checksum, a.checksum);
  EXPECT_EQ(c.messages, a.messages);
}

// --- Hybrid through serve ---------------------------------------------------

// The mixed-assignment backend behind a warm engine: repeat jobs replay
// the inspector artifacts (hybrid schedules share the ScheduleCache,
// keyed by backend) and the checksum stays bit-exact with the all-message
// CHAOS baseline — the hard moldyn case, with rebuilds inside the timed
// loop.
TEST(ServeHybrid, WarmCacheHitBitExactAgainstChaos) {
  KernelServer server(small_server());
  Client client = Client::in_proc(server);

  const JobStats chaos = client.run(
      moldyn_request(api::Backend::kChaos, net::TransportKind::kInProc));
  ASSERT_TRUE(chaos.ok) << chaos.error;

  const JobRequest req =
      moldyn_request(api::Backend::kHybrid, net::TransportKind::kInProc);
  const JobStats miss = client.run(req);
  const JobStats hit = client.run(req);
  ASSERT_TRUE(miss.ok) << miss.error;
  ASSERT_TRUE(hit.ok) << hit.error;

  EXPECT_TRUE(miss.cache_eligible);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.inspector_runs, 0);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.inspector_runs, 0);

  EXPECT_EQ(miss.checksum, chaos.checksum);  // cross-backend bit-exact
  EXPECT_EQ(hit.checksum, miss.checksum);
  EXPECT_EQ(hit.steps_run, miss.steps_run);
}

// --- Fingerprints ----------------------------------------------------------

TEST(ServeFingerprint, DistinguishesGraphsKernelsAndNodeCounts) {
  const JobRequest a =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  JobRequest b = a;
  b.graph.num_elements = 4096;  // different graph
  JobRequest c = a;
  c.kernel = "pagerank";  // different kernel, same shape

  const PreparedJob pa = prepare_job(a, kNodes);
  const PreparedJob pb = prepare_job(b, kNodes);
  const PreparedJob pc = prepare_job(c, kNodes);
  const PreparedJob pa8 = prepare_job(a, 8);

  EXPECT_NE(pa.fingerprint, pb.fingerprint);
  EXPECT_NE(pa.fingerprint, pc.fingerprint);
  EXPECT_NE(pa.fingerprint, pa8.fingerprint);
  EXPECT_EQ(pa.fingerprint, prepare_job(a, kNodes).fingerprint);

  // Sentinel defaults resolve before hashing: an explicit value equal to
  // the workload default fingerprints identically to "use the default".
  JobRequest expl = a;
  expl.graph.warmup_steps = 1;  // spmv's default
  EXPECT_EQ(prepare_job(expl, kNodes).fingerprint, pa.fingerprint);
}

TEST(ServeFingerprint, CacheKeySeparatesBackends) {
  ScheduleCache cache(4);
  const CacheKey tmk{42, "spmv", api::Backend::kTmkOptimized, kNodes};
  const CacheKey chaos{42, "spmv", api::Backend::kChaos, kNodes};
  cache.insert(tmk, std::make_shared<const CacheEntry>());
  EXPECT_NE(cache.find(tmk), nullptr);
  EXPECT_EQ(cache.find(chaos), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServeScheduleCache, LruEviction) {
  ScheduleCache cache(2);
  const auto key = [](std::uint64_t fp) {
    return CacheKey{fp, "k", api::Backend::kTmkOptimized, kNodes};
  };
  cache.insert(key(1), std::make_shared<const CacheEntry>());
  cache.insert(key(2), std::make_shared<const CacheEntry>());
  ASSERT_NE(cache.find(key(1)), nullptr);  // bump 1 to MRU
  cache.insert(key(3), std::make_shared<const CacheEntry>());  // evicts 2
  EXPECT_NE(cache.find(key(1)), nullptr);
  EXPECT_EQ(cache.find(key(2)), nullptr);
  EXPECT_NE(cache.find(key(3)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

// --- Admission: backpressure, rejection reasons, shutdown ------------------

TEST(ServeAdmission, BackpressureRejectsWithReason) {
  ServerConfig cfg = small_server();
  cfg.queue_capacity = 2;
  KernelServer server(cfg);
  server.hold_workers(true);  // nothing is picked up: depth is observable

  const JobRequest req =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  EXPECT_TRUE(server.submit(req).accepted);
  EXPECT_TRUE(server.submit(req).accepted);
  const SubmitResult third = server.submit(req);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reason, "queue full (capacity 2)");

  const ServerStats st = server.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.queue_depth, 2u);

  server.hold_workers(false);  // let the queue drain before shutdown
}

TEST(ServeAdmission, UnknownKernelRejected) {
  KernelServer server(small_server());
  JobRequest req;
  req.kernel = "fft";
  const SubmitResult r = server.submit(req);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.reason, "unknown kernel 'fft'");
  // Client::run surfaces the rejection as a failed JobStats.
  Client client = Client::in_proc(server);
  const JobStats s = client.run(req);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error, "unknown kernel 'fft'");
}

// Every request an engine would abort on is refused at admission, with a
// reason naming the field, and the server stays up for the next job.
TEST(ServeAdmission, RejectsWhatAnEngineWouldAbortOn) {
  KernelServer server(small_server());
  const JobRequest good =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  struct Bad {
    JobRequest req;
    std::string reason;
  };
  std::vector<Bad> bad(5, Bad{good, ""});
  bad[0].req.backend = static_cast<api::Backend>(9);
  bad[0].reason = "unknown backend 9";
  bad[1].req.schedule = static_cast<api::RoundSchedule>(7);
  bad[1].reason = "unknown schedule 7";
  bad[2].req.coherence = static_cast<coherence::CoherencePolicy>(7);
  bad[2].reason = "unknown coherence 7";
  bad[3].req.transport = static_cast<net::TransportKind>(7);
  bad[3].reason = "unknown transport 7";
  bad[4].req.backend = api::Backend::kHybrid;
  bad[4].req.coherence = coherence::CoherencePolicy::kAdaptive;
  bad[4].reason =
      "coherence: the hybrid backend runs under static coherence only";
  for (const Bad& b : bad) {
    const SubmitResult r = server.submit(b.req);
    EXPECT_FALSE(r.accepted) << b.reason;
    EXPECT_EQ(r.reason, b.reason);
  }

  Client client = Client::in_proc(server);
  const JobStats s = client.run(good);
  EXPECT_TRUE(s.ok) << s.error;
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected, bad.size());
  EXPECT_EQ(st.completed, 1u);
}

TEST(ServeAdmission, ShutdownDrainsHeldQueueThenRejects) {
  ServerConfig cfg = small_server(/*workers=*/2);
  KernelServer server(cfg);
  server.hold_workers(true);
  const JobRequest req =
      spmv_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc);
  const SubmitResult a = server.submit(req);
  const SubmitResult b = server.submit(req);
  ASSERT_TRUE(a.accepted);
  ASSERT_TRUE(b.accepted);

  // shutdown() clears the hold and drains both before returning.
  server.shutdown();
  const JobStats sa = server.wait(a.job_id);
  const JobStats sb = server.wait(b.job_id);
  EXPECT_TRUE(sa.ok) << sa.error;
  EXPECT_TRUE(sb.ok) << sb.error;
  // Delivered stats are the server's last record of a job: it keeps
  // nothing per served job.
  EXPECT_EQ(server.wait(a.job_id).error, "unknown job id");

  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.in_flight, 0u);
  EXPECT_FALSE(server.submit(req).accepted);
  EXPECT_EQ(server.submit(req).reason, "server shutting down");
}

// --- Socket control protocol ----------------------------------------------

TEST(ServeSocket, MixedStreamOverControlSocket) {
  ServerConfig cfg = small_server(/*workers=*/2);
  cfg.listen = true;
  KernelServer server(cfg);
  ASSERT_GT(server.port(), 0);
  Client client = Client::connect_local(server.port());

  // moldyn (cacheable) twice plus a bfs (never cacheable) twice, all
  // through the socket.  Each round's jobs run concurrently on the two
  // workers; the rounds themselves are submitted round-by-round (wait
  // between them) so the repeat moldyn provably starts after the first
  // one committed its cache entry — submitting all four at once would
  // let the repeat overlap the original and miss.
  std::vector<JobStats> stats;
  for (int round = 0; round < 2; ++round) {
    std::vector<JobRequest> reqs;
    reqs.push_back(
        moldyn_request(api::Backend::kTmkOptimized, net::TransportKind::kInProc));
    JobRequest bfs;
    bfs.kernel = "bfs";
    bfs.graph.num_elements = 1024;
    bfs.graph.num_steps = 6;
    bfs.graph.chords_per_vertex = 2;
    bfs.backend = api::Backend::kChaos;
    reqs.push_back(bfs);

    std::vector<std::uint64_t> ids;
    for (const JobRequest& r : reqs) {
      const SubmitResult sub = client.submit(r);
      ASSERT_TRUE(sub.accepted) << sub.reason;
      ids.push_back(sub.job_id);
    }
    for (const std::uint64_t id : ids) stats.push_back(client.wait(id));
  }
  for (const JobStats& s : stats) EXPECT_TRUE(s.ok) << s.error;

  EXPECT_EQ(stats[2].checksum, stats[0].checksum);
  EXPECT_TRUE(stats[2].cache_hit);
  EXPECT_EQ(stats[2].inspector_runs, 0);
  EXPECT_FALSE(stats[1].cache_eligible);  // bfs: stateful builder
  EXPECT_FALSE(stats[3].cache_eligible);
  EXPECT_EQ(stats[3].checksum, stats[1].checksum);  // still deterministic

  const ServerStats st = client.server_stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.queue_depth, 0u);
  EXPECT_EQ(st.in_flight, 0u);
}

TEST(ServeSocket, WaitForUnknownJobFailsCleanly) {
  ServerConfig cfg = small_server();
  cfg.listen = true;
  KernelServer server(cfg);
  Client client = Client::connect_local(server.port());
  const JobStats s = client.wait(999);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error, "unknown job id");
}

TEST(ServeSocket, OversizedFrameDropsOnlyThatConnection) {
  ServerConfig cfg = small_server();
  cfg.listen = true;
  KernelServer server(cfg);

  // A raw peer announces a 4 GiB payload.  The server must close the
  // connection on the header alone — no allocation, no wait for the bytes —
  // which the peer sees as EOF.  The receive timeout turns a server that
  // instead waits for the payload into a failure rather than a hang.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::uint32_t len = 0xFFFFFFFFu;
  ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(len)));
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);

  // The server itself is unharmed: a fresh connection still runs a job.
  Client client = Client::connect_local(server.port());
  const JobStats s = client.run(
      spmv_request(api::Backend::kChaos, net::TransportKind::kInProc));
  EXPECT_TRUE(s.ok) << s.error;
}

// --- Wire codecs -----------------------------------------------------------

TEST(ServeCodec, RequestRoundTrip) {
  JobRequest req = moldyn_request(api::Backend::kChaos,
                                  net::TransportKind::kSocket);
  req.schedule = api::RoundSchedule::kTournament;
  req.cross_step_prefetch = true;
  req.coherence = coherence::CoherencePolicy::kAdaptive;
  Writer w;
  encode(w, req);
  Reader r(w.bytes());
  const JobRequest back = decode_request(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.kernel, req.kernel);
  EXPECT_EQ(back.graph.num_elements, req.graph.num_elements);
  EXPECT_EQ(back.graph.update_interval, req.graph.update_interval);
  EXPECT_EQ(back.backend, req.backend);
  EXPECT_EQ(back.schedule, req.schedule);
  EXPECT_EQ(back.cross_step_prefetch, req.cross_step_prefetch);
  EXPECT_EQ(back.coherence, req.coherence);
  EXPECT_EQ(back.transport, req.transport);
}

TEST(ServeCodec, StatsRoundTrip) {
  JobStats s;
  s.job_id = 7;
  s.ok = true;
  s.kernel = "moldyn";
  s.backend = api::Backend::kTmkBase;
  s.cache_eligible = true;
  s.cache_hit = true;
  s.inspector_runs = 0;
  s.structure_messages = 12;
  s.structure_bytes = 3456;
  s.checksum = 1.25;
  s.messages = 562;
  s.megabytes = 0.75;
  s.steps_run = 8;
  s.rebuilds = 2;
  s.queue_seconds = 0.5;
  s.run_seconds = 1.5;
  Writer w;
  encode(w, s);
  Reader r(w.bytes());
  const JobStats back = decode_stats(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.job_id, 7u);
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.kernel, "moldyn");
  EXPECT_EQ(back.backend, api::Backend::kTmkBase);
  EXPECT_TRUE(back.cache_hit);
  EXPECT_EQ(back.structure_bytes, 3456u);
  EXPECT_EQ(back.checksum, 1.25);
  EXPECT_EQ(back.messages, 562u);
  EXPECT_EQ(back.rebuilds, 2);
  EXPECT_EQ(back.run_seconds, 1.5);
}

// --- Snapshot-and-delta stats ----------------------------------------------

TEST(NetStatsSnapshot, DeltaIsolatesAWindow) {
  net::NetStats stats(2);
  stats.node_messages(0).add();
  stats.node_bytes(0).add(100);
  const net::NetStats::Snapshot before = stats.snapshot();
  stats.node_messages(0).add();
  stats.node_bytes(0).add(50);
  stats.node_messages(1).add();
  stats.node_bytes(1).add(25);
  const net::NetStats::Snapshot delta = stats.snapshot() - before;
  EXPECT_EQ(delta.messages(), 2u);
  EXPECT_EQ(delta.bytes(), 75u);
  EXPECT_EQ(delta.per_node[0].messages, 1u);
  EXPECT_EQ(delta.per_node[1].bytes, 25u);
  // The cumulative counters were never reset.
  EXPECT_EQ(stats.snapshot().messages(), 3u);
  EXPECT_EQ(stats.bytes(), 175u);
}

// --- harness::Options ------------------------------------------------------

TEST(HarnessOptions, DefaultsAndRecognizedFlags) {
  const char* argv[] = {"prog", "--transport=socket", "--backend=chaos",
                        "--schedule=tournament"};
  const harness::Options o =
      harness::Options::parse(4, const_cast<char**>(argv));
  EXPECT_EQ(o.transport, net::TransportKind::kSocket);
  ASSERT_EQ(o.backends.size(), 1u);
  EXPECT_EQ(o.backends[0], api::Backend::kChaos);
  EXPECT_EQ(o.schedule, api::RoundSchedule::kTournament);
}

TEST(HarnessOptions, BackendListKeepsCanonicalOrder) {
  const char* argv[] = {"prog", "--backend=tmk-optimized,chaos"};
  const harness::Options o =
      harness::Options::parse(2, const_cast<char**>(argv));
  ASSERT_EQ(o.backends.size(), 2u);
  EXPECT_EQ(o.backends[0], api::Backend::kChaos);  // kAllBackends order
  EXPECT_EQ(o.backends[1], api::Backend::kTmkOptimized);
}

TEST(HarnessOptions, DefaultsToAllBackends) {
  const char* argv[] = {"prog"};
  const harness::Options o =
      harness::Options::parse(1, const_cast<char**>(argv));
  EXPECT_EQ(o.backends.size(), 3u);
  EXPECT_EQ(o.transport, net::TransportKind::kInProc);
}

TEST(HarnessOptions, ExtrasFlagAndValue) {
  const char* argv[] = {"prog", "--smoke", "--nprocs=8", "--out", "x.json"};
  const harness::Options o =
      harness::Options::parse(5, const_cast<char**>(argv));
  EXPECT_TRUE(o.flag("smoke"));
  EXPECT_FALSE(o.flag("verbose"));
  ASSERT_TRUE(o.value("nprocs").has_value());
  EXPECT_EQ(*o.value("nprocs"), "8");
  ASSERT_TRUE(o.value("out").has_value());
  EXPECT_EQ(*o.value("out"), "x.json");
  EXPECT_FALSE(o.value("missing").has_value());
}

}  // namespace
}  // namespace sdsm::serve
