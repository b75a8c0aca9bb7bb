// sdsm_worker — the per-node process of proc mode (one spawned instance
// per simulated node; see src/proc/launcher.hpp for the life cycle).
//
// The command line is launcher-generated, never typed by hand:
//   --node=K --nprocs=N --rendezvous-port=P [--rendezvous-fd=F]
//   --timeout-ms=T --job=<hex of serve::encode(JobRequest)>
//   --report=<path>
//
// Failure-path test hooks, injected through the environment by
// tests/test_proc.cpp (LaunchOptions::extra_env):
//   SDSM_PROC_TEST_STALL_NODE=K   node K sleeps forever before the
//                                 rendezvous (drives the timeout path)
//   SDSM_PROC_TEST_CRASH_NODE=K   node K exits 42 after the mesh is up,
//                                 while its peers are inside the run
//   SDSM_PROC_TEST_COLLIDE=K      node K pre-maps a page at the agreed
//                                 arena base, forcing the MAP_FIXED_
//                                 NOREPLACE collision diagnostic
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "src/api/tmk_backend.hpp"
#include "src/common/buffer.hpp"
#include "src/proc/mesh_transport.hpp"
#include "src/proc/rendezvous.hpp"
#include "src/proc/report.hpp"
#include "src/serve/workloads.hpp"

namespace {

using namespace sdsm;

constexpr int kExitBadArgs = 2;
constexpr int kExitRendezvous = 3;
constexpr int kExitBadJob = 4;

std::optional<std::string> arg_value(int argc, char** argv,
                                     const char* flag) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> hex_decode(const std::string& s) {
  if (s.size() % 2 != 0) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  std::vector<std::uint8_t> out(s.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int hi = nibble(s[2 * i]), lo = nibble(s[2 * i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
  }
  return out;
}

/// True when env var `name` is set to this node's id.
bool hook_hits(const char* name, NodeId node) {
  const char* v = std::getenv(name);
  return v != nullptr && std::atol(v) == static_cast<long>(node);
}

[[noreturn]] void fail(const std::string& report_path, NodeId node,
                       const std::string& error, int code) {
  std::fprintf(stderr, "sdsm_worker: node %u: %s\n", node, error.c_str());
  if (!report_path.empty()) {
    sdsm::proc::WorkerReport rep;
    rep.node = node;
    rep.ok = false;
    rep.error = error;
    sdsm::proc::write_report_file(report_path, rep);
  }
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  const auto node_s = arg_value(argc, argv, "--node");
  const auto nprocs_s = arg_value(argc, argv, "--nprocs");
  const auto port_s = arg_value(argc, argv, "--rendezvous-port");
  const auto fd_s = arg_value(argc, argv, "--rendezvous-fd");
  const auto timeout_s = arg_value(argc, argv, "--timeout-ms");
  const auto job_s = arg_value(argc, argv, "--job");
  const auto report_s = arg_value(argc, argv, "--report");
  if (!node_s || !nprocs_s || !port_s || !job_s || !report_s) {
    std::fprintf(stderr,
                 "usage: sdsm_worker --node=K --nprocs=N "
                 "--rendezvous-port=P [--rendezvous-fd=F] --timeout-ms=T "
                 "--job=<hex> --report=<path>\n");
    return kExitBadArgs;
  }
  const NodeId node = static_cast<NodeId>(std::atol(node_s->c_str()));
  const auto nprocs =
      static_cast<std::uint32_t>(std::atol(nprocs_s->c_str()));
  const auto port =
      static_cast<std::uint16_t>(std::atol(port_s->c_str()));
  const int listen_fd = fd_s ? std::atoi(fd_s->c_str()) : -1;
  const int timeout_ms =
      timeout_s ? std::atoi(timeout_s->c_str()) : 30000;
  const std::string report_path = *report_s;
  if (nprocs < 1 || node >= nprocs) {
    fail(report_path, node, "bad --node/--nprocs", kExitBadArgs);
  }

  const auto job_bytes = hex_decode(*job_s);
  if (!job_bytes.has_value()) {
    fail(report_path, node, "malformed --job hex", kExitBadArgs);
  }
  Reader r(*job_bytes);
  const serve::JobRequest req = serve::decode_request(r);
  if (req.backend == api::Backend::kChaos) {
    fail(report_path, node,
         "CHAOS backend is not deployed multi-process (Tmk only)",
         kExitBadJob);
  }
  if (const std::string error = serve::request_error(req); !error.empty()) {
    fail(report_path, node, error, kExitBadJob);
  }

  if (hook_hits("SDSM_PROC_TEST_STALL_NODE", node)) {
    std::fprintf(stderr, "sdsm_worker: node %u: test hook: stalling before "
                         "rendezvous\n", node);
    for (;;) ::pause();
  }

  // Materialize the job exactly as the serving layer would, then force
  // the transport proc mode fixes: real sockets (run_dsm checks the
  // runtime and options agree).
  const serve::PreparedJob prepared = serve::prepare_job(req, nprocs);
  api::BackendOptions options = prepared.base_options;
  options.transport = net::TransportKind::kSocket;

  core::DsmConfig cfg = api::TmkBackend::dsm_config(nprocs, options);
  proc::RendezvousResult rdv = proc::rendezvous(
      node, nprocs, port, listen_fd, cfg.region_bytes, timeout_ms);
  if (!rdv.ok) {
    fail(report_path, node, rdv.error, kExitRendezvous);
  }

  if (hook_hits("SDSM_PROC_TEST_CRASH_NODE", node)) {
    std::fprintf(stderr, "sdsm_worker: node %u: test hook: crashing with "
                         "the mesh up\n", node);
    ::usleep(200 * 1000);  // let the peers get into the run first
    std::_Exit(42);
  }
  if (hook_hits("SDSM_PROC_TEST_COLLIDE", node)) {
    std::fprintf(stderr, "sdsm_worker: node %u: test hook: pre-mapping the "
                         "agreed arena base\n", node);
    ::mmap(reinterpret_cast<void*>(rdv.arena_base), 4096,
           PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED,
           -1, 0);
  }

  cfg.mode = DeployMode::kProcesses;
  cfg.local_node = node;
  cfg.arena_base = reinterpret_cast<void*>(rdv.arena_base);
  core::DsmRuntime rt(cfg, std::make_unique<proc::MeshTransport>(
                               nprocs, node, std::move(rdv.peer_fds)));

  api::TmkBackend backend(nprocs, req.backend, options);
  proc::WorkerReport rep;
  rep.node = node;
  rep.result = prepared.is_double3
                   ? backend.run_on(rt, prepared.spec3, nullptr)
                   : backend.run_on(rt, prepared.spec, nullptr);
  rep.ok = true;

  // Teardown alignment: a peer's convergence/checksum reads may still
  // fetch from this node after the kernel's last barrier, so every worker
  // crosses one more barrier before any service thread stops.
  rt.run([](core::DsmNode& n) { n.barrier(); });

  if (!proc::write_report_file(report_path, rep)) {
    fail(report_path, node, "cannot write report file", kExitBadArgs);
  }
  return 0;
}
