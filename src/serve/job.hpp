// Job-level types of the serving layer (sdsm::serve): what a client
// submits (JobRequest), what it gets back (JobStats), and the server-wide
// counters (ServerStats), plus their wire codecs and the framing of the
// socket control protocol.
//
// A JobRequest names a kernel by string and describes the graph by a
// GraphSpec of sentinel-defaulted parameters (0 / -1 = use the workload's
// default), so the request is a small closed value that serializes
// trivially — the server materializes the actual KernelSpec from it
// (src/serve/workloads.hpp) and two requests with equal resolved
// parameters map to the same schedule-cache fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/backend.hpp"
#include "src/common/buffer.hpp"
#include "src/net/transport.hpp"

namespace sdsm::serve {

/// Graph/workload shape, sentinel-defaulted: 0 (or -1 where 0 is
/// meaningful) leaves the corresponding workload Params field at its
/// default.  Fields not used by a kernel are ignored by it.
struct GraphSpec {
  std::int64_t num_elements = 0;  ///< molecules / vertices / rows
  int num_steps = 0;
  int warmup_steps = -1;
  int update_interval = 0;   ///< moldyn rebuild cadence
  int edges_per_vertex = 0;  ///< pagerank / spmv
  int chords_per_vertex = 0; ///< bfs / cc
  int partners = 0;          ///< nbf partner-list arity
  std::uint64_t seed = 0;
};

/// One unit of admission: kernel + graph + execution options.
struct JobRequest {
  std::string kernel;  ///< "moldyn", "nbf", "spmv", "pagerank", "bfs", "cc"
  GraphSpec graph;
  api::Backend backend = api::Backend::kTmkOptimized;
  api::RoundSchedule schedule = api::RoundSchedule::kSerial;
  bool cross_step_prefetch = false;
  /// Page-coherence policy of the job's engine.  Part of the engine key —
  /// a warm adaptive arena carries census and directory state that a
  /// static job must never see, and vice versa.
  coherence::CoherencePolicy coherence = coherence::CoherencePolicy::kStatic;
  /// Inter-node fabric the job's engine uses (engines are keyed by
  /// (backend, transport, coherence), so in-proc and socket jobs coexist).
  net::TransportKind transport = net::TransportKind::kInProc;
};

/// Everything a completed (or failed) job reports back.
struct JobStats {
  std::uint64_t job_id = 0;
  bool ok = false;
  std::string error;  ///< empty when ok

  std::string kernel;
  api::Backend backend = api::Backend::kTmkOptimized;

  bool cache_eligible = false;  ///< spec.structure_cacheable
  bool cache_hit = false;       ///< full replay: no inspector ran
  /// Fresh structure builds per node (uniform across nodes): the paper's
  /// inspector-run count.  0 on the hit path.
  std::int64_t inspector_runs = 0;
  /// Fabric traffic attributed to structure maintenance during timed
  /// steps (CHAOS allgather + inspector exchange; 0 on Tmk, whose
  /// Validate traffic is identical either way).
  std::uint64_t structure_messages = 0;
  std::uint64_t structure_bytes = 0;

  double checksum = 0;
  std::uint64_t messages = 0;
  double megabytes = 0;
  std::int64_t steps_run = 0;
  std::int64_t rebuilds = 0;
  /// Adaptive-coherence decisions during the job's timed window (snapshot
  /// deltas; zero for static jobs).
  std::uint64_t replications = 0;
  std::uint64_t migrations = 0;  ///< always 0; kept on the wire (stats.hpp)
  std::uint64_t ghost_promotions = 0;

  double queue_seconds = 0;  ///< admission -> worker pickup
  double run_seconds = 0;    ///< worker pickup -> completion
};

/// Server-wide counters at one point in time.
struct ServerStats {
  std::uint64_t submitted = 0;  ///< accepted into the queue
  std::uint64_t rejected = 0;   ///< backpressure / shutdown / unknown kernel
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t queue_depth = 0;  ///< admitted, not yet picked up
  std::uint64_t in_flight = 0;    ///< picked up, not yet completed
};

/// Outcome of one submit: accepted (job_id valid) or rejected with a
/// human-readable reason.
struct SubmitResult {
  bool accepted = false;
  std::uint64_t job_id = 0;
  std::string reason;  ///< empty when accepted
};

// --- Wire codecs (socket control protocol payloads) -----------------------

void encode(Writer& w, const GraphSpec& g);
GraphSpec decode_graph(Reader& r);

void encode(Writer& w, const JobRequest& req);
JobRequest decode_request(Reader& r);

void encode(Writer& w, const JobStats& s);
JobStats decode_stats(Reader& r);

void encode(Writer& w, const ServerStats& s);
ServerStats decode_server_stats(Reader& r);

void encode(Writer& w, const SubmitResult& s);
SubmitResult decode_submit_result(Reader& r);

// --- Socket control protocol framing --------------------------------------
//
// Each frame is a u32 payload length followed by the payload, sent as one
// contiguous buffer; each payload begins with a u32 ControlOp and
// continues with the op's codec above.  One request frame yields exactly
// one response frame on the same connection (kWait blocks server-side
// until the job completes, so a client wanting concurrent waits uses one
// connection per outstanding wait — or submits everything first, then
// waits in turn).

enum ControlOp : std::uint32_t {
  kSubmit = 1,  ///< JobRequest -> SubmitResult
  kWait = 2,    ///< u64 job id -> JobStats (blocks until done)
  kStats = 3,   ///< (empty) -> ServerStats
};

/// Largest payload either side accepts (a JobStats is a few hundred
/// bytes).  A longer length header is never allocated: the reader drops
/// the connection instead.
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

/// Writes one frame with a single net::write_full; false on error.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload);

/// Reads one frame into `payload`; false on EOF, error, or a length above
/// kMaxFramePayload.
bool read_frame(int fd, std::vector<std::uint8_t>& payload);

}  // namespace sdsm::serve
