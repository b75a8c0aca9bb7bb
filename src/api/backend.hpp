// Backend selection for the unified irregular-kernel API.
//
// The paper's experiment is exactly a backend sweep: the same irregular
// application run on CHAOS (hand-written inspector/executor), on base
// TreadMarks (demand paging), and on TreadMarks with the compiler-inserted
// Validate optimization.  This enum names those three execution strategies
// so harnesses can sweep them uniformly and applications never mention a
// concrete runtime.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "src/chaos/translation_table.hpp"
#include "src/coherence/coherence.hpp"
#include "src/common/types.hpp"
#include "src/net/transport.hpp"

namespace sdsm::api {

enum class Backend : std::uint8_t {
  kChaos,         ///< CHAOS-style message passing: inspector/executor
  kTmkBase,       ///< TreadMarks DSM, demand paging only
  kTmkOptimized,  ///< TreadMarks DSM + compiler-driven Validate aggregation
  /// The state partition stays under the Tmk page protocol while the
  /// indirection-driven reads and reductions are resolved by
  /// inspector-built schedules riding the DSM's application-data plane
  /// (src/api/plan/dsm_driver.hpp).
  kHybrid,
};

/// The paper's three-way sweep.  kHybrid is deliberately NOT here: the
/// committed baselines (BENCH_api.json, test_api checksum tables) enumerate
/// exactly the paper's backends, and hybrid rows/groups are additive.
inline constexpr Backend kAllBackends[] = {Backend::kChaos, Backend::kTmkBase,
                                           Backend::kTmkOptimized};

/// Stable display name: "CHAOS" | "Tmk base" | "Tmk optimized" (the labels
/// the paper's tables use) | "hybrid".
const char* backend_name(Backend b);

/// Parses "chaos" | "tmk-base" | "tmk-optimized" | "hybrid" (plus the
/// display names, case-insensitively); nullopt when unrecognized.
std::optional<Backend> parse_backend(std::string_view name);

/// How the Tmk backends order the pipelined update of the shared reduction
/// array (the f accumulation after each compute step).
enum class RoundSchedule : std::uint8_t {
  /// The rotation pipeline: nprocs rounds, round r updates chunk
  /// (me + r) % nprocs in place, one barrier per round.  Per chunk the
  /// contributions form a serial read-modify-write chain, which is what
  /// costs nprocs barriers per step.
  kSerial,
  /// The tournament (round-robin pairing) schedule: per chunk, the
  /// contributing nodes pair off and combine partial sums through a shared
  /// scratch array, halving the field each fused round, and only the owner
  /// writes f.  Rounds whose chunk ranges do not conflict share one
  /// barrier, so the per-step barrier count drops from nprocs to
  /// ceil(log2(max contributors per chunk)).  Which nodes contribute to
  /// which chunk is read from a touch matrix the nodes publish through the
  /// DSM at each rebuild, so every node derives the identical schedule.
  kTournament,
};

inline constexpr RoundSchedule kAllSchedules[] = {RoundSchedule::kSerial,
                                                 RoundSchedule::kTournament};

/// Stable display name: "serial" | "tournament".
const char* round_schedule_name(RoundSchedule s);

/// Parses "serial" | "tournament" case-insensitively; nullopt otherwise.
std::optional<RoundSchedule> parse_round_schedule(std::string_view name);

/// Stable display name: "threads" | "processes".
const char* deploy_mode_name(DeployMode m);

/// Parses "threads" | "processes" (and a few aliases) case-insensitively;
/// nullopt otherwise.
std::optional<DeployMode> parse_deploy_mode(std::string_view name);

/// Per-run tuning knobs that are about the *execution substrate*, not the
/// kernel.  Each backend reads the subset that applies to it.
struct BackendOptions {
  /// Which fabric carries the traffic (all backends share it, so
  /// message/byte counts stay comparable — the paper's premise):
  /// in-process channels with the simulated `wire` cost below, or real
  /// TCP sockets over localhost where wire cost is measured instead.
  net::TransportKind transport = net::TransportKind::kInProc;
  /// Simulated interconnect cost model (in-process transport only).
  net::WireModel wire{};

  // --- TreadMarks backends --------------------------------------------------
  /// Address space each node reserves for the shared heap, and the heap's
  /// capacity; per-node page metadata follows the allocated heap.
  std::size_t region_bytes = 256u << 20;
  bool write_all_enabled = true;  ///< WRITE_ALL twin elision (ablations)
  /// Reduction-round engine; serial is the committed-baseline default.
  RoundSchedule round_schedule = RoundSchedule::kSerial;
  /// Post the next reduction round's aggregated diff requests from the
  /// barrier return path (DsmNode::post_validate_prefetch), completing
  /// them at first use.  Optimized Tmk backend only; traffic is provably
  /// identical with and without it — only the wait moves.
  bool cross_step_prefetch = false;
  /// Adaptive coherence engine (src/coherence/): kStatic (default) keeps
  /// the protocol byte-identical to the committed baseline; kAdaptive lets
  /// the per-page heat census replicate, migrate, or ghost hot regions.
  /// Tmk backends only — CHAOS has no page protocol to adapt.
  coherence::CoherencePolicy coherence = coherence::CoherencePolicy::kStatic;

  // --- CHAOS backend --------------------------------------------------------
  chaos::TableKind table = chaos::TableKind::kDistributed;
};

}  // namespace sdsm::api
