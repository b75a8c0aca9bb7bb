// Public knobs of the adaptive coherence engine.
//
// The engine watches per-page write traffic (a deterministic census folded
// from the interval write notices every node already exchanges) and, at
// each barrier rendezvous, classifies pages so the protocol can switch
// mechanism per page: a page with one sustained writer is REPLICATED (the
// writer pushes its diff inside the write notice instead of letting every
// reader fault and fetch), and stable indirection regions are promoted to
// CHAOS-style ghost zones (validate skips re-scanning them).  Every other
// page, multi-writer pages included, keeps the lazy invalidate+fetch
// protocol.  CoherencePolicy::kStatic switches all of it off and must leave
// the protocol byte-identical to a build without this subsystem.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sdsm::coherence {

enum class CoherencePolicy : std::uint8_t {
  kStatic = 0,    ///< fixed invalidate+fetch protocol (the baseline)
  kAdaptive = 1,  ///< census-driven replicate / ghost decisions
};

constexpr std::string_view coherence_policy_name(CoherencePolicy p) {
  return p == CoherencePolicy::kAdaptive ? "adaptive" : "static";
}

inline std::optional<CoherencePolicy> parse_coherence_policy(
    std::string_view s) {
  if (s == "static") return CoherencePolicy::kStatic;
  if (s == "adaptive") return CoherencePolicy::kAdaptive;
  return std::nullopt;
}

// Thresholds of the policy engine.  Every node must evaluate the census
// with identical thresholds, so they are constants of the build.

/// Consecutive write epochs a sole writer must sustain before its page is
/// replicated.  Below this, a page that is written once and then only read
/// still pays one fetch round per reader.
inline constexpr std::uint32_t kReplEpochs = 2;

/// Epochs a schedule's indirection pages must stay untouched before the
/// schedule is promoted to a ghost zone.
inline constexpr std::uint32_t kGhostEpochs = 3;

}  // namespace sdsm::coherence
