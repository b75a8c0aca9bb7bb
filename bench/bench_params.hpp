// Shared configuration for the paper-table benches.
//
// Scale: the paper ran 16384 molecules for 40 steps on an 8-node IBM SP2
// (seq = 267 s).  These benches run scaled-down problems that finish in
// seconds; the table drivers' header comments record the mapping.  The
// wire-cost model restores an SP2-like communication/computation ratio:
// the SP2's user-level UDP transport cost TreadMarks a few hundred
// microseconds per message and ~25 us/KB of payload; scaled here to keep
// the per-run message cost visible against the smaller compute time.
#pragma once

#include "src/net/network.hpp"

namespace sdsm::bench {

inline constexpr std::uint32_t kNodes = 8;

inline net::WireModel sp2_wire() {
  net::WireModel w;
  w.latency_us = 60;
  w.us_per_kb = 25;
  return w;
}

}  // namespace sdsm::bench
