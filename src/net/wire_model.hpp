// Simulated communication cost model for the in-process fabric.
#pragma once

#include <chrono>
#include <cstdint>

namespace sdsm::net {

/// Communication cost model.  With both fields zero (the default, used by
/// unit tests) messages are delivered immediately.  Bench configurations
/// enable it to restore a realistic latency/bandwidth ratio; the paper-table
/// benches use bench::sp2_wire() (bench/bench_params.hpp).  Only the
/// in-process transport simulates it; the socket transport's wire cost is
/// real and therefore measured, not modelled.
struct WireModel {
  double latency_us = 0.0;  ///< fixed cost per message
  double us_per_kb = 0.0;   ///< serialization cost per 1024 payload bytes
  /// Upper bound of additional uniformly distributed random delay, used by
  /// stress tests to perturb interleavings.  0 disables jitter.
  double jitter_us = 0.0;
  std::uint64_t jitter_seed = 1;

  bool enabled() const { return latency_us > 0 || us_per_kb > 0 || jitter_us > 0; }

  std::chrono::nanoseconds cost(std::size_t payload_bytes, double jitter01) const {
    const double us = latency_us +
                      us_per_kb * (static_cast<double>(payload_bytes) / 1024.0) +
                      jitter_us * jitter01;
    return std::chrono::nanoseconds(static_cast<std::int64_t>(us * 1e3));
  }
};

}  // namespace sdsm::net
