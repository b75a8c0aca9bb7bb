// Shared types for the evaluation applications (moldyn, nbf, spmv,
// pagerank).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/vec.hpp"

namespace sdsm::apps {

using sdsm::double3;

/// A CSR structure over int32 element ids: row i's values are
/// values[offsets[i] .. offsets[i+1]).  The one shape every variable-arity
/// application structure shares (nbf partner lists, pagerank adjacency).
struct Csr {
  std::vector<std::int64_t> offsets;  ///< rows() + 1 entries
  std::vector<std::int32_t> values;

  std::size_t rows() const {
    return offsets.size() <= 1 ? 0 : offsets.size() - 1;
  }
  std::span<const std::int32_t> row(std::size_t i) const {
    const auto lo = static_cast<std::size_t>(offsets[i]);
    return std::span<const std::int32_t>(values).subspan(
        lo, static_cast<std::size_t>(offsets[i + 1]) - lo);
  }
};

/// Result of one sequential reference run: the checksum parallel runs are
/// validated against and the time speedups are taken over.  A sequential
/// run has no traffic; parallel runs through sdsm::api return
/// api::KernelResult.
struct AppRunResult {
  double checksum = 0;  ///< order-insensitive force/position digest
  double seconds = 0;   ///< timed section (excludes init/partitioning)
};

/// True when two checksums agree to a relative tolerance that absorbs
/// floating-point reassociation across variants.
inline bool checksum_close(double a, double b, double rel = 1e-9) {
  const double scale = std::fmax(1.0, std::fmax(std::fabs(a), std::fabs(b)));
  return std::fabs(a - b) <= rel * scale;
}

}  // namespace sdsm::apps
