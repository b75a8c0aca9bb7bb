// harness::Options — the one command-line surface every sdsm binary
// shares, replacing the per-binary copies of --transport / --backend /
// --schedule parsing that had drifted apart.
//
//   --transport=inproc|socket          fabric (default inproc)
//   --backend=chaos|tmk-base|tmk-optimized|hybrid
//                                      restrict the backend sweep; repeat
//                                      the flag (or comma-separate) for a
//                                      subset; default is all three
//   --schedule=serial|tournament       Tmk reduction-round engine
//   --mode=threads|processes           deployment: node threads in this
//                                      process, or spawned worker
//                                      processes (sdsm::proc; Tmk only)
//   --coherence=static|adaptive        page-coherence policy (default
//                                      static; adaptive enables the heat-
//                                      driven replicate/migrate/ghost
//                                      engine on the Tmk backends)
//
// Unrecognized arguments are kept verbatim and queryable through flag() /
// value(), so binary-specific switches (serve_app's --smoke, --port)
// parse through the same object.  A malformed recognized flag exits(2)
// with a usage message — a typo must never silently bench the wrong
// configuration.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/backend.hpp"
#include "src/coherence/coherence.hpp"
#include "src/net/transport.hpp"

namespace sdsm::harness {

class Options {
 public:
  /// Parses argv (argv[0] ignored).  Exits(2) on malformed recognized
  /// flags; everything unrecognized lands in the extras.
  static Options parse(int argc, char** argv);

  net::TransportKind transport = net::TransportKind::kInProc;
  /// The backends to sweep, in kAllBackends order (deduplicated).
  std::vector<api::Backend> backends;
  api::RoundSchedule schedule = api::RoundSchedule::kSerial;
  DeployMode mode = DeployMode::kThreads;
  coherence::CoherencePolicy coherence = coherence::CoherencePolicy::kStatic;

  /// True when `--name` appeared among the extras (with or without value).
  bool flag(std::string_view name) const;

  /// The value of `--name=V` or `--name V` among the extras, if present.
  std::optional<std::string> value(std::string_view name) const;

 private:
  std::vector<std::string> extras_;
};

}  // namespace sdsm::harness
