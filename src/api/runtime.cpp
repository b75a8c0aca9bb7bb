#include "src/api/runtime.hpp"

#include "src/api/chaos_backend.hpp"
#include "src/api/tmk_backend.hpp"
#include "src/common/assert.hpp"

namespace sdsm::api {

std::unique_ptr<IrregularRuntime> make_runtime(Backend backend,
                                               std::uint32_t num_nodes,
                                               BackendOptions options) {
  SDSM_REQUIRE(num_nodes > 0);
  switch (backend) {
    case Backend::kChaos:
      return std::make_unique<ChaosBackend>(num_nodes, options);
    case Backend::kTmkBase:
    case Backend::kTmkOptimized:
    case Backend::kHybrid:
      return std::make_unique<TmkBackend>(num_nodes, backend, options);
  }
  SDSM_UNREACHABLE("unknown backend");
}

}  // namespace sdsm::api
