#include "src/api/backend.hpp"

#include <algorithm>
#include <cctype>
#include <string>

namespace sdsm::api {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kChaos:
      return "CHAOS";
    case Backend::kTmkBase:
      return "Tmk base";
    case Backend::kTmkOptimized:
      return "Tmk optimized";
    case Backend::kHybrid:
      return "hybrid";
  }
  return "?";
}

std::optional<Backend> parse_backend(std::string_view name) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return c == ' ' || c == '_' ? '-' : static_cast<char>(std::tolower(c));
  });
  if (s == "chaos") return Backend::kChaos;
  if (s == "tmk-base" || s == "tmk" || s == "base") return Backend::kTmkBase;
  if (s == "tmk-optimized" || s == "tmk-opt" || s == "optimized") {
    return Backend::kTmkOptimized;
  }
  if (s == "hybrid") return Backend::kHybrid;
  return std::nullopt;
}

const char* round_schedule_name(RoundSchedule s) {
  switch (s) {
    case RoundSchedule::kSerial:
      return "serial";
    case RoundSchedule::kTournament:
      return "tournament";
  }
  return "?";
}

std::optional<RoundSchedule> parse_round_schedule(std::string_view name) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (s == "serial") return RoundSchedule::kSerial;
  if (s == "tournament") return RoundSchedule::kTournament;
  return std::nullopt;
}

const char* deploy_mode_name(DeployMode m) {
  switch (m) {
    case DeployMode::kThreads:
      return "threads";
    case DeployMode::kProcesses:
      return "processes";
  }
  return "?";
}

std::optional<DeployMode> parse_deploy_mode(std::string_view name) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (s == "threads" || s == "thread") return DeployMode::kThreads;
  if (s == "processes" || s == "process" || s == "proc") {
    return DeployMode::kProcesses;
  }
  return std::nullopt;
}

}  // namespace sdsm::api
