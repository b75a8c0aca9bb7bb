#include "src/harness/options.hpp"

#include <cstdio>
#include <cstdlib>
#include <algorithm>

namespace sdsm::harness {

namespace {

[[noreturn]] void usage_exit(const char* flag, std::string_view got,
                             const char* expected) {
  std::fprintf(stderr, "unknown %s value '%.*s' (expected %s)\n", flag,
               static_cast<int>(got.size()), got.data(), expected);
  std::exit(2);
}

/// Splits "--flag=value" / "--flag value" for one known flag; advances `i`
/// past a detached value.  Returns nullopt when argv[i] is not `flag`.
std::optional<std::string_view> take_value(int argc, char** argv, int& i,
                                           std::string_view flag) {
  const std::string_view arg(argv[i]);
  if (arg.size() > flag.size() && arg.substr(0, flag.size()) == flag &&
      arg[flag.size()] == '=') {
    return arg.substr(flag.size() + 1);
  }
  if (arg == flag) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%.*s needs a value\n",
                   static_cast<int>(flag.size()), flag.data());
      std::exit(2);
    }
    return std::string_view(argv[++i]);
  }
  return std::nullopt;
}

}  // namespace

Options Options::parse(int argc, char** argv) {
  Options o;
  std::vector<api::Backend> picked;
  for (int i = 1; i < argc; ++i) {
    if (const auto v = take_value(argc, argv, i, "--transport")) {
      if (const auto kind = net::parse_transport(*v)) {
        o.transport = *kind;
      } else {
        usage_exit("--transport", *v, "inproc|socket");
      }
    } else if (const auto v = take_value(argc, argv, i, "--backend")) {
      std::string_view rest = *v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string_view one = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{}
                                               : rest.substr(comma + 1);
        if (const auto b = api::parse_backend(one)) {
          picked.push_back(*b);
        } else {
          usage_exit("--backend", one, "chaos|tmk-base|tmk-optimized|hybrid");
        }
      }
    } else if (const auto v = take_value(argc, argv, i, "--schedule")) {
      if (const auto s = api::parse_round_schedule(*v)) {
        o.schedule = *s;
      } else {
        usage_exit("--schedule", *v, "serial|tournament");
      }
    } else if (const auto v = take_value(argc, argv, i, "--mode")) {
      if (const auto m = api::parse_deploy_mode(*v)) {
        o.mode = *m;
      } else {
        usage_exit("--mode", *v, "threads|processes");
      }
    } else if (const auto v = take_value(argc, argv, i, "--coherence")) {
      if (const auto c = coherence::parse_coherence_policy(*v)) {
        o.coherence = *c;
      } else {
        usage_exit("--coherence", *v, "static|adaptive");
      }
    } else {
      o.extras_.emplace_back(argv[i]);
    }
  }
  // Sweep order (and dedup) always follows kAllBackends, so tables keep a
  // stable row order no matter how the flags were spelled.  Hybrid is not
  // part of the default sweep (kAllBackends is the paper's three-way), so
  // it joins the list only when asked for, ordered last.
  for (const api::Backend b : api::kAllBackends) {
    if (picked.empty() || std::find(picked.begin(), picked.end(), b) !=
                              picked.end()) {
      o.backends.push_back(b);
    }
  }
  if (std::find(picked.begin(), picked.end(), api::Backend::kHybrid) !=
      picked.end()) {
    o.backends.push_back(api::Backend::kHybrid);
  }
  return o;
}

bool Options::flag(std::string_view name) const {
  for (const std::string& e : extras_) {
    const std::string_view arg(e);
    if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
      const std::string_view body = arg.substr(2);
      if (body == name) return true;
      if (body.size() > name.size() && body.substr(0, name.size()) == name &&
          body[name.size()] == '=') {
        return true;
      }
    }
  }
  return false;
}

std::optional<std::string> Options::value(std::string_view name) const {
  for (std::size_t i = 0; i < extras_.size(); ++i) {
    const std::string_view arg(extras_[i]);
    if (arg.size() < 2 || arg.substr(0, 2) != "--") continue;
    const std::string_view body = arg.substr(2);
    if (body.size() > name.size() && body.substr(0, name.size()) == name &&
        body[name.size()] == '=') {
      return std::string(body.substr(name.size() + 1));
    }
    if (body == name && i + 1 < extras_.size() &&
        extras_[i + 1].rfind("--", 0) != 0) {
      return extras_[i + 1];
    }
  }
  return std::nullopt;
}

}  // namespace sdsm::harness
