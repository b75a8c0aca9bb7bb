#include "src/proc/report.hpp"

#include <cstdio>

namespace sdsm::proc {

namespace {
constexpr std::uint32_t kReportMagic = 0x5DD50010;
constexpr std::uint32_t kReportVersion = 3;
}  // namespace

void encode(Writer& w, const WorkerReport& r) {
  w.put(kReportMagic);
  w.put(kReportVersion);
  w.put<std::uint32_t>(r.node);
  w.put<std::uint8_t>(r.ok ? 1 : 0);
  w.put_string(r.error);
  const api::KernelResult& k = r.result;
  w.put<std::uint8_t>(static_cast<std::uint8_t>(k.backend));
  w.put(k.checksum);
  w.put(k.seconds);
  w.put(k.messages);
  w.put(k.megabytes);
  w.put(k.bytes);
  w.put(k.overhead_seconds);
  w.put(k.diff_create_seconds);
  w.put(k.diff_apply_seconds);
  w.put(k.rebuilds);
  w.put(k.steps_run);
  w.put(k.refs);
  w.put(k.max_row);
  w.put(k.barriers_per_step);
  for (const DsmCounter& c : kDsmCounters) w.put(k.tmk.*c.value);
}

WorkerReport decode_report(Reader& r) {
  WorkerReport out;
  SDSM_REQUIRE_MSG(r.get<std::uint32_t>() == kReportMagic &&
                       r.get<std::uint32_t>() == kReportVersion,
                   "WorkerReport: bad magic/version");
  out.node = r.get<std::uint32_t>();
  out.ok = r.get<std::uint8_t>() != 0;
  out.error = r.get_string();
  api::KernelResult& k = out.result;
  k.backend = static_cast<api::Backend>(r.get<std::uint8_t>());
  k.checksum = r.get<double>();
  k.seconds = r.get<double>();
  k.messages = r.get<std::uint64_t>();
  k.megabytes = r.get<double>();
  k.bytes = r.get<std::uint64_t>();
  k.overhead_seconds = r.get<double>();
  k.diff_create_seconds = r.get<double>();
  k.diff_apply_seconds = r.get<double>();
  k.rebuilds = r.get<std::int64_t>();
  k.steps_run = r.get<std::int64_t>();
  k.refs = r.get<std::uint64_t>();
  k.max_row = r.get<std::uint64_t>();
  k.barriers_per_step = r.get<double>();
  for (const DsmCounter& c : kDsmCounters) {
    k.tmk.*c.value = r.get<std::uint64_t>();
  }
  return out;
}

bool write_report_file(const std::string& path, const WorkerReport& r) {
  Writer w;
  encode(w, r);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::vector<std::uint8_t>& bytes = w.bytes();
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

std::optional<WorkerReport> read_report_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  Reader r(bytes);
  if (r.remaining() < 8) return std::nullopt;
  return decode_report(r);
}

}  // namespace sdsm::proc
