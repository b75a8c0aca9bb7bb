#include "src/serve/job.hpp"

#include <algorithm>
#include <cstring>

#include "src/net/sockio.hpp"

namespace sdsm::serve {

void encode(Writer& w, const GraphSpec& g) {
  w.put<std::int64_t>(g.num_elements);
  w.put<std::int32_t>(g.num_steps);
  w.put<std::int32_t>(g.warmup_steps);
  w.put<std::int32_t>(g.update_interval);
  w.put<std::int32_t>(g.edges_per_vertex);
  w.put<std::int32_t>(g.chords_per_vertex);
  w.put<std::int32_t>(g.partners);
  w.put<std::uint64_t>(g.seed);
}

GraphSpec decode_graph(Reader& r) {
  GraphSpec g;
  g.num_elements = r.get<std::int64_t>();
  g.num_steps = r.get<std::int32_t>();
  g.warmup_steps = r.get<std::int32_t>();
  g.update_interval = r.get<std::int32_t>();
  g.edges_per_vertex = r.get<std::int32_t>();
  g.chords_per_vertex = r.get<std::int32_t>();
  g.partners = r.get<std::int32_t>();
  g.seed = r.get<std::uint64_t>();
  return g;
}

void encode(Writer& w, const JobRequest& req) {
  w.put_string(req.kernel);
  encode(w, req.graph);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.backend));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.schedule));
  w.put<std::uint8_t>(req.cross_step_prefetch ? 1 : 0);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.coherence));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.transport));
}

JobRequest decode_request(Reader& r) {
  JobRequest req;
  req.kernel = r.get_string();
  req.graph = decode_graph(r);
  req.backend = static_cast<api::Backend>(r.get<std::uint8_t>());
  req.schedule = static_cast<api::RoundSchedule>(r.get<std::uint8_t>());
  req.cross_step_prefetch = r.get<std::uint8_t>() != 0;
  req.coherence =
      static_cast<coherence::CoherencePolicy>(r.get<std::uint8_t>());
  req.transport = static_cast<net::TransportKind>(r.get<std::uint8_t>());
  return req;
}

void encode(Writer& w, const JobStats& s) {
  w.put<std::uint64_t>(s.job_id);
  w.put<std::uint8_t>(s.ok ? 1 : 0);
  w.put_string(s.error);
  w.put_string(s.kernel);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(s.backend));
  w.put<std::uint8_t>(s.cache_eligible ? 1 : 0);
  w.put<std::uint8_t>(s.cache_hit ? 1 : 0);
  w.put<std::int64_t>(s.inspector_runs);
  w.put<std::uint64_t>(s.structure_messages);
  w.put<std::uint64_t>(s.structure_bytes);
  w.put<double>(s.checksum);
  w.put<std::uint64_t>(s.messages);
  w.put<double>(s.megabytes);
  w.put<std::int64_t>(s.steps_run);
  w.put<std::int64_t>(s.rebuilds);
  w.put<std::uint64_t>(s.replications);
  w.put<std::uint64_t>(s.migrations);
  w.put<std::uint64_t>(s.ghost_promotions);
  w.put<double>(s.queue_seconds);
  w.put<double>(s.run_seconds);
}

JobStats decode_stats(Reader& r) {
  JobStats s;
  s.job_id = r.get<std::uint64_t>();
  s.ok = r.get<std::uint8_t>() != 0;
  s.error = r.get_string();
  s.kernel = r.get_string();
  s.backend = static_cast<api::Backend>(r.get<std::uint8_t>());
  s.cache_eligible = r.get<std::uint8_t>() != 0;
  s.cache_hit = r.get<std::uint8_t>() != 0;
  s.inspector_runs = r.get<std::int64_t>();
  s.structure_messages = r.get<std::uint64_t>();
  s.structure_bytes = r.get<std::uint64_t>();
  s.checksum = r.get<double>();
  s.messages = r.get<std::uint64_t>();
  s.megabytes = r.get<double>();
  s.steps_run = r.get<std::int64_t>();
  s.rebuilds = r.get<std::int64_t>();
  s.replications = r.get<std::uint64_t>();
  s.migrations = r.get<std::uint64_t>();
  s.ghost_promotions = r.get<std::uint64_t>();
  s.queue_seconds = r.get<double>();
  s.run_seconds = r.get<double>();
  return s;
}

void encode(Writer& w, const ServerStats& s) {
  w.put<std::uint64_t>(s.submitted);
  w.put<std::uint64_t>(s.rejected);
  w.put<std::uint64_t>(s.completed);
  w.put<std::uint64_t>(s.failed);
  w.put<std::uint64_t>(s.cache_hits);
  w.put<std::uint64_t>(s.cache_misses);
  w.put<std::uint64_t>(s.queue_depth);
  w.put<std::uint64_t>(s.in_flight);
}

ServerStats decode_server_stats(Reader& r) {
  ServerStats s;
  s.submitted = r.get<std::uint64_t>();
  s.rejected = r.get<std::uint64_t>();
  s.completed = r.get<std::uint64_t>();
  s.failed = r.get<std::uint64_t>();
  s.cache_hits = r.get<std::uint64_t>();
  s.cache_misses = r.get<std::uint64_t>();
  s.queue_depth = r.get<std::uint64_t>();
  s.in_flight = r.get<std::uint64_t>();
  return s;
}

void encode(Writer& w, const SubmitResult& s) {
  w.put<std::uint8_t>(s.accepted ? 1 : 0);
  w.put<std::uint64_t>(s.job_id);
  w.put_string(s.reason);
}

SubmitResult decode_submit_result(Reader& r) {
  SubmitResult s;
  s.accepted = r.get<std::uint8_t>() != 0;
  s.job_id = r.get<std::uint64_t>();
  s.reason = r.get_string();
  return s;
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame(sizeof(len) + payload.size());
  std::memcpy(frame.data(), &len, sizeof(len));
  std::copy(payload.begin(), payload.end(), frame.begin() + sizeof(len));
  return net::write_full(fd, frame.data(), frame.size());
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint32_t len = 0;
  if (!net::read_full(fd, &len, sizeof(len)) || len > kMaxFramePayload) {
    return false;
  }
  payload.resize(len);
  return len == 0 || net::read_full(fd, payload.data(), len);
}

}  // namespace sdsm::serve
