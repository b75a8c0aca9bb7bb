#include "src/net/transport.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "src/common/assert.hpp"
#include "src/net/network.hpp"
#include "src/net/socket_transport.hpp"

namespace sdsm::net {

const char* transport_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc:
      return "inproc";
    case TransportKind::kSocket:
      return "socket";
  }
  return "?";
}

std::optional<TransportKind> parse_transport(std::string_view name) {
  std::string s(name);
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  if (s == "inproc" || s == "in-proc" || s == "inprocess") {
    return TransportKind::kInProc;
  }
  if (s == "socket" || s == "tcp") return TransportKind::kSocket;
  return std::nullopt;
}

bool Transport::serve_inline(NodeId /*node*/, ServiceHandler /*handler*/) {
  return false;
}

Ticket Transport::post(Message msg) {
  msg.request_id = next_request_id(msg.src);
  const Ticket t{msg.src, msg.request_id};
  send(Port::kService, std::move(msg));
  return t;
}

std::vector<Message> Transport::wait_all(std::span<const Ticket> tickets) {
  std::vector<Message> out(tickets.size());
  std::vector<bool> done(tickets.size(), false);
  // Opportunistic sweep first: consume whatever already arrived, so the
  // blocking passes below only ever sleep on genuine stragglers.
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (auto m = poll(tickets[i])) {
      out[i] = std::move(*m);
      done[i] = true;
    }
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (!done[i]) out[i] = wait(tickets[i]);
  }
  return out;
}

void Transport::stop_service(NodeId n) {
  Message stop;
  stop.type = kControlStop;
  stop.src = n;
  stop.dst = n;
  send(Port::kService, std::move(stop));
}

void Transport::stop_all_services() {
  for (std::uint32_t n = 0; n < num_nodes(); ++n) stop_service(n);
}

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          std::uint32_t num_nodes,
                                          WireModel wire) {
  switch (kind) {
    case TransportKind::kInProc:
      return std::make_unique<InProcTransport>(num_nodes, wire);
    case TransportKind::kSocket:
      return std::make_unique<SocketTransport>(num_nodes, wire);
  }
  SDSM_UNREACHABLE("unknown transport kind");
}

}  // namespace sdsm::net
