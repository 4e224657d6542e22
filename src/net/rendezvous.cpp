#include "net/rendezvous.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "common/bytes.h"
#include "common/check.h"

namespace pdw::net {

namespace {

// Datagram layout (little-endian):
//   JOIN:    magic, kind=1, node u32, ip u32, port u32
//   WAIT:    magic, kind=2
//   MAP:     magic, kind=3, count u32, count x (ip u32, port u32)
//   MAP_ACK: magic, kind=4, node u32
constexpr uint32_t kRvMagic = 0x50445752u;  // 'PDWR'
constexpr uint32_t kJoin = 1, kWait = 2, kMap = 3, kMapAck = 4;

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

int open_udp(uint16_t port, Endpoint* local) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  PDW_CHECK_GE(fd, 0);
  sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackIp, port});
  PDW_CHECK_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  PDW_CHECK_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  *local = Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};
  return fd;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wait up to timeout_s for one datagram. Returns its length, or -1.
ssize_t recv_one(int fd, uint8_t* buf, size_t cap, double timeout_s,
                 sockaddr_in* from) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, std::max(0, int(timeout_s * 1000))) <= 0) return -1;
  socklen_t slen = sizeof(*from);
  return ::recvfrom(fd, buf, cap, 0, reinterpret_cast<sockaddr*>(from), &slen);
}

}  // namespace

RendezvousStatus rendezvous_join(Endpoint server, int self, Endpoint local,
                                 int nodes, std::vector<Endpoint>* out,
                                 RendezvousConfig cfg) {
  Endpoint bound;
  const int fd = open_udp(0, &bound);
  sockaddr_in srv = to_sockaddr(server);

  uint8_t join[20];
  ByteWriter jw(join, sizeof(join));
  jw.u32(kRvMagic);
  jw.u32(kJoin);
  jw.u32(uint32_t(self));
  jw.u32(local.ip);
  jw.u32(local.port);

  const double deadline = now_s() + cfg.timeout_s;
  double backoff = cfg.backoff_initial_s;
  bool have_map = false;

  while (now_s() < deadline) {
    if (!have_map)
      ::sendto(fd, join, sizeof(join), 0, reinterpret_cast<sockaddr*>(&srv),
               sizeof(srv));
    // After the map arrived, linger briefly re-acking resends (our first
    // MAP_ACK may have been lost); a quiet window means the listener heard.
    const double wait = have_map
                            ? 0.12
                            : std::min(backoff, deadline - now_s());
    backoff = std::min(backoff * 2, cfg.backoff_max_s);

    uint8_t buf[16 + 8 * 512];
    sockaddr_in from{};
    const ssize_t n = recv_one(fd, buf, sizeof(buf), wait, &from);
    if (n < 0) {
      if (have_map) break;  // quiet after MAP: done
      continue;
    }
    ByteReader r({buf, size_t(n)});
    const uint32_t magic = r.u32();
    const uint32_t kind = r.u32();
    const uint32_t count = r.u32();
    if (magic != kRvMagic || kind != kMap || int64_t(count) != nodes ||
        !r.count(count, 8))
      continue;
    out->resize(count);
    for (Endpoint& ep : *out) {
      ep.ip = r.u32();
      ep.port = uint16_t(r.u32());
    }
    uint8_t ack[12];
    ByteWriter aw(ack, sizeof(ack));
    aw.u32(kRvMagic);
    aw.u32(kMapAck);
    aw.u32(uint32_t(self));
    ::sendto(fd, ack, sizeof(ack), 0, reinterpret_cast<sockaddr*>(&srv),
             sizeof(srv));
    have_map = true;
  }
  ::close(fd);
  return have_map ? RendezvousStatus::kOk : RendezvousStatus::kTimeout;
}

RendezvousServer::RendezvousServer(int nodes, uint16_t port)
    : nodes_(nodes),
      map_(size_t(nodes)),
      join_source_(size_t(nodes)),
      joined_(size_t(nodes), false),
      acked_(size_t(nodes), false) {
  fd_ = open_udp(port, &local_);
}

RendezvousServer::~RendezvousServer() {
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) ::close(fd_);
}

RendezvousStatus RendezvousServer::serve(RendezvousConfig cfg) {
  const double deadline = now_s() + cfg.timeout_s;
  double next_push = 0;  // MAP resend pacing once everyone joined

  while (now_s() < deadline) {
    const bool all_joined =
        std::all_of(joined_.begin(), joined_.end(), [](bool b) { return b; });
    if (all_joined &&
        std::all_of(acked_.begin(), acked_.end(), [](bool b) { return b; }))
      return RendezvousStatus::kOk;

    uint8_t buf[64];
    sockaddr_in from{};
    const ssize_t n = recv_one(fd_, buf, sizeof(buf), 0.05, &from);
    const double t = now_s();

    ByteReader r({buf, size_t(std::max<ssize_t>(n, 0))});
    const uint32_t magic = r.u32();
    const uint32_t kind = r.u32();
    const uint32_t node = r.u32();
    if (r.ok() && magic == kRvMagic) {
      if (kind == kJoin) {
        const uint32_t ip = r.u32();
        const uint32_t port = r.u32();
        if (r.ok() && node < uint32_t(nodes_)) {
          map_[node] = Endpoint{ip, uint16_t(port)};
          join_source_[node] = Endpoint{ntohl(from.sin_addr.s_addr),
                                        ntohs(from.sin_port)};
          joined_[node] = true;
          if (!all_joined) {
            // Not complete yet (this JOIN may have completed it; the next
            // loop iteration pushes the map). Tell the joiner to hold on.
            uint8_t wait[8];
            ByteWriter ww(wait, sizeof(wait));
            ww.u32(kRvMagic);
            ww.u32(kWait);
            ::sendto(fd_, wait, sizeof(wait), 0,
                     reinterpret_cast<sockaddr*>(&from), sizeof(from));
          }
        }
      } else if (kind == kMapAck && node < uint32_t(nodes_)) {
        acked_[node] = true;
      }
    }

    if (std::all_of(joined_.begin(), joined_.end(),
                    [](bool b) { return b; }) &&
        t >= next_push) {
      if (!transformed_) {
        handout_ = transform_ ? transform_(map_) : map_;
        PDW_CHECK_EQ(int(handout_.size()), nodes_);
        transformed_ = true;
      }
      // Push MAP to every unacked joiner (initial send and loss recovery).
      uint8_t map[12 + 8 * 512];
      ByteWriter mw(map, sizeof(map));
      mw.u32(kRvMagic);
      mw.u32(kMap);
      mw.u32(uint32_t(nodes_));
      for (const Endpoint& ep : handout_) {
        mw.u32(ep.ip);
        mw.u32(ep.port);
      }
      const size_t map_len = mw.size();
      for (int i = 0; i < nodes_; ++i) {
        if (acked_[size_t(i)]) continue;
        // MAP goes to the joiner's rendezvous socket (the JOIN source), not
        // its fabric endpoint — they are different sockets.
        sockaddr_in to = to_sockaddr(join_source_[size_t(i)]);
        ::sendto(fd_, map, map_len, 0, reinterpret_cast<sockaddr*>(&to),
                 sizeof(to));
      }
      next_push = t + 0.05;
    }
  }
  return RendezvousStatus::kTimeout;
}

void RendezvousServer::serve_async(RendezvousConfig cfg) {
  thread_ = std::thread([this, cfg] { async_result_ = serve(cfg); });
}

RendezvousStatus RendezvousServer::result() {
  if (thread_.joinable()) thread_.join();
  return async_result_;
}

}  // namespace pdw::net
