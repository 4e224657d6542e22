#include "net/socket_fabric.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <linux/errqueue.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/bytes.h"

namespace pdw::net {

namespace {

// Datagram layout (little-endian): the full Message header plus
// fragmentation fields, integrity-checked by a trailing header CRC so a
// corrupt header can never misroute bytes into the wrong reassembly slot
// (payload integrity stays end-to-end in ReliableEndpoint's envelope).
//
//   off  field
//    0   magic          u32  'PDWF'
//    4   src            i32
//    8   type           i32
//   12   seq            u32
//   16   aux            u16
//   18   stream         u8
//   19   bulk           u8
//   20   tseq           u32
//   24   crc            u32  (payload CRC-32, stamped by ReliableEndpoint)
//   28   msg_id         u32  (per-sender reassembly key)
//   32   frag_index     u16
//   34   frag_count     u16
//   36   payload_total  u32
//   40   frag_off       u32
//   44   header_crc     u32  (CRC-32 of bytes [0, 44))
//   48   payload fragment...
constexpr uint32_t kMagic = 0x50445746u;  // 'PDWF'
// Largest fragment payload per datagram (= kMaxFragmentBytes): comfortably
// under the 64 KiB UDP limit. Receive buffers are sized for this maximum
// whatever this node's configured send-side fragment size is.
constexpr size_t kFragBytes = size_t(kMaxFragmentBytes);

sockaddr_in to_sockaddr(Endpoint ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.ip);
  sa.sin_port = htons(ep.port);
  return sa;
}

uint64_t partial_key(int src, uint32_t msg_id) {
  return (uint64_t(uint32_t(src)) << 32) | msg_id;
}

}  // namespace

void encode_datagram_header(const DatagramHeader& h, uint8_t* out) {
  ByteWriter w(out, kDatagramHeaderBytes);
  w.u32(kMagic);
  w.i32(h.msg.src);
  w.i32(h.msg.type);
  w.u32(h.msg.seq);
  w.u16(h.msg.aux);
  w.u8(h.msg.stream);
  w.u8(h.msg.bulk ? 1 : 0);
  w.u32(h.msg.tseq);
  w.u32(h.msg.crc);
  w.u32(h.msg_id);
  w.u16(h.frag_index);
  w.u16(h.frag_count);
  w.u32(h.total);
  w.u32(h.frag_off);
  w.u32(crc32({out, kDatagramHeaderBytes - 4}));
}

bool parse_datagram_header(std::span<const uint8_t> dgram, int nodes,
                           DatagramHeader* out) {
  if (dgram.size() < kDatagramHeaderBytes) return false;
  ByteReader r(dgram.first(kDatagramHeaderBytes));
  const uint32_t magic = r.u32();
  Message& m = out->msg;
  m.src = r.i32();
  m.type = r.i32();
  m.seq = r.u32();
  m.aux = r.u16();
  m.stream = r.u8();
  m.bulk = r.u8() != 0;
  m.tseq = r.u32();
  m.crc = r.u32();
  out->msg_id = r.u32();
  out->frag_index = r.u16();
  out->frag_count = r.u16();
  out->total = r.u32();
  out->frag_off = r.u32();
  const uint32_t header_crc = r.u32();
  const size_t frag_bytes = dgram.size() - kDatagramHeaderBytes;
  const size_t total = out->total;
  return magic == kMagic &&
         header_crc == crc32(dgram.first(kDatagramHeaderBytes - 4)) &&
         m.src >= 0 && m.src < nodes && out->frag_index < out->frag_count &&
         total <= kMaxMessageBytes &&
         total <= size_t(out->frag_count) * kFragBytes &&
         size_t(out->frag_off) + frag_bytes <= total &&
         (out->frag_count > 1 || frag_bytes == total);
}

SocketFabric::SocketFabric(int self, int nodes, SocketFabricConfig cfg)
    : self_(self),
      nodes_(nodes),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      fenced_(size_t(nodes)),
      traffic_(nodes),
      counters_(size_t(nodes)) {
  PDW_CHECK_GE(self, 0);
  PDW_CHECK_LT(self, nodes);
  frag_bytes_ = size_t(
      std::clamp(cfg_.fragment_bytes, kMinFragmentBytes, kMaxFragmentBytes));
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  PDW_CHECK_GE(fd_, 0);
  int one = 1;
  ::setsockopt(fd_, IPPROTO_IP, IP_RECVERR, &one, sizeof(one));
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &cfg_.socket_buffer_bytes,
               sizeof(cfg_.socket_buffer_bytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &cfg_.socket_buffer_bytes,
               sizeof(cfg_.socket_buffer_bytes));
  sockaddr_in sa = to_sockaddr(Endpoint{kLoopbackIp, 0});
  PDW_CHECK_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  socklen_t len = sizeof(sa);
  PDW_CHECK_EQ(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  local_ = Endpoint{ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port)};

  obs::MetricsRegistry& reg = obs::registry_or_global(cfg_.metrics);
  const obs::Labels l{self_, -1};
  m_dgram_tx_ = &reg.counter(obs::family::kSocketDatagramsTx, l);
  m_dgram_rx_ = &reg.counter(obs::family::kSocketDatagramsRx, l);
  m_rx_drops_ = &reg.counter(obs::family::kSocketRxDrops, l);
  m_peer_unreachable_ = &reg.counter(obs::family::kSocketPeerUnreachable, l);
}

SocketFabric::~SocketFabric() {
  if (fd_ >= 0) ::close(fd_);
}

void SocketFabric::set_peers(std::vector<Endpoint> peers) {
  PDW_CHECK_EQ(int(peers.size()), nodes_);
  peers_ = std::move(peers);
}

double SocketFabric::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SocketFabric::post_receive(int node) {
  PDW_CHECK_EQ(node, self_);
  ++credits_;
}

SendStatus SocketFabric::send(int src, int dst, Message msg) {
  PDW_CHECK_EQ(src, self_);
  PDW_CHECK_GE(dst, 0);
  PDW_CHECK_LT(dst, nodes_);
  PDW_CHECK(!peers_.empty());
  if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
    return SendStatus::kSrcDead;
  // Sends to a locally fenced peer vanish silently, same as the in-process
  // fabric's sends to a killed node.
  if (fenced_[size_t(dst)].load(std::memory_order_relaxed))
    return SendStatus::kOk;

  msg.src = src;  // stamped by the fabric, exactly as the in-process one does
  const size_t total = msg.payload.size();
  PDW_CHECK_LE(total, kMaxMessageBytes);
  const size_t wire_bytes = msg.wire_bytes();
  DatagramHeader h;
  h.msg = std::move(msg);
  h.msg_id = next_msg_id_++;
  h.frag_count =
      uint16_t(total == 0 ? 1 : (total + frag_bytes_ - 1) / frag_bytes_);
  h.total = uint32_t(total);
  sockaddr_in sa = to_sockaddr(peers_[size_t(dst)]);

  uint8_t dgram[kDatagramHeaderBytes + kFragBytes];
  for (uint16_t i = 0; i < h.frag_count; ++i) {
    const size_t off = size_t(i) * frag_bytes_;
    const size_t n = std::min(frag_bytes_, total - off);
    h.frag_index = i;
    h.frag_off = uint32_t(off);
    encode_datagram_header(h, dgram);
    if (n > 0)
      std::memcpy(dgram + kDatagramHeaderBytes, h.msg.payload.data() + off, n);
    ::sendto(fd_, dgram, kDatagramHeaderBytes + n, 0,
             reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    m_dgram_tx_->add();
  }

  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(self_, dst, wire_bytes);
    counters_[size_t(self_)].sent_bytes += wire_bytes;
    ++counters_[size_t(self_)].sent_messages;
  }
  return SendStatus::kOk;
}

void SocketFabric::finish_message(Message msg) {
  if (msg.src >= 0 && msg.src < nodes_ &&
      fenced_[size_t(msg.src)].load(std::memory_order_relaxed))
    return;
  if (msg.bulk) {
    if (credits_ == 0) {
      // Flow-control overrun. The in-process backend reports kNoCredit to
      // the sender; a socket sender cannot see our buffer state, so the
      // overrun becomes an unacked receiver-side drop that retransmission
      // recovers once a buffer is posted.
      credit_drops_.fetch_add(1, std::memory_order_relaxed);
      m_rx_drops_->add();
      return;
    }
    --credits_;
  }
  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(msg.src, self_, msg.wire_bytes());
    counters_[size_t(self_)].recv_bytes += msg.wire_bytes();
    ++counters_[size_t(self_)].recv_messages;
  }
  ready_.push_back(std::move(msg));
  queued_.fetch_add(1, std::memory_order_relaxed);
}

void SocketFabric::ingest(std::span<const uint8_t> dgram) {
  DatagramHeader h;
  if (!parse_datagram_header(dgram, nodes_, &h)) {
    m_rx_drops_->add();
    return;
  }
  const auto frag = dgram.subspan(kDatagramHeaderBytes);
  if (h.frag_count == 1) {
    h.msg.payload = mem::Bytes::copy_of(frag);
    finish_message(std::move(h.msg));
    return;
  }

  const uint64_t key = partial_key(h.msg.src, h.msg_id);
  auto it = partial_.find(key);
  if (it == partial_.end()) {
    // Evict stale partials (all their remaining fragments were lost; the
    // sender's retransmission arrives under a fresh msg_id) so the map
    // cannot grow without bound under sustained loss.
    if (partial_.size() >= 64) {
      const double t = now();
      for (auto p = partial_.begin(); p != partial_.end();) {
        if (t - p->second.first_seen > 2.0) {
          partial_count_.fetch_sub(1, std::memory_order_relaxed);
          p = partial_.erase(p);
        } else {
          ++p;
        }
      }
    }
    Reassembly r;
    r.body = mem::Bytes::alloc(h.total);
    r.have.assign(h.frag_count, false);
    r.missing = h.frag_count;
    r.header = std::move(h.msg);
    r.first_seen = now();
    it = partial_.emplace(key, std::move(r)).first;
    partial_count_.fetch_add(1, std::memory_order_relaxed);
  }
  Reassembly& r = it->second;
  if (r.body.size() != h.total || r.have.size() != h.frag_count) {
    // A msg_id collision with inconsistent framing: distrust both.
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    m_rx_drops_->add();
    return;
  }
  if (r.have[h.frag_index]) return;  // duplicated fragment
  if (!frag.empty())
    std::memcpy(r.body.mutable_data() + h.frag_off, frag.data(), frag.size());
  r.have[h.frag_index] = true;
  if (--r.missing == 0) {
    Message out = r.header;
    out.payload = std::move(r.body);
    partial_.erase(it);
    partial_count_.fetch_sub(1, std::memory_order_relaxed);
    finish_message(std::move(out));
  }
}

void SocketFabric::drain_socket() {
  uint8_t buf[kDatagramHeaderBytes + kFragBytes];
  while (true) {
    const ssize_t n = ::recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    m_dgram_rx_->add();
    ingest({buf, size_t(n)});
  }
  drain_errqueue();
}

void SocketFabric::drain_errqueue() {
  while (true) {
    uint8_t dummy[1];
    sockaddr_in sa{};
    uint8_t control[256];
    iovec iov{dummy, sizeof(dummy)};
    msghdr mh{};
    mh.msg_name = &sa;
    mh.msg_namelen = sizeof(sa);
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = control;
    mh.msg_controllen = sizeof(control);
    if (::recvmsg(fd_, &mh, MSG_ERRQUEUE) < 0) break;
    for (cmsghdr* c = CMSG_FIRSTHDR(&mh); c; c = CMSG_NXTHDR(&mh, c)) {
      if (c->cmsg_level != IPPROTO_IP || c->cmsg_type != IP_RECVERR) continue;
      sock_extended_err ee;
      std::memcpy(&ee, CMSG_DATA(c), sizeof(ee));
      if (ee.ee_errno == ECONNREFUSED || ee.ee_errno == EHOSTUNREACH ||
          ee.ee_errno == ENETUNREACH) {
        // msg_name carries the original destination of the failed send.
        note_peer_error(ntohl(sa.sin_addr.s_addr), ntohs(sa.sin_port));
      }
    }
  }
}

void SocketFabric::note_peer_error(uint32_t ip, uint16_t port) {
  for (int n = 0; n < int(peers_.size()); ++n) {
    if (peers_[size_t(n)].ip != ip || peers_[size_t(n)].port != port) continue;
    m_peer_unreachable_->add();
    std::lock_guard<std::mutex> lock(peer_err_mu_);
    if (std::find(peer_errors_.begin(), peer_errors_.end(), n) ==
        peer_errors_.end())
      peer_errors_.push_back(n);
    return;
  }
}

std::vector<int> SocketFabric::take_peer_errors() {
  drain_errqueue();
  std::lock_guard<std::mutex> lock(peer_err_mu_);
  std::vector<int> out;
  out.swap(peer_errors_);
  return out;
}

RecvStatus SocketFabric::receive_for(int node, double timeout_s,
                                     Message* out) {
  PDW_CHECK_EQ(node, self_);
  const double deadline = now() + timeout_s;
  while (true) {
    if (fenced_[size_t(self_)].load(std::memory_order_relaxed))
      return RecvStatus::kDead;
    drain_socket();
    if (!ready_.empty()) {
      *out = std::move(ready_.front());
      ready_.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return RecvStatus::kOk;
    }
    if (shutdown_.load(std::memory_order_acquire)) return RecvStatus::kShutdown;
    const double remaining = deadline - now();
    if (remaining <= 0) return RecvStatus::kTimeout;
    // Short poll slices so a cross-thread kill()/shutdown() is observed
    // promptly even with nothing on the wire.
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, int(std::min(remaining, 0.02) * 1000) + 1);
  }
}

void SocketFabric::kill(int node) {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  fenced_[size_t(node)].store(true, std::memory_order_relaxed);
}

bool SocketFabric::is_dead(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  return fenced_[size_t(node)].load(std::memory_order_relaxed);
}

NodeCounters SocketFabric::counters(int node) const {
  PDW_CHECK_GE(node, 0);
  PDW_CHECK_LT(node, nodes_);
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return counters_[size_t(node)];
}

TrafficMatrix SocketFabric::traffic_matrix() const {
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return traffic_;
}

bool SocketFabric::quiescent() const {
  return queued_.load(std::memory_order_relaxed) == 0 &&
         partial_count_.load(std::memory_order_relaxed) == 0;
}

void SocketFabric::shutdown() { shutdown_.store(true, std::memory_order_release); }

}  // namespace pdw::net
