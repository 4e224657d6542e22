// Real-socket fabric backend: the same FabricBackend surface as the
// in-process Fabric, over nonblocking UDP datagrams (ROADMAP item 1, the
// paper's one-OS-process-per-node deployment over Myrinet/GM).
//
// One SocketFabric instance per node (in one process per node, or one per
// node thread when a test hosts the whole wall in-process). Differences from
// the in-process backend, all invisible above ReliableEndpoint:
//
//  * Framing: each Message becomes one or more datagrams carrying the full
//    header (src/type/seq/aux/stream/bulk/tseq/crc) plus fragmentation
//    fields and a header CRC-32. Payloads larger than one datagram are
//    split and reassembled keyed on (src, msg_id); a datagram with a corrupt
//    header is dropped (the payload CRC stays end-to-end in
//    ReliableEndpoint, exactly as over the in-process fabric).
//  * Credits: a sender cannot see a remote receiver's posted buffers, so a
//    bulk message arriving with no credit posted is a *receiver-side drop*
//    (not acked — the sender retransmits until a buffer is posted). send()
//    therefore never returns kNoCredit; the per-link credit accounting is
//    preserved at the consumer end.
//  * Peer death: a dead process answers with ICMP port-unreachable, which
//    IP_RECVERR surfaces on the sender's error queue. take_peer_errors()
//    reports the mapped node ids so the root's heartbeat monitor can treat
//    a killed process exactly like a killed thread.
//  * Local view: counters()/traffic_matrix() report this node's own sends
//    and receives (message-level wire bytes, comparable with the in-process
//    fabric's accounting); datagram-level counts go to obs
//    (socket_datagrams_tx/rx, socket_rx_drops, socket_peer_unreachable,
//    labeled {node = self}).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <span>
#include <vector>

#include "net/fabric.h"
#include "obs/metrics.h"

namespace pdw::net {

// A UDP endpoint in host byte order (ip = 0x7f000001 for loopback).
struct Endpoint {
  uint32_t ip = 0;
  uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

inline constexpr uint32_t kLoopbackIp = 0x7f000001u;

// Bounds on SocketFabricConfig::fragment_bytes. The upper bound keeps
// header + payload comfortably under the 64 KiB UDP datagram limit; the
// lower bound keeps fragment counts (u16 on the wire) sane for the largest
// coded pictures.
inline constexpr int kMinFragmentBytes = 4096;
inline constexpr int kMaxFragmentBytes = 56 * 1024;

// Largest message payload the fabric carries: far above any coded picture
// of the walls we drive. send() CHECKs it, and a receiver drops a datagram
// announcing more, so a forged header cannot make it allocate more.
inline constexpr size_t kMaxMessageBytes = size_t(16) << 20;

// Every datagram starts with this header (layout in socket_fabric.cpp); the
// fragment payload follows.
inline constexpr size_t kDatagramHeaderBytes = 48;

struct DatagramHeader {
  Message msg;             // envelope fields; the payload stays empty
  uint32_t msg_id = 0;     // per-sender reassembly key
  uint16_t frag_index = 0;
  uint16_t frag_count = 0;
  uint32_t total = 0;      // payload bytes of the whole message
  uint32_t frag_off = 0;   // this fragment's offset into the payload
};

// Writes `h` as the first kDatagramHeaderBytes of `out`, header CRC last.
void encode_datagram_header(const DatagramHeader& h, uint8_t* out);

// Parses one received datagram's header for a `nodes`-node fabric. False on
// a short datagram, a bad magic or header CRC, an unknown source, or
// fragment framing no sender produces: an index past the count, a fragment
// past the total, a single fragment short of it, or a total above
// kMaxMessageBytes or above what frag_count fragments can carry.
bool parse_datagram_header(std::span<const uint8_t> dgram, int nodes,
                           DatagramHeader* out);

struct SocketFabricConfig {
  // Socket buffer depth requested via SO_RCVBUF/SO_SNDBUF. Loopback bursts
  // (a whole picture fans out as dozens of 56 KiB fragments) overflow the
  // kernel default and look like network loss; 4 MiB absorbs them.
  int socket_buffer_bytes = 4 << 20;
  // Fragment payload bytes per datagram, clamped to
  // [kMinFragmentBytes, kMaxFragmentBytes]. Receivers reassemble from the
  // per-datagram framing fields, so nodes with different settings still
  // interoperate; smaller fragments model smaller-MTU fabrics.
  int fragment_bytes = kMaxFragmentBytes;
  // Registry for the datagram-level counters (nullptr: process-global).
  obs::MetricsRegistry* metrics = nullptr;
};

class SocketFabric final : public FabricBackend {
 public:
  // Binds a nonblocking UDP socket for `self` on 127.0.0.1:<ephemeral>;
  // local_endpoint() reports the learned port for rendezvous registration.
  SocketFabric(int self, int nodes, SocketFabricConfig cfg = {});
  ~SocketFabric() override;

  SocketFabric(const SocketFabric&) = delete;
  SocketFabric& operator=(const SocketFabric&) = delete;

  int self() const { return self_; }
  Endpoint local_endpoint() const { return local_; }
  // The clamped per-datagram fragment payload size in effect.
  size_t fragment_bytes() const { return frag_bytes_; }

  // Install the node -> endpoint map (from rendezvous, or an impairment
  // proxy's front addresses). Must be called before send().
  void set_peers(std::vector<Endpoint> peers);

  // FabricBackend. post_receive()/receive_for() only operate on this
  // instance's own node; send() sources from it.
  int nodes() const override { return nodes_; }
  void post_receive(int node) override;
  SendStatus send(int src, int dst, Message msg) override;
  RecvStatus receive_for(int node, double timeout_s, Message* out) override;

  // Local fencing: kill(self) makes this node dead (receives report kDead);
  // kill(peer) drops traffic to/from that peer at this node.
  void kill(int node) override;
  bool is_dead(int node) const override;

  NodeCounters counters(int node) const override;
  TrafficMatrix traffic_matrix() const override;
  bool quiescent() const override;
  void shutdown() override;
  std::vector<int> take_peer_errors() override;

  // Datagrams dropped at this receiver because no buffer was posted — the
  // socket analog of the in-process backend's kNoCredit (flow control as a
  // receiver-side drop, recovered by retransmission).
  uint64_t credit_drops() const {
    return credit_drops_.load(std::memory_order_relaxed);
  }

  // Take one received datagram: drop it (counted in socket_rx_drops) unless
  // parse_datagram_header accepts it, else queue the message once all its
  // fragments are in. The socket receive path; public so tests and the fuzz
  // harness can hand it forged datagrams. Owner thread only.
  void ingest(std::span<const uint8_t> dgram);

 private:
  struct Reassembly {
    mem::Bytes body;
    std::vector<bool> have;  // per-fragment arrival mask
    size_t missing = 0;      // fragments still outstanding
    Message header;          // fields from the first fragment seen
    double first_seen = 0;   // for stale-entry eviction
  };

  double now() const;
  // Nonblocking drain of every datagram currently queued on the socket.
  void drain_socket();
  void finish_message(Message msg);
  // Pull ICMP errors off the error queue into peer_errors_.
  void drain_errqueue();
  void note_peer_error(uint32_t ip, uint16_t port);

  const int self_;
  const int nodes_;
  SocketFabricConfig cfg_;
  size_t frag_bytes_ = size_t(kMaxFragmentBytes);
  int fd_ = -1;
  Endpoint local_;
  std::chrono::steady_clock::time_point epoch_;

  std::vector<Endpoint> peers_;

  // Receive-side state: only the owning node's thread touches these.
  std::deque<Message> ready_;
  std::map<uint64_t, Reassembly> partial_;  // (src << 32 | msg_id)
  uint32_t next_msg_id_ = 1;
  int credits_ = 0;

  // Cross-thread state: a coordinator may kill()/shutdown()/read counters
  // while the node thread pumps.
  std::atomic<bool> shutdown_{false};
  std::vector<std::atomic<bool>> fenced_;
  std::atomic<uint64_t> credit_drops_{0};
  // Mirrors of ready_/partial_ sizes so quiescent() is safe to call from a
  // coordinating thread while the owner thread pumps.
  std::atomic<size_t> queued_{0};
  std::atomic<size_t> partial_count_{0};

  mutable std::mutex traffic_mu_;
  TrafficMatrix traffic_;
  std::vector<NodeCounters> counters_;

  std::mutex peer_err_mu_;
  std::vector<int> peer_errors_;

  obs::Counter* m_dgram_tx_ = nullptr;
  obs::Counter* m_dgram_rx_ = nullptr;
  obs::Counter* m_rx_drops_ = nullptr;
  obs::Counter* m_peer_unreachable_ = nullptr;
};

}  // namespace pdw::net
