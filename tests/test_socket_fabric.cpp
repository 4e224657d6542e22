// The real-socket transport: UDP datagram framing, fragmentation and
// reassembly, receiver-side flow control, rendezvous discovery, ICMP-driven
// peer-death detection, the adaptive RTO estimator, and the reliable layer
// surviving a deterministically impaired loopback path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>
#include <vector>

#include "net/impair.h"
#include "net/reliable.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"

namespace pdw::net {
namespace {

// Wire two fabrics to each other (and themselves — self rows are unused).
void wire(std::vector<SocketFabric*> fabrics) {
  std::vector<Endpoint> map;
  for (SocketFabric* f : fabrics) map.push_back(f->local_endpoint());
  for (SocketFabric* f : fabrics) f->set_peers(map);
}

Message make_msg(int src, int type, uint32_t seq, size_t payload_bytes,
                 uint8_t fill = 0xab) {
  Message m;
  m.src = src;
  m.type = type;
  m.seq = seq;
  m.payload = mem::Bytes::alloc(payload_bytes);
  std::memset(m.payload.mutable_data(), fill, payload_bytes);
  return m;
}

// --- Hole-timeout derivation (documented worst case, pinned) ---------------

TEST(ReliableConfigDerivation, FixedRtoHoleTimeoutMatchesRetransmissionSpan) {
  ReliableConfig cfg;
  cfg.adaptive_rto = false;
  cfg.rto_initial_s = 0.004;
  cfg.rto_max_s = 0.064;
  cfg.max_retries = 12;
  // Worst-case sender span: timeouts double from rto_initial, capped at
  // rto_max, across the initial send plus max_retries retries:
  // 0.004 + 0.008 + 0.016 + 0.032 + 9 * 0.064 = 0.636. The receiver waits
  // 4x that plus scheduling slack before skipping a hole.
  EXPECT_NEAR(derive_hole_timeout(cfg), 4 * 0.636 + 0.1, 1e-9);
}

TEST(ReliableConfigDerivation, AdaptiveRtoDerivesFromWorstCaseRto) {
  ReliableConfig cfg;
  cfg.adaptive_rto = true;
  cfg.rto_initial_s = 0.004;
  cfg.rto_max_s = 0.064;
  cfg.max_retries = 12;
  // Adaptive RTO can sit at the ceiling the whole time, so the derivation
  // must assume every timeout is rto_max: 13 * 0.064 = 0.832.
  EXPECT_NEAR(derive_hole_timeout(cfg), 4 * 0.832 + 0.1, 1e-9);
}

TEST(ReliableConfigDerivation, EndpointAppliesDerivations) {
  Fabric f(2);
  ReliableConfig cfg;
  cfg.adaptive_rto = true;  // rto_min_s = 0 must derive to rto_initial_s
  ReliableEndpoint ep(&f, 0, cfg);
  EXPECT_DOUBLE_EQ(ep.rto_min_s(), cfg.rto_initial_s);
  EXPECT_NEAR(ep.hole_timeout_s(), derive_hole_timeout(cfg), 1e-9);
  // An explicit hole timeout is honored as-is.
  cfg.hole_timeout_s = 7.5;
  ReliableEndpoint ep2(&f, 1, cfg);
  EXPECT_DOUBLE_EQ(ep2.hole_timeout_s(), 7.5);
}

// --- Datagram framing ------------------------------------------------------

TEST(SocketFabric, RoundTripPreservesEveryHeaderField) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, -7, 42, 100, 0x5c);
  m.aux = 7;
  m.stream = 3;
  m.tseq = 99;
  m.crc = 0xdeadbeef;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.type, -7);  // negative types (transport acks) survive
  EXPECT_EQ(got.seq, 42u);
  EXPECT_EQ(got.aux, 7);
  EXPECT_EQ(got.stream, 3);
  EXPECT_EQ(got.tseq, 99u);
  EXPECT_EQ(got.crc, 0xdeadbeefu);
  ASSERT_EQ(got.payload.size(), 100u);
  for (uint8_t byte : got.payload.span()) EXPECT_EQ(byte, 0x5c);
}

// The 48-byte datagram header of a single-fragment message, captured off a
// plain UDP socket standing in for the peer. Recorded before the header
// codec moved onto the shared ByteReader/ByteWriter.
TEST(SocketFabric, DatagramHeaderMatchesRecordedBytes) {
  SocketFabric a(0, 2);
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(kLoopbackIp);
  socklen_t len = sizeof(sa);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len), 0);
  a.set_peers({a.local_endpoint(), Endpoint{kLoopbackIp, ntohs(sa.sin_port)}});

  Message m = make_msg(0, -7, 42, 5, 0x5c);
  m.aux = 7;
  m.stream = 3;
  m.bulk = true;
  m.tseq = 99;
  m.crc = 0xdeadbeef;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
  uint8_t buf[128];
  const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  ::close(fd);
  ASSERT_EQ(n, 48 + 5);
  std::string got;
  for (ssize_t i = 0; i < n; ++i) {
    got += "0123456789abcdef"[buf[i] >> 4];
    got += "0123456789abcdef"[buf[i] & 15];
  }
  EXPECT_EQ(got,
            "4657445000000000f9ffffff2a0000000700030163000000efbeadde01000000"
            "0000010005000000000000008060e10e5c5c5c5c5c");
}

// A header any sender can forge (its CRC is no secret) must not make the
// receiver allocate what it announces. Each forged first fragment is
// dropped and counted in socket_rx_drops before any reassembly buffer
// exists; a well-formed first fragment still opens one.
TEST(SocketFabric, ForgedFragmentTotalsAreDroppedBeforeAllocating) {
  obs::MetricsRegistry reg;
  SocketFabricConfig cfg;
  cfg.metrics = &reg;
  SocketFabric rx(1, 2, cfg);
  const auto forged = [](uint16_t frag_count, uint32_t total) {
    DatagramHeader h;
    h.msg.src = 0;
    h.msg.type = 1;
    h.msg_id = 7;
    h.frag_count = frag_count;
    h.total = total;
    std::vector<uint8_t> dgram(kDatagramHeaderBytes + 16, 0x5a);
    encode_datagram_header(h, dgram.data());
    return dgram;
  };
  const uint64_t frag = uint64_t(kMaxFragmentBytes);
  // Two fragments cannot carry 4 GiB.
  rx.ingest(forged(2, 0xffffffffu));
  // Consistent with frag_count, but above the largest message.
  rx.ingest(forged(uint16_t(kMaxMessageBytes / frag + 2),
                   uint32_t(kMaxMessageBytes + 1)));
  // One past what frag_count fragments can carry.
  rx.ingest(forged(3, uint32_t(3 * frag + 1)));
  EXPECT_EQ(reg.snapshot().counter_total(obs::family::kSocketRxDrops), 3u);
  EXPECT_TRUE(rx.quiescent());

  // The largest honest first fragment opens a partial message.
  rx.ingest(forged(3, uint32_t(3 * frag)));
  EXPECT_EQ(reg.snapshot().counter_total(obs::family::kSocketRxDrops), 3u);
  EXPECT_FALSE(rx.quiescent());

  // The sender refuses to frame a message above the limit at all.
  SocketFabric tx(0, 2);
  wire({&tx, &rx});
  Message huge;
  huge.type = 1;
  huge.payload = mem::Bytes::filled(kMaxMessageBytes + 1, 0);
  EXPECT_THROW(tx.send(0, 1, std::move(huge)), CheckError);
}

TEST(SocketFabric, LargePayloadIsFragmentedAndReassembled) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  const size_t big = 300 * 1024;  // several 56 KiB fragments
  Message m = make_msg(0, 1, 0, big);
  for (size_t i = 0; i < big; ++i)
    m.payload.mutable_data()[i] = uint8_t(i * 31 + (i >> 9));
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  ASSERT_EQ(got.payload.size(), big);
  for (size_t i = 0; i < big; ++i)
    ASSERT_EQ(got.payload.data()[i], uint8_t(i * 31 + (i >> 9))) << i;
  EXPECT_TRUE(b.quiescent());
}

TEST(SocketFabric, FragmentBytesIsClampedToTheDocumentedRange) {
  SocketFabricConfig cfg;
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMaxFragmentBytes));  // default unchanged: 56 KiB
  cfg.fragment_bytes = 512;  // below the floor
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMinFragmentBytes));
  cfg.fragment_bytes = 1 << 20;  // above the 64 KiB-datagram-safe ceiling
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(),
            size_t(kMaxFragmentBytes));
  cfg.fragment_bytes = 8192;
  EXPECT_EQ(SocketFabric(0, 1, cfg).fragment_bytes(), 8192u);
}

TEST(SocketFabric, SmallFragmentsRoundTripAndInteropWithDefaultReceiver) {
  // Sender fragments at 4 KiB; the receiver is left at the default 56 KiB.
  // Reassembly is driven by the per-datagram framing fields, so mismatched
  // settings must interoperate.
  SocketFabricConfig small;
  small.fragment_bytes = kMinFragmentBytes;
  SocketFabric a(0, 2, small), b(1, 2);
  wire({&a, &b});
  const size_t big = 100 * 1024;  // 25 fragments at 4 KiB
  Message m = make_msg(0, 1, 5, big);
  for (size_t i = 0; i < big; ++i)
    m.payload.mutable_data()[i] = uint8_t(i * 13 + (i >> 8));
  m.aux = 3;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_EQ(got.seq, 5u);
  EXPECT_EQ(got.aux, 3);
  ASSERT_EQ(got.payload.size(), big);
  for (size_t i = 0; i < big; ++i)
    ASSERT_EQ(got.payload.data()[i], uint8_t(i * 13 + (i >> 8))) << i;
  EXPECT_TRUE(b.quiescent());

  // And the reverse direction: 56 KiB fragments into a 4 KiB-configured
  // receiver (receive buffers are sized for the max either way).
  Message back = make_msg(1, 2, 9, big, 0x3e);
  ASSERT_EQ(b.send(1, 0, std::move(back)), SendStatus::kOk);
  ASSERT_EQ(a.receive_for(0, 2.0, &got), RecvStatus::kOk);
  ASSERT_EQ(got.payload.size(), big);
  for (uint8_t byte : got.payload.span()) ASSERT_EQ(byte, 0x3e);
}

TEST(SocketFabric, BulkWithoutCreditIsDroppedAndRecoverable) {
  SocketFabric a(0, 2), b(1, 2);
  wire({&a, &b});
  Message m = make_msg(0, 1, 0, 64);
  m.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(m)), SendStatus::kOk);
  Message got;
  EXPECT_EQ(b.receive_for(1, 0.2, &got), RecvStatus::kTimeout);
  EXPECT_EQ(b.credit_drops(), 1u);
  // With a buffer posted, the (re)sent copy goes through.
  b.post_receive(1);
  Message again = make_msg(0, 1, 0, 64);
  again.bulk = true;
  ASSERT_EQ(a.send(0, 1, std::move(again)), SendStatus::kOk);
  ASSERT_EQ(b.receive_for(1, 2.0, &got), RecvStatus::kOk);
  EXPECT_TRUE(got.bulk);
}

TEST(SocketFabric, SendToClosedPortReportsPeerError) {
  SocketFabric a(0, 2), b(1, 2);
  Endpoint dead;
  {
    SocketFabric ephemeral(1, 2);
    dead = ephemeral.local_endpoint();
  }  // port closed here
  std::vector<Endpoint> map{a.local_endpoint(), dead};
  a.set_peers(map);
  for (int i = 0; i < 3; ++i) {
    a.send(0, 1, make_msg(0, 1, uint32_t(i), 32));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::vector<int> errs = a.take_peer_errors();
    if (!errs.empty()) {
      EXPECT_EQ(errs[0], 1);
      return;
    }
  }
  FAIL() << "no peer error after sends to a closed port";
  (void)b;
}

// --- Rendezvous ------------------------------------------------------------

TEST(Rendezvous, AllJoinersReceiveTheSameCompleteMap) {
  const int n = 4;
  RendezvousServer server(n);
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);

  std::vector<Endpoint> locals(n);
  for (int i = 0; i < n; ++i)
    locals[size_t(i)] = Endpoint{kLoopbackIp, uint16_t(9000 + i)};
  std::vector<std::vector<Endpoint>> maps(n);
  std::vector<RendezvousStatus> status(n, RendezvousStatus::kTimeout);
  std::vector<std::thread> joiners;
  for (int i = 0; i < n; ++i)
    joiners.emplace_back([&, i] {
      status[size_t(i)] = rendezvous_join(server.endpoint(), i,
                                          locals[size_t(i)], n,
                                          &maps[size_t(i)], cfg);
    });
  for (auto& t : joiners) t.join();
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(status[size_t(i)], RendezvousStatus::kOk) << i;
    ASSERT_EQ(maps[size_t(i)].size(), size_t(n));
    for (int j = 0; j < n; ++j) {
      EXPECT_EQ(maps[size_t(i)][size_t(j)].ip, locals[size_t(j)].ip);
      EXPECT_EQ(maps[size_t(i)][size_t(j)].port, locals[size_t(j)].port);
    }
  }
}

TEST(Rendezvous, JoinTimesOutWithoutAListener) {
  RendezvousConfig cfg;
  cfg.timeout_s = 0.3;
  std::vector<Endpoint> map;
  // Port 9 (discard) on loopback: nothing rendezvous-shaped listens there.
  EXPECT_EQ(rendezvous_join(Endpoint{kLoopbackIp, 9}, 0,
                            Endpoint{kLoopbackIp, 1000}, 2, &map, cfg),
            RendezvousStatus::kTimeout);
}

TEST(Rendezvous, MapTransformSubstitutesHandedOutEndpoints) {
  const int n = 2;
  RendezvousServer server(n);
  server.set_map_transform([](const std::vector<Endpoint>& real) {
    std::vector<Endpoint> fronts = real;
    for (Endpoint& ep : fronts) ep.port = uint16_t(ep.port + 1);
    return fronts;
  });
  RendezvousConfig cfg;
  cfg.timeout_s = 5.0;
  server.serve_async(cfg);
  std::vector<std::vector<Endpoint>> maps(n);
  std::vector<std::thread> joiners;
  for (int i = 0; i < n; ++i)
    joiners.emplace_back([&, i] {
      std::vector<Endpoint> got;
      rendezvous_join(server.endpoint(), i,
                      Endpoint{kLoopbackIp, uint16_t(7000 + i)}, n, &got, cfg);
      maps[size_t(i)] = got;
    });
  for (auto& t : joiners) t.join();
  EXPECT_EQ(server.result(), RendezvousStatus::kOk);
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(maps[size_t(i)].size(), size_t(n));
    EXPECT_EQ(maps[size_t(i)][0].port, 7001);
    EXPECT_EQ(maps[size_t(i)][1].port, 7002);
  }
}

// --- Adaptive RTO over real sockets ----------------------------------------

TEST(SocketReliable, AdaptiveRtoLearnsFromRttSamples) {
  SocketFabric fa(0, 2), fb(1, 2);
  wire({&fa, &fb});
  ReliableConfig cfg;  // adaptive by default
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);
  EXPECT_DOUBLE_EQ(tx.srtt_s(1), 0.0);  // no samples yet

  std::atomic<bool> done{false};
  std::thread pump([&] {
    Message m;
    int received = 0;
    while (received < 20 && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage) ++received;
    }
    // Keep t-acking the sender's tail until it has seen every ack.
    while (!done.load()) rx.recv(&m, 0.01);
  });
  for (uint32_t i = 0; i < 20; ++i) {
    tx.send(1, make_msg(0, 1, i, 256));
    Message m;
    tx.recv(&m, 0.005);
  }
  for (int i = 0; i < 1000 && tx.unacked() > 0; ++i) {
    Message m;
    tx.recv(&m, 0.005);
  }
  done.store(true);
  pump.join();

  EXPECT_EQ(tx.unacked(), 0u);
  EXPECT_GT(tx.stats().rtt_samples, 0u);
  EXPECT_GT(tx.srtt_s(1), 0.0);
  EXPECT_LT(tx.srtt_s(1), 0.05);  // loopback: well under 50 ms
  EXPECT_GE(tx.rto_s(1), tx.rto_min_s());
  EXPECT_LE(tx.rto_s(1), cfg.rto_max_s);
}

// --- Reliable delivery through the impaired path (satellite: seeded sweep) -

struct SweepResult {
  ReliableStats tx_stats;
  ReliableStats rx_stats;
  std::vector<uint32_t> delivered_seqs;
  ImpairProxy::Stats impair;
};

SweepResult run_impaired_transfer(uint64_t seed, double loss, double dup,
                                  double delay, int count) {
  SocketFabric fa(0, 2), fb(1, 2);
  std::vector<Endpoint> real{fa.local_endpoint(), fb.local_endpoint()};
  ImpairConfig ic;
  ic.seed = seed;
  ic.loss = loss;
  ic.dup = dup;
  ic.delay = delay;
  ic.delay_s = 0.001;
  ImpairProxy proxy(real, ic);
  fa.set_peers(proxy.proxied());
  fb.set_peers(proxy.proxied());

  ReliableConfig cfg;
  cfg.rto_initial_s = 0.002;
  cfg.rto_max_s = 0.032;
  ReliableEndpoint tx(&fa, 0, cfg);
  ReliableEndpoint rx(&fb, 1, cfg);

  SweepResult res;
  std::atomic<bool> done{false};
  std::thread rx_thread([&] {
    Message m;
    while (int(res.delivered_seqs.size()) < count && !done.load()) {
      if (rx.recv(&m, 0.02) == ReliableEndpoint::Status::kMessage)
        res.delivered_seqs.push_back(m.seq);
    }
    while (!done.load()) rx.recv(&m, 0.01);  // t-ack the sender's tail
  });

  for (uint32_t i = 0; i < uint32_t(count); ++i) {
    Message m = make_msg(0, 1, i, 400 + (i % 7) * 100);
    m.seq = i;  // the reliable layer overwrites tseq, not seq
    tx.send(1, std::move(m));
    Message got;
    tx.recv(&got, 0.001);
  }
  // Drive retransmissions until everything is acked (or a bounded deadline
  // passes — the assertions below catch a stall).
  for (int i = 0; i < 4000 && tx.unacked() > 0; ++i) {
    Message got;
    tx.recv(&got, 0.005);
  }
  done.store(true);
  rx_thread.join();
  proxy.stop();
  res.tx_stats = tx.stats();
  res.rx_stats = rx.stats();
  res.impair = proxy.stats();
  return res;
}

TEST(SocketReliable, SurvivesSeededLossDupDelaySweep) {
  int sweep_index = 0;
  for (const double loss : {0.02, 0.05, 0.10}) {
    SCOPED_TRACE(loss);
    const int count = 200;
    const SweepResult res = run_impaired_transfer(
        /*seed=*/uint64_t(1000 + sweep_index++), loss, /*dup=*/0.05,
        /*delay=*/0.10, count);

    // Exactly-once, in-order: the application saw every seq exactly once,
    // ascending, no matter what the wire did.
    ASSERT_EQ(res.delivered_seqs.size(), size_t(count));
    for (int i = 0; i < count; ++i)
      ASSERT_EQ(res.delivered_seqs[size_t(i)], uint32_t(i));

    // Wire-level damage really happened (the proxy is not a no-op)...
    EXPECT_GT(res.impair.dropped + res.impair.duplicated + res.impair.delayed,
              0u);
    // ...and the reliable layer paid for it with retransmissions, never
    // with abandonment at these rates.
    EXPECT_GT(res.tx_stats.retransmits, 0u);
    EXPECT_EQ(res.tx_stats.abandoned, 0u);

    // Stats consistency: sends dominate retransmits + abandonments, and the
    // receiver delivered exactly what the application got.
    EXPECT_GE(res.tx_stats.sent,
              res.tx_stats.retransmits + res.tx_stats.abandoned);
    EXPECT_EQ(res.rx_stats.delivered, uint64_t(count));
  }
}

TEST(ImpairProxy, ScheduleIsDeterministicForAFixedSeed) {
  auto run = [](uint64_t seed) {
    SocketFabric fa(0, 2), fb(1, 2);
    std::vector<Endpoint> real{fa.local_endpoint(), fb.local_endpoint()};
    ImpairConfig ic;
    ic.seed = seed;
    ic.loss = 0.25;
    ImpairProxy proxy(real, ic);
    fa.set_peers(proxy.proxied());
    fb.set_peers(proxy.proxied());
    std::vector<uint32_t> got;
    for (uint32_t i = 0; i < 40; ++i) fa.send(0, 1, make_msg(0, 1, i, 64));
    Message m;
    while (fb.receive_for(1, 0.1, &m) == RecvStatus::kOk) got.push_back(m.seq);
    proxy.stop();
    return got;
  };
  const std::vector<uint32_t> a = run(7), b = run(7), c = run(8);
  EXPECT_EQ(a, b);          // same seed, same survivors
  EXPECT_NE(a.size(), 40u);  // at 25% loss some datagrams really died
  (void)c;  // a different seed need not differ, but usually does
}

}  // namespace
}  // namespace pdw::net
