// Cluster telemetry sideband (DESIGN.md §13): the NTP-style clock estimator
// must recover a known offset exactly from symmetric probes and stay within
// 2x min-RTT of the truth under deterministic one-way delay (ImpairProxy);
// the wire codec must round-trip every record type and reject every
// truncation; a live exporter/collector pair must merge a skewed process
// into the collector clock domain; the flight recorder must produce a
// parseable post-mortem; and an in-process 7-node socket wall must stream
// itself into ONE merged multi-pid trace.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/socket_wall.h"
#include "enc/encoder.h"
#include "net/impair.h"
#include "net/socket_fabric.h"
#include "obs/collector.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "video/generator.h"
#include "wall/geometry.h"

namespace pdw {
namespace {

using obs::ClockEstimator;
using obs::Collector;
using obs::TelemetryEndpoint;
using obs::TelemetryExporter;
using obs::TelemetryExporterConfig;
using obs::TelemetryFrame;

// ---------------------------------------------------------------------------
// ClockEstimator: exact math on hand-built probe quadruples.
// ---------------------------------------------------------------------------

TEST(ClockEstimator, SymmetricProbeRecoversOffsetExactly) {
  // Remote = local + 5000, one-way delay 100 ns each leg.
  ClockEstimator est;
  est.add_sample(/*t0=*/1000, /*t1=*/6100, /*t2=*/6150, /*t3=*/1250);
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), 5000);
  EXPECT_EQ(est.min_rtt_ns(), 200u);  // (t3-t0) - (t2-t1)
  EXPECT_EQ(est.samples(), 1u);
}

TEST(ClockEstimator, MinimumRttSampleWins) {
  ClockEstimator est;
  est.add_sample(1000, 6100, 6150, 1250);  // offset 5000, rtt 200
  // A slower probe (rtt 900) reporting a different offset must not displace
  // the estimate...
  est.add_sample(2000, 9000, 9100, 3000);  // offset 6550, rtt 900
  EXPECT_EQ(est.offset_ns(), 5000);
  EXPECT_EQ(est.min_rtt_ns(), 200u);
  EXPECT_EQ(est.samples(), 2u);
  // ...but a faster one (rtt 20) does.
  est.add_sample(5000, 9810, 9820, 5030);  // offset 4800, rtt 20
  EXPECT_EQ(est.offset_ns(), 4800);
  EXPECT_EQ(est.min_rtt_ns(), 20u);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(ClockEstimator, GarbageNegativeRttSampleIgnored) {
  ClockEstimator est;
  // Remote hold time (t2-t1 = 1000) exceeds the measured round trip
  // (t3-t0 = 50): impossible, computed rtt is negative.
  est.add_sample(100, 1000, 2000, 150);
  EXPECT_FALSE(est.valid());
  EXPECT_EQ(est.samples(), 0u);
  EXPECT_EQ(est.min_rtt_ns(), 0u);
}

TEST(ClockEstimator, NegativeOffsetRecovered) {
  // Remote = local - 5000, one-way delay 100 ns.
  ClockEstimator est;
  est.add_sample(10000, 5100, 5150, 10250);
  ASSERT_TRUE(est.valid());
  EXPECT_EQ(est.offset_ns(), -5000);
  EXPECT_EQ(est.min_rtt_ns(), 200u);
}

// ---------------------------------------------------------------------------
// Wire codec: round trip and adversarial truncation.
// ---------------------------------------------------------------------------

TelemetryFrame full_frame() {
  TelemetryFrame f;
  f.token = 0xDEADBEEFCAFE1234ull;
  f.seq = 42;
  obs::HelloRecord hello;
  hello.os_pid = 1234;
  hello.k = 2;
  hello.tiles = 4;
  hello.nodes = 7;
  hello.hosted = {3, 4};
  f.hello = hello;
  obs::MetricRecord c;
  c.family = "pictures_decoded";
  c.node = 3;
  c.stream = 0;
  c.kind = obs::MetricKind::kCounter;
  c.count = 17;
  obs::MetricRecord g;
  g.family = "queue_depth";
  g.node = -1;
  g.stream = -1;
  g.kind = obs::MetricKind::kGauge;
  g.gauge = -5;
  obs::MetricRecord h;
  h.family = "rtt_ns";
  h.node = 4;
  h.kind = obs::MetricKind::kHistogram;
  h.count = 3;
  h.sum = 7000;
  h.buckets = {{11, 2}, {12, 1}};
  f.metrics = {c, g, h};
  obs::SpanRecord s1;
  s1.name = "decode_sp";
  s1.ph = 'X';
  s1.pid = 3;
  s1.tid = 1;
  s1.ts_ns = 1000;
  s1.dur_ns = 250;
  s1.pic = 7;
  obs::SpanRecord s2;
  s2.name = "adopt_tile";
  s2.ph = 'i';
  s2.pid = 4;
  s2.ts_ns = 2000;
  f.spans = {s1, s2};
  obs::ClockProbeRecord p;
  p.seq = 9;
  p.t0 = 5555;
  p.reply_to = {obs::kTelemetryLoopbackIp, 47999};
  f.probes = {p};
  obs::ClockReplyRecord r;
  r.seq = 9;
  r.t0 = 5555;
  r.t1 = 6000;
  r.t2 = 6001;
  f.replies = {r};
  obs::OffsetRecord o;
  o.offset_ns = -123456;
  o.min_rtt_ns = 789;
  o.samples = 6;
  o.valid = 1;
  f.offset = o;
  f.bye = true;
  return f;
}

TEST(TelemetryCodec, RoundTripsEveryRecordType) {
  const TelemetryFrame f = full_frame();
  const std::vector<uint8_t> wire = obs::encode_frame(f);
  TelemetryFrame d;
  ASSERT_TRUE(obs::decode_frame(wire.data(), wire.size(), &d));

  EXPECT_EQ(d.token, f.token);
  EXPECT_EQ(d.seq, f.seq);
  ASSERT_TRUE(d.hello.has_value());
  EXPECT_EQ(d.hello->os_pid, 1234u);
  EXPECT_EQ(d.hello->k, 2);
  EXPECT_EQ(d.hello->tiles, 4);
  EXPECT_EQ(d.hello->nodes, 7);
  EXPECT_EQ(d.hello->hosted, (std::vector<uint16_t>{3, 4}));
  ASSERT_EQ(d.metrics.size(), 3u);
  EXPECT_EQ(d.metrics[0].family, "pictures_decoded");
  EXPECT_EQ(d.metrics[0].count, 17u);
  EXPECT_EQ(d.metrics[1].gauge, -5);
  EXPECT_EQ(d.metrics[2].buckets,
            (std::vector<std::pair<uint8_t, uint64_t>>{{11, 2}, {12, 1}}));
  ASSERT_EQ(d.spans.size(), 2u);
  EXPECT_EQ(d.spans[0].name, "decode_sp");
  EXPECT_EQ(d.spans[0].ph, 'X');
  EXPECT_EQ(d.spans[0].dur_ns, 250u);
  EXPECT_EQ(d.spans[0].pic, 7u);
  EXPECT_EQ(d.spans[1].ph, 'i');
  ASSERT_EQ(d.probes.size(), 1u);
  EXPECT_EQ(d.probes[0].t0, 5555u);
  EXPECT_EQ(d.probes[0].reply_to.port, 47999);
  ASSERT_EQ(d.replies.size(), 1u);
  EXPECT_EQ(d.replies[0].t1, 6000u);
  ASSERT_TRUE(d.offset.has_value());
  EXPECT_EQ(d.offset->offset_ns, -123456);
  EXPECT_EQ(d.offset->min_rtt_ns, 789u);
  EXPECT_EQ(d.offset->valid, 1);
  EXPECT_TRUE(d.bye);
}

TEST(TelemetryCodec, EveryTruncationRejectedWithoutCrashing) {
  const std::vector<uint8_t> wire = obs::encode_frame(full_frame());
  ASSERT_GT(wire.size(), 22u);
  for (size_t len = 0; len < wire.size(); ++len) {
    TelemetryFrame d;
    EXPECT_FALSE(obs::decode_frame(wire.data(), len, &d))
        << "prefix of " << len << " bytes decoded as a full frame";
  }
}

TEST(TelemetryCodec, CorruptMagicRejected) {
  std::vector<uint8_t> wire = obs::encode_frame(full_frame());
  wire[0] ^= 0xFF;
  TelemetryFrame d;
  EXPECT_FALSE(obs::decode_frame(wire.data(), wire.size(), &d));
}

// Byte-exact encoding of full_frame(), recorded before the telemetry codec
// moved onto the shared ByteReader/ByteWriter. A round trip cannot catch a
// format change that encoder and decoder make together; this can.
TEST(TelemetryCodec, EncodingMatchesRecordedBytes) {
  const std::vector<uint8_t> wire = obs::encode_frame(full_frame());
  std::string got;
  for (uint8_t b : wire) {
    got += "0123456789abcdef"[b >> 4];
    got += "0123456789abcdef"[b & 15];
  }
  EXPECT_EQ(got,
            "50445754010000003412fecaefbeadde2a0000000a00013b000500107069637475"
            "7265735f6465636f6465640b71756575655f6465707468067274745f6e73096465"
            "636f64655f73700a61646f70745f74696c65021000d20400000200040007000200"
            "0300040005120009000000b3150000000000000100007f7fbb061c0009000000b3"
            "1500000000000070170000000000007117000000000000071500c01dfeffffffff"
            "ff15030000000000000600000001030f0000000003000000110000000000000003"
            "0f00010001fffffffffbffffffffffffff032a000200020400ffff030000000000"
            "0000581b000000000000020b02000000000000000c010000000000000004400002"
            "000300580300000001000000e803000000000000fa000000000000000700000004"
            "00690400000000000000d0070000000000000000000000000000ffffffff080000");
}

// ---------------------------------------------------------------------------
// Live exporter -> collector, loopback.
// ---------------------------------------------------------------------------

// Polls `pred` until it holds or ~2 s elapse (collector runs on a background
// thread; datagrams need a moment to land).
bool eventually(const std::function<bool()>& pred) {
  for (int i = 0; i < 200; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// True collector-minus-exporter clock offset, bracketed by two local reads;
// *slack_ns bounds the measurement's own uncertainty.
int64_t truth_offset_ns(const Collector& c, const TelemetryExporter& e,
                        uint64_t* slack_ns) {
  const uint64_t a = e.local_now_ns();
  const uint64_t mid = c.now_ns();
  const uint64_t b = e.local_now_ns();
  *slack_ns = b - a;
  return int64_t(mid) - int64_t((a + b) / 2);
}

TEST(TelemetrySideband, SkewedProcessMergesIntoCollectorDomain) {
  Collector collector;
  ASSERT_TRUE(collector.ok());
  collector.start();

  obs::Tracer tracer;
  tracer.enable(size_t(1) << 12);
  tracer.set_epoch_offset_ns(37'000'000);  // node clock runs 37 ms ahead
  obs::MetricsRegistry reg;
  reg.counter("pictures_decoded", {.node = 2, .stream = 0}).add(42);
  reg.histogram("decode_ns", {.node = 2}).observe(4096);
  tracer.record(obs::span::kDecodeSp, 2, tracer.now_ns(), 1000, 3);

  TelemetryExporterConfig cfg;
  cfg.collector = collector.endpoint();
  cfg.probe_wait_s = 0.05;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.k = 1;
  cfg.tiles = 1;
  cfg.nodes = 3;
  cfg.hosted = {0, 1, 2};
  TelemetryExporter exporter(cfg);
  for (int i = 0; i < 5; ++i) exporter.flush();

  const ClockEstimator clk = exporter.clock();
  ASSERT_TRUE(clk.valid());
  ASSERT_GT(clk.min_rtt_ns(), 0u);
  uint64_t slack = 0;
  const int64_t truth = truth_offset_ns(collector, exporter, &slack);
  const int64_t err = clk.offset_ns() - truth;
  EXPECT_LE(uint64_t(err < 0 ? -err : err), 2 * clk.min_rtt_ns() + slack)
      << "estimate " << clk.offset_ns() << " truth " << truth << " min_rtt "
      << clk.min_rtt_ns();

  exporter.stop();  // final flush + Bye
  ASSERT_TRUE(eventually([&] {
    const auto procs = collector.processes();
    return procs.size() == 1 && procs[0].bye;
  }));
  const auto procs = collector.processes();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].token, exporter.token());
  EXPECT_EQ(procs[0].nodes, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(procs[0].offset_valid);
  // The final flush inside stop() probes once more, so the collector holds
  // the *post-stop* estimate.
  EXPECT_EQ(procs[0].offset_ns, exporter.clock().offset_ns());
  EXPECT_GE(procs[0].span_events, 1u);
  EXPECT_TRUE(collector.all_nodes_seen());
  EXPECT_TRUE(collector.all_bye());
  const obs::MetricsSnapshot merged = collector.merged_metrics();
  EXPECT_EQ(merged.counter_total("pictures_decoded"), 42u);
  collector.stop();
}

// The acceptance bound from the issue: under a deterministic one-way delay
// (the forward leg runs through an ImpairProxy that holds every datagram
// 3 ms, replies come back direct), the estimated offset must stay within
// 2x min-RTT of the true skew. The probe's reply_to field is what makes
// this work at all — the proxy forwards one way only, so the collector
// must answer the exporter's socket directly.
TEST(TelemetrySideband, OffsetWithinTwoMinRttUnderAsymmetricDelay) {
  Collector collector;
  ASSERT_TRUE(collector.ok());
  collector.start();

  net::ImpairConfig icfg;
  icfg.seed = 7;
  icfg.delay = 1.0;  // hold every forwarded datagram...
  icfg.delay_s = 0.003;  // ...for 3 ms
  net::ImpairProxy proxy(
      {net::Endpoint{net::kLoopbackIp, collector.endpoint().port}}, icfg);
  const net::Endpoint front = proxy.proxied()[0];

  obs::Tracer tracer;
  tracer.enable(size_t(1) << 12);
  tracer.set_epoch_offset_ns(91'000'000);
  obs::MetricsRegistry reg;

  TelemetryExporterConfig cfg;
  cfg.collector = {obs::kTelemetryLoopbackIp, front.port};
  cfg.probe_wait_s = 0.05;
  cfg.metrics = &reg;
  cfg.tracer = &tracer;
  cfg.nodes = 1;
  cfg.hosted = {0};
  TelemetryExporter exporter(cfg);
  exporter.set_reply_to(exporter.local_endpoint());
  for (int i = 0; i < 6; ++i) exporter.flush();

  const ClockEstimator clk = exporter.clock();
  ASSERT_TRUE(clk.valid());
  // The 3 ms held leg is physically real: the best observed RTT cannot beat
  // it.
  EXPECT_GE(clk.min_rtt_ns(), 2'500'000u);
  uint64_t slack = 0;
  const int64_t truth = truth_offset_ns(collector, exporter, &slack);
  const int64_t err = clk.offset_ns() - truth;
  EXPECT_LE(uint64_t(err < 0 ? -err : err), 2 * clk.min_rtt_ns() + slack)
      << "estimate " << clk.offset_ns() << " truth " << truth << " min_rtt "
      << clk.min_rtt_ns();

  exporter.stop();
  proxy.stop();
  collector.stop();
}

// ---------------------------------------------------------------------------
// Flight recorder: a dump is a parseable post-mortem and the budget holds.
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, DumpHoldsSpansWireAndMetricsAndBudgetCaps) {
  obs::FlightRecorder& fr = obs::FlightRecorder::global();
  obs::FlightRecorder::Config cfg;
  cfg.dir = ::testing::TempDir();
  cfg.node = 5;
  cfg.max_dumps = 2;
  fr.configure(cfg);  // enables the global tracer if off
  ASSERT_TRUE(fr.enabled());
  ASSERT_TRUE(obs::Tracer::global().enabled());

  obs::Tracer& tr = obs::Tracer::global();
  tr.record(obs::span::kDecodeSp, 5, tr.now_ns(), 2000, 11);
  fr.note_wire(/*tx=*/true, /*self=*/5, /*peer=*/0, /*msg_type=*/3,
               /*seq=*/77, /*aux=*/11, /*bytes=*/1500);
  fr.note_wire(false, 5, 1, 4, 78, 11, 900);

  const std::string path = fr.dump("black_box_test");
  ASSERT_FALSE(path.empty());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("black_box_test"), std::string::npos);
  EXPECT_NE(dump.find("\"spans\""), std::string::npos);
  EXPECT_NE(dump.find("\"wire\""), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
  EXPECT_NE(dump.find("decode_sp"), std::string::npos);

  // max_dumps = 2: the second dump lands, the third is refused.
  EXPECT_FALSE(fr.dump("second").empty());
  EXPECT_TRUE(fr.dump("third").empty());
  EXPECT_EQ(fr.dumps_written(), 2u);
}

// ---------------------------------------------------------------------------
// End to end: an in-process 7-node socket wall streaming itself into one
// merged multi-pid trace.
// ---------------------------------------------------------------------------

std::vector<uint8_t> tiny_stream(int w, int h, int frames) {
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 21);
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = 2;
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

TEST(TelemetrySideband, SocketWallStreamsOneMergedTrace) {
  obs::Tracer::global().enable(size_t(1) << 15);
  Collector collector;
  ASSERT_TRUE(collector.ok());
  collector.start();

  const int w = 256, h = 192, k = 2;
  const auto es = tiny_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);

  obs::MetricsRegistry reg;
  core::SocketWallOptions so;
  so.metrics = &reg;
  so.telemetry_port = collector.endpoint().port;
  so.telemetry_interval_s = 0.05;
  core::run_socket_wall(geo, k, es, nullptr, so);
  // The final flush + Bye datagrams may still be queued on the collector
  // socket when the wall returns; let the receive loop drain them.
  ASSERT_TRUE(eventually(
      [&] { return collector.all_nodes_seen() && collector.all_bye(); }));
  collector.stop();

  // One process hosting all 7 nodes, seen and said goodbye.
  EXPECT_EQ(collector.k(), 2);
  EXPECT_EQ(collector.tiles(), 4);
  EXPECT_EQ(collector.nodes_expected(), 7);
  EXPECT_TRUE(collector.all_nodes_seen());
  EXPECT_TRUE(collector.all_bye());
  const auto procs = collector.processes();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].nodes, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_GT(procs[0].span_events, 0u);
  EXPECT_GT(collector.merged_metrics().counter_total("pictures_decoded"), 0u);

  const std::string path = ::testing::TempDir() + "merged_wall_trace.json";
  ASSERT_TRUE(collector.write_merged_trace(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("pic_flow"), std::string::npos);  // cross-pid flows
  EXPECT_NE(trace.find("process_name"), std::string::npos);
  EXPECT_NE(trace.find("clockOffsets"), std::string::npos);
}

}  // namespace
}  // namespace pdw
