// Threaded cluster pipeline tests: the full Table-3 protocol with real
// concurrency — bit-exactness against the serial decoder, in-order delivery
// (built into the pipeline as CHECKs), flow-control compliance (the fabric
// CHECK-fails on overruns), and traffic accounting invariants.
#include <gtest/gtest.h>

#include <map>

#include "core/pipeline.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "obs/metrics.h"
#include "video/generator.h"
#include "wall/assembler.h"

namespace pdw {
namespace {

using core::ClusterPipeline;
using core::ClusterStats;
using core::TileDisplayInfo;
using mpeg2::Frame;

std::vector<uint8_t> make_stream(int w, int h, int frames) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 8;
  cfg.b_frames = 2;
  cfg.target_bpp = 0.4;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 21);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, Frame* f) { gen->render(i, f); });
}

std::vector<Frame> serial_decode(const std::vector<uint8_t>& es) {
  std::vector<Frame> out;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const Frame& f, const mpeg2::DecodedPictureInfo&) {
    out.push_back(f);
  });
  return out;
}

struct ThreadedRun {
  std::vector<Frame> frames;
  ClusterStats stats;
};

// Every host registers malformed_msgs; a clean run leaves each at zero.
// Hosts drop what they cannot decode instead of aborting, so a protocol bug
// would otherwise pass as a quiet skip.
void expect_no_malformed(const obs::MetricsRegistry& reg, int nodes) {
  int registered = 0;
  for (const obs::MetricValue& v : reg.snapshot().values) {
    if (v.family != obs::family::kMalformedMsgs) continue;
    ++registered;
    EXPECT_EQ(v.count, 0u) << "node " << v.labels.node;
  }
  EXPECT_EQ(registered, nodes);
}

ThreadedRun threaded_decode(const std::vector<uint8_t>& es,
                            const wall::TileGeometry& geo, int k) {
  obs::MetricsRegistry reg;
  core::FtOptions ft;
  ft.metrics = &reg;
  ClusterPipeline pipeline(geo, k, es, ft);
  struct Pending {
    std::unique_ptr<wall::WallAssembler> assembler;
    int tiles = 0;
  };
  std::map<int, Pending> pending;
  std::map<int, Frame> finished;

  ThreadedRun run;
  run.stats = pipeline.run([&](int tile, const mpeg2::TileFrame& tf,
                               const TileDisplayInfo& info) {
    Pending& p = pending[info.display_index];
    if (!p.assembler) p.assembler = std::make_unique<wall::WallAssembler>(geo);
    p.assembler->add_tile(tile, tf);
    if (++p.tiles == geo.tiles()) {
      p.assembler->check_coverage();
      finished.emplace(info.display_index, p.assembler->frame());
      pending.erase(info.display_index);
    }
  });
  EXPECT_TRUE(pending.empty());
  int next = 0;
  while (finished.count(next)) {
    run.frames.push_back(std::move(finished.at(next)));
    finished.erase(next);
    ++next;
  }
  EXPECT_TRUE(finished.empty());
  expect_no_malformed(reg, pipeline.nodes());
  return run;
}

class ThreadedPipeline : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ThreadedPipeline, BitExactAgainstSerial) {
  const auto [m, n, k] = GetParam();
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, m, n, 16);
  const auto serial = serial_decode(es);
  const auto run = threaded_decode(es, geo, k);
  ASSERT_EQ(run.frames.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const Frame a = wall::crop_frame(serial[i], w, h);
    const Frame b = wall::crop_frame(run.frames[i], w, h);
    ASSERT_EQ(a.y, b.y) << "frame " << i;
    ASSERT_EQ(a.cb, b.cb);
    ASSERT_EQ(a.cr, b.cr);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ThreadedPipeline,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 1, 1),
                                           std::make_tuple(2, 2, 2),
                                           std::make_tuple(3, 2, 3),
                                           std::make_tuple(2, 2, 5)),
                         [](const auto& info) {
                           return "m" + std::to_string(std::get<0>(info.param)) +
                                  "n" + std::to_string(std::get<1>(info.param)) +
                                  "k" + std::to_string(std::get<2>(info.param));
                         });

TEST(ThreadedPipelineStats, TrafficAccountingIsConserved) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  const auto run = threaded_decode(es, geo, 2);

  uint64_t sent = 0, recv = 0;
  for (const auto& c : run.stats.node_counters) {
    sent += c.sent_bytes;
    recv += c.recv_bytes;
  }
  EXPECT_EQ(sent, recv);
  EXPECT_GT(sent, 0u);

  // Traffic matrix row/column sums equal node counters.
  const int nodes = run.stats.nodes;
  for (int n = 0; n < nodes; ++n) {
    uint64_t row = 0, col = 0;
    for (int d = 0; d < nodes; ++d) {
      row += run.stats.traffic_matrix.at(n, d);
      col += run.stats.traffic_matrix.at(d, n);
    }
    EXPECT_EQ(row, run.stats.node_counters[size_t(n)].sent_bytes);
    EXPECT_EQ(col, run.stats.node_counters[size_t(n)].recv_bytes);
  }
}

TEST(ThreadedPipelineStats, RootSendsOnlyToSplitters) {
  const int w = 256, h = 192;
  const auto es = make_stream(w, h, 6);
  wall::TileGeometry geo(w, h, 2, 1, 0);
  ClusterPipeline pipeline(geo, 2, es);
  const auto stats = pipeline.run(nullptr);
  // Root (node 0) must not send application traffic to decoders directly.
  // The reliable transport does ack each decoder's "finished" report with a
  // single header-only transport ack, so allow at most that.
  for (int t = 0; t < geo.tiles(); ++t) {
    const int d = pipeline.decoder_node(t);
    EXPECT_LE(stats.traffic_matrix.at(0, d),
              uint64_t(net::Message::kHeaderBytes));
  }
  // Both splitters carry picture traffic (round-robin balance).
  EXPECT_GT(stats.traffic_matrix.at(0, 1), 0u);
  EXPECT_GT(stats.traffic_matrix.at(0, 2), 0u);
}

TEST(ThreadedPipelineStats, SplitterSendOverheadIsModest) {
  // Paper §5.6: SPH headers make a splitter's send volume ~20% larger than
  // its receive volume at high resolutions (the relative overhead grows as
  // resolution shrinks, which the paper also notes). At DVD-class resolution
  // with a 2x2 wall the band is looser: >1x (headers always add something)
  // and well under 2x.
  const int w = 720, h = 480;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  ClusterPipeline pipeline(geo, 1, es);
  const auto stats = pipeline.run(nullptr);
  const auto& s = stats.node_counters[1];  // the single splitter
  EXPECT_GT(s.sent_bytes, s.recv_bytes);
  // At this small frame size the fixed per-run SPH cost amortizes poorly
  // (short rows, few bits per macroblock), so allow up to 2.5x; the paper's
  // ~20% figure at ultra-high resolution is reproduced by the Figure 9
  // benchmark, not here.
  EXPECT_LT(double(s.sent_bytes), double(s.recv_bytes) * 2.5);
}

}  // namespace
}  // namespace pdw
