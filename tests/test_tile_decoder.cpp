// Tile decoder unit tests: tile outputs equal the serial decoder's crop,
// halo-driven MC, MEI completeness enforcement, display ordering, flush.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "enc/encoder.h"
#include "mpeg2/decoder.h"
#include "video/generator.h"

namespace pdw::core {
namespace {

std::vector<uint8_t> make_stream(int w, int h, int frames, int me_range = 15,
                                 int b_frames = 2) {
  enc::EncoderConfig cfg;
  cfg.width = w;
  cfg.height = h;
  cfg.gop_size = 6;
  cfg.b_frames = b_frames;
  cfg.target_bpp = 0.4;
  cfg.me_range = me_range;
  const auto gen =
      video::make_scene(video::SceneKind::kMovingObjects, w, h, 31);
  enc::Mpeg2Encoder encoder(cfg);
  return encoder.encode(frames,
                        [&](int i, mpeg2::Frame* f) { gen->render(i, f); });
}

// Drives split + exchange + decode by hand for full control over the halo.
struct Harness {
  Harness(const std::vector<uint8_t>& es, const wall::TileGeometry& geo,
          HaloPolicy policy = HaloPolicy::kStrict)
      : root(es), splitter(geo), geo_(geo) {
    splitter.set_stream_info(root.stream_info());
    for (int t = 0; t < geo.tiles(); ++t)
      decoders.push_back(
          std::make_unique<TileDecoder>(geo, t, root.stream_info(), policy));
  }

  // Process picture i; returns the number of halo entries delivered.
  int step(int i, bool do_exchanges,
           const TileDecoder::DisplayFn& display = nullptr) {
    SplitResult r = splitter.split(root.picture(i), uint32_t(i));
    int delivered = 0;
    if (do_exchanges) {
      for (int t = 0; t < geo_.tiles(); ++t)
        for (const MeiInstruction& instr : r.mei[size_t(t)]) {
          if (instr.op != MeiOp::kSend) continue;
          const auto px = decoders[size_t(t)]->extract_for_send(r.info, instr);
          MeiInstruction recv = instr;
          recv.op = MeiOp::kRecv;
          decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
          ++delivered;
        }
    }
    for (int t = 0; t < geo_.tiles(); ++t)
      decoders[size_t(t)]->decode(r.subpictures[size_t(t)], display);
    return delivered;
  }

  RootSplitter root;
  MacroblockSplitter splitter;
  const wall::TileGeometry& geo_;
  std::vector<std::unique_ptr<TileDecoder>> decoders;
};

TEST(TileDecoder, TileEqualsSerialCrop) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);

  // Serial reference frames in display order.
  std::vector<mpeg2::Frame> serial;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    serial.push_back(f);
  });

  std::vector<int> per_tile_count(size_t(geo.tiles()), 0);
  auto check = [&](int t) {
    return [&, t](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
      const mpeg2::Frame& ref = serial[size_t(info.display_index)];
      for (int y = tf.py0(); y < tf.py1(); ++y)
        for (int x = tf.px0(); x < tf.px1(); ++x)
          ASSERT_EQ(*tf.pixel(0, x, y), ref.y.at(x, y))
              << "tile " << t << " frame " << info.display_index << " at ("
              << x << "," << y << ")";
      ++per_tile_count[size_t(t)];
    };
  };

  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    for (int t = 0; t < geo.tiles(); ++t)
      for (const MeiInstruction& instr : r.mei[size_t(t)]) {
        if (instr.op != MeiOp::kSend) continue;
        const auto px = hn.decoders[size_t(t)]->extract_for_send(r.info, instr);
        MeiInstruction recv = instr;
        recv.op = MeiOp::kRecv;
        hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
      }
    for (int t = 0; t < geo.tiles(); ++t)
      hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], check(t));
  }
  for (int t = 0; t < geo.tiles(); ++t)
    hn.decoders[size_t(t)]->flush(check(t));
  for (int t = 0; t < geo.tiles(); ++t)
    EXPECT_EQ(per_tile_count[size_t(t)], int(serial.size()));
}

TEST(TileDecoder, MissingHaloIsAHardError) {
  // Decoding a P picture without executing the MEI exchanges must CHECK-fail
  // (no silent on-demand fallback), unless no vector crosses the boundary.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8, /*me_range=*/24);
  wall::TileGeometry geo(w, h, 4, 2, 0);
  Harness hn(es, geo);

  // Find the first picture that actually has exchanges.
  bool threw = false;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
    int exchanges = 0;
    for (const auto& mei : r.mei) exchanges += int(mei.size());
    if (exchanges == 0) {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
      continue;
    }
    try {
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], nullptr);
    } catch (const CheckError& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("halo"), std::string::npos);
    }
    break;
  }
  EXPECT_TRUE(threw) << "expected a missing-halo CHECK failure";
}

TEST(TileDecoder, DisplayOrderMatchesSerialSemantics) {
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 9);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  Harness hn(es, geo);

  std::vector<uint32_t> display_pic_indices;
  std::vector<int> display_indices;
  auto record = [&](const mpeg2::TileFrame&, const TileDisplayInfo& info) {
    display_pic_indices.push_back(info.pic_index);
    display_indices.push_back(info.display_index);
  };
  for (int i = 0; i < hn.root.picture_count(); ++i)
    hn.step(i, true, record);
  hn.decoders[0]->flush(record);

  ASSERT_EQ(int(display_indices.size()), hn.root.picture_count());
  // display_index is a contiguous 0..N-1 sequence.
  for (int i = 0; i < int(display_indices.size()); ++i)
    EXPECT_EQ(display_indices[size_t(i)], i);
  // Decode order differs from display order iff B pictures exist.
  bool reordered = false;
  for (size_t i = 1; i < display_pic_indices.size(); ++i)
    if (display_pic_indices[i] < display_pic_indices[i - 1]) reordered = true;
  EXPECT_TRUE(reordered) << "stream with B pictures must reorder";
}

TEST(TileDecoder, StatsReportMacroblocksAndHalo) {
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8);
  wall::TileGeometry geo(w, h, 2, 2, 0);
  Harness hn(es, geo);
  size_t halo_total = 0;
  for (int i = 0; i < hn.root.picture_count(); ++i) {
    hn.step(i, true);
    for (int t = 0; t < geo.tiles(); ++t) {
      EXPECT_EQ(hn.decoders[size_t(t)]->macroblocks_decoded_last_picture(),
                geo.tile_mbs(t).count());
      halo_total += hn.decoders[size_t(t)]->halo_mbs_last_picture();
    }
  }
  EXPECT_GT(halo_total, 0u) << "P/B pictures should need remote macroblocks";
}

TEST(TileDecoder, InTileReadOfTaintedReferenceIsDegraded) {
  // On a one-tile wall every motion-compensation window lies inside the
  // tile's own frame, so every fetch takes the in-tile path. A P picture
  // predicted from a tainted reference through that path must still come
  // out degraded; the same picture from a clean reference must not.
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 4, /*me_range=*/15, /*b_frames=*/0);
  wall::TileGeometry geo(w, h, 1, 1, 0);

  for (const bool taint : {false, true}) {
    Harness hn(es, geo);
    ASSERT_EQ(hn.root.picture_type(2), mpeg2::PicType::P);
    std::vector<TileDisplayInfo> shown;
    auto record = [&](const mpeg2::TileFrame&, const TileDisplayInfo& info) {
      shown.push_back(info);
    };
    hn.step(0, true, record);
    if (taint) {
      // Picture 1 is lost: the reference state is poisoned until the next
      // I picture.
      hn.splitter.split(hn.root.picture(1), 1);
      hn.decoders[0]->skip_picture(1, record);
    } else {
      hn.step(1, true, record);
    }
    EXPECT_EQ(hn.step(2, true, record), 0) << "one tile needs no halo";
    hn.decoders[0]->flush(record);

    // Picture 2 itself (the lost picture's slot 1 shows a frozen frame that
    // also carries pic_index 2).
    const auto it = std::find_if(
        shown.begin(), shown.end(), [](const TileDisplayInfo& i) {
          return i.pic_index == 2 && i.display_index == 2;
        });
    ASSERT_NE(it, shown.end());
    EXPECT_EQ(it->degraded, taint)
        << (taint ? "tainted reference read through the in-tile path"
                  : "clean reference");
  }
}

TEST(TileDecoder, StraddlingWindowReadsHaloAndConcealsMissingEntry) {
  // Windows that straddle the tile edge are gathered from the tile frame
  // and the halo. With every halo entry delivered the tiles stay bit-exact;
  // with one entry missing under kConceal the receiving tile conceals it
  // and is flagged degraded instead of aborting.
  const int w = 320, h = 240;
  const auto es = make_stream(w, h, 8, /*me_range=*/24);
  wall::TileGeometry geo(w, h, 2, 1, 0);

  std::vector<mpeg2::Frame> serial;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    serial.push_back(f);
  });

  for (const bool drop : {false, true}) {
    Harness hn(es, geo, HaloPolicy::kConceal);
    // Per tile: degraded flag and serial equality of `target`, the first
    // picture with exchanges, the only one that loses a halo entry.
    int target = -1;
    int dropped_to = -1;
    std::vector<int> degraded(size_t(geo.tiles()), -1);
    std::vector<bool> exact(size_t(geo.tiles()), false);
    auto record = [&](int t) {
      return [&, t](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
        if (target < 0 || int(info.pic_index) != target) return;
        degraded[size_t(t)] = info.degraded;
        const mpeg2::Frame& ref = serial[size_t(info.display_index)];
        bool same = true;
        for (int y = tf.py0(); y < tf.py1(); ++y)
          for (int x = tf.px0(); x < tf.px1(); ++x)
            same &= *tf.pixel(0, x, y) == ref.y.at(x, y);
        exact[size_t(t)] = same;
      };
    };
    int delivered = 0;
    for (int i = 0; i < hn.root.picture_count(); ++i) {
      SplitResult r = hn.splitter.split(hn.root.picture(i), uint32_t(i));
      int sends = 0;
      for (const auto& mei : r.mei)
        for (const MeiInstruction& instr : mei)
          sends += instr.op == MeiOp::kSend;
      if (sends > 0 && target < 0) target = i;
      for (int t = 0; t < geo.tiles(); ++t)
        for (const MeiInstruction& instr : r.mei[size_t(t)]) {
          if (instr.op != MeiOp::kSend) continue;
          if (drop && target == i && dropped_to < 0) {
            dropped_to = instr.peer;
            continue;
          }
          const auto px =
              hn.decoders[size_t(t)]->extract_for_send(r.info, instr);
          MeiInstruction recv = instr;
          recv.op = MeiOp::kRecv;
          hn.decoders[size_t(instr.peer)]->add_halo_mb(recv, px);
          if (target == i) ++delivered;
        }
      for (int t = 0; t < geo.tiles(); ++t)
        hn.decoders[size_t(t)]->decode(r.subpictures[size_t(t)], record(t));
    }
    for (int t = 0; t < geo.tiles(); ++t)
      hn.decoders[size_t(t)]->flush(record(t));

    ASSERT_GE(target, 0) << "stream needs a picture with exchanges";
    ASSERT_GT(delivered, 0);
    for (int t = 0; t < geo.tiles(); ++t) {
      const bool victim = drop && t == dropped_to;
      EXPECT_EQ(degraded[size_t(t)], int(victim)) << "tile " << t;
      if (!victim) {
        EXPECT_TRUE(exact[size_t(t)]) << "tile " << t;
      }
    }
  }
}

TEST(TileDecoder, FrozenFrameRepeatsLastShownFrame) {
  // Skipping a reference picture leaves a hole that the next reference
  // picture fills with a frozen copy of the last frame shown. Here that frame
  // is a B picture whose buffer the reference picture itself decodes into,
  // so the decoder must have kept its pixels before overwriting it.
  const int w = 192, h = 160;
  const auto es = make_stream(w, h, 12);
  wall::TileGeometry geo(w, h, 1, 1, 0);
  Harness hn(es, geo, HaloPolicy::kConceal);  // B after the skip: gray ref
  using mpeg2::PicType;
  int k = -1;  // a P picture followed by B, B and a reference picture
  for (int i = 1; i + 3 < hn.root.picture_count() && k < 0; ++i)
    if (hn.root.picture_type(i) == PicType::P &&
        hn.root.picture_type(i + 1) == PicType::B &&
        hn.root.picture_type(i + 2) == PicType::B &&
        hn.root.picture_type(i + 3) != PicType::B)
      k = i;
  ASSERT_GE(k, 0) << "stream needs an I/P B B I/P run";

  struct Shown {
    TileDisplayInfo info;
    std::vector<uint8_t> y;
  };
  std::vector<Shown> shown;
  auto record = [&](const mpeg2::TileFrame& tf, const TileDisplayInfo& info) {
    const auto px = tf.y().data();
    shown.push_back({info, std::vector<uint8_t>(px.begin(), px.end())});
  };
  for (int i = 0; i < k; ++i) hn.step(i, true, record);
  hn.splitter.split(hn.root.picture(k), uint32_t(k));
  hn.decoders[0]->skip_picture(uint32_t(k), record);
  hn.step(k + 1, true, record);
  hn.step(k + 2, true, record);
  const size_t before = shown.size();
  hn.step(k + 3, true, record);

  ASSERT_EQ(shown.size(), before + 1);
  const Shown& frozen = shown.back();
  const Shown& last = shown[before - 1];
  EXPECT_TRUE(frozen.info.degraded);
  EXPECT_EQ(last.info.pic_index, uint32_t(k + 2)) << "last shown is a B";
  EXPECT_EQ(frozen.y, last.y) << "frozen frame differs from the last shown";
}

TEST(TileDecoder, FlushWithoutPicturesIsANoOp) {
  const auto es = make_stream(192, 160, 2);
  wall::TileGeometry geo(192, 160, 1, 1, 0);
  RootSplitter root(es);
  TileDecoder dec(geo, 0, root.stream_info());
  int calls = 0;
  dec.flush([&](const mpeg2::TileFrame&, const TileDisplayInfo&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace pdw::core
