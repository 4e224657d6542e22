// Wall frame assembly: compose the tiles decoded by the cluster back into a
// single picture for verification, snapshots, and the examples.
//
// On the physical wall no such composition exists — each PC drives its own
// projector and the overlap bands are blended optically. Here composition is
// the observable that lets tests assert the parallel decode is bit-exact.
//
// Fault tolerance adds a second concern: a tile may arrive flagged degraded
// (concealed or frozen content), or not arrive at all (its node died and
// nobody adopted it). Degraded pixels never overwrite exact ones in the
// overlap bands, and fill_uncovered() closes any hole by freezing the
// previous wall frame — the paper's wall must keep showing *something* on
// every projector.
#pragma once

#include <initializer_list>

#include "mpeg2/frame.h"
#include "wall/geometry.h"

namespace pdw::wall {

class WallAssembler {
 public:
  explicit WallAssembler(const TileGeometry& geo);

  // Insert tile t's decoded frame (macroblock-aligned TileFrame in global
  // coordinates). Only the tile's display pixel rect is copied. With
  // exact=true (the default), overlap regions are written by every owning
  // tile with identical data, which add_tile CHECK-verifies. With
  // exact=false the data is degraded: it fills pixels no exact tile
  // covered, never overwrites exact ones, and is exempt from the overlap
  // equality check.
  void add_tile(int t, const mpeg2::TileFrame& tile, bool exact = true);

  // Epoch-aware flavour: the frame was decoded under `epoch_geo` (a
  // rebalanced partition of the same wall), so its display rect comes from
  // that geometry while the wall frame itself never moves. Pass the
  // geometry matching TileDisplayInfo::epoch.
  void add_tile(int t, const mpeg2::TileFrame& tile,
                const TileGeometry& epoch_geo, bool exact);

  // The composed picture (crop of the macroblock-aligned decode to the
  // display size happens here).
  const mpeg2::Frame& frame() const { return frame_; }

  // CHECK that every display pixel was covered by at least one tile.
  void check_coverage() const;
  // Same predicate without aborting (fault-tolerant callers branch on it).
  bool coverage_complete() const;

  // Fill every uncovered pixel from `prev` (the previously displayed wall
  // frame), or with mid-gray if prev is null — freeze-last-frame recovery
  // for tiles whose node died. Filled pixels count as degraded coverage.
  void fill_uncovered(const mpeg2::Frame* prev);

  void reset();

 private:
  // Per-pixel coverage state: 0 = hole, 1 = exact, 2 = degraded.
  enum : uint8_t { kHole = 0, kExact = 1, kDegraded = 2 };

  struct SpanCopy {
    uint8_t* dst;
    const uint8_t* src;
  };
  // Copy one row span of w pixels from every plane in `planes` (planes that
  // share one coverage row, e.g. Cb and Cr) under the coverage policy, and
  // update the span's coverage bytes `cov`.
  void copy_span(uint8_t* cov, int w, bool exact,
                 std::initializer_list<SpanCopy> planes);

  const TileGeometry& geo_;
  mpeg2::Frame frame_;
  std::vector<uint8_t> covered_;    // per luma pixel
  std::vector<uint8_t> covered_c_;  // per chroma pixel
};

// Crop a macroblock-aligned full frame to the display size (for comparing
// the serial decoder's output against the assembled wall).
mpeg2::Frame crop_frame(const mpeg2::Frame& src, int width, int height);

}  // namespace pdw::wall
