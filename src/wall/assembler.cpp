#include "wall/assembler.h"

#include <algorithm>
#include <cstring>

namespace pdw::wall {

using mpeg2::Frame;
using mpeg2::TileFrame;

WallAssembler::WallAssembler(const TileGeometry& geo)
    : geo_(geo), frame_(geo.mb_width() * 16, geo.mb_height() * 16) {
  covered_.assign(size_t(geo.width()) * geo.height(), kHole);
  covered_c_.assign(size_t(geo.width() >> 1) * (geo.height() >> 1), kHole);
}

void WallAssembler::reset() {
  std::fill(covered_.begin(), covered_.end(), uint8_t(kHole));
  std::fill(covered_c_.begin(), covered_c_.end(), uint8_t(kHole));
}

namespace {

// Calls fn(i, n) for each maximal run [i, i + n) of bytes equal to v in
// cov[0, w).
template <typename Fn>
void for_each_run_of(uint8_t v, const uint8_t* cov, int w, Fn fn) {
  if (w <= 0) return;
  const uint8_t* end = cov + w;
  const void* hit = std::memchr(cov, v, size_t(w));
  while (hit != nullptr) {
    const uint8_t* p = static_cast<const uint8_t*>(hit);
    const uint8_t* q = p;
    while (q < end && *q == v) ++q;
    fn(int(p - cov), int(q - p));
    hit = q < end ? std::memchr(q, v, size_t(end - q)) : nullptr;
  }
}

}  // namespace

void WallAssembler::copy_span(uint8_t* cov, int w, bool exact,
                              std::initializer_list<SpanCopy> planes) {
  if (w <= 0) return;
  if (exact || std::memchr(cov, kExact, size_t(w)) == nullptr) {
    // Exact data overwrites anything (exact overlaps were verified equal);
    // degraded data with no exact pixel in the span fills all of it.
    for (const SpanCopy& p : planes) std::memcpy(p.dst, p.src, size_t(w));
    std::memset(cov, exact ? kExact : kDegraded, size_t(w));
    return;
  }
  // Degraded data around exact pixels: fill only the gaps between the exact
  // runs.
  int gap = 0;
  auto fill_gap = [&](int end) {
    for (const SpanCopy& p : planes)
      std::memcpy(p.dst + gap, p.src + gap, size_t(end - gap));
    std::memset(cov + gap, kDegraded, size_t(end - gap));
  };
  for_each_run_of(kExact, cov, w, [&](int i, int n) {
    fill_gap(i);
    gap = i + n;
  });
  fill_gap(w);
}

void WallAssembler::add_tile(int t, const TileFrame& tile, bool exact) {
  add_tile(t, tile, geo_, exact);
}

void WallAssembler::add_tile(int t, const TileFrame& tile,
                             const TileGeometry& epoch_geo, bool exact) {
  PDW_CHECK_EQ(epoch_geo.width(), geo_.width());
  PDW_CHECK_EQ(epoch_geo.height(), geo_.height());
  const PixelRect& r = epoch_geo.tile_pixels(t);
  PDW_CHECK_GE(r.x0, tile.px0());
  PDW_CHECK_GE(r.y0, tile.py0());
  PDW_CHECK_LE(std::min(r.x1, geo_.width()), tile.px1());

  // Luma: copy the display rect; where another tile already wrote exact data
  // (overlap bands), exact data must agree — the physical wall blends the
  // two projectors, which only looks right because both show identical
  // pixels. Degraded data fills holes and degraded pixels but never
  // overwrites exact ones.
  const int w = std::min(r.x1, geo_.width()) - r.x0;
  for (int y = r.y0; y < std::min(r.y1, geo_.height()); ++y) {
    uint8_t* dst = frame_.y.row(y) + r.x0;
    const uint8_t* src = tile.pixel(0, r.x0, y);
    uint8_t* cov = covered_.data() + size_t(y) * geo_.width() + r.x0;
    if (exact) {
      for_each_run_of(kExact, cov, w, [&](int i, int n) {
        if (std::memcmp(dst + i, src + i, size_t(n)) == 0) return;
        while (dst[i] == src[i]) ++i;
        PDW_CHECK_EQ(int(dst[i]), int(src[i]))
            << "overlap mismatch at (" << r.x0 + i << "," << y << ")";
      });
    }
    copy_span(cov, w, exact, {{dst, src}});
  }

  // Chroma: half-resolution copy with the same coverage policy.
  const int cw = geo_.width() >> 1;
  const int cx0 = r.x0 >> 1;
  const int cy0 = r.y0 >> 1;
  const int cx1 = std::min((r.x1 + 1) >> 1, cw);
  const int cy1 = std::min((r.y1 + 1) >> 1, geo_.height() >> 1);
  for (int y = cy0; y < cy1; ++y)
    copy_span(covered_c_.data() + size_t(y) * cw + cx0, cx1 - cx0, exact,
              {{frame_.cb.row(y) + cx0, tile.pixel(1, cx0, y)},
               {frame_.cr.row(y) + cx0, tile.pixel(2, cx0, y)}});
}

void WallAssembler::check_coverage() const {
  for (int y = 0; y < geo_.height(); ++y)
    for (int x = 0; x < geo_.width(); ++x)
      PDW_CHECK(covered_[size_t(y) * geo_.width() + x] != kHole)
          << "pixel (" << x << "," << y << ") not covered by any tile";
}

bool WallAssembler::coverage_complete() const {
  return std::find(covered_.begin(), covered_.end(), uint8_t(kHole)) ==
             covered_.end() &&
         std::find(covered_c_.begin(), covered_c_.end(), uint8_t(kHole)) ==
             covered_c_.end();
}

void WallAssembler::fill_uncovered(const Frame* prev) {
  for (int y = 0; y < geo_.height(); ++y) {
    uint8_t* dst = frame_.y.row(y);
    const uint8_t* src = prev ? prev->y.row(y) : nullptr;
    for (int x = 0; x < geo_.width(); ++x) {
      uint8_t& cov = covered_[size_t(y) * geo_.width() + x];
      if (cov != kHole) continue;
      dst[x] = src ? src[x] : 128;
      cov = kDegraded;
    }
  }
  const int cw = geo_.width() >> 1;
  const int ch = geo_.height() >> 1;
  for (int y = 0; y < ch; ++y) {
    uint8_t* dcb = frame_.cb.row(y);
    uint8_t* dcr = frame_.cr.row(y);
    for (int x = 0; x < cw; ++x) {
      uint8_t& cov = covered_c_[size_t(y) * cw + x];
      if (cov != kHole) continue;
      dcb[x] = prev ? prev->cb.row(y)[x] : 128;
      dcr[x] = prev ? prev->cr.row(y)[x] : 128;
      cov = kDegraded;
    }
  }
}

Frame crop_frame(const Frame& src, int width, int height) {
  PDW_CHECK_EQ(width % 2, 0);
  PDW_CHECK_EQ(height % 2, 0);
  Frame out(width, height);
  for (int y = 0; y < height; ++y)
    std::memcpy(out.y.row(y), src.y.row(y), size_t(width));
  for (int y = 0; y < height / 2; ++y) {
    std::memcpy(out.cb.row(y), src.cb.row(y), size_t(width / 2));
    std::memcpy(out.cr.row(y), src.cr.row(y), size_t(width / 2));
  }
  return out;
}

}  // namespace pdw::wall
