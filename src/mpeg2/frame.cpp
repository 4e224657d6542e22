#include "mpeg2/frame.h"

#include <cmath>

namespace pdw::mpeg2 {

double psnr(const Plane& a, const Plane& b) {
  PDW_CHECK_EQ(a.width(), b.width());
  PDW_CHECK_EQ(a.height(), b.height());
  double sse = 0.0;
  for (int y = 0; y < a.height(); ++y) {
    const uint8_t* pa = a.row(y);
    const uint8_t* pb = b.row(y);
    for (int x = 0; x < a.width(); ++x) {
      const double d = double(pa[x]) - double(pb[x]);
      sse += d * d;
    }
  }
  if (sse == 0.0) return 99.0;
  const double mse = sse / (double(a.width()) * a.height());
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

MacroblockPixels TileFrame::extract_mb(int mbx, int mby) const {
  PDW_CHECK(contains_mb(mbx, mby));
  MacroblockPixels out;
  copy_block<16>(out.y, 16, pixel(0, mbx * 16, mby * 16), size_t(y_.width()));
  copy_block<8>(out.cb, 8, pixel(1, mbx * 8, mby * 8), size_t(cb_.width()));
  copy_block<8>(out.cr, 8, pixel(2, mbx * 8, mby * 8), size_t(cr_.width()));
  return out;
}

void TileFrame::insert_mb(int mbx, int mby, const MacroblockPixels& px) {
  PDW_CHECK(contains_mb(mbx, mby));
  copy_block<16>(pixel(0, mbx * 16, mby * 16), size_t(y_.width()), px.y, 16);
  copy_block<8>(pixel(1, mbx * 8, mby * 8), size_t(cb_.width()), px.cb, 8);
  copy_block<8>(pixel(2, mbx * 8, mby * 8), size_t(cr_.width()), px.cr, 8);
}

}  // namespace pdw::mpeg2
