// Scalar reference kernels. This is the ground truth every SIMD level is
// fuzz-tested against: the arithmetic here is the original (seed) hot-loop
// code of idct.cpp / motion.cpp / recon.cpp / motion_est.cpp, moved behind
// the dispatch table verbatim.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "kernels/kernels_internal.h"

namespace pdw::kernels {
namespace {

// ---------------------------------------------------------------------------
// 8x8 IDCT — 32-bit fixed-point row/column Wang factorization.
// ---------------------------------------------------------------------------

// Fixed-point constants: 2048 * sqrt(2) * cos(k*pi/16).
constexpr int32_t W1 = 2841;
constexpr int32_t W2 = 2676;
constexpr int32_t W3 = 2408;
constexpr int32_t W5 = 1609;
constexpr int32_t W6 = 1108;
constexpr int32_t W7 = 565;

inline int16_t clamp256(int32_t v) {
  return int16_t(std::clamp(v, -256, 255));
}

// The butterfly works on wrapping 32-bit lanes, like the SIMD levels (whose
// lane multiply keeps the low 32 bits). In-spec coefficients never wrap;
// out-of-spec blocks (the full int16 range) then still get one defined
// result, the same at every level. sra() is the arithmetic shift of the
// lane read as signed.
using Lane = uint32_t;
inline int32_t sra(Lane v, int s) { return int32_t(v) >> s; }

// One row, 11-bit fixed point.
void idct_row(int16_t* blk) {
  Lane x1 = Lane(blk[4]) << 11;
  Lane x2 = Lane(blk[6]);
  Lane x3 = Lane(blk[2]);
  Lane x4 = Lane(blk[1]);
  Lane x5 = Lane(blk[7]);
  Lane x6 = Lane(blk[5]);
  Lane x7 = Lane(blk[3]);
  if (!(x1 | x2 | x3 | x4 | x5 | x6 | x7)) {
    const int16_t dc = int16_t(Lane(blk[0]) << 3);
    for (int i = 0; i < 8; ++i) blk[i] = dc;
    return;
  }
  Lane x0 = (Lane(blk[0]) << 11) + 128;  // +128 for proper rounding

  // First stage.
  Lane x8 = W7 * (x4 + x5);
  x4 = x8 + (W1 - W7) * x4;
  x5 = x8 - (W1 + W7) * x5;
  x8 = W3 * (x6 + x7);
  x6 = x8 - (W3 - W5) * x6;
  x7 = x8 - (W3 + W5) * x7;

  // Second stage.
  x8 = x0 + x1;
  x0 -= x1;
  x1 = W6 * (x3 + x2);
  x2 = x1 - (W2 + W6) * x2;
  x3 = x1 + (W2 - W6) * x3;
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  // Third stage.
  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = Lane(sra(181 * (x4 + x5) + 128, 8));
  x4 = Lane(sra(181 * (x4 - x5) + 128, 8));

  // Fourth stage.
  blk[0] = int16_t(sra(x7 + x1, 8));
  blk[1] = int16_t(sra(x3 + x2, 8));
  blk[2] = int16_t(sra(x0 + x4, 8));
  blk[3] = int16_t(sra(x8 + x6, 8));
  blk[4] = int16_t(sra(x8 - x6, 8));
  blk[5] = int16_t(sra(x0 - x4, 8));
  blk[6] = int16_t(sra(x3 - x2, 8));
  blk[7] = int16_t(sra(x7 - x1, 8));
}

// One column, with final descale and clamp.
void idct_col(int16_t* blk) {
  Lane x1 = Lane(blk[8 * 4]) << 8;
  Lane x2 = Lane(blk[8 * 6]);
  Lane x3 = Lane(blk[8 * 2]);
  Lane x4 = Lane(blk[8 * 1]);
  Lane x5 = Lane(blk[8 * 7]);
  Lane x6 = Lane(blk[8 * 5]);
  Lane x7 = Lane(blk[8 * 3]);
  if (!(x1 | x2 | x3 | x4 | x5 | x6 | x7)) {
    const int16_t dc = clamp256((blk[0] + 32) >> 6);
    for (int i = 0; i < 8; ++i) blk[8 * i] = dc;
    return;
  }
  Lane x0 = (Lane(blk[0]) << 8) + 8192;

  Lane x8 = W7 * (x4 + x5) + 4;
  x4 = Lane(sra(x8 + (W1 - W7) * x4, 3));
  x5 = Lane(sra(x8 - (W1 + W7) * x5, 3));
  x8 = W3 * (x6 + x7) + 4;
  x6 = Lane(sra(x8 - (W3 - W5) * x6, 3));
  x7 = Lane(sra(x8 - (W3 + W5) * x7, 3));

  x8 = x0 + x1;
  x0 -= x1;
  x1 = W6 * (x3 + x2) + 4;
  x2 = Lane(sra(x1 - (W2 + W6) * x2, 3));
  x3 = Lane(sra(x1 + (W2 - W6) * x3, 3));
  x1 = x4 + x6;
  x4 -= x6;
  x6 = x5 + x7;
  x5 -= x7;

  x7 = x8 + x3;
  x8 -= x3;
  x3 = x0 + x2;
  x0 -= x2;
  x2 = Lane(sra(181 * (x4 + x5) + 128, 8));
  x4 = Lane(sra(181 * (x4 - x5) + 128, 8));

  blk[8 * 0] = clamp256(sra(x7 + x1, 14));
  blk[8 * 1] = clamp256(sra(x3 + x2, 14));
  blk[8 * 2] = clamp256(sra(x0 + x4, 14));
  blk[8 * 3] = clamp256(sra(x8 + x6, 14));
  blk[8 * 4] = clamp256(sra(x8 - x6, 14));
  blk[8 * 5] = clamp256(sra(x0 - x4, 14));
  blk[8 * 6] = clamp256(sra(x3 - x2, 14));
  blk[8 * 7] = clamp256(sra(x7 - x1, 14));
}

void idct_8x8(int16_t block[64]) {
  for (int i = 0; i < 8; ++i) idct_row(block + 8 * i);
  for (int i = 0; i < 8; ++i) idct_col(block + i);
}

// ---------------------------------------------------------------------------
// Half-pel interpolation and averaging (§7.6).
// ---------------------------------------------------------------------------

void interp_halfpel(const uint8_t* src, int src_stride, uint8_t* dst,
                    int dst_stride, int size, int hx, int hy) {
  const int S = size;
  if (!hx && !hy) {
    for (int r = 0; r < S; ++r)
      std::memcpy(dst + size_t(r) * dst_stride, src + size_t(r) * src_stride,
                  size_t(S));
  } else if (hx && !hy) {
    for (int r = 0; r < S; ++r) {
      const uint8_t* s = src + size_t(r) * src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      for (int c = 0; c < S; ++c) d[c] = uint8_t((s[c] + s[c + 1] + 1) >> 1);
    }
  } else if (!hx && hy) {
    for (int r = 0; r < S; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      const uint8_t* s1 = s0 + src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      for (int c = 0; c < S; ++c) d[c] = uint8_t((s0[c] + s1[c] + 1) >> 1);
    }
  } else {
    for (int r = 0; r < S; ++r) {
      const uint8_t* s0 = src + size_t(r) * src_stride;
      const uint8_t* s1 = s0 + src_stride;
      uint8_t* d = dst + size_t(r) * dst_stride;
      for (int c = 0; c < S; ++c)
        d[c] = uint8_t((s0[c] + s0[c + 1] + s1[c] + s1[c + 1] + 2) >> 2);
    }
  }
}

void avg_pixels(uint8_t* p, const uint8_t* q, size_t n) {
  for (size_t i = 0; i < n; ++i) p[i] = uint8_t((p[i] + q[i] + 1) >> 1);
}

// ---------------------------------------------------------------------------
// Residual add / intra store (§7.5 / §7.6.8).
// ---------------------------------------------------------------------------

inline uint8_t clamp_pixel(int v) { return uint8_t(std::clamp(v, 0, 255)); }

void add_residual_8x8(const int16_t res[64], uint8_t* dst, int stride) {
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c) {
      uint8_t& d = dst[size_t(r) * stride + c];
      d = clamp_pixel(int(d) + res[r * 8 + c]);
    }
}

void put_residual_8x8(const int16_t res[64], uint8_t* dst, int stride) {
  for (int r = 0; r < 8; ++r)
    for (int c = 0; c < 8; ++c)
      dst[size_t(r) * stride + c] = clamp_pixel(res[r * 8 + c]);
}

// ---------------------------------------------------------------------------
// SAD (encoder motion estimation).
// ---------------------------------------------------------------------------

uint32_t sad16x16(const uint8_t* a, int a_stride, const uint8_t* b,
                  int b_stride, uint32_t best) {
  uint32_t sad = 0;
  for (int r = 0; r < 16; ++r) {
    const uint8_t* pa = a + size_t(r) * a_stride;
    const uint8_t* pb = b + size_t(r) * b_stride;
    for (int c = 0; c < 16; ++c)
      sad += uint32_t(std::abs(int(pa[c]) - int(pb[c])));
    if (sad >= best) return std::numeric_limits<uint32_t>::max();
  }
  return sad;
}

uint32_t sad16x16_halfpel(const uint8_t* a, int a_stride, const uint8_t* b,
                          int b_stride, int hx, int hy) {
  uint32_t sad = 0;
  for (int r = 0; r < 16; ++r) {
    const uint8_t* pa = a + size_t(r) * a_stride;
    const uint8_t* b0 = b + size_t(r) * b_stride;
    const uint8_t* b1 = b0 + size_t(hy) * b_stride;
    for (int c = 0; c < 16; ++c) {
      int p;
      if (!hx && !hy)
        p = b0[c];
      else if (hx && !hy)
        p = (b0[c] + b0[c + 1] + 1) >> 1;
      else if (!hx && hy)
        p = (b0[c] + b1[c] + 1) >> 1;
      else
        p = (b0[c] + b0[c + 1] + b1[c] + b1[c + 1] + 2) >> 2;
      sad += uint32_t(std::abs(int(pa[c]) - p));
    }
  }
  return sad;
}

const KernelTable kTable = {
    .level = Level::kScalar,
    .name = "scalar",
    .idct_8x8 = idct_8x8,
    .interp_halfpel = interp_halfpel,
    .avg_pixels = avg_pixels,
    .add_residual_8x8 = add_residual_8x8,
    .put_residual_8x8 = put_residual_8x8,
    .sad16x16 = sad16x16,
    .sad16x16_halfpel = sad16x16_halfpel,
};

}  // namespace

const KernelTable* scalar_table() { return &kTable; }

}  // namespace pdw::kernels
