// Inverse/forward quantisation tests: spec arithmetic, saturation, mismatch
// control, and encoder-side invertibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "common/stats.h"
#include "mpeg2/quant.h"
#include "mpeg2/tables.h"

namespace pdw::mpeg2 {
namespace {

class QuantTest : public ::testing::Test {
 protected:
  const uint8_t* intra_w = kDefaultIntraQuant.data();
  const uint8_t* ninter_w = kDefaultNonIntraQuant.data();
  const uint8_t* scan = kZigzagScan.data();
};

TEST_F(QuantTest, IntraDcUsesMultiplier) {
  int16_t qfs[64] = {};
  qfs[0] = 100;
  int16_t out[64];
  dequant_intra(qfs, out, intra_w, 16, /*dc_mult=*/8, scan);
  EXPECT_EQ(out[0] & ~1, 800 & ~1);  // mismatch control may flip F[63], not DC
  EXPECT_EQ(out[0], 800);
}

TEST_F(QuantTest, IntraAcFollowsSpecFormula) {
  int16_t qfs[64] = {};
  qfs[1] = 10;  // scan position 1 -> raster position 1 (zigzag)
  int16_t out[64];
  dequant_intra(qfs, out, intra_w, 4, 8, scan);
  // F = 2*QF*W*qs/32 = 2*10*16*4/32 = 40  (W[1] = 16 in the intra matrix).
  EXPECT_EQ(out[kZigzagScan[1]], 40);
}

TEST_F(QuantTest, NonIntraAddsThirdTerm) {
  int16_t qfs[64] = {};
  qfs[3] = 5;
  qfs[7] = -5;
  int16_t out[64];
  dequant_non_intra(qfs, out, ninter_w, 4, scan);
  // F = (2*5+1)*16*4/32 = 22; negative: (2*-5-1)*16*4/32 = -22.
  EXPECT_EQ(out[kZigzagScan[3]], 22);
  EXPECT_EQ(out[kZigzagScan[7]], -22);
}

TEST_F(QuantTest, SaturatesTo2047) {
  int16_t qfs[64] = {};
  qfs[1] = 2000;
  int16_t out[64];
  dequant_intra(qfs, out, intra_w, 62, 8, scan);
  EXPECT_EQ(out[kZigzagScan[1]], 2047);
  qfs[1] = -2000;
  dequant_intra(qfs, out, intra_w, 62, 8, scan);
  EXPECT_EQ(out[kZigzagScan[1]], -2048);
}

TEST_F(QuantTest, MismatchControlTogglesLastCoefficient) {
  // A block whose coefficient sum is even must get F[63]'s LSB toggled.
  int16_t qfs[64] = {};
  qfs[0] = 4;  // DC only: sum = 4 * dc_mult -> even
  int16_t out[64];
  dequant_intra(qfs, out, intra_w, 16, 8, scan);
  EXPECT_EQ(out[63], 1);  // was 0 (even sum) -> +1
  // Odd sum: F[63] untouched.
  qfs[0] = 5;  // 5*8 = 40 even again; use dc_mult 1 for odd sum
  dequant_intra(qfs, out, intra_w, 16, 1, scan);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[63], 0);
}

TEST_F(QuantTest, MismatchControlDecrementsOddF63) {
  // Force F[63] odd with an even total sum: F[63] must be decremented.
  int16_t qfs[64] = {};
  // Scan position 63 maps to raster 63. Choose QF so F odd.
  // intra: F = 2*QF*W[63]*qs/32; W[63]=83, qs=... make it odd via DC instead:
  qfs[0] = 1;                      // F[0] = 1 (dc_mult 1)
  qfs[63] = 3;                     // F[63] = 2*3*83*2/32 = 31 (odd)
  int16_t out[64];
  dequant_intra(qfs, out, intra_w, 2, 1, scan);
  ASSERT_EQ(out[0], 1);
  // Sum = 1 + 31 = 32 even -> F[63] odd -> decrement to 30.
  EXPECT_EQ(out[63], 30);
}

TEST_F(QuantTest, IntraQuantRoundtripsSmallCoefficients) {
  SplitMix64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    int16_t coeff[64] = {};
    coeff[0] = int16_t(rng.next_below(2040));
    for (int i = 0; i < 8; ++i)
      coeff[int(rng.next_below(63)) + 1] = int16_t(int(rng.next_below(400)) - 200);
    int16_t qfs[64];
    const int last = quant_intra(coeff, qfs, intra_w, 16, 8, scan);
    int16_t recon[64];
    dequant_intra(qfs, recon, intra_w, 16, 8, scan);
    // Reconstruction error bounded by half a quantisation step (+ mismatch).
    for (int i = 0; i < 64; ++i) {
      const double step = i == 0 ? 8.0 : 2.0 * intra_w[i] * 16 / 32.0;
      EXPECT_LE(std::abs(recon[i] - coeff[i]), step / 2 + 1.5)
          << "trial " << trial << " i " << i;
    }
    EXPECT_GE(last, 0);
  }
}

TEST_F(QuantTest, NonIntraDeadZoneSendsSmallValuesToZero) {
  int16_t coeff[64] = {};
  coeff[5] = 3;  // well below one step at scale 16 (W=16: step = 16)
  int16_t qfs[64];
  const int last = quant_non_intra(coeff, qfs, ninter_w, 16, scan);
  EXPECT_EQ(last, -1);  // nothing survives
}

TEST_F(QuantTest, NonIntraQuantDequantWithinOneStep) {
  SplitMix64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    int16_t coeff[64];
    for (int i = 0; i < 64; ++i)
      coeff[i] = int16_t(int(rng.next_below(1000)) - 500);
    int16_t qfs[64];
    quant_non_intra(coeff, qfs, ninter_w, 8, scan);
    int16_t recon[64];
    dequant_non_intra(qfs, recon, ninter_w, 8, scan);
    for (int i = 0; i < 64; ++i) {
      const double step = 2.0 * ninter_w[i] * 8 / 32.0;
      EXPECT_LE(std::abs(recon[i] - coeff[i]), step + 1.5);
    }
  }
}

TEST_F(QuantTest, AlternateScanPlacesCoefficientsCorrectly) {
  int16_t qfs[64] = {};
  qfs[1] = 10;
  int16_t out[64];
  dequant_non_intra(qfs, out, ninter_w, 4, kAlternateScan.data());
  // Alternate scan position 1 is raster position 8.
  EXPECT_NE(out[8], 0);
  EXPECT_EQ(out[1], 0);
}

// §7.4 written out as the standard states it, densely in raster order:
// inverse scan, per-coefficient reconstruction, saturation, then mismatch
// control over the whole block.
void spec_dequant(const int16_t qfs[64], int16_t out[64], const uint8_t w[64],
                  int scale, int dc_mult, bool intra, const uint8_t scan[64]) {
  int32_t qf[64];
  for (int i = 0; i < 64; ++i) qf[scan[i]] = qfs[i];
  int32_t sum = 0;
  for (int v = 0; v < 64; ++v) {
    int32_t f;
    if (intra && v == 0) {
      f = dc_mult * qf[0];
    } else {
      const int32_t k = intra ? 0 : (qf[v] > 0 ? 1 : (qf[v] < 0 ? -1 : 0));
      f = ((2 * qf[v] + k) * w[v] * scale) / 32;
    }
    f = std::min(2047, std::max(-2048, f));
    out[v] = int16_t(f);
    sum += f;
  }
  if (sum % 2 == 0)
    out[63] = int16_t(out[63] % 2 != 0 ? out[63] - 1 : out[63] + 1);
}

TEST(DequantFuzz, CoefficientHelperMatchesSpecFormula) {
  SplitMix64 rng(0x1DC7'0005);
  for (int iter = 0; iter < 200000; ++iter) {
    const int32_t qf = iter % 7 == 0 ? (rng.next() & 1 ? 2047 : -2048)
                                     : int32_t(rng.next_below(4095)) - 2047;
    const int32_t w = int32_t(rng.next_below(255)) + 1;
    const int32_t scale = int32_t(rng.next_below(112)) + 1;
    for (bool intra : {true, false}) {
      const int32_t k = intra ? 0 : (qf > 0 ? 1 : (qf < 0 ? -1 : 0));
      const int32_t want =
          std::min(2047, std::max(-2048, ((2 * qf + k) * w * scale) / 32));
      ASSERT_EQ(dequant_coeff(qf, w * scale, intra), want)
          << "qf " << qf << " w " << w << " scale " << scale << " intra "
          << intra;
    }
  }
}

TEST(DequantFuzz, BlockDequantMatchesSpecFormula) {
  SplitMix64 rng(0x1DC7'0006);
  // Both MPEG-2 scans plus random permutations that keep scan[0] == 0.
  std::vector<std::array<uint8_t, 64>> scans = {kZigzagScan, kAlternateScan};
  for (int k = 0; k < 3; ++k) {
    std::array<uint8_t, 64> s;
    for (int i = 0; i < 64; ++i) s[size_t(i)] = uint8_t(i);
    for (int i = 63; i > 1; --i)
      std::swap(s[size_t(i)], s[size_t(rng.next_below(uint32_t(i))) + 1]);
    scans.push_back(s);
  }
  for (int iter = 0; iter < 2000; ++iter) {
    int16_t qfs[64];
    const bool extreme = iter % 5 == 0;
    for (auto& v : qfs) {
      if (rng.next_below(3) == 0)
        v = 0;  // typical blocks are mostly zero
      else
        v = int16_t(extreme ? (rng.next() & 1 ? 2047 : -2048)
                            : int(rng.next_below(601)) - 300);
    }
    uint8_t w[64];
    for (auto& v : w) v = uint8_t(rng.next_below(255) + 1);
    const int scale = int(rng.next_below(112)) + 1;
    const int dc_mult = 8 >> rng.next_below(4);
    const uint8_t* scan = scans[size_t(iter) % scans.size()].data();
    for (bool intra : {true, false}) {
      int16_t want[64], got[64];
      spec_dequant(qfs, want, w, scale, dc_mult, intra, scan);
      if (intra)
        dequant_intra(qfs, got, w, scale, dc_mult, scan);
      else
        dequant_non_intra(qfs, got, w, scale, scan);
      ASSERT_EQ(0, std::memcmp(want, got, sizeof(want)))
          << (intra ? "intra" : "non-intra") << " iter " << iter;
    }
  }
}

}  // namespace
}  // namespace pdw::mpeg2
