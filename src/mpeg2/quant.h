// Inverse quantisation (§7.4) and the encoder-side forward quantiser.
//
// Decode-side arithmetic follows ISO/IEC 13818-2 exactly (including
// saturation and mismatch control) because both the serial reference decoder
// and the tile decoders share it — any deviation would still be internally
// consistent, but we keep it conformant so third-party streams in scope
// (MP, 4:2:0, frame pictures) decode correctly.
#pragma once

#include <algorithm>
#include <cstdint>

#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// One dequantised, saturated coefficient (§7.4.2.3, §7.4.3): an intra AC
// coefficient is 2*QF*W*scale/32, a non-intra one (2*QF + sign(QF))*W*scale/32,
// both truncating toward zero and saturated to [-2048, 2047]. QF == 0 yields
// 0. `w_scale` is W[raster position] * quantiser_scale. The intra DC
// coefficient (dc_mult * QF) does not go through here. The macroblock parser
// calls this once per nonzero coefficient inside its run/level loop; the
// dense block functions below call it too, so both stay one formula.
inline int16_t dequant_coeff(int32_t qf, int32_t w_scale, bool intra) {
  int32_t t = 2 * qf;
  if (!intra) t += (qf > 0) - (qf < 0);
  return int16_t(std::clamp(t * w_scale / 32, -2048, 2047));
}

// Mismatch control (§7.4.4): if the sum of all dequantised coefficients is
// even, toggle the least significant bit of F[7][7] (raster position 63).
inline void mismatch_control(int16_t out[64], int32_t sum) {
  if ((sum & 1) == 0) out[63] = int16_t(out[63] ^ 1);
}

// Dense scalar block dequantisation, for the encoder's reconstruction loop.
// Dequantise an intra block.
//   qfs:   quantised coefficients in *scan* order (QFS)
//   out:   dequantised coefficients in *raster* order
//   w:     intra quantiser matrix, raster order
//   scale: quantiser_scale (already mapped from the 5-bit code)
//   dc_mult: 8 >> intra_dc_precision
//   scan:  scan-index -> raster-position table
void dequant_intra(const int16_t qfs[64], int16_t out[64], const uint8_t w[64],
                   int scale, int dc_mult, const uint8_t scan[64]);

// Dequantise a non-intra block (adds the +/-1 "third" term, §7.4.2.3).
void dequant_non_intra(const int16_t qfs[64], int16_t out[64],
                       const uint8_t w[64], int scale,
                       const uint8_t scan[64]);

// --- Encoder side ----------------------------------------------------------

// Quantise an intra block: coefficients (raster) -> QFS (scan order).
// Returns the index of the last nonzero scan coefficient, or 0 if only DC.
int quant_intra(const int16_t coeff[64], int16_t qfs[64], const uint8_t w[64],
                int scale, int dc_mult, const uint8_t scan[64]);

// Quantise a non-intra block. Returns the last nonzero scan index, or -1 if
// the block quantises to all zeros (block then not coded).
int quant_non_intra(const int16_t coeff[64], int16_t qfs[64],
                    const uint8_t w[64], int scale, const uint8_t scan[64]);

}  // namespace pdw::mpeg2
