// Motion-compensated prediction (§7.6): frame prediction with half-sample
// interpolation, forward / backward / bidirectional.
//
// Reference pixels are obtained through the RefSource abstraction so the
// same arithmetic serves two very different memory layouts:
//   * the serial decoder reads straight out of full reference Frames;
//   * a tile decoder reads from its tile-local reference region plus the
//     halo of remote macroblocks delivered by MEI exchanges (paper §4.2).
// Identical arithmetic over identical pixels is what makes parallel and
// serial reconstruction bit-exact.
#pragma once

#include "mpeg2/frame.h"
#include "mpeg2/types.h"

namespace pdw::mpeg2 {

// A w x h block of reference samples: `data` points at its top-left sample,
// rows are `stride` bytes apart.
struct RefWindow {
  const uint8_t* data;
  int stride;
};

class RefSource {
 public:
  virtual ~RefSource() = default;

  // The reference window for plane c (0=Y, 1=Cb, 2=Cr): top-left global
  // coordinate (x, y) in that plane's resolution, size w x h. The window is
  // guaranteed to lie inside the picture (MPEG-2 motion vectors may not
  // reference out-of-picture samples). A source whose own storage holds the
  // whole window returns a view into it; otherwise it gathers the window
  // into `scratch` (at least w * h bytes, rows of w bytes) and returns that.
  // Either way the window stays valid until the reference changes or
  // scratch is reused.
  virtual RefWindow fetch(int c, int x, int y, int w, int h,
                          uint8_t* scratch) const = 0;
};

// RefSource over a full decoded Frame (serial decoder): every window is a
// view into the frame.
class FrameRefSource final : public RefSource {
 public:
  explicit FrameRefSource(const Frame& frame) : frame_(&frame) {}
  RefWindow fetch(int c, int x, int y, int w, int h,
                  uint8_t* scratch) const override;

 private:
  const Frame* frame_;
};

// Motion-compensate one macroblock at (mbx, mby) into `pred`. Uses mb.mv and
// mb.flags: forward-only, backward-only, or averaged bidirectional. The
// macroblock must have at least one prediction direction.
void motion_compensate(const Macroblock& mb, const RefSource* fwd,
                       const RefSource* bwd, int mbx, int mby,
                       MacroblockPixels* pred);

// The luma-plane source window (in pixels) that predicting direction s of
// this macroblock will read: x in [x0, x1), y in [y0, y1). Used both by MC
// itself and by the splitter's MEI pre-calculation.
struct SrcWindow {
  int x0, y0, x1, y1;
};
SrcWindow luma_source_window(const Macroblock& mb, int s, int mbx, int mby);

}  // namespace pdw::mpeg2
