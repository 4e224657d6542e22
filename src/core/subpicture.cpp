#include "core/subpicture.h"

#include "common/bytes.h"

namespace pdw::core {

using mpeg2::MbState;

mpeg2::PictureCodingExt PicInfo::to_pce() const {
  mpeg2::PictureCodingExt pce;
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) pce.f_code[s][t] = f_code[s][t];
  pce.intra_dc_precision = intra_dc_precision;
  pce.q_scale_type = q_scale_type;
  pce.alternate_scan = alternate_scan;
  return pce;
}

PicInfo PicInfo::from(uint32_t index, const mpeg2::PictureHeader& ph,
                      const mpeg2::PictureCodingExt& pce) {
  PicInfo info;
  info.pic_index = index;
  info.type = ph.type;
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) info.f_code[s][t] = uint8_t(pce.f_code[s][t]);
  info.intra_dc_precision = uint8_t(pce.intra_dc_precision);
  info.q_scale_type = pce.q_scale_type;
  info.alternate_scan = pce.alternate_scan;
  info.temporal_reference = uint16_t(ph.temporal_reference);
  return info;
}

namespace {

void write_state(ByteWriter& w, const MbState& st) {
  for (int c = 0; c < 3; ++c) w.i32(st.dc_pred[c]);
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) w.i16(st.pmv[s][t]);
  w.u8(st.quant_scale_code);
  w.u8(st.prev_motion_flags);
}

MbState read_state(ByteReader& r) {
  MbState st;
  for (int c = 0; c < 3; ++c) st.dc_pred[c] = r.i32();
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) st.pmv[s][t] = r.i16();
  st.quant_scale_code = r.u8();
  st.prev_motion_flags = r.u8();
  return st;
}

void write_pic_info(ByteWriter& w, const PicInfo& info) {
  w.u32(info.pic_index);
  w.u8(uint8_t(info.type));
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) w.u8(info.f_code[s][t]);
  w.u8(info.intra_dc_precision);
  w.u8(info.q_scale_type ? 1 : 0);
  w.u8(info.alternate_scan ? 1 : 0);
  w.u16(info.temporal_reference);
}

PicInfo read_pic_info(ByteReader& r) {
  PicInfo info;
  info.pic_index = r.u32();
  info.type = mpeg2::PicType(r.u8());
  for (int s = 0; s < 2; ++s)
    for (int t = 0; t < 2; ++t) info.f_code[s][t] = r.u8();
  info.intra_dc_precision = r.u8();
  info.q_scale_type = r.u8() != 0;
  info.alternate_scan = r.u8() != 0;
  info.temporal_reference = r.u16();
  return info;
}

// State (12+8+2) + skip_bits 1 + addresses/counts (4+2+4+2+4+2) + len 4.
constexpr size_t kRunHeaderBytes = 22 + 1 + 18 + 4;

}  // namespace

size_t SpRun::header_wire_bytes() const { return kRunHeaderBytes; }

size_t SubPicture::wire_bytes() const {
  size_t n = 14 + 4;  // PicInfo + run count
  for (const SpRun& run : runs) n += run.header_wire_bytes() + run.payload.size();
  return n;
}

size_t SubPicture::payload_bytes() const {
  size_t n = 0;
  for (const SpRun& run : runs) n += run.payload.size();
  return n;
}

void SubPicture::serialize_into(ByteWriter* out) const {
  ByteWriter& w = *out;
  const SubPicture& sp = *this;
  write_pic_info(w, sp.info);
  w.u32(uint32_t(sp.runs.size()));
  for (const SpRun& run : sp.runs) {
    write_state(w, run.state);
    w.u8(run.skip_bits);
    w.u32(run.first_coded_addr);
    w.u16(run.num_coded);
    w.u32(run.lead_skip_addr);
    w.u16(run.lead_skip_count);
    w.u32(run.trail_skip_addr);
    w.u16(run.trail_skip_count);
    w.u32(uint32_t(run.payload.size()));
    w.bytes(run.payload);
  }
}

namespace {

// `parent` non-null: run payloads become views into its block (zero-copy);
// null: payloads are pooled copies of the spans.
bool parse_impl(std::span<const uint8_t> data, const mem::Bytes* parent,
                SubPicture* out) {
  ByteReader r(data);
  SubPicture sp;
  sp.info = read_pic_info(r);
  const uint32_t count = r.u32();
  if (!r.count(count, kRunHeaderBytes)) return false;
  sp.runs.resize(count);
  for (SpRun& run : sp.runs) {
    run.state = read_state(r);
    run.skip_bits = r.u8();
    run.first_coded_addr = r.u32();
    run.num_coded = r.u16();
    run.lead_skip_addr = r.u32();
    run.lead_skip_count = r.u16();
    run.trail_skip_addr = r.u32();
    run.trail_skip_count = r.u16();
    const uint32_t len = r.u32();
    const size_t off = r.pos();
    const auto payload = r.bytes(len);
    if (!r.ok()) return false;
    run.payload = parent ? parent->view(off, len)
                         : mem::Bytes::copy_of(payload);
  }
  if (!r.done()) return false;
  *out = std::move(sp);
  return true;
}

}  // namespace

mem::Bytes SubPicture::serialize_pooled() const {
  const size_t n = wire_bytes();
  mem::Bytes out = mem::Bytes::alloc(n);
  ByteWriter w(out.mutable_data(), n);
  serialize_into(&w);
  PDW_CHECK_EQ(w.size(), n);
  return out;
}

bool SubPicture::parse(std::span<const uint8_t> data, SubPicture* out) {
  return parse_impl(data, nullptr, out);
}

bool SubPicture::parse(const mem::Bytes& data, SubPicture* out) {
  return parse_impl(data.span(), &data, out);
}

SubPicture SubPicture::deserialize(const mem::Bytes& data) {
  SubPicture sp;
  PDW_CHECK(parse(data, &sp)) << "malformed sub-picture";
  return sp;
}

}  // namespace pdw::core
