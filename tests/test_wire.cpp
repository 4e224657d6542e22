// Round-trip and rejection tests for the typed wire codec (proto/wire.h).
// Every message type must survive pack() -> decode() bit-exactly, the
// envelope must agree with the typed fields, and malformed bodies must be
// rejected by returning false — never by crashing.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "core/subpicture.h"
#include "proto/wire.h"

namespace pdw::proto {
namespace {

PictureMsg sample_picture() {
  PictureMsg m;
  m.pic_index = 41;
  m.nsid = 2;
  m.stream = 3;
  m.epoch = 4;
  m.coded = {0x00, 0x00, 0x01, 0x00, 0xAB, 0xCD};
  return m;
}

SpMsg sample_sp() {
  SpMsg m;
  m.pic_index = 7;
  m.tile = 5;
  m.stream = 1;
  m.epoch = 2;
  m.subpicture = {1, 2, 3, 4, 5};
  core::MeiInstruction send;
  send.op = core::MeiOp::kSend;
  send.ref = 1;
  send.mb_x = 10;
  send.mb_y = 20;
  send.peer = 3;
  m.mei.push_back(send);
  m.mei.push_back(core::make_conceal(4, 6, 0x80, 0x70, 0x60));
  return m;
}

ExchangeMsg sample_exchange() {
  ExchangeMsg m;
  m.pic_index = 9;
  m.src_tile = 1;
  m.dst_tile = 2;
  m.stream = 0;
  ExchangeEntry e;
  e.instr.op = core::MeiOp::kRecv;
  e.instr.ref = 0;
  e.instr.mb_x = 11;
  e.instr.mb_y = 13;
  e.instr.peer = 1;
  e.tainted = true;
  for (size_t i = 0; i < sizeof(e.px.y); ++i) e.px.y[i] = uint8_t(i * 7);
  m.entries.push_back(e);
  e.tainted = false;
  e.instr.mb_x = 12;
  m.entries.push_back(e);
  return m;
}

template <typename T>
T roundtrip(const T& in) {
  const Packed p = pack(in);
  T out;
  EXPECT_TRUE(decode(p.body, &out));
  return out;
}

TEST(WireRoundtrip, Picture) {
  const PictureMsg m = sample_picture();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kPicture);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.nsid);
  EXPECT_EQ(p.stream, m.stream);
  EXPECT_TRUE(p.bulk);
  EXPECT_EQ(p.body.size(), picture_msg_wire_bytes(m.coded.size()));
}

TEST(WireRoundtrip, SubPicture) {
  const SpMsg m = sample_sp();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kSubPicture);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.tile);
  EXPECT_TRUE(p.bulk);
  EXPECT_EQ(p.body.size(),
            sp_msg_wire_bytes(m.subpicture.size(), m.mei.size()));
}

TEST(WireRoundtrip, GoAheadAck) {
  GoAheadAck m;
  m.pic_index = 123456;
  m.stream = 2;
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kGoAheadAck);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_FALSE(p.bulk);
}

TEST(WireRoundtrip, Exchange) {
  const ExchangeMsg m = sample_exchange();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kExchange);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_EQ(p.aux, m.src_tile);
  EXPECT_EQ(p.body.size(), exchange_msg_wire_bytes(m.entries.size()));
}

TEST(WireRoundtrip, ControlMessages) {
  EndOfStream eos;
  eos.stream = 4;
  EXPECT_EQ(roundtrip(eos), eos);
  EXPECT_EQ(pack(eos).type, MsgType::kEndOfStream);

  Heartbeat hb;
  hb.tile = 6;
  EXPECT_EQ(roundtrip(hb), hb);
  EXPECT_EQ(pack(hb).aux, hb.tile);

  Finished fin;
  fin.tile = 2;
  fin.stream = 1;
  EXPECT_EQ(roundtrip(fin), fin);
  EXPECT_EQ(pack(fin).type, MsgType::kFinished);

  DeathNotice dn;
  dn.dead_tile = 3;
  dn.adopter_tile = kNoTile;  // degraded mode
  dn.resync_pic = 15;
  EXPECT_EQ(roundtrip(dn), dn);
  EXPECT_EQ(pack(dn).seq, dn.resync_pic);
  EXPECT_EQ(pack(dn).aux, dn.dead_tile);

  SkipBroadcast sk;
  sk.pic_index = 8;
  sk.tile = 1;
  EXPECT_EQ(roundtrip(sk), sk);
  EXPECT_EQ(pack(sk).seq, sk.pic_index);
}

TEST(WireRoundtrip, AdmissionMessages) {
  StreamRequest req;
  req.width_mb = 120;
  req.height_mb = 68;
  req.fps = 30;
  req.priority = PriorityClass::kPremium;
  req.stream = 9;
  EXPECT_EQ(roundtrip(req), req);
  const Packed p = pack(req);
  EXPECT_EQ(p.type, MsgType::kStreamRequest);
  EXPECT_EQ(p.aux, uint16_t(req.priority));
  EXPECT_EQ(p.stream, req.stream);
  EXPECT_FALSE(p.bulk);

  StreamReply rep;
  rep.verdict = AdmissionVerdict::kRenegotiate;
  rep.level = DegradeLevel::kSkipP;
  rep.stream = 9;
  EXPECT_EQ(roundtrip(rep), rep);
  const Packed pr = pack(rep);
  EXPECT_EQ(pr.type, MsgType::kStreamReply);
  EXPECT_EQ(pr.aux, uint16_t(rep.verdict));
}

PartitionUpdateMsg sample_partition_update() {
  PartitionUpdateMsg m;
  m.epoch = 3;
  m.apply_from_pic = 24;
  m.stream = 1;
  m.col_cuts_mb = {30, 61, 95};
  m.row_cuts_mb = {40, 77};
  return m;
}

CostReportMsg sample_cost_report() {
  CostReportMsg m;
  m.pic_index = 17;
  m.stream = 1;
  m.col_cost = {10, 900, 3, 0, 77};
  m.row_cost = {5, 5, 1200};
  return m;
}

TEST(WireRoundtrip, PartitionUpdate) {
  const PartitionUpdateMsg m = sample_partition_update();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kPartitionUpdate);
  EXPECT_EQ(p.seq, m.apply_from_pic);
  EXPECT_EQ(p.aux, uint16_t(m.epoch));
  EXPECT_EQ(p.stream, m.stream);
  EXPECT_FALSE(p.bulk);
  EXPECT_EQ(p.body.size(), partition_update_wire_bytes(m.col_cuts_mb.size(),
                                                       m.row_cuts_mb.size()));

  // Empty cut lists (a 1x1 "wall") round-trip too.
  PartitionUpdateMsg flat;
  flat.epoch = 1;
  EXPECT_EQ(roundtrip(flat), flat);
}

TEST(WireRoundtrip, CostReport) {
  const CostReportMsg m = sample_cost_report();
  EXPECT_EQ(roundtrip(m), m);
  const Packed p = pack(m);
  EXPECT_EQ(p.type, MsgType::kCostReport);
  EXPECT_EQ(p.seq, m.pic_index);
  EXPECT_FALSE(p.bulk);
  EXPECT_EQ(p.body.size(),
            cost_report_wire_bytes(m.col_cost.size(), m.row_cost.size()));
}

TEST(WireReject, PartitionUpdateCutsMustStrictlyIncrease) {
  // Non-increasing or zero cut lines are malformed: a decoder must never
  // build a geometry from them.
  PartitionUpdateMsg m = sample_partition_update();
  m.col_cuts_mb = {30, 30};  // equal
  Packed p = pack(m);
  PartitionUpdateMsg out;
  EXPECT_FALSE(decode(p.body, &out));

  m.col_cuts_mb = {40, 20};  // decreasing
  p = pack(m);
  EXPECT_FALSE(decode(p.body, &out));

  m.col_cuts_mb = {0, 20};  // zero cut (empty first band)
  p = pack(m);
  EXPECT_FALSE(decode(p.body, &out));
}

TEST(WireReject, AdmissionEnumRanges) {
  // Out-of-range enum bytes in otherwise well-formed bodies must be
  // rejected, not reinterpreted.
  Packed p = pack(StreamRequest{45, 30, 24, PriorityClass::kStandard, 1});
  StreamRequest req;
  ASSERT_TRUE(decode(p.body, &req));
  p.body.mutable_data()[p.body.size() - 1] = 3;  // priority byte past kPremium
  EXPECT_FALSE(decode(p.body, &req));

  Packed pr = pack(StreamReply{AdmissionVerdict::kAccept,
                               DegradeLevel::kNone, 1});
  StreamReply rep;
  ASSERT_TRUE(decode(pr.body, &rep));
  pr.body.mutable_data()[pr.body.size() - 2] = 7;  // verdict byte
  EXPECT_FALSE(decode(pr.body, &rep));
  pr = pack(StreamReply{AdmissionVerdict::kAccept, DegradeLevel::kNone, 1});
  pr.body.mutable_data()[pr.body.size() - 1] = 9;  // level byte past kFreeze
  EXPECT_FALSE(decode(pr.body, &rep));
}

// --- Golden bytes ------------------------------------------------------------
// A round trip cannot catch a format change that pack() and decode() make
// together. These bodies were recorded from the codec before it moved onto
// the shared ByteReader and pin the wire bytes of one message of each type.

std::string hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 15];
  }
  return s;
}

core::SubPicture sample_subpicture() {
  core::SubPicture sp;
  sp.info.pic_index = 7;
  sp.info.type = mpeg2::PicType::P;
  sp.info.f_code[0][0] = 2;
  sp.info.f_code[0][1] = 3;
  sp.info.intra_dc_precision = 1;
  sp.info.q_scale_type = true;
  sp.info.temporal_reference = 5;
  core::SpRun run;
  run.state.dc_pred[0] = 128;
  run.state.dc_pred[2] = -3;
  run.state.pmv[0][1] = -17;
  run.state.quant_scale_code = 9;
  run.state.prev_motion_flags = 2;
  run.skip_bits = 3;
  run.first_coded_addr = 300;
  run.num_coded = 4;
  run.lead_skip_addr = 298;
  run.lead_skip_count = 2;
  run.trail_skip_addr = 310;
  run.trail_skip_count = 1;
  run.payload = {0xDE, 0xAD, 0xBE, 0xEF};
  sp.runs.push_back(run);
  return sp;
}

TEST(WireGolden, PackedBodiesMatchRecordedBytes) {
  const core::SubPicture sub = sample_subpicture();
  const struct {
    const char* name;
    Packed packed;
    const char* want;
  } cases[] = {
      {"picture", pack(sample_picture()),
       "020103290000000200040000000600000000000100abcd"},
      {"sub-picture", pack(sample_sp()),
       "020201070000000500020000000500000001020304050200000000010a001400030002"
       "80040006006070"},
      {"sub-picture (pack_sp)",
       pack_sp(7, 5, 1, sub, sample_sp().mei, 2),
       "0202010700000005000200000043000000070000000202030f0f010100050001000000"
       "8000000000000000fdffffff0000efff000000000902032c01000004002a0100000200"
       "36010000010004000000deadbeef0200000000010a00140003000280040006006070"},
      {"go-ahead", pack(GoAheadAck{123456, 2}), "02030240e20100"},
      {"end-of-stream", pack(EndOfStream{4}), "020504"},
      {"heartbeat", pack(Heartbeat{6, 1}), "0206010600"},
      {"finished", pack(Finished{2, 1}), "0207010200"},
      {"death-notice", pack(DeathNotice{3, kNoTile, 15, 2}),
       "0208020300ffff0f000000"},
      {"skip", pack(SkipBroadcast{8, 1, 3}), "020903080000000100"},
      {"stream-request",
       pack(StreamRequest{120, 68, 30, PriorityClass::kPremium, 9}),
       "020a09780044001e0002"},
      {"stream-reply",
       pack(StreamReply{AdmissionVerdict::kRenegotiate, DegradeLevel::kSkipP,
                        9}),
       "020b090202"},
      {"partition-update", pack(sample_partition_update()),
       "020c010300000018000000030002001e003d005f0028004d00"},
      {"cost-report", pack(sample_cost_report()),
       "020d0111000000050003000a0000008403000003000000000000004d00000005000000"
       "05000000b0040000"},
  };
  for (const auto& c : cases)
    EXPECT_EQ(hex(c.packed.body.span()), c.want) << c.name;

  // Exchange bodies are mostly halo pixels: pin the framing bytes and
  // require each entry's pixels verbatim right after its 8-byte header.
  const ExchangeMsg ex = sample_exchange();
  const Packed p = pack(ex);
  const std::span<const uint8_t> body = p.body.span();
  const size_t entry = kExchangeEntryWireBytes;
  ASSERT_EQ(body.size(), 15 + 2 * entry);
  EXPECT_EQ(hex(body.first(15)), "020400090000000100020002000000");
  for (size_t i = 0; i < 2; ++i) {
    const auto e = body.subspan(15 + i * entry, entry);
    const char* want = i == 0 ? "81000b000d000100" : "01000c000d000100";
    EXPECT_EQ(hex(e.first(8)), want) << "entry " << i;
    EXPECT_EQ(0, std::memcmp(e.data() + 8, &ex.entries[i].px,
                             sizeof(ex.entries[i].px)))
        << "entry " << i;
  }
}

TEST(WireRoundtrip, DecodeAnyDispatchesEveryType) {
  const auto check = [](const auto& msg) {
    const auto any = decode_any(pack(msg).body);
    ASSERT_TRUE(any.has_value());
    using T = std::decay_t<decltype(msg)>;
    const T* typed = std::get_if<T>(&*any);
    ASSERT_NE(typed, nullptr) << msg_type_name(pack(msg).type);
    EXPECT_EQ(*typed, msg);
  };
  check(sample_picture());
  check(sample_sp());
  check(GoAheadAck{77, 0});
  check(sample_exchange());
  check(EndOfStream{});
  check(Heartbeat{3, 0});
  check(Finished{1, 2});
  check(DeathNotice{2, 0, 30, 0});
  check(SkipBroadcast{5, 3, 0});
  check(StreamRequest{80, 45, 30, PriorityClass::kBackground, 7});
  check(StreamReply{AdmissionVerdict::kReject, DegradeLevel::kFreeze, 7});
  check(sample_partition_update());
  check(sample_cost_report());
}

TEST(WireReject, EmptyAndTruncated) {
  PictureMsg out;
  EXPECT_FALSE(decode(std::span<const uint8_t>{}, &out));
  EXPECT_FALSE(decode_any(std::span<const uint8_t>{}).has_value());

  const Packed p = pack(sample_picture());
  // Every proper prefix of a valid body must be rejected.
  for (size_t n = 0; n < p.body.size(); ++n) {
    EXPECT_FALSE(decode(std::span<const uint8_t>(p.body.data(), n), &out))
        << "accepted a " << n << "-byte prefix";
  }
}

TEST(WireReject, TrailingGarbage) {
  const Packed p = pack(GoAheadAck{1, 0});
  std::vector<uint8_t> grown(p.body.span().begin(), p.body.span().end());
  grown.push_back(0xEE);
  GoAheadAck out;
  EXPECT_FALSE(decode(grown, &out));
}

TEST(WireReject, VersionSkew) {
  Packed p = pack(sample_sp());
  p.body.mutable_data()[0] = uint8_t(kWireVersion + 1);
  SpMsg out;
  EXPECT_FALSE(decode(p.body, &out));
  EXPECT_FALSE(decode_any(p.body).has_value());
}

TEST(WireReject, WrongTypeByte) {
  // A valid heartbeat body must not decode as any other message type.
  const Packed hb = pack(Heartbeat{1, 0});
  PictureMsg pic;
  SpMsg sp;
  ExchangeMsg ex;
  EXPECT_FALSE(decode(hb.body, &pic));
  EXPECT_FALSE(decode(hb.body, &sp));
  EXPECT_FALSE(decode(hb.body, &ex));
}

TEST(WireReject, UnknownTypeByte) {
  Packed p = pack(Heartbeat{1, 0});
  p.body.mutable_data()[1] = 0xFE;
  EXPECT_FALSE(decode_any(p.body).has_value());
}

TEST(WireReject, ExchangeCountOverflow) {
  // An entry count larger than the actual payload must not be trusted.
  const ExchangeMsg m = sample_exchange();
  Packed p = pack(m);
  ExchangeMsg out;
  ASSERT_TRUE(decode(p.body, &out));
  // The count field lives in the fixed prelude; force it huge.
  for (size_t i = 2; i + 4 <= p.body.size() && i < 16; ++i) {
    Packed corrupt = p;
    corrupt.body.make_unique();  // copy-on-write: don't scribble on p's block
    corrupt.body.mutable_data()[i] = 0xFF;
    // Either rejected or decoded to something self-consistent — never a
    // crash or an out-of-bounds read (ASan-checked in CI).
    ExchangeMsg dummy;
    (void)decode(corrupt.body, &dummy);
  }
}

// Malformed bodies inside CRC-valid framing. Each must be refused by a
// false return: never a throw, and never an allocation sized from a forged
// count (a 0x7fffffff-run vector would throw bad_alloc here).
TEST(WireReject, MalformedSubPictureBodiesFailWithoutThrowing) {
  const mem::Bytes good = sample_subpicture().serialize_pooled();
  const std::vector<uint8_t> whole(good.span().begin(), good.span().end());
  std::vector<uint8_t> huge_runs = whole;
  // The u32 run count follows the 14-byte PicInfo.
  huge_runs[14] = huge_runs[15] = huge_runs[16] = 0xff;
  huge_runs[17] = 0x7f;
  std::vector<uint8_t> trailing = whole;
  trailing.push_back(0);
  const std::vector<uint8_t> short_payload(whole.begin(), whole.end() - 1);
  const struct {
    const char* name;
    std::vector<uint8_t> sub;
  } cases[] = {
      {"3-byte body", {1, 2, 3}},
      {"huge run count", huge_runs},
      {"trailing bytes", trailing},
      {"truncated run payload", short_payload},
  };
  core::SubPicture parsed;
  ASSERT_TRUE(core::SubPicture::parse(good, &parsed));
  for (const auto& c : cases) {
    // The SpMsg framing is intact, so decode() accepts it; the sub-picture
    // parse is what must refuse.
    SpMsg m = sample_sp();
    m.subpicture = mem::Bytes::copy_of(c.sub);
    SpMsg out;
    ASSERT_TRUE(decode(pack(m).body, &out)) << c.name;
    EXPECT_NO_THROW(
        EXPECT_FALSE(core::SubPicture::parse(out.subpicture, &parsed)))
        << c.name;
    EXPECT_NO_THROW(EXPECT_FALSE(core::SubPicture::parse(c.sub, &parsed)))
        << c.name;
  }

  // An MEI count that disagrees with the bytes behind it is a framing
  // error: decode() itself refuses, whether the count is short, long or
  // absurd.
  const SpMsg m = sample_sp();
  const Packed p = pack(m);
  const size_t count_at = 3 + 4 + 2 + 4 + 4 + m.subpicture.size();
  for (uint32_t bad : {1u, 3u, 0x7fffffffu}) {
    std::vector<uint8_t> body(p.body.span().begin(), p.body.span().end());
    std::memcpy(body.data() + count_at, &bad, 4);
    SpMsg out;
    EXPECT_NO_THROW(EXPECT_FALSE(decode(body, &out))) << "mei count " << bad;
  }
}

TEST(WireSizes, AccountingHelpersMatchPackedBodies) {
  EXPECT_EQ(kExchangeEntryWireBytes,
            sizeof(mpeg2::MacroblockPixels) + core::kMeiWireBytes);
  const ExchangeMsg ex = sample_exchange();
  EXPECT_EQ(pack(ex).body.size(), exchange_msg_wire_bytes(ex.entries.size()));
  const SpMsg sp = sample_sp();
  EXPECT_EQ(pack(sp).body.size(),
            sp_msg_wire_bytes(sp.subpicture.size(), sp.mei.size()));
  const PictureMsg pic = sample_picture();
  EXPECT_EQ(pack(pic).body.size(), picture_msg_wire_bytes(pic.coded.size()));
}

}  // namespace
}  // namespace pdw::proto
