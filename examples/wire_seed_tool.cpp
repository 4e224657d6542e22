// Emit valid seeds for the harnesses that parse network bytes: one packed
// wire body per protocol message type (fuzz/fuzz_wire.cpp), telemetry
// frames (fuzz/fuzz_telemetry.cpp) and socket-fabric datagram sequences
// (fuzz/fuzz_datagram.cpp). Valid inputs (plus the corpus script's bit-flip
// variants of them) reach every field parser, which random bytes rarely do.
//
// Usage: wire_seed_tool <corpus-dir>
//   writes <corpus-dir>/wire/*.wire, telemetry/*.tlm and datagram/*.dgram
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/subpicture.h"
#include "net/socket_fabric.h"
#include "obs/telemetry.h"
#include "proto/wire.h"

using namespace pdw;

namespace {

void write_file(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            std::streamsize(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

void write_seed(const std::string& dir, const char* name,
                const proto::Packed& p) {
  write_file(dir + "/" + name + ".wire", p.body.span());
}

// fuzz_datagram input: control byte 1 (rewrite header CRCs), then each
// datagram as [u16 length][bytes].
void write_datagrams(const std::string& path, const net::Message& msg,
                     const std::vector<size_t>& cuts) {
  std::vector<uint8_t> out = {1};
  net::DatagramHeader h;
  h.msg = msg;
  h.msg_id = 1;
  h.frag_count = uint16_t(cuts.size() + 1);
  h.total = uint32_t(msg.payload.size());
  for (size_t i = 0; i <= cuts.size(); ++i) {
    const size_t begin = i == 0 ? 0 : cuts[i - 1];
    const size_t end = i == cuts.size() ? msg.payload.size() : cuts[i];
    h.frag_index = uint16_t(i);
    h.frag_off = uint32_t(begin);
    std::vector<uint8_t> dgram(net::kDatagramHeaderBytes);
    net::encode_datagram_header(h, dgram.data());
    dgram.insert(dgram.end(), msg.payload.data() + begin,
                 msg.payload.data() + end);
    out.push_back(uint8_t(dgram.size()));
    out.push_back(uint8_t(dgram.size() >> 8));
    out.insert(out.end(), dgram.begin(), dgram.end());
  }
  write_file(path, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-dir>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  const std::string dir = root + "/wire";
  for (const char* sub : {"wire", "telemetry", "datagram"})
    std::filesystem::create_directories(root + "/" + sub);

  proto::PictureMsg pic;
  pic.pic_index = 5;
  pic.nsid = 1;
  pic.coded = {0x00, 0x00, 0x01, 0x00, 0x12, 0x34, 0x56, 0x78};
  write_seed(dir, "picture", proto::pack(pic));

  proto::SpMsg sp;
  sp.pic_index = 5;
  sp.tile = 2;
  sp.subpicture = mem::Bytes::filled(64, 0xA5);
  core::MeiInstruction send;
  send.op = core::MeiOp::kSend;
  send.mb_x = 3;
  send.mb_y = 4;
  send.peer = 1;
  sp.mei.push_back(send);
  sp.mei.push_back(core::make_conceal(1, 2, 0x80, 0x70, 0x60));
  write_seed(dir, "subpicture", proto::pack(sp));

  proto::GoAheadAck ack;
  ack.pic_index = 6;
  write_seed(dir, "goahead", proto::pack(ack));

  proto::ExchangeMsg ex;
  ex.pic_index = 5;
  ex.src_tile = 1;
  ex.dst_tile = 2;
  proto::ExchangeEntry e;
  e.instr.op = core::MeiOp::kRecv;
  e.instr.mb_x = 7;
  e.instr.mb_y = 8;
  e.instr.peer = 1;
  for (size_t i = 0; i < sizeof(e.px.y); ++i) e.px.y[i] = uint8_t(i);
  ex.entries.push_back(e);
  write_seed(dir, "exchange", proto::pack(ex));

  write_seed(dir, "end_of_stream", proto::pack(proto::EndOfStream{}));
  write_seed(dir, "heartbeat", proto::pack(proto::Heartbeat{3, 0}));
  write_seed(dir, "finished", proto::pack(proto::Finished{2, 0}));

  proto::DeathNotice dn;
  dn.dead_tile = 1;
  dn.adopter_tile = 3;
  dn.resync_pic = 12;
  write_seed(dir, "death_notice", proto::pack(dn));
  dn.adopter_tile = proto::kNoTile;
  write_seed(dir, "death_degraded", proto::pack(dn));

  write_seed(dir, "skip", proto::pack(proto::SkipBroadcast{4, 1, 0}));
  write_seed(dir, "stream_request",
             proto::pack(proto::StreamRequest{
                 45, 30, 24, proto::PriorityClass::kStandard, 1}));
  write_seed(dir, "stream_reply",
             proto::pack(proto::StreamReply{
                 proto::AdmissionVerdict::kRenegotiate,
                 proto::DegradeLevel::kSkipB, 1}));
  proto::PartitionUpdateMsg pu;
  pu.epoch = 2;
  pu.apply_from_pic = 8;
  pu.col_cuts_mb = {5, 11};
  pu.row_cuts_mb = {4};
  write_seed(dir, "partition_update", proto::pack(pu));
  proto::CostReportMsg cr;
  cr.pic_index = 3;
  cr.col_cost = {10, 20, 30};
  cr.row_cost = {7, 8};
  write_seed(dir, "cost_report", proto::pack(cr));

  // A sub-picture message whose body is a real sub-picture, so the
  // SubPicture::parse leg of fuzz_wire starts from valid runs.
  core::SubPicture sub;
  sub.info.pic_index = 5;
  sub.info.type = mpeg2::PicType::P;
  core::SpRun run;
  run.first_coded_addr = 40;
  run.num_coded = 3;
  run.lead_skip_addr = 38;
  run.lead_skip_count = 2;
  run.payload = {0x12, 0x34, 0x56, 0x78, 0x9a};
  sub.runs = {run, run};
  write_seed(dir, "subpicture_runs",
             proto::pack_sp(5, 2, 0, sub, sp.mei));

  obs::TelemetryFrame f;
  f.token = 0x1234;
  f.seq = 3;
  f.hello = obs::HelloRecord{4242, 2, 4, 7, {3, 4}};
  obs::MetricRecord c;
  c.family = "pictures_decoded";
  c.node = 3;
  c.kind = obs::MetricKind::kCounter;
  c.count = 17;
  obs::MetricRecord h;
  h.family = "decode_ns";
  h.node = 3;
  h.kind = obs::MetricKind::kHistogram;
  h.count = 2;
  h.sum = 900;
  h.buckets = {{9, 1}, {10, 1}};
  f.metrics = {c, h};
  obs::SpanRecord s;
  s.name = "decode_sp";
  s.ph = 'X';
  s.pid = 3;
  s.ts_ns = 1000;
  s.dur_ns = 250;
  f.spans = {s};
  f.probes = {
      obs::ClockProbeRecord{1, 5555, {obs::kTelemetryLoopbackIp, 47999}}};
  f.replies = {obs::ClockReplyRecord{1, 5555, 6000, 6001}};
  f.offset = obs::OffsetRecord{-1234, 80, 6, 1};
  write_file(root + "/telemetry/frame.tlm", obs::encode_frame(f));
  obs::TelemetryFrame bye;
  bye.bye = true;
  write_file(root + "/telemetry/bye.tlm", obs::encode_frame(bye));

  net::Message msg;
  msg.src = 0;
  msg.type = int(proto::MsgType::kSubPicture);
  msg.seq = 5;
  msg.aux = 2;
  msg.bulk = true;
  msg.payload = proto::pack(sp).body;
  write_datagrams(root + "/datagram/single.dgram", msg, {});
  write_datagrams(root + "/datagram/fragmented.dgram", msg,
                  {msg.payload.size() / 3, 2 * msg.payload.size() / 3});
  return 0;
}
