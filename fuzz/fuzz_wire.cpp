// Fuzz target: the typed wire codec. Arbitrary bytes through decode_any()
// and every typed decode(), and every accepted SpMsg's sub-picture through
// core::SubPicture::parse (what a decoder host runs on received bytes).
// Contract: malformed input is reported by a false/nullopt return — never
// an exception, sanitizer report, OOM or hang. Accepted messages and
// sub-pictures must re-encode to what they decoded from.
#include <cstdint>
#include <span>

#include "core/subpicture.h"
#include "proto/wire.h"

using namespace pdw;

namespace {

template <typename T>
void try_typed(std::span<const uint8_t> data) {
  T out;
  if (proto::decode(data, &out)) {
    // Accepted bodies must round-trip through pack() unchanged.
    const proto::Packed p = proto::pack(out);
    T again;
    if (!proto::decode(p.body, &again) || !(again == out)) __builtin_trap();
  }
}

// A sub-picture that parses must survive serialize -> parse unchanged
// (byte-for-byte after the first pass: flag bytes read as bools, so the
// input itself need not be canonical).
void try_subpicture(std::span<const uint8_t> bytes) {
  core::SubPicture parsed, again;
  if (!core::SubPicture::parse(bytes, &parsed)) return;
  const mem::Bytes wire = parsed.serialize_pooled();
  if (wire.size() != bytes.size() || !core::SubPicture::parse(wire, &again) ||
      again.serialize_pooled() != wire)
    __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::span<const uint8_t> body(data, size);
  (void)proto::decode_any(body);
  try_typed<proto::PictureMsg>(body);
  try_typed<proto::SpMsg>(body);
  try_typed<proto::GoAheadAck>(body);
  try_typed<proto::ExchangeMsg>(body);
  try_typed<proto::EndOfStream>(body);
  try_typed<proto::Heartbeat>(body);
  try_typed<proto::Finished>(body);
  try_typed<proto::DeathNotice>(body);
  try_typed<proto::SkipBroadcast>(body);
  try_typed<proto::StreamRequest>(body);
  try_typed<proto::StreamReply>(body);
  try_typed<proto::PartitionUpdateMsg>(body);
  try_typed<proto::CostReportMsg>(body);

  // The sub-picture inside a well-framed SpMsg, and the raw input itself as
  // a sub-picture body.
  proto::SpMsg sp;
  if (proto::decode(body, &sp)) try_subpicture(sp.subpicture.span());
  try_subpicture(body);
  return 0;
}
