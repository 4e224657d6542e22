// Fuzz target: the socket fabric's receive path — datagram header parse and
// fragment reassembly (net::parse_datagram_header, SocketFabric::ingest).
// SocketFabric accepts datagrams from any source address, so every byte of
// a datagram is attacker-controlled; the header CRC stops line noise, not a
// sender that computes it.
//
// Input: one control byte, then up to kMaxDatagrams records of
// [u16 length][length bytes], each one datagram. Control bit 0 set: the
// harness rewrites each record's header CRC before ingesting, so mutations
// reach the framing checks behind it. Contract: nothing but drops — never
// an exception, sanitizer report, OOM or hang, and a message that
// reassembles is exactly as long as its header announced.
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "net/fault.h"
#include "net/socket_fabric.h"

using namespace pdw;

namespace {

constexpr int kMaxDatagrams = 8;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  const bool fix_crc = (data[0] & 1) != 0;
  std::span<const uint8_t> rest(data + 1, size - 1);

  net::SocketFabric rx(1, 2);
  for (int i = 0; i < kMaxDatagrams; ++i) rx.post_receive(1);
  std::vector<uint32_t> totals;
  for (int i = 0; i < kMaxDatagrams && rest.size() >= 2; ++i) {
    const size_t len = std::min<size_t>(rest[0] | (rest[1] << 8),
                                        rest.size() - 2);
    std::vector<uint8_t> dgram(rest.begin() + 2, rest.begin() + 2 + long(len));
    rest = rest.subspan(2 + len);
    if (fix_crc && dgram.size() >= net::kDatagramHeaderBytes) {
      const uint32_t crc = net::crc32(
          std::span<const uint8_t>(dgram).first(net::kDatagramHeaderBytes - 4));
      std::memcpy(dgram.data() + net::kDatagramHeaderBytes - 4, &crc, 4);
    }
    net::DatagramHeader h;
    if (net::parse_datagram_header(dgram, 2, &h)) totals.push_back(h.total);
    rx.ingest(dgram);
  }
  net::Message m;
  while (rx.receive_for(1, 0.0, &m) == net::RecvStatus::kOk) {
    bool announced = false;
    for (uint32_t t : totals) announced |= m.payload.size() == t;
    if (!announced) __builtin_trap();
  }
  return 0;
}
