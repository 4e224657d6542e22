// Fuzz target: the telemetry sideband codec (obs::decode_frame), which a
// collector runs on every datagram reaching its UDP port. Contract:
// malformed input is reported by a false return — never an exception,
// sanitizer report, OOM or hang. An accepted frame must re-encode to bytes
// that decode again.
#include <cstdint>
#include <vector>

#include "obs/telemetry.h"

using namespace pdw;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  obs::TelemetryFrame frame;
  if (!obs::decode_frame(data, size, &frame)) return 0;
  const std::vector<uint8_t> again = obs::encode_frame(frame);
  obs::TelemetryFrame back;
  if (!obs::decode_frame(again.data(), again.size(), &back)) __builtin_trap();
  return 0;
}
