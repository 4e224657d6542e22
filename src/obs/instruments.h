// Cached per-node instrument bundles shared by the engines.
//
// The lockstep reference and the threaded pipeline resolve the exact same
// metric families through these bundles, which is what lets
// test_parallel_equivalence compare their registries one-to-one. All
// pointers stay null until resolve() is called, and every use site
// null-checks, so an engine without telemetry wiring pays nothing.
#pragma once

#include "obs/metrics.h"

namespace pdw::obs {

struct RootInstruments {
  Histogram* go_ahead_wait_ns = nullptr;
  Counter* malformed_msgs = nullptr;

  void resolve(MetricsRegistry& r, int node, int stream) {
    go_ahead_wait_ns =
        &r.histogram(family::kGoAheadWaitNs, Labels{node, stream});
    malformed_msgs = &r.counter(family::kMalformedMsgs, Labels{node, stream});
  }
};

struct SplitterInstruments {
  Counter* pictures_split = nullptr;
  Counter* sp_bytes_sent = nullptr;
  Counter* malformed_msgs = nullptr;
  Histogram* split_ns = nullptr;

  void resolve(MetricsRegistry& r, int node, int stream) {
    const Labels l{node, stream};
    pictures_split = &r.counter(family::kPicturesSplit, l);
    sp_bytes_sent = &r.counter(family::kSpBytesSent, l);
    malformed_msgs = &r.counter(family::kMalformedMsgs, l);
    split_ns = &r.histogram(family::kSplitNs, l);
  }
};

struct DecoderInstruments {
  Counter* pictures_decoded = nullptr;
  Counter* pictures_skipped = nullptr;
  Counter* exchange_bytes_sent = nullptr;
  Counter* exchange_bytes_recv = nullptr;
  Counter* concealed_mbs = nullptr;
  Counter* malformed_msgs = nullptr;
  Histogram* decode_ns = nullptr;
  Histogram* serve_ns = nullptr;

  void resolve(MetricsRegistry& r, int node, int stream) {
    const Labels l{node, stream};
    pictures_decoded = &r.counter(family::kPicturesDecoded, l);
    pictures_skipped = &r.counter(family::kPicturesSkipped, l);
    exchange_bytes_sent = &r.counter(family::kExchangeBytesSent, l);
    exchange_bytes_recv = &r.counter(family::kExchangeBytesRecv, l);
    concealed_mbs = &r.counter(family::kConcealedMbs, l);
    malformed_msgs = &r.counter(family::kMalformedMsgs, l);
    decode_ns = &r.histogram(family::kDecodeNs, l);
    serve_ns = &r.histogram(family::kServeNs, l);
  }
};

}  // namespace pdw::obs
