// Node hosts: the glue between the sans-io protocol machines (proto/nodes.h)
// and a concrete transport + compute. One host per node role pumps a
// net::ReliableEndpoint over any net::FabricBackend, feeds decoded wire
// messages to its state machine, transmits whatever the machine returns and
// runs the actual work (splitting, pixel extraction, tile decoding) when the
// machine says the inputs are complete.
//
// Extracted from the threaded pipeline so the same hosts serve every
// deployment shape:
//   * ClusterPipeline (core/pipeline.h)  — one thread per node over one
//     shared in-process Fabric (the fast, deterministic test path);
//   * run_socket_wall (core/socket_wall.h) — one thread per node, each with
//     its own SocketFabric over real UDP loopback;
//   * wall_node (examples/wall_node.cpp)  — one OS process per node, the
//     paper's actual deployment shape.
// The protocol machines cannot tell these apart, which is what the
// ProtocolEquivalence suite proves.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/timing.h"
#include "core/mb_splitter.h"
#include "core/root_splitter.h"
#include "core/tile_decoder.h"
#include "net/fabric.h"
#include "net/reliable.h"
#include "obs/instruments.h"
#include "proto/nodes.h"
#include "wall/geometry.h"
#include "wall/partition.h"

namespace pdw::core {

// One node-death recovery, as observed by the runtime.
struct RecoveryEvent {
  double detect_time_s = 0;  // root declared the node dead (since run start)
  int dead_tile = -1;
  int adopter_tile = -1;     // -1: degraded mode (tile frozen, not adopted)
  uint32_t resync_pic = 0;   // first closed-GOP I not yet dispatched
  double resync_time_s = 0;  // adopter decoded resync_pic (0 if never)
};

// Thread-safe display callback (called with an internal mutex held).
using TileDisplayFn = std::function<void(int tile, const mpeg2::TileFrame&,
                                         const TileDisplayInfo&)>;

// State the hosts of one wall share. In the threaded engines every host
// points at the same instance; in the multi-process wall each process has
// its own (its accounting is merged externally).
struct HostShared {
  std::mutex mu;  // guards recoveries
  std::vector<RecoveryEvent> recoveries;
  std::atomic<uint64_t> degraded{0};
  std::atomic<uint64_t> skipped{0};
  std::vector<net::ReliableStats> ep_stats;  // by node, written pre-join
  std::atomic<bool> root_stop{false};
  // Decoder threads done with their stream (finished or killed). They then
  // stay resident t-acking peer retransmissions until fabric shutdown, so a
  // slow retransmit to an already-finished node is never falsely abandoned.
  std::atomic<int> decoders_done{0};
  // Splitter threads that consumed their whole stream and entered their
  // resident drain loop. The multi-process wall uses this (plus a linger)
  // to decide when a splitter process may tear its fabric down.
  std::atomic<int> splitters_done{0};
  std::mutex acct_mu;  // guards acct
  proto::WireAccounting acct;
};

void accumulate_transport(net::ReliableStats* into,
                          const net::ReliableStats& s);

// Map a state-machine emission onto the transport and record it.
void emit(net::ReliableEndpoint& ep, HostShared& shared, int src,
          proto::Outgoing o);

// Exchanges are built by the host (they carry extracted pixels), so they
// are recorded with their typed form to feed the per-picture matrices.
void emit_exchange(net::ReliableEndpoint& ep, HostShared& shared, int src,
                   int dst, const proto::ExchangeMsg& msg);

// Decode a received wire body. The transport CRC-verified it, so nullopt
// means a buggy or hostile sender: the caller drops the message, and it is
// counted in `malformed` (the malformed_msgs family) when that is non-null.
std::optional<proto::AnyMsg> decode_received(const net::Message& m,
                                             obs::Counter* malformed);

// --- Root host (Table 3, root) + health monitor ----------------------------

struct RootHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  const WallTimer& timer;
  const RootSplitter& root;
  proto::Topology topo;
  net::ReliableEndpoint ep;
  proto::RootNode node;

  obs::RootInstruments inst;

  RootHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
           const RootSplitter* r, const proto::Topology& tp,
           const net::ReliableConfig& rc, const proto::RootNode::Options& ro,
           std::vector<proto::PictureMeta> metas,
           obs::MetricsRegistry* metrics);

  void apply(proto::RootNode::Step step);
  void pump(double timeout);
  void run();
};

// --- Splitter host (Table 3, splitter) -------------------------------------

struct SplitterHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  proto::Topology topo;
  int index;
  net::ReliableEndpoint ep;
  proto::SplitterNode node;
  MacroblockSplitter splitter;
  wall::PartitionTable table;  // epochs learned from the root's updates
  bool adaptive = false;       // emit a cost report after every split

  obs::SplitterInstruments inst;
  obs::Gauge* queue_depth = nullptr;

  SplitterHost(net::FabricBackend* f, HostShared* sh,
               const proto::Topology& tp, int s,
               const net::ReliableConfig& rc, const wall::TileGeometry& geo,
               const StreamInfo& info, obs::MetricsRegistry* metrics,
               bool adaptive_enabled = false);

  int self() const { return topo.splitter(index); }

  // Post this node's two receive buffers. The threaded pipeline posts them
  // centrally before the threads start; a per-node fabric (sockets) has no
  // central place, so the host does it itself at the top of run-of-node.
  void post_initial_credits();

  void apply(proto::SplitterNode::Step step);
  void handle(net::Message& m);
  void pump(double timeout);
  void run();
};

// --- Decoder host (Table 3, decoder) ---------------------------------------

struct DecoderHost {
  net::FabricBackend& fabric;
  HostShared& shared;
  const WallTimer& timer;
  proto::Topology topo;
  int home_tile;
  const wall::TileGeometry& geo;
  const StreamInfo& info;
  const TileDisplayFn& on_display;
  std::mutex& display_mu;
  double heartbeat_interval_s;
  net::ReliableEndpoint ep;
  proto::DecoderNode node;
  wall::PartitionTable table;  // epochs learned from the root's updates
  std::map<int, std::unique_ptr<TileDecoder>> decs;  // by tile
  std::map<int, SubPicture> subs;  // current picture's sub-picture, by tile
  bool gone = false;  // killed (or fabric torn down) — exit silently

  obs::DecoderInstruments inst;
  obs::Gauge* queue_depth = nullptr;

  DecoderHost(net::FabricBackend* f, HostShared* sh, const WallTimer* t,
              const proto::Topology& tp, int tile,
              const net::ReliableConfig& rc, const wall::TileGeometry& g,
              const StreamInfo& si, const TileDisplayFn& display,
              std::mutex* dmu, const proto::DecoderNode::Options& dopts,
              obs::MetricsRegistry* metrics);

  int self() const { return topo.decoder(home_tile); }

  // See SplitterHost::post_initial_credits().
  void post_initial_credits();

  TileDecoder::DisplayFn display_fn(int tile);
  TileDecoder& dec(int tile);
  void apply(proto::DecoderNode::Step step);
  // Pump the transport once; returns false when this node is dead.
  bool pump(double timeout);
  // Phase 1 for one tile: resolve the sub-picture and execute its MEI SENDs.
  void serve(const proto::DecoderNode::OwnedTile& ot, uint32_t i);
  // Phase 2 for one tile: collect the halos it still expects, then decode.
  void work(const proto::DecoderNode::OwnedTile& ot, uint32_t i);
  void run(uint32_t total_pictures);
};

}  // namespace pdw::core
