// Wall benchmark: runs the real engines (the threaded ClusterPipeline and the
// UDP socket wall) on generated streams, checks every displayed tile against
// the serial decoder, and prints end-to-end metrics. With --trace 1 it also
// replays the pipeline's layers one call at a time, recording its own spans
// around each call, and prints per-layer metrics plus a bounding-layer table.
//
//   wallbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans FILE] [--source-id ID]
//   wallbench --stream-digest --workload NAME --seed N
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// `attempted` counts the wall frames the serial decoder produced (summed over
// measured engine calls) and `failed` those missing, degraded or not
// bit-exact, so frame_error_ratio = failed / attempted.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/mb_splitter.h"
#include "core/pipeline.h"
#include "core/root_splitter.h"
#include "core/socket_wall.h"
#include "core/tile_decoder.h"
#include "kernels/kernels.h"
#include "mpeg2/decoder.h"
#include "net/fabric.h"
#include "net/impair.h"
#include "net/reliable.h"
#include "net/rendezvous.h"
#include "net/socket_fabric.h"
#include "obs/trace.h"
#include "proto/nodes.h"
#include "proto/wire.h"
#include "video/catalog.h"
#include "wall/assembler.h"
#include "wall/geometry.h"

namespace {

using namespace pdw;
using Clock = std::chrono::steady_clock;

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  int stream_id;  // video::stream_catalog() row
  int frames;     // generated stream length
  int k;          // second-level splitters
  int m, n;       // wall tiles
  bool socket;    // run_socket_wall instead of ClusterPipeline
  double loss;    // ImpairProxy datagram loss (socket only)
};

// Why these three (BENCHMARK.json carries the same reasons):
//  * hd_pan_threaded — 1920x1088 panning texture on 1-2-(2,1) in-process:
//    tile decode and MEI exchange dominate; transport is cheap; k = 2
//    exercises picture round-robin and ANID ordering.
//  * sd_socket — 720x480 on 1-1-(2,1) over UDP loopback: ~3 ms tile decode,
//    so per-message transport cost and rendezvous dominate.
//  * sd_socket_loss2 — the same through the seeded ImpairProxy at 2% loss:
//    ReliableEndpoint retransmit, RTO and reassembly do the work.
constexpr Workload kWorkloads[] = {
    {"hd_pan_threaded", 11, 96, 2, 2, 1, false, 0.0},
    {"sd_socket", 1, 240, 1, 2, 1, true, 0.0},
    {"sd_socket_loss2", 1, 240, 1, 2, 1, true, 0.02},
};

constexpr int kOverlap = 40;  // projector blending band, as in bench/

uint64_t splitmix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Stream content seed: never 0 (0 means "derive from the catalog id").
uint64_t scene_seed_for(uint64_t seed, int stream_id) {
  return splitmix64(seed * 0x100 + uint64_t(stream_id)) | 1;
}

uint64_t impair_seed_for(uint64_t seed, int call) {
  return splitmix64(splitmix64(seed ^ 0x1055ull) + uint64_t(call));
}

double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Statistics from raw samples ---------------------------------------------

struct Pct {
  double value = 0;
  size_t n = 0;        // samples
  size_t beyond = 0;   // samples strictly above the value
  bool available() const { return beyond >= 10; }
};

// Linear interpolation between order statistics (numpy's default).
Pct percentile(std::vector<double> v, double q) {
  Pct p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  p.value = v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
  p.beyond = size_t(v.end() - std::upper_bound(v.begin(), v.end(), p.value));
  return p;
}

double median(const std::vector<double>& v) { return percentile(v, 0.5).value; }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / double(v.size());
}

// --- Word-at-a-time pixel digest ---------------------------------------------

// Four independent multiply-xor lanes over 64-bit words; feeding a plane
// whole or row by row gives the same digest as long as every feed is a
// multiple of 8 bytes (macroblock-aligned planes always are).
struct Digest {
  uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                      0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  uint64_t words = 0;

  void feed(const uint8_t* p, size_t bytes) {
    for (size_t i = 0; i + 8 <= bytes; i += 8) {
      uint64_t w;
      std::memcpy(&w, p + i, 8);
      uint64_t& l = lane[words++ & 3];
      l = (l ^ w) * 0x9FB21C651E98DF25ull;
    }
  }
  uint64_t finish() const {
    uint64_t h = words;
    for (uint64_t l : lane) h = splitmix64(h ^ l);
    return h;
  }
};

uint64_t tile_digest(const mpeg2::TileFrame& tf) {
  Digest d;
  for (const mpeg2::Plane* p : {&tf.y(), &tf.cb(), &tf.cr()})
    d.feed(p->data().data(), p->data().size());
  return d.finish();
}

// The same bytes, taken from a full serial frame over tile rect `r`.
uint64_t region_digest(const mpeg2::Frame& f, const wall::MbRect& r) {
  Digest d;
  for (int c = 0; c < 3; ++c) {
    const int s = c == 0 ? 16 : 8;
    const mpeg2::Plane& p = f.plane(c);
    for (int y = r.y0 * s; y < r.y1 * s; ++y)
      d.feed(p.row(y) + r.x0 * s, size_t((r.x1 - r.x0) * s));
  }
  return d.finish();
}

// --- Prepared inputs ---------------------------------------------------------

struct Prep {
  const Workload* wl = nullptr;
  uint64_t seed = 0;
  video::StreamSpec spec;
  std::vector<uint8_t> es;
  std::unique_ptr<wall::TileGeometry> geo;
  std::vector<std::vector<uint64_t>> ref;  // [display slot][tile] digest
  double gen_s = 0, ref_s = 0;
  int tiles() const { return geo->tiles(); }
  int slots() const { return int(ref.size()); }
};

Prep prepare(const Workload& wl, uint64_t seed) {
  Prep p;
  p.wl = &wl;
  p.seed = seed;
  p.spec = video::stream_by_id(wl.stream_id);
  p.spec.scene_seed = scene_seed_for(seed, wl.stream_id);
  auto t0 = Clock::now();
  p.es = video::load_stream(p.spec, wl.frames);
  p.gen_s = secs_since(t0);
  p.geo = std::make_unique<wall::TileGeometry>(p.spec.width, p.spec.height,
                                               wl.m, wl.n, kOverlap);
  t0 = Clock::now();
  mpeg2::Mpeg2Decoder dec;
  dec.decode(p.es, [&](const mpeg2::Frame& f,
                       const mpeg2::DecodedPictureInfo& info) {
    const size_t slot = size_t(info.display_index);
    if (p.ref.size() <= slot) p.ref.resize(slot + 1);
    auto& row = p.ref[slot];
    row.resize(size_t(p.tiles()));
    for (int t = 0; t < p.tiles(); ++t)
      row[size_t(t)] = region_digest(f, p.geo->tile_mbs(t));
  });
  p.ref_s = secs_since(t0);
  return p;
}

// --- One engine call ---------------------------------------------------------

struct TileRec {
  uint64_t t_ns;
  uint64_t digest;
  int32_t slot;
  int16_t tile;
  bool degraded;
};

struct CallResult {
  bool ok = false;      // at least two complete frames (fps is defined)
  bool traced = false;  // ran with the program's obs::Tracer enabled
  double setup_s = 0, fps = 0;
  std::vector<double> intervals_s;
  uint64_t expected = 0, failed = 0;
  double net_bytes_per_frame = 0, cpu_s_per_frame = 0, peak_rss_mb = 0;
  core::ClusterStats stats;
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Writing 5 to clear_refs resets VmHWM to the current RSS, so the next
// reading is the peak of one engine call rather than of the process.
void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
  return 0;
}

CallResult run_engine(const Prep& p, int call) {
  const Workload& wl = *p.wl;
  const int tiles = p.tiles();
  std::vector<TileRec> recs;
  recs.reserve(size_t(p.slots() + 4) * size_t(tiles));

  reset_peak_rss();
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  // Called with the engine's display mutex held: record, never compare.
  const core::TileDisplayFn on_display =
      [&](int tile, const mpeg2::TileFrame& tf,
          const core::TileDisplayInfo& info) {
        const uint64_t dg = tile_digest(tf);
        recs.push_back(TileRec{
            uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t0)
                         .count()),
            dg, int32_t(info.display_index), int16_t(tile), info.degraded});
      };

  CallResult r;
  if (wl.socket) {
    core::SocketWallOptions opts;
    if (wl.loss > 0) {
      opts.impair = true;
      opts.impair_cfg.seed = impair_seed_for(p.seed, call);
      opts.impair_cfg.loss = wl.loss;
    }
    r.stats = core::run_socket_wall(*p.geo, wl.k, p.es, on_display, opts);
  } else {
    core::ClusterPipeline pipe(*p.geo, wl.k, p.es);
    r.stats = pipe.run(on_display);
  }
  const double cpu_s = cpu_seconds() - cpu0;
  r.peak_rss_mb = peak_rss_mb();

  // Completion time and exactness of every display slot.
  const int slots = p.slots();
  std::vector<int> got(size_t(slots), 0);
  std::vector<bool> bad(size_t(slots), false);
  std::vector<uint64_t> done_ns(size_t(slots), 0);
  uint64_t stray = 0;
  for (const TileRec& t : recs) {
    if (t.slot < 0 || t.slot >= slots || t.tile < 0 || t.tile >= tiles) {
      ++stray;
      continue;
    }
    const size_t s = size_t(t.slot);
    ++got[s];
    if (t.degraded || t.digest != p.ref[s][size_t(t.tile)]) bad[s] = true;
    done_ns[s] = std::max(done_ns[s], t.t_ns);
  }
  r.expected = uint64_t(slots);
  std::vector<double> shown;  // display time of each complete frame
  for (int s = 0; s < slots; ++s) {
    const bool complete = got[size_t(s)] == tiles;
    if (!complete || bad[size_t(s)]) ++r.failed;
    if (!complete) continue;
    const double t = double(done_ns[size_t(s)]) * 1e-9;
    // A viewer sees frame s only after frame s-1.
    shown.push_back(shown.empty() ? t : std::max(t, shown.back()));
  }
  r.failed += stray;
  if (shown.size() >= 2) {
    r.ok = true;
    r.setup_s = shown.front();
    r.fps = double(shown.size() - 1) / (shown.back() - shown.front());
    for (size_t j = 1; j < shown.size(); ++j)
      r.intervals_s.push_back(shown[j] - shown[j - 1]);
  }
  r.net_bytes_per_frame = double(r.stats.traffic_matrix.total()) / slots;
  r.cpu_s_per_frame = cpu_s / slots;
  return r;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::vector<Metric> json;  // what the final JSON line carries

  void add(const std::string& name, double v, const std::string& unit,
           const std::string& note = "") {
    std::printf("metric %s = %.6g %s%s%s\n", name.c_str(), v, unit.c_str(),
                note.empty() ? "" : "  ", note.c_str());
    json.push_back({name, v, unit});
  }
  void add_pct(const std::string& name, const Pct& p, double scale,
               const std::string& unit) {
    char note[96];
    if (p.available())
      std::snprintf(note, sizeof(note), "[n=%zu]", p.n);
    else
      std::snprintf(note, sizeof(note),
                    "[n=%zu, UNAVAILABLE: only %zu samples beyond]", p.n,
                    p.beyond);
    add(name, p.value * scale, unit, note);
  }
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < ms.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    s += (i ? ", \"" : "\"") + ms[i].name +
         "\": {\"value\": " + v + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

void print_fingerprint(const Prep& p, const std::string& source_id) {
  const char* ko = std::getenv("PDW_KERNELS");
  std::printf("fingerprint nproc=%u\n", std::thread::hardware_concurrency());
  std::printf("fingerprint cpu=%s\n", cpu_model().c_str());
  std::printf("fingerprint build_type=%s\n", PDW_BENCH_BUILD_TYPE);
  std::printf("fingerprint compiler=%s\n", PDW_BENCH_COMPILER);
  std::printf("fingerprint kernels=%s\n",
              kernels::level_name(kernels::active_level()));
  std::printf("fingerprint kernels_override=%s\n", ko ? ko : "none");
  std::printf("fingerprint workload=%s stream=%d %dx%d frames=%d wall=1-%d-(%d,%d)%s\n",
              p.wl->name, p.spec.id, p.spec.width, p.spec.height,
              p.wl->frames, p.wl->k, p.wl->m, p.wl->n,
              p.wl->socket ? " socket" : " threaded");
  std::printf("fingerprint seed=%" PRIu64 " scene_seed=%016" PRIx64 "\n",
              p.seed, p.spec.scene_seed);
  std::printf("fingerprint source=%s\n", source_id.c_str());
  std::printf("prep stream_bytes=%zu generate_s=%.3f reference_s=%.3f "
              "display_slots=%d\n",
              p.es.size(), p.gen_s, p.ref_s, p.slots());
}

// --- Engine loop -------------------------------------------------------------

struct EngineRun {
  std::vector<CallResult> calls;  // measured calls (warm-up excluded)
  uint64_t attempted = 0, failed = 0;
  // The engine's own decode_sp spans from the obs-traced calls: tile decode
  // as it runs with every node thread busy (display callback included).
  uint64_t engine_decodes = 0, engine_decode_ns = 0;
};

// One warm-up call (pools, sockets, page faults), then measured calls until
// `budget_s` is spent, at least `min_calls` of them. With `alternate_tracing`
// every second measured call runs with the program's own span tracer on.
// Every call, the warm-up included, is checked against the serial reference.
EngineRun run_engine_calls(const Prep& p, double budget_s, int min_calls,
                           bool alternate_tracing = false) {
  EngineRun er;
  auto account = [&](const CallResult& c, const char* label) {
    er.attempted += c.expected;
    er.failed += c.failed;
    std::printf("call %s: setup %.2f ms, fps %.2f, failed %" PRIu64
                "/%" PRIu64 "\n",
                label, c.setup_s * 1e3, c.fps, c.failed, c.expected);
  };
  account(run_engine(p, 0), "warm-up");
  const auto t0 = Clock::now();
  for (int i = 1; int(er.calls.size()) < min_calls || secs_since(t0) < budget_s;
       ++i) {
    const bool traced = alternate_tracing && i % 2 == 0;
    // Small rings: every engine call registers fresh node threads.
    if (traced) obs::Tracer::global().enable(size_t(1) << 13);
    CallResult c = run_engine(p, i);
    obs::Tracer::global().disable();
    c.traced = traced;
    if (traced)
      for (const auto& [key, agg] : obs::Tracer::global().aggregate())
        if (key.first == obs::span::kDecodeSp) {
          er.engine_decodes += agg.count;
          er.engine_decode_ns += agg.total_ns;
        }
    account(c, (std::to_string(i) + (traced ? " (obs-traced)" : "")).c_str());
    er.calls.push_back(std::move(c));
  }
  return er;
}

template <class F>
std::vector<double> collect(const std::vector<CallResult>& calls, F f) {
  std::vector<double> v;
  for (const CallResult& c : calls)
    if (c.ok) v.push_back(f(c));
  return v;
}

// --- Span recorder (traced replay) -------------------------------------------

struct Span {
  const char* name;
  uint64_t start_ns, end_ns;
  int64_t parent;  // index into spans, -1 for a root
  uint32_t pic;
  int tile;  // -1: not tile-specific
};

class Recorder {
 public:
  Recorder() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

  size_t open(const char* name, uint32_t pic, int tile) {
    const int64_t parent = stack_.empty() ? -1 : int64_t(stack_.back());
    spans_.push_back(Span{name, now(), 0, parent, pic, tile});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(size_t id) {
    spans_[id].end_ns = now();
    stack_.pop_back();
  }
  double seconds(size_t id) const {
    return double(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Duration minus the time its children cover (children never overlap:
  // the replay is single-threaded and spans nest).
  std::vector<uint64_t> self_ns() const {
    std::vector<uint64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    for (const Span& s : spans_)
      if (s.parent >= 0) self[size_t(s.parent)] -= s.end_ns - s.start_ns;
    return self;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %" PRId64
                   ", \"pic_index\": %" PRId64 ", \"tile\": %d, "
                   "\"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64 "}}",
                   i ? ",\n" : "", s.name, double(s.start_ns) / 1e3,
                   double(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                   s.pic == kNoPic ? int64_t(-1) : int64_t(s.pic), s.tile,
                   s.start_ns, s.end_ns);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  static constexpr uint32_t kNoPic = 0xFFFFFFFFu;

 private:
  uint64_t now() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count());
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<size_t> stack_;
};

class Scope {
 public:
  Scope(Recorder& r, const char* name, uint32_t pic = Recorder::kNoPic,
        int tile = -1)
      : r_(r), id_(r.open(name, pic, tile)) {}
  ~Scope() { r_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  size_t id_;
};

// Span names, one per layer call. The replay issues them in the order
// proto::SerialStream::step drives the layers.
namespace sn {
constexpr const char* kScan = "root_splitter.scan";
constexpr const char* kPicture = "picture";
constexpr const char* kPackPicture = "proto.pack_picture";
constexpr const char* kUnpackPicture = "proto.unpack_picture";
constexpr const char* kSplit = "mb_splitter.split";
constexpr const char* kPackSp = "subpicture.pack";
constexpr const char* kUnpackSp = "subpicture.unpack";
constexpr const char* kServe = "mei.serve";
constexpr const char* kPackExchange = "proto.pack_exchange";
constexpr const char* kUnpackExchange = "proto.unpack_exchange";
constexpr const char* kInstall = "mei.install";
constexpr const char* kDecode = "tile_decoder.decode";
constexpr const char* kFlush = "tile_decoder.flush";
constexpr const char* kAddTile = "assembler.add_tile";
constexpr const char* kCheck = "bench.check_tile";
constexpr const char* kSerial = "mpeg2.decode_picture";
}  // namespace sn

// --- Traced layer replay -----------------------------------------------------

struct ReplayAcc {
  int pictures = 0;
  uint64_t mismatches = 0, tiles_checked = 0;
  std::vector<double> slowest_decode_s;  // per picture, max over tiles
  double decode_s = 0, decode_mean_sum_s = 0, decode_max_sum_s = 0;
  uint64_t decode_mbs = 0;
  double split_s = 0;
  uint64_t split_mbs = 0, exchange_pairs = 0, split_in = 0, split_out = 0;
  double pack_pic_s = 0, unpack_pic_s = 0, pack_sp_s = 0, unpack_sp_s = 0;
  double serve_s = 0, install_s = 0;
  uint64_t remote_mbs = 0;
  double add_tile_s = 0;
  std::vector<double> decoder_stage_s;  // per picture: slowest node's work
  std::vector<double> sp_bytes;
  int serial_pictures = 0;
  double serial_s = 0;
  uint64_t serial_mbs = 0;
};

void replay_wall_pass(const Prep& p, const core::RootSplitter& root,
                      Recorder& rec, ReplayAcc& acc) {
  const Workload& wl = *p.wl;
  const wall::TileGeometry& geo = *p.geo;
  const int tiles = geo.tiles();
  const size_t nt = size_t(tiles);
  const proto::Topology topo{wl.k, tiles};
  std::vector<std::unique_ptr<core::MacroblockSplitter>> splitters;
  for (int s = 0; s < wl.k; ++s) {
    splitters.push_back(std::make_unique<core::MacroblockSplitter>(geo));
    splitters.back()->set_stream_info(root.stream_info());
  }
  std::vector<std::unique_ptr<core::TileDecoder>> decs;
  for (int t = 0; t < tiles; ++t)
    decs.push_back(
        std::make_unique<core::TileDecoder>(geo, t, root.stream_info()));
  wall::WallAssembler assembler(geo);
  std::vector<int> slot_tiles;  // tiles assembled per display slot
  // Display callbacks run inside the decode of `cur_pic`; their spans carry
  // that picture's index, like every other span of its step.
  uint32_t cur_pic = Recorder::kNoPic;

  auto display_for = [&](int d) {
    return [&, d](const mpeg2::TileFrame& tf, const core::TileDisplayInfo& info) {
      const size_t slot = size_t(info.display_index);
      {
        Scope s(rec, sn::kCheck, cur_pic, d);
        ++acc.tiles_checked;
        if (info.degraded || slot >= p.ref.size() ||
            tile_digest(tf) != p.ref[slot][size_t(d)])
          ++acc.mismatches;
      }
      const auto t0 = Clock::now();
      {
        Scope s(rec, sn::kAddTile, cur_pic, d);
        assembler.add_tile(d, tf, !info.degraded);
      }
      acc.add_tile_s += secs_since(t0);
      if (slot_tiles.size() <= slot) slot_tiles.resize(slot + 1, 0);
      if (++slot_tiles[slot] == tiles) assembler.reset();
    };
  };

  for (int pi = 0; pi < root.picture_count(); ++pi) {
    const uint32_t i = uint32_t(pi);
    cur_pic = i;
    Scope pic_scope(rec, sn::kPicture, i);
    std::vector<double> node_s(nt, 0.0);
    auto timed = [&](const char* name, int tile, auto&& fn) {
      const auto t0 = Clock::now();
      {
        Scope s(rec, name, i, tile);
        fn();
      }
      return secs_since(t0);
    };

    // Root: pack the coded picture into a pooled wire body.
    proto::Packed pic_packed;
    acc.pack_pic_s += timed(sn::kPackPicture, -1, [&] {
      pic_packed = proto::pack_picture(i, topo.nsid(i), 0, root.picture(pi));
    });

    // Splitter s: unpack, split, pack one SP message per tile.
    const int s = topo.splitter_for_picture(i);
    proto::PictureMsg pm;
    acc.unpack_pic_s += timed(sn::kUnpackPicture, -1, [&] {
      PDW_CHECK(proto::decode(pic_packed.body, &pm));
    });
    core::SplitResult split;
    const double split_s = timed(sn::kSplit, -1, [&] {
      split = splitters[size_t(s)]->split(pm.coded, i, geo);
    });
    PDW_CHECK(split.status.ok()) << " replay split failed at picture " << i;
    acc.split_s += split_s;
    acc.split_mbs += uint64_t(split.stats.macroblocks);
    acc.exchange_pairs += uint64_t(split.stats.exchange_pairs);
    acc.split_in += split.stats.input_bytes;
    acc.split_out += split.stats.output_bytes;
    std::vector<proto::Packed> sp_packed(nt);
    acc.pack_sp_s += timed(sn::kPackSp, -1, [&] {
      for (int d = 0; d < tiles; ++d)
        sp_packed[size_t(d)] = proto::pack_sp(
            i, uint16_t(d), 0, split.subpictures[size_t(d)],
            split.mei[size_t(d)]);
    });
    for (const proto::Packed& pk : sp_packed)
      acc.sp_bytes.push_back(double(pk.body.size()));

    // Decoders: unpack their SP message and sub-picture.
    std::vector<proto::SpMsg> sp_msgs(nt);
    std::vector<core::SubPicture> subs(nt);
    for (int d = 0; d < tiles; ++d) {
      const double t = timed(sn::kUnpackSp, d, [&] {
        PDW_CHECK(proto::decode(sp_packed[size_t(d)].body, &sp_msgs[size_t(d)]));
        subs[size_t(d)] =
            core::SubPicture::deserialize(sp_msgs[size_t(d)].subpicture);
      });
      acc.unpack_sp_s += t;
      node_s[size_t(d)] += t;
    }

    // Serve phase: every tile executes its SENDs before any decode starts.
    std::vector<std::vector<proto::Packed>> inbox(nt);
    for (int d = 0; d < tiles; ++d) {
      std::map<int, proto::ExchangeMsg> out;
      const double serve = timed(sn::kServe, d, [&] {
        for (const core::MeiInstruction& instr : sp_msgs[size_t(d)].mei) {
          if (instr.op == core::MeiOp::kConceal) {
            decs[size_t(d)]->stage_conceal(instr);
            continue;
          }
          if (instr.op != core::MeiOp::kSend) continue;
          proto::ExchangeEntry e;
          e.px = decs[size_t(d)]->extract_for_send(split.info, instr);
          e.instr = instr;
          e.instr.op = core::MeiOp::kRecv;
          e.instr.peer = uint16_t(d);
          proto::ExchangeMsg& m = out[int(instr.peer)];
          if (m.entries.empty()) {
            m.pic_index = i;
            m.src_tile = uint16_t(d);
            m.dst_tile = instr.peer;
          }
          m.entries.push_back(std::move(e));
        }
      });
      const double pack = timed(sn::kPackExchange, d, [&] {
        for (auto& [peer, m] : out) inbox[size_t(peer)].push_back(proto::pack(m));
      });
      acc.serve_s += serve;
      node_s[size_t(d)] += serve + pack;
    }

    // Decode phase: install the halos, then decode (display -> assembly).
    double max_dec = 0, sum_dec = 0;
    for (int d = 0; d < tiles; ++d) {
      std::vector<proto::ExchangeMsg> msgs(inbox[size_t(d)].size());
      const double unpack = timed(sn::kUnpackExchange, d, [&] {
        for (size_t j = 0; j < msgs.size(); ++j)
          PDW_CHECK(proto::decode(inbox[size_t(d)][j].body.span(), &msgs[j]));
      });
      const double install = timed(sn::kInstall, d, [&] {
        for (const proto::ExchangeMsg& m : msgs)
          for (const proto::ExchangeEntry& e : m.entries) {
            decs[size_t(d)]->add_halo_mb(e.instr, e.px, e.tainted);
            ++acc.remote_mbs;
          }
      });
      const size_t id = rec.open(sn::kDecode, i, d);
      decs[size_t(d)]->decode(subs[size_t(d)], display_for(d));
      rec.close(id);
      // Self time: the display callback's check and assembly are children.
      uint64_t child_ns = 0;
      for (size_t c = id + 1; c < rec.spans().size(); ++c)
        if (rec.spans()[c].parent == int64_t(id))
          child_ns += rec.spans()[c].end_ns - rec.spans()[c].start_ns;
      const double dec_s = rec.seconds(id) - double(child_ns) * 1e-9;
      acc.install_s += install;
      acc.decode_s += dec_s;
      acc.decode_mbs +=
          uint64_t(decs[size_t(d)]->macroblocks_decoded_last_picture());
      max_dec = std::max(max_dec, dec_s);
      sum_dec += dec_s;
      node_s[size_t(d)] += unpack + install + dec_s;
    }
    acc.slowest_decode_s.push_back(max_dec);
    acc.decode_max_sum_s += max_dec;
    acc.decode_mean_sum_s += sum_dec / tiles;
    acc.decoder_stage_s.push_back(
        *std::max_element(node_s.begin(), node_s.end()));
    ++acc.pictures;
  }
  cur_pic = Recorder::kNoPic;
  for (int d = 0; d < tiles; ++d) {
    Scope s(rec, sn::kFlush, Recorder::kNoPic, d);
    decs[size_t(d)]->flush(display_for(d));
  }
}

void replay_serial_pass(const Prep& p, const core::RootSplitter& root,
                        Recorder& rec, ReplayAcc& acc) {
  mpeg2::Mpeg2Decoder dec;
  const auto noop = [](const mpeg2::Frame&, const mpeg2::DecodedPictureInfo&) {};
  const uint64_t mbs_per_pic =
      uint64_t(p.geo->mb_width()) * uint64_t(p.geo->mb_height());
  for (int i = 0; i < root.picture_count(); ++i) {
    const auto t0 = Clock::now();
    {
      Scope s(rec, sn::kSerial, uint32_t(i));
      dec.decode_picture_span(p.es, root.span(i), noop);
    }
    acc.serial_s += secs_since(t0);
    acc.serial_mbs += mbs_per_pic;
    ++acc.serial_pictures;
  }
  dec.flush(noop);
}

// Bulk messages of `bytes` from node 0 to node 1 through two
// ReliableEndpoints, one at a time; returns send -> in-order delivery times.
std::vector<double> probe_deliver(net::FabricBackend& a, net::FabricBackend& b,
                                  size_t bytes, double budget_s,
                                  int max_samples) {
  net::ReliableEndpoint ea(&a, 0), eb(&b, 1);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> delivered_ns{0};
  std::atomic<int> delivered{0};
  const auto epoch = Clock::now();
  auto now_ns = [&] {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count());
  };
  b.post_receive(1);
  std::thread rx([&] {
    net::Message m;
    while (!stop.load()) {
      if (eb.recv(&m, 0.001) != net::ReliableEndpoint::Status::kMessage)
        continue;
      b.post_receive(1);
      delivered_ns.store(now_ns());
      delivered.fetch_add(1);
    }
  });
  std::vector<double> out;
  const mem::Bytes payload = mem::Bytes::copy_of(std::vector<uint8_t>(bytes, 0x5A));
  const auto t0 = Clock::now();
  net::Message scratch;
  for (int i = 0; i < max_samples && (i < 20 || secs_since(t0) < budget_s);
       ++i) {
    net::Message m;
    m.type = int(proto::MsgType::kSubPicture);
    m.seq = uint32_t(i);
    m.bulk = true;
    m.payload = payload;
    const int before = delivered.load();
    const uint64_t sent = now_ns();
    ea.send(1, std::move(m));
    // Pump the sender (acks, retransmits) until delivered and acked; an
    // abandoned send is never delivered, so give up on it after a while.
    const auto sent_at = Clock::now();
    while ((delivered.load() == before || ea.unacked() > 0) &&
           secs_since(sent_at) < 5.0)
      ea.recv(&scratch, 0.0005);
    if (delivered.load() == before) break;
    out.push_back(double(delivered_ns.load() - sent) * 1e-9);
  }
  stop.store(true);
  rx.join();
  return out;
}

std::vector<double> deliver_samples(const Prep& p, size_t bytes,
                                    double budget_s) {
  const Workload& wl = *p.wl;
  constexpr int kMax = 4000;
  if (!wl.socket) {
    net::Fabric f(2);
    auto v = probe_deliver(f, f, bytes, budget_s, kMax);
    f.shutdown();
    return v;
  }
  net::SocketFabric a(0, 2), b(1, 2);
  std::vector<net::Endpoint> real = {a.local_endpoint(), b.local_endpoint()};
  std::unique_ptr<net::ImpairProxy> proxy;
  if (wl.loss > 0) {
    net::ImpairConfig ic;
    ic.seed = impair_seed_for(p.seed, 1 << 20);
    ic.loss = wl.loss;
    proxy = std::make_unique<net::ImpairProxy>(real, ic);
    real = proxy->proxied();
  }
  a.set_peers(real);
  b.set_peers(real);
  auto v = probe_deliver(a, b, bytes, budget_s, kMax);
  a.shutdown();
  b.shutdown();
  if (proxy) proxy->stop();
  return v;
}

// RendezvousServer + one rendezvous_join per node, as run_socket_wall does.
double rendezvous_once(int nodes) {
  std::vector<std::unique_ptr<net::SocketFabric>> fabrics;
  for (int i = 0; i < nodes; ++i)
    fabrics.push_back(std::make_unique<net::SocketFabric>(i, nodes));
  const auto t0 = Clock::now();
  net::RendezvousServer rv(nodes);
  net::RendezvousConfig cfg;
  rv.serve_async(cfg);
  std::vector<std::thread> joins;
  std::atomic<int> ok{0};
  for (int i = 0; i < nodes; ++i)
    joins.emplace_back([&, i] {
      std::vector<net::Endpoint> peers;
      if (net::rendezvous_join(rv.endpoint(), i,
                               fabrics[size_t(i)]->local_endpoint(), nodes,
                               &peers, cfg) == net::RendezvousStatus::kOk)
        ok.fetch_add(1);
    });
  for (auto& j : joins) j.join();
  PDW_CHECK(rv.result() == net::RendezvousStatus::kOk);
  PDW_CHECK_EQ(ok.load(), nodes);
  const double s = secs_since(t0);
  for (auto& f : fabrics) f->shutdown();
  return s;
}

// --- Modes -------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans;
  std::string source_id = "unknown";
  bool stream_digest = false;
};

void emit_end_to_end(const Prep& p, const EngineRun& er, Report& rep) {
  const auto& c = er.calls;
  std::vector<double> intervals;
  for (const CallResult& r : c)
    if (r.ok)
      intervals.insert(intervals.end(), r.intervals_s.begin(),
                       r.intervals_s.end());
  const size_t n = size_t(std::count_if(
      c.begin(), c.end(), [](const CallResult& r) { return r.ok; }));
  char note[64];
  std::snprintf(note, sizeof(note), "[median of %zu engine calls]", n);
  rep.add("fps", median(collect(c, [](const CallResult& r) { return r.fps; })),
          "1/s", note);
  rep.add("setup_s",
          median(collect(c, [](const CallResult& r) { return r.setup_s; })),
          "s", note);
  rep.add_pct("frame_interval_p50_ms", percentile(intervals, 0.50), 1e3, "ms");
  rep.add_pct("frame_interval_p95_ms", percentile(intervals, 0.95), 1e3, "ms");
  rep.add("net_bytes_per_frame",
          median(collect(c, [](const CallResult& r) {
            return r.net_bytes_per_frame;
          })),
          "B", note);
  rep.add("cpu_s_per_frame",
          median(collect(c, [](const CallResult& r) {
            return r.cpu_s_per_frame;
          })),
          "s", note);
  rep.add("peak_rss_mb",
          median(collect(c, [](const CallResult& r) { return r.peak_rss_mb; })),
          "MiB", note);
  std::printf("info frame_error_ratio = %.6g (%" PRIu64 " of %" PRIu64
              " frames missing, degraded or not bit-exact; %d slots per call)\n",
              er.attempted ? double(er.failed) / double(er.attempted) : 1.0,
              er.failed, er.attempted, p.slots());
}

int run_untraced(const Prep& p, const Args& a) {
  const EngineRun er = run_engine_calls(p, a.seconds, 3);
  Report rep;
  emit_end_to_end(p, er, rep);
  const bool ok = !er.calls.empty() &&
                  std::all_of(er.calls.begin(), er.calls.end(),
                              [](const CallResult& c) { return c.ok; });
  print_result(ok && er.failed == 0, er.attempted, er.failed, rep.json);
  return 0;
}

int run_traced(const Prep& p, const Args& a) {
  const Workload& wl = *p.wl;
  const int tiles = p.tiles();
  Report rep;

  // 1. Engine calls, alternating untraced / obs-traced: program counters and
  //    the tracing overhead. Only the untraced calls feed the counters.
  const EngineRun er = run_engine_calls(p, 0.45 * a.seconds, 4, true);
  std::vector<double> fps_plain, fps_traced;
  std::vector<CallResult> plain;
  for (const CallResult& c : er.calls) {
    if (!c.ok) continue;
    (c.traced ? fps_traced : fps_plain).push_back(c.fps);
    if (!c.traced) plain.push_back(c);
  }
  const double measured_fps = median(fps_plain);

  // 2. Layer replay: root scan, wall passes and serial passes with spans.
  Recorder rec;
  ReplayAcc acc;
  std::vector<double> scan_us;
  std::optional<core::RootSplitter> root;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    {
      Scope s(rec, sn::kScan);
      root.emplace(p.es);
    }
    scan_us.push_back(secs_since(t0) * 1e6 / root->picture_count());
  }
  const auto replay_t0 = Clock::now();
  do {
    replay_wall_pass(p, *root, rec, acc);
    replay_serial_pass(p, *root, rec, acc);
  } while (secs_since(replay_t0) < 0.35 * a.seconds);

  // 3. Transport probes over the workload's fabric, at the three message
  //    sizes on a decoder's per-picture loop: go-ahead ack, SP, exchange.
  const size_t sp_bytes = size_t(median(acc.sp_bytes));
  const size_t x_bytes = proto::exchange_msg_wire_bytes(size_t(
      std::max(1.0, double(acc.remote_mbs) / (double(acc.pictures) * tiles))));
  const size_t ack_bytes = proto::pack(proto::GoAheadAck{}).body.size();
  const std::vector<double> deliver =
      deliver_samples(p, sp_bytes, 0.06 * a.seconds);
  const double x_s =
      median(deliver_samples(p, x_bytes, 0.03 * a.seconds));
  const double ack_s =
      median(deliver_samples(p, ack_bytes, 0.03 * a.seconds));
  const int nodes = 1 + wl.k + tiles;
  std::vector<double> rv_ms;
  for (int r = 0; r < 5; ++r) rv_ms.push_back(rendezvous_once(nodes) * 1e3);

  const double pics = std::max(1, acc.pictures);
  const double frames = p.slots();

  // --- Replay layers.
  const Pct dec50 = percentile(acc.slowest_decode_s, 0.5);
  const Pct dec95 = percentile(acc.slowest_decode_s, 0.95);
  rep.add_pct("tile_decoder.decode_ms_per_pic_p50", dec50, 1e3, "ms");
  rep.add_pct("tile_decoder.decode_ms_per_pic_p95", dec95, 1e3, "ms");
  const double tile_ns_mb = acc.decode_s * 1e9 / double(acc.decode_mbs);
  const double serial_ns_mb = acc.serial_s * 1e9 / double(acc.serial_mbs);
  rep.add("tile_decoder.ns_per_mb", tile_ns_mb, "ns",
          "[decode self time / macroblocks decoded]");
  rep.add("tile_decoder.imbalance", acc.decode_max_sum_s / acc.decode_mean_sum_s,
          "ratio", "[sum of per-picture max / sum of per-picture mean]");
  rep.add("mpeg2.serial_fps", acc.serial_pictures / acc.serial_s, "1/s");
  rep.add("mpeg2.serial_ns_per_mb", serial_ns_mb, "ns");
  rep.add("tile_decoder.overhead_vs_serial", tile_ns_mb / serial_ns_mb, "ratio",
          "[base: mpeg2.serial_ns_per_mb]");
  rep.add("mei.serve_us_per_pic", acc.serve_s * 1e6 / pics, "us",
          "[all tiles]");
  rep.add("mei.install_us_per_pic", acc.install_s * 1e6 / pics, "us",
          "[all tiles]");
  rep.add("mei.remote_mbs_per_pic", double(acc.remote_mbs) / pics, "count");
  rep.add("mb_splitter.split_ms_per_pic", acc.split_s * 1e3 / pics, "ms");
  rep.add("mb_splitter.ns_per_mb", acc.split_s * 1e9 / double(acc.split_mbs),
          "ns");
  rep.add("mb_splitter.exchange_pairs_per_pic",
          double(acc.exchange_pairs) / pics, "count");
  rep.add("mb_splitter.out_over_in_bytes",
          double(acc.split_out) / double(acc.split_in), "ratio",
          "[base: coded picture bytes]");
  rep.add("subpicture.pack_us_per_pic", acc.pack_sp_s * 1e6 / pics, "us",
          "[pack_sp, all tiles]");
  rep.add("subpicture.unpack_us_per_pic", acc.unpack_sp_s * 1e6 / pics, "us",
          "[decode SpMsg + SubPicture::deserialize, all tiles]");
  rep.add("root_splitter.scan_us_per_pic", median(scan_us), "us",
          "[median of 5 scans]");
  rep.add("assembler.add_tile_us_per_pic", acc.add_tile_s * 1e6 / pics, "us");
  rep.add_pct("net.deliver_us_p50", percentile(deliver, 0.5), 1e6, "us");
  rep.add_pct("net.deliver_us_p95", percentile(deliver, 0.95), 1e6, "us");
  rep.add("net.rendezvous_ms", median(rv_ms), "ms",
          "[median of 5, " + std::to_string(nodes) + " nodes]");

  // --- Engine counters (untraced calls).
  auto med = [&](auto f) { return median(collect(plain, f)); };
  rep.add("net.reliable.sent_per_frame", med([&](const CallResult& r) {
            return double(r.stats.ft.transport.sent) / frames;
          }),
          "count");
  rep.add("net.reliable.retransmit_ratio", med([](const CallResult& r) {
            const auto& t = r.stats.ft.transport;
            return t.sent ? double(t.retransmits) / double(t.sent) : 0.0;
          }),
          "ratio", "[base: net.reliable sent]");
  rep.add("net.reliable.no_credit_per_frame", med([&](const CallResult& r) {
            return double(r.stats.ft.transport.no_credit) / frames;
          }),
          "count");
  rep.add("net.reliable.abandoned", med([](const CallResult& r) {
            return double(r.stats.ft.transport.abandoned);
          }),
          "count", "[per engine call]");
  rep.add("net.fabric.msgs_per_frame", med([&](const CallResult& r) {
            uint64_t m = 0;
            for (const net::NodeCounters& c : r.stats.node_counters)
              m += c.sent_messages;
            return double(m) / frames;
          }),
          "count");
  const proto::Topology topo{wl.k, tiles};
  auto wire_sum = [&](const CallResult& r, auto src_ok, auto dst_ok) {
    uint64_t b = 0;
    for (int s = 0; s < topo.nodes(); ++s)
      for (int d = 0; d < topo.nodes(); ++d)
        if (src_ok(s) && dst_ok(d)) b += r.stats.wire.traffic.at(s, d);
    return double(b) / frames;
  };
  auto is_root = [&](int n) { return n == topo.root(); };
  auto is_split = [&](int n) { return n != topo.root() && !topo.is_decoder(n); };
  auto is_dec = [&](int n) { return topo.is_decoder(n); };
  rep.add("proto.bytes_per_frame.root_to_splitter",
          med([&](const CallResult& r) { return wire_sum(r, is_root, is_split); }),
          "B");
  rep.add("proto.bytes_per_frame.splitter_to_decoder",
          med([&](const CallResult& r) { return wire_sum(r, is_split, is_dec); }),
          "B");
  rep.add("proto.bytes_per_frame.decoder_to_decoder",
          med([&](const CallResult& r) { return wire_sum(r, is_dec, is_dec); }),
          "B");
  rep.add("proto.control_bytes_per_frame", med([&](const CallResult& r) {
            return double(r.stats.wire.control.total()) / frames;
          }),
          "B");

  // --- Stage model. The wall is a pipeline, so it runs at the rate of its
  // slowest stage; but the splitter routes picture i's SPs only once every
  // decoder acked picture i-1, so on the decoder side tile work and the
  // ack -> SP -> exchange deliveries add up into one loop per picture.
  const double root_s = median(scan_us) * 1e-6 + acc.pack_pic_s / pics;
  const double split_s =
      (acc.unpack_pic_s + acc.split_s + acc.pack_sp_s) / pics / wl.k;
  const double work_s = mean(acc.decoder_stage_s);
  const double sp_s = percentile(deliver, 0.5).value;
  const double net_s = ack_s + sp_s + x_s;
  const double loop_s = work_s + net_s;
  const double period_s = std::max({root_s, split_s, loop_s});
  const char* bound =
      period_s == root_s    ? "root"
      : period_s == split_s ? "mb_splitter"
      : work_s >= net_s     ? "tile_decoder"
                            : "transport";
  const double predicted = 1.0 / period_s;
  std::printf("bound table (%s, replay over %d pictures, %d serial)\n",
              wl.name, acc.pictures, acc.serial_pictures);
  std::printf("  %-26s %9s %9s  %s\n", "stage", "ms/pic", "fps cap",
              "what");
  auto row = [&](const char* name, double s, const char* what) {
    std::printf("  %-26s %9.3f %9.1f  %s\n", name, s * 1e3, 1.0 / s, what);
  };
  row("root", root_s, "start-code scan + pack_picture");
  row("split / k", split_s, "unpack + MacroblockSplitter::split + pack_sp");
  row("decoder loop", loop_s, "tile work + transport (go-ahead serializes)");
  row("  tile work", work_s,
      "slowest tile: SP unpack, MEI serve/install, exchange codec, decode");
  row("  transport", net_s, "ack + SP + exchange delivery (ReliableEndpoint)");
  const double engine_dec_s =
      double(er.engine_decode_ns) * 1e-9 / double(std::max<uint64_t>(1, er.engine_decodes));
  const double replay_dec_s = acc.decode_s / (pics * tiles);
  std::printf("  tile decode: %.3f ms/pic in the engine (obs decode_sp spans, "
              "%" PRIu64 ") vs %.3f ms replayed alone (x%.2f)\n",
              engine_dec_s * 1e3, er.engine_decodes, replay_dec_s * 1e3,
              engine_dec_s / replay_dec_s);
  std::printf("  bounding layer: %s; predicted %.1f fps, measured %.1f fps "
              "(median of %zu untraced calls)\n",
              bound, predicted, measured_fps, fps_plain.size());
  rep.add("tile_decoder.engine_over_replay", engine_dec_s / replay_dec_s,
          "ratio", "[base: replayed tile decode per picture]");
  rep.add("bound.predicted_fps", predicted, "1/s",
          std::string("[bounding layer: ") + bound + "]");
  rep.add("bound.error_pct", (predicted - measured_fps) / measured_fps * 100,
          "%", "[base: measured fps]");
  rep.add("trace.overhead_pct",
          (measured_fps / median(fps_traced) - 1.0) * 100, "%",
          "[untraced vs obs-traced engine calls, " +
              std::to_string(fps_plain.size()) + "+" +
              std::to_string(fps_traced.size()) + "]");

  // --- Self time per span name.
  {
    const std::vector<uint64_t> self = rec.self_ns();
    std::map<std::string, std::pair<uint64_t, uint64_t>> by;  // count, ns
    for (size_t i = 0; i < rec.spans().size(); ++i) {
      auto& e = by[rec.spans()[i].name];
      ++e.first;
      e.second += self[i];
    }
    std::printf("span self time (%zu spans)\n", rec.spans().size());
    for (const auto& [name, e] : by)
      std::printf("  %-26s n=%-7" PRIu64 " self %.3f ms total\n", name.c_str(),
                  e.first, double(e.second) * 1e-6);
  }
  if (!a.spans.empty()) {
    if (!rec.write_json(a.spans)) {
      std::fprintf(stderr, "cannot write span file %s\n", a.spans.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", a.spans.c_str());
  }

  const uint64_t failed = er.failed + acc.mismatches;
  const uint64_t attempted = er.attempted + acc.tiles_checked / uint64_t(tiles);
  const bool ok = acc.mismatches == 0 && er.failed == 0 && !fps_plain.empty() &&
                  !fps_traced.empty();
  print_result(ok, attempted, failed, rep.json);
  return 0;
}

bool parse(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--stream-digest") {
      a->stream_digest = true;
      continue;
    }
    if (!(v = val())) return false;
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::atoi(v);
    else if (k == "--spans") a->spans = v;
    else if (k == "--source-id") a->source_id = v;
    else return false;
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans FILE] [--source-id ID]\n"
                 "       wallbench --stream-digest --workload NAME --seed N\n");
    return 2;
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (a.workload == w.name) wl = &w;
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  if (a.stream_digest) {
    video::StreamSpec spec = video::stream_by_id(wl->stream_id);
    spec.scene_seed = scene_seed_for(a.seed, wl->stream_id);
    const std::vector<uint8_t> es = video::load_stream(spec, wl->frames);
    const size_t whole = es.size() & ~size_t(7);
    uint8_t tail[8] = {};
    std::memcpy(tail, es.data() + whole, es.size() - whole);
    Digest d;
    d.feed(es.data(), whole);
    d.feed(tail, 8);
    std::printf("stream %s seed=%" PRIu64 " bytes=%zu digest=%016" PRIx64 "\n",
                wl->name, a.seed, es.size(), d.finish() ^ es.size());
    return 0;
  }
  const Prep p = prepare(*wl, a.seed);
  print_fingerprint(p, a.source_id);
  std::fflush(stdout);
  return a.trace ? run_traced(p, a) : run_untraced(p, a);
}
