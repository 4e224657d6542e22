// Unified metrics layer: one registry of typed metric families shared by all
// three engines (threaded pipeline, lockstep reference, DES).
//
// The paper's headline artifacts are observability products — Fig. 7's
// per-stage runtime breakdown, Fig. 9's bandwidth matrix, Table 4's frame
// rates — and before this layer every engine reconstructed them with bespoke
// stats structs (ClusterStats, FtStats, SplitStats, ...) that neither compose
// nor can be inspected on a live run. Here instead:
//
//   * a metric is a (family name, labels) pair: `pictures_decoded{node=6}`.
//     Labels carry the proto node id and the stream id, the two dimensions
//     every engine shares;
//   * instruments are lock-free on the hot path: Counter and Gauge are single
//     relaxed atomics, Histogram is a fixed array of atomic buckets. The
//     registry mutex is only taken when an instrument is first resolved —
//     callers resolve once and keep the pointer;
//   * Histogram uses fixed log2-scale buckets (bucket 0 = {0}, bucket i =
//     [2^(i-1), 2^i)), so per-thread shards merge by bucket-wise addition and
//     percentiles are deterministic: percentile(p) returns the lower bound of
//     the bucket holding the p-th sample;
//   * snapshot() is safe during a live run (wall_top polls it) and feeds the
//     JSON / text exporters in obs/export.h.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace pdw::obs {

// The two label dimensions shared by every engine. -1 means "not applicable"
// (process-wide metrics such as retransmit totals of a whole fabric).
struct Labels {
  int node = -1;    // proto::Topology node id
  int stream = -1;  // elementary stream id (multi-stream sessions)

  friend bool operator==(const Labels&, const Labels&) = default;
  friend auto operator<=>(const Labels&, const Labels&) = default;
};

// Monotonic counter. add() is a single relaxed fetch_add.
class Counter {
 public:
  void add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written level (queue depths, cursors).
class Gauge {
 public:
  void set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket log2-scale histogram of non-negative integer samples
// (durations in ns, sizes in bytes).
//
// Bucket layout: bucket 0 holds exactly the value 0; bucket i (1..64) holds
// [2^(i-1), 2^i). A power of two is therefore always the *lower edge* of its
// bucket, and percentile() reporting lower edges returns such samples
// exactly. observe() is two relaxed fetch_adds plus one on the bucket.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void observe(uint64_t v) {
    buckets_[size_t(bucket_index(v))].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const uint64_t n = count();
    return n ? double(sum()) / double(n) : 0.0;
  }
  uint64_t bucket(int i) const {
    return buckets_[size_t(i)].load(std::memory_order_relaxed);
  }

  // Lower bound of the bucket containing the ceil(p/100 * count)-th sample
  // (1-based); 0 for an empty histogram. p in [0, 100].
  uint64_t percentile(double p) const;
  uint64_t p50() const { return percentile(50); }
  uint64_t p95() const { return percentile(95); }
  uint64_t p99() const { return percentile(99); }

  // Bucket-wise accumulation — how per-thread shards combine.
  void merge(const Histogram& other);

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

  static int bucket_index(uint64_t v) {
    return v == 0 ? 0 : std::bit_width(v);
  }
  static uint64_t bucket_lower(int i) {
    return i == 0 ? 0 : uint64_t(1) << (i - 1);
  }

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

// Point-in-time copy of one metric, produced by MetricsRegistry::snapshot().
struct MetricValue {
  std::string family;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  uint64_t count = 0;  // counter value / histogram sample count
  int64_t gauge = 0;
  uint64_t sum = 0;  // histogram only
  uint64_t p50 = 0, p95 = 0, p99 = 0;
  // Non-empty histogram buckets as (lower bound, count) pairs.
  std::vector<std::pair<uint64_t, uint64_t>> buckets;
};

struct MetricsSnapshot {
  std::vector<MetricValue> values;  // sorted by (family, labels)

  // Sum of a counter family across all label sets.
  uint64_t counter_total(std::string_view family) const;
  // Value of one labeled counter (0 when absent).
  uint64_t counter_value(std::string_view family, Labels labels) const;
};

// Registry of metric families. Resolution (counter()/gauge()/histogram())
// takes a mutex and returns a stable reference — instruments are never
// deallocated before the registry — so hot paths resolve once and then only
// touch atomics. A process-wide default instance (global()) serves engines
// that were not handed an explicit registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view family, Labels labels = {});
  Gauge& gauge(std::string_view family, Labels labels = {});
  Histogram& histogram(std::string_view family, Labels labels = {});

  MetricsSnapshot snapshot() const;

  // Zero every registered instrument (the instruments themselves stay
  // registered and previously resolved references stay valid). Used by
  // tools that reuse the global registry across runs.
  void reset_values();

  static MetricsRegistry& global();

 private:
  using Key = std::pair<std::string, Labels>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

// Resolve `reg ? *reg : MetricsRegistry::global()` — the convention every
// engine uses for its optional registry parameter.
inline MetricsRegistry& registry_or_global(MetricsRegistry* reg) {
  return reg ? *reg : MetricsRegistry::global();
}

// Family names shared across engines, so the exporters and the equivalence
// tests agree on spelling. Engine-deterministic families (everything a
// fault-free run emits the same number of times in any engine) are the ones
// test_parallel_equivalence compares; heartbeat/control families are
// wall-clock driven and excluded by design.
namespace family {
inline constexpr char kPicturesDispatched[] = "pictures_dispatched";
inline constexpr char kPicturesSplit[] = "pictures_split";
inline constexpr char kPicturesDecoded[] = "pictures_decoded";
inline constexpr char kPicturesSkipped[] = "pictures_skipped";
inline constexpr char kSpBytesSent[] = "sp_bytes_sent";
inline constexpr char kExchangeBytesSent[] = "exchange_bytes_sent";
inline constexpr char kExchangeBytesRecv[] = "exchange_bytes_recv";
inline constexpr char kGoAheadsSeen[] = "go_aheads_seen";
inline constexpr char kAcksSent[] = "acks_sent";
inline constexpr char kAcksRecv[] = "acks_recv";
inline constexpr char kSkipBroadcasts[] = "skip_broadcasts";
inline constexpr char kDeathsDeclared[] = "deaths_declared";
inline constexpr char kAdoptions[] = "adoptions";
inline constexpr char kConcealedMbs[] = "concealed_mbs";
inline constexpr char kQueueDepth[] = "queue_depth";        // gauge
inline constexpr char kHeartbeatsSent[] = "heartbeats_sent";
inline constexpr char kHeartbeatsRecv[] = "heartbeats_recv";
inline constexpr char kControlBytes[] = "control_bytes";
inline constexpr char kRetransmits[] = "retransmits";
inline constexpr char kAbandonedSends[] = "abandoned_sends";
inline constexpr char kCrcDrops[] = "crc_drops";
// Received bodies a host dropped as undecodable: a protocol body that fails
// proto::decode_any, or an SpMsg whose sub-picture fails SubPicture::parse
// (that tile's picture then takes the skip path). The transport CRC already
// passed, so any count means a buggy or hostile sender.
inline constexpr char kMalformedMsgs[] = "malformed_msgs";
// Buffer-pool telemetry (src/mem). Misses are exactly the hot-path mallocs
// the pools exist to eliminate: the steady-state acceptance gate asserts the
// miss delta over a warmed-up run is zero. Global-registry only (pool state
// is process-wide), so engine-local registries stay engine-deterministic.
inline constexpr char kPoolHits[] = "pool_hits";
inline constexpr char kPoolMisses[] = "pool_misses";
inline constexpr char kPoolRecycles[] = "pool_recycles";
inline constexpr char kPoolBytesInFlight[] = "pool_bytes_in_flight";  // gauge
inline constexpr char kSurfacePoolHits[] = "surface_pool_hits";
inline constexpr char kSurfacePoolMisses[] = "surface_pool_misses";
inline constexpr char kSurfacePoolRecycles[] = "surface_pool_recycles";
inline constexpr char kSurfacePoolBytesInFlight[] =
    "surface_pool_bytes_in_flight";  // gauge
// Allocations that fell back to plain heap blocks because the pool byte
// budget was spent — the memory leg of the overload/backpressure signal
// (a growing value means current demand exceeds the configured budget).
inline constexpr char kPoolBudgetFallbacks[] = "pool_budget_fallbacks";
inline constexpr char kSurfacePoolBudgetFallbacks[] =
    "surface_pool_budget_fallbacks";
// Multi-tenant admission & QoS (src/proto/admission.h). Admission counters
// are unlabeled totals; the per-tenant families are labeled {stream} and
// feed wall_top's tenant table.
inline constexpr char kAdmissionAccepted[] = "admission_accepted";
inline constexpr char kAdmissionRejected[] = "admission_rejected";
inline constexpr char kAdmissionRenegotiated[] = "admission_renegotiated";
inline constexpr char kTenantAdmitted[] = "tenant_admitted";        // gauge
inline constexpr char kTenantPriorityClass[] = "tenant_priority";   // gauge
inline constexpr char kTenantDegradeLevel[] = "tenant_degrade";     // gauge
inline constexpr char kTenantPicturesShed[] = "tenant_pictures_shed";
inline constexpr char kTenantDeadlineMisses[] = "tenant_deadline_misses";
inline constexpr char kTenantDeadlineChecks[] = "tenant_deadline_checks";
// Socket-transport families (src/net/socket_fabric.h + adaptive RTO in
// src/net/reliable.h). Labeled {node = self}; wall-clock / link driven, so
// excluded from engine-equivalence comparisons by design.
inline constexpr char kRttNs[] = "rtt_ns";                  // histogram
inline constexpr char kRttJitterNs[] = "rtt_jitter_ns";     // histogram
inline constexpr char kSocketDatagramsTx[] = "socket_datagrams_tx";
inline constexpr char kSocketDatagramsRx[] = "socket_datagrams_rx";
inline constexpr char kSocketRxDrops[] = "socket_rx_drops";
inline constexpr char kSocketPeerUnreachable[] = "socket_peer_unreachable";
inline constexpr char kSplitNs[] = "split_ns";              // histogram
inline constexpr char kDecodeNs[] = "decode_ns";            // histogram
inline constexpr char kServeNs[] = "serve_ns";              // histogram
inline constexpr char kGoAheadWaitNs[] = "go_ahead_wait_ns";  // histogram
// Adaptive-partition dashboard mirror (src/proto/nodes.cpp publishes these
// on every install, wall_top --partitions and --remote read them). Cut
// gauges are labeled {node = cut index} on the m×n grid.
inline constexpr char kPartitionEpoch[] = "partition_epoch";          // gauge
inline constexpr char kPartitionColCutMb[] = "partition_col_cut_mb";  // gauge
inline constexpr char kPartitionRowCutMb[] = "partition_row_cut_mb";  // gauge
// Flight recorder (src/obs/flight.h): post-mortem dumps written so far.
inline constexpr char kFlightDumps[] = "flight_dumps";
}  // namespace family

}  // namespace pdw::obs
