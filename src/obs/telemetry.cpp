#include "obs/telemetry.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>

#include "common/bytes.h"

namespace pdw::obs {

namespace {

constexpr size_t kHeaderBytes = 4 + 2 + 2 + 8 + 4 + 2;
constexpr size_t kMaxSpansPerRecord = 2000;  // 31 B each, fits a u16 length

uint64_t steady_ticks() {
  return uint64_t(std::chrono::steady_clock::now().time_since_epoch().count());
}

}  // namespace

std::vector<uint8_t> encode_frame(const TelemetryFrame& f) {
  // Per-frame string table, first-use order.
  std::vector<std::string_view> strings;
  std::map<std::string_view, uint16_t> index;
  auto intern = [&](std::string_view s) {
    auto [it, fresh] = index.try_emplace(s, uint16_t(strings.size()));
    if (fresh) strings.push_back(s);
    return it->second;
  };
  for (const auto& m : f.metrics) intern(m.family);
  for (const auto& s : f.spans) intern(s.name);

  std::vector<uint8_t> body;
  ByteWriter w(&body);
  uint16_t records = 0;
  auto begin_record = [&](TelemetryRecordType t) {
    w.u8(uint8_t(t));
    w.u16(0);  // length, patched by end_record
    ++records;
    return body.size();
  };
  auto end_record = [&](size_t payload_start) {
    const size_t len = body.size() - payload_start;
    body[payload_start - 2] = uint8_t(len);
    body[payload_start - 1] = uint8_t(len >> 8);
  };

  if (!strings.empty()) {
    const size_t at = begin_record(TelemetryRecordType::kStrings);
    w.u16(uint16_t(strings.size()));
    for (std::string_view s : strings) {
      const size_t len = std::min<size_t>(s.size(), 255);
      w.u8(uint8_t(len));
      w.bytes({reinterpret_cast<const uint8_t*>(s.data()), len});
    }
    end_record(at);
  }
  if (f.hello) {
    const size_t at = begin_record(TelemetryRecordType::kHello);
    w.u32(f.hello->os_pid);
    w.u16(f.hello->k);
    w.u16(f.hello->tiles);
    w.u16(f.hello->nodes);
    w.u16(uint16_t(f.hello->hosted.size()));
    for (uint16_t n : f.hello->hosted) w.u16(n);
    end_record(at);
  }
  for (const auto& pr : f.probes) {
    const size_t at = begin_record(TelemetryRecordType::kClockProbe);
    w.u32(pr.seq);
    w.u64(pr.t0);
    w.u32(pr.reply_to.ip);
    w.u16(pr.reply_to.port);
    end_record(at);
  }
  for (const auto& rp : f.replies) {
    const size_t at = begin_record(TelemetryRecordType::kClockReply);
    w.u32(rp.seq);
    w.u64(rp.t0);
    w.u64(rp.t1);
    w.u64(rp.t2);
    end_record(at);
  }
  if (f.offset) {
    const size_t at = begin_record(TelemetryRecordType::kOffset);
    w.u64(uint64_t(f.offset->offset_ns));
    w.u64(f.offset->min_rtt_ns);
    w.u32(f.offset->samples);
    w.u8(f.offset->valid);
    end_record(at);
  }
  for (const auto& m : f.metrics) {
    const size_t at = begin_record(TelemetryRecordType::kMetric);
    w.u16(index.at(m.family));
    w.u8(uint8_t(m.kind));
    w.u16(uint16_t(m.node));
    w.u16(uint16_t(m.stream));
    switch (m.kind) {
      case MetricKind::kCounter:
        w.u64(m.count);
        break;
      case MetricKind::kGauge:
        w.u64(uint64_t(m.gauge));
        break;
      case MetricKind::kHistogram:
        w.u64(m.count);
        w.u64(m.sum);
        w.u8(uint8_t(m.buckets.size()));
        for (const auto& [idx, cnt] : m.buckets) {
          w.u8(idx);
          w.u64(cnt);
        }
        break;
    }
    end_record(at);
  }
  for (size_t base = 0; base < f.spans.size(); base += kMaxSpansPerRecord) {
    const size_t count =
        std::min(kMaxSpansPerRecord, f.spans.size() - base);
    const size_t at = begin_record(TelemetryRecordType::kSpans);
    w.u16(uint16_t(count));
    for (size_t i = 0; i < count; ++i) {
      const SpanRecord& s = f.spans[base + i];
      w.u16(index.at(s.name));
      w.u8(uint8_t(s.ph));
      w.u32(uint32_t(s.pid));
      w.u32(uint32_t(s.tid));
      w.u64(s.ts_ns);
      w.u64(s.dur_ns);
      w.u32(s.pic);
    }
    end_record(at);
  }
  if (f.bye) {
    const size_t at = begin_record(TelemetryRecordType::kBye);
    end_record(at);
  }

  std::vector<uint8_t> out;
  out.reserve(kHeaderBytes + body.size());
  ByteWriter h(&out);
  h.u32(kTelemetryMagic);
  h.u16(kTelemetryVersion);
  h.u16(0);  // flags
  h.u64(f.token);
  h.u32(f.seq);
  h.u16(records);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

bool decode_frame(const uint8_t* data, size_t len, TelemetryFrame* out) {
  *out = TelemetryFrame{};
  ByteReader r({data, len});
  const uint32_t magic = r.u32();
  const uint16_t version = r.u16();
  r.u16();  // flags
  out->token = r.u64();
  out->seq = r.u32();
  const uint16_t records = r.u16();
  if (!r.ok() || magic != kTelemetryMagic || version != kTelemetryVersion)
    return false;

  std::vector<std::string> strings;
  for (uint16_t rec = 0; rec < records; ++rec) {
    const uint8_t type = r.u8();
    const uint16_t rlen = r.u16();
    ByteReader pr(r.bytes(rlen));
    if (!r.ok()) return false;
    switch (TelemetryRecordType(type)) {
      case TelemetryRecordType::kStrings: {
        const uint16_t count = pr.u16();
        for (uint16_t i = 0; i < count && pr.ok(); ++i) {
          const auto str = pr.bytes(pr.u8());
          strings.emplace_back(reinterpret_cast<const char*>(str.data()),
                               str.size());
        }
        break;
      }
      case TelemetryRecordType::kHello: {
        HelloRecord h;
        h.os_pid = pr.u32();
        h.k = pr.u16();
        h.tiles = pr.u16();
        h.nodes = pr.u16();
        const uint16_t count = pr.u16();
        for (uint16_t i = 0; i < count && pr.ok(); ++i)
          h.hosted.push_back(pr.u16());
        if (pr.ok()) out->hello = std::move(h);
        break;
      }
      case TelemetryRecordType::kClockProbe: {
        ClockProbeRecord p;
        p.seq = pr.u32();
        p.t0 = pr.u64();
        p.reply_to.ip = pr.u32();
        p.reply_to.port = pr.u16();
        if (pr.ok()) out->probes.push_back(p);
        break;
      }
      case TelemetryRecordType::kClockReply: {
        ClockReplyRecord p;
        p.seq = pr.u32();
        p.t0 = pr.u64();
        p.t1 = pr.u64();
        p.t2 = pr.u64();
        if (pr.ok()) out->replies.push_back(p);
        break;
      }
      case TelemetryRecordType::kOffset: {
        OffsetRecord o;
        o.offset_ns = int64_t(pr.u64());
        o.min_rtt_ns = pr.u64();
        o.samples = pr.u32();
        o.valid = pr.u8();
        if (pr.ok()) out->offset = o;
        break;
      }
      case TelemetryRecordType::kMetric: {
        MetricRecord m;
        const uint16_t fam = pr.u16();
        if (fam >= strings.size()) return false;
        m.family = strings[fam];
        m.kind = MetricKind(pr.u8());
        m.node = int16_t(pr.u16());
        m.stream = int16_t(pr.u16());
        switch (m.kind) {
          case MetricKind::kCounter:
            m.count = pr.u64();
            break;
          case MetricKind::kGauge:
            m.gauge = int64_t(pr.u64());
            break;
          case MetricKind::kHistogram: {
            m.count = pr.u64();
            m.sum = pr.u64();
            const uint8_t nb = pr.u8();
            for (uint8_t i = 0; i < nb && pr.ok(); ++i) {
              const uint8_t idx = pr.u8();
              const uint64_t cnt = pr.u64();
              if (idx >= Histogram::kBuckets) return false;
              m.buckets.emplace_back(idx, cnt);
            }
            break;
          }
          default:
            return false;
        }
        if (pr.ok()) out->metrics.push_back(std::move(m));
        break;
      }
      case TelemetryRecordType::kSpans: {
        const uint16_t count = pr.u16();
        for (uint16_t i = 0; i < count && pr.ok(); ++i) {
          SpanRecord s;
          const uint16_t name = pr.u16();
          if (name >= strings.size()) return false;
          s.name = strings[name];
          s.ph = char(pr.u8());
          s.pid = int32_t(pr.u32());
          s.tid = int32_t(pr.u32());
          s.ts_ns = pr.u64();
          s.dur_ns = pr.u64();
          s.pic = pr.u32();
          if (pr.ok()) out->spans.push_back(std::move(s));
        }
        break;
      }
      case TelemetryRecordType::kBye:
        out->bye = true;
        break;
      default:
        break;  // unknown record type: skip (forward compatibility)
    }
    if (!pr.ok()) return false;
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// ClockEstimator
// ---------------------------------------------------------------------------

void ClockEstimator::add_sample(uint64_t t0, uint64_t t1, uint64_t t2,
                                uint64_t t3) {
  // All arithmetic on signed deltas: the two clock domains have unrelated
  // epochs, so the raw stamps only make sense as differences.
  const int64_t rtt = int64_t(t3 - t0) - int64_t(t2 - t1);
  if (rtt < 0) return;  // nonsense sample (clock stepped / corrupt echo)
  const int64_t offset = (int64_t(t1 - t0) + int64_t(t2 - t3)) / 2;
  if (uint64_t(rtt) < min_rtt_ns_) {
    min_rtt_ns_ = uint64_t(rtt);
    offset_ns_ = offset;
  }
  ++samples_;
}

// ---------------------------------------------------------------------------
// TelemetryExporter
// ---------------------------------------------------------------------------

TelemetryExporter::TelemetryExporter(TelemetryExporterConfig cfg)
    : cfg_(std::move(cfg)) {
  token_ = (uint64_t(::getpid()) << 40) ^ steady_ticks() ^
           (uint64_t(reinterpret_cast<uintptr_t>(this)) << 17);
  if (token_ == 0) token_ = 1;
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = 0;
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return;
  }
  ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0)
    local_ = TelemetryEndpoint{kTelemetryLoopbackIp, ntohs(bound.sin_port)};
}

TelemetryExporter::~TelemetryExporter() {
  stop();
  if (fd_ >= 0) ::close(fd_);
}

Tracer& TelemetryExporter::tracer() const {
  return cfg_.tracer ? *cfg_.tracer : Tracer::global();
}

uint64_t TelemetryExporter::local_now_ns() const { return tracer().now_ns(); }

void TelemetryExporter::start() {
  if (started_ || fd_ < 0) return;
  started_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetryExporter::run_loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    lock.unlock();
    flush();
    lock.lock();
    stop_cv_.wait_for(
        lock, std::chrono::duration<double>(std::max(cfg_.interval_s, 0.01)),
        [this] { return stop_; });
  }
}

void TelemetryExporter::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (started_) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    thread_.join();
  }
  if (fd_ < 0) return;
  flush();
  TelemetryFrame bye;
  bye.bye = true;
  bye.offset = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    OffsetRecord o;
    o.offset_ns = clock_.offset_ns();
    o.min_rtt_ns = clock_.min_rtt_ns();
    o.samples = clock_.samples();
    o.valid = clock_.valid() ? 1 : 0;
    return o;
  }();
  bye.hello = HelloRecord{uint32_t(::getpid()), cfg_.k, cfg_.tiles, cfg_.nodes,
                          cfg_.hosted};
  send_frame(&bye);
}

void TelemetryExporter::send_frame(TelemetryFrame* frame) {
  if (fd_ < 0) return;
  frame->token = token_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    frame->seq = next_frame_seq_++;
  }
  const std::vector<uint8_t> wire = encode_frame(*frame);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_addr.s_addr = htonl(cfg_.collector.ip);
  to.sin_port = htons(cfg_.collector.port);
  const ssize_t sent =
      ::sendto(fd_, wire.data(), wire.size(), 0,
               reinterpret_cast<sockaddr*>(&to), sizeof(to));
  if (sent > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    ++datagrams_sent_;
    bytes_sent_ += uint64_t(sent);
  }
}

void TelemetryExporter::handle_reply(const ClockReplyRecord& r, uint64_t t3) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = outstanding_.find(r.seq);
  if (it == outstanding_.end()) return;  // Karn: stale or duplicated reply
  if (it->second.t0 != r.t0) return;     // corrupt echo
  outstanding_.erase(it);
  clock_.add_sample(r.t0, r.t1, r.t2, t3);
}

void TelemetryExporter::poll_replies() {
  if (fd_ < 0) return;
  uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) break;
    const uint64_t t3 = local_now_ns();
    TelemetryFrame f;
    if (!decode_frame(buf, size_t(n), &f)) continue;
    for (const auto& r : f.replies) handle_reply(r, t3);
  }
}

void TelemetryExporter::flush() {
  if (fd_ < 0) return;
  poll_replies();

  // --- clock probe, with a short wait so t3 is stamped on arrival ---
  uint32_t probe_seq = 0;
  {
    TelemetryFrame probe;
    ClockProbeRecord p;
    {
      std::lock_guard<std::mutex> lock(mu_);
      p.seq = probe_seq = next_probe_seq_++;
      // Bound the Karn table: a probe this old will never be answered.
      while (outstanding_.size() >= 64)
        outstanding_.erase(outstanding_.begin());
    }
    p.reply_to = cfg_.reply_to;
    p.t0 = local_now_ns();
    {
      std::lock_guard<std::mutex> lock(mu_);
      outstanding_[p.seq] = PendingProbe{p.t0};
    }
    probe.probes.push_back(p);
    send_frame(&probe);
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(std::max(cfg_.probe_wait_s, 0.0));
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (outstanding_.find(probe_seq) == outstanding_.end()) break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const auto remain =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    const int wait_ms = int(remain.count()) + 1;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, wait_ms) <= 0) break;
    poll_replies();
  }

  // --- gather export payload ---
  HelloRecord hello{uint32_t(::getpid()), cfg_.k, cfg_.tiles, cfg_.nodes,
                    cfg_.hosted};
  OffsetRecord offset;
  {
    std::lock_guard<std::mutex> lock(mu_);
    offset.offset_ns = clock_.offset_ns();
    offset.min_rtt_ns = clock_.min_rtt_ns();
    offset.samples = clock_.samples();
    offset.valid = clock_.valid() ? 1 : 0;
  }

  std::vector<MetricRecord> metrics;
  const MetricsSnapshot snap = registry_or_global(cfg_.metrics).snapshot();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const MetricValue& v : snap.values) {
      const auto key = std::make_tuple(v.family, v.labels.node,
                                       v.labels.stream, int(v.kind));
      const auto cur = std::make_tuple(v.count, v.sum, v.gauge);
      auto it = last_sent_.find(key);
      if (it != last_sent_.end() && it->second == cur) continue;
      last_sent_[key] = cur;
      MetricRecord m;
      m.family = v.family;
      m.node = int16_t(v.labels.node);
      m.stream = int16_t(v.labels.stream);
      m.kind = v.kind;
      m.count = v.count;
      m.gauge = v.gauge;
      m.sum = v.sum;
      for (const auto& [lower, cnt] : v.buckets)
        m.buckets.emplace_back(
            uint8_t(Histogram::bucket_index(lower)), cnt);
      metrics.push_back(std::move(m));
    }
  }

  std::vector<TraceEvent> fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tracer().drain_new(&trace_cursors_, &fresh);
  }

  // --- pack into frames under the datagram budget ---
  TelemetryFrame frame;
  frame.hello = hello;
  frame.offset = offset;
  size_t est = 128;
  auto maybe_ship = [&](size_t add) {
    if (est + add <= cfg_.max_datagram_bytes * 3 / 4) {
      est += add;
      return;
    }
    send_frame(&frame);
    frame = TelemetryFrame{};
    est = 128 + add;
  };
  for (auto& m : metrics) {
    maybe_ship(32 + m.family.size() + m.buckets.size() * 9);
    frame.metrics.push_back(std::move(m));
  }
  for (const TraceEvent& e : fresh) {
    if (!e.name) continue;
    maybe_ship(48);
    SpanRecord s;
    s.name = e.name;
    s.ph = e.ph;
    s.pid = e.pid;
    s.tid = e.tid;
    s.ts_ns = e.ts_ns;
    s.dur_ns = e.dur_ns;
    s.pic = e.arg_pic;
    frame.spans.push_back(std::move(s));
  }
  send_frame(&frame);
}

ClockEstimator TelemetryExporter::clock() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_;
}

uint64_t TelemetryExporter::datagrams_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return datagrams_sent_;
}

uint64_t TelemetryExporter::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_sent_;
}

}  // namespace pdw::obs
