// The one little-endian byte codec behind every wire format: protocol
// message bodies (proto/wire), sub-pictures, datagram and rendezvous framing
// (net/) and telemetry frames (obs/telemetry).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/check.h"

namespace pdw {

// Two modes: append to a growable vector, or write into a fixed-capacity
// raw buffer (the pooled-serialization path, where the caller sized the
// buffer exactly via the *_wire_bytes() helpers and overflow is a bug).
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>* out) : out_(out) {}
  ByteWriter(uint8_t* buf, size_t capacity) : buf_(buf), cap_(capacity) {}

  void u8(uint8_t v) { append(&v, 1); }
  void u16(uint16_t v) { append(&v, 2); }
  void u32(uint32_t v) { append(&v, 4); }
  void u64(uint64_t v) { append(&v, 8); }
  void i16(int16_t v) { append(&v, 2); }
  void i32(int32_t v) { append(&v, 4); }
  void f64(double v) { append(&v, 8); }

  void bytes(std::span<const uint8_t> data) {
    append(data.data(), data.size());
  }

  size_t size() const { return out_ ? out_->size() : pos_; }

 private:
  void append(const void* p, size_t n) {
    if (n == 0) return;
    const auto* b = static_cast<const uint8_t*>(p);
    if (out_) {
      out_->insert(out_->end(), b, b + n);  // host is little-endian (x86/ARM LE)
    } else {
      PDW_CHECK_LE(pos_ + n, cap_);
      std::memcpy(buf_ + pos_, b, n);
      pos_ += n;
    }
  }

  std::vector<uint8_t>* out_ = nullptr;
  uint8_t* buf_ = nullptr;
  size_t cap_ = 0;
  size_t pos_ = 0;
};

// Reader for bytes that may come off a socket: it never throws and never
// reads out of bounds. The first overrun latches failure; from then on ok()
// is false, every read returns 0 and bytes() returns an empty span. A parser
// reads a whole structure and tests done() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  uint8_t u8() { return read<uint8_t>(); }
  uint16_t u16() { return read<uint16_t>(); }
  uint32_t u32() { return read<uint32_t>(); }
  uint64_t u64() { return read<uint64_t>(); }
  int16_t i16() { return read<int16_t>(); }
  int32_t i32() { return read<int32_t>(); }
  double f64() { return read<double>(); }

  std::span<const uint8_t> bytes(size_t n) {
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }

  // Vets an element count read off the wire before anything is sized from
  // it: false (and failed) when `n` elements of `elem_bytes` each cannot
  // fit in what is left of the body.
  bool count(size_t n, size_t elem_bytes) {
    if (elem_bytes != 0 && n > remaining() / elem_bytes) ok_ = false;
    return ok_;
  }

  bool ok() const { return ok_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  // Everything was read, without an overrun.
  bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool take(size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  template <typename T>
  T read() {
    T v{};
    if (take(sizeof(T)))
      std::memcpy(&v, data_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pdw
