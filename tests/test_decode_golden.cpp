// Golden decode digests: the serial decoder's output for four catalog
// streams, pinned as FNV-1a digests at every supported kernel level.
//
// Every other decode gate compares the decoder with itself (wall == serial)
// or with a PSNR floor, so a slip in the shared parse/dequant/IDCT/MC path
// would pass them all. These digests pin the exact pixels. They were
// recorded with the dense per-block dequantiser, before dequantisation moved
// into the VLC run/level loop; a legitimate change to the encoder or to the
// catalog's scenes changes them and must re-record them deliberately.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <ostream>
#include <span>
#include <string>

#include "kernels/kernels.h"
#include "mpeg2/decoder.h"
#include "video/catalog.h"

namespace pdw {
namespace {

constexpr int kFrames = 24;

uint64_t fnv1a(uint64_t h, std::span<const uint8_t> bytes) {
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ull;

struct Golden {
  int stream_id;
  uint64_t stream_digest;  // the encoded elementary stream
  uint64_t decode_digest;  // every displayed frame, Y then Cb then Cr
};

// Recorded at 24 frames per stream.
constexpr Golden kGolden[] = {
    {1, 0x216ccaa6451cbcacull, 0x9ea24efe5429f923ull},
    {5, 0xead69946e453a69full, 0xda468232c15cf630ull},
    {8, 0xa5504b68d5fe42caull, 0xb9cb03c026f9d90cull},
    {11, 0xe107bfd56d5d3346ull, 0xa03c9dc56b110b80ull},
};

void PrintTo(const Golden& g, std::ostream* os) {
  *os << "stream " << g.stream_id;
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

class DecodeGolden : public ::testing::TestWithParam<Golden> {
 protected:
  // Streams are encoded afresh into a private cache directory, so a stale
  // shared cache can never stand in for the current encoder's output.
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("pdw_golden_" + std::to_string(::getpid())));
    std::filesystem::create_directories(*dir_);
    setenv("PDW_CACHE_DIR", dir_->c_str(), 1);
  }
  static void TearDownTestSuite() {
    unsetenv("PDW_CACHE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete dir_;
    dir_ = nullptr;
  }

 private:
  static std::filesystem::path* dir_;
};

std::filesystem::path* DecodeGolden::dir_ = nullptr;

uint64_t decode_digest(std::span<const uint8_t> es, int* frames) {
  uint64_t h = kFnvBasis;
  *frames = 0;
  mpeg2::Mpeg2Decoder dec;
  dec.decode(es, [&](const mpeg2::Frame& f, const mpeg2::DecodedPictureInfo&) {
    h = fnv1a(h, f.y.data());
    h = fnv1a(h, f.cb.data());
    h = fnv1a(h, f.cr.data());
    ++*frames;
  });
  return h;
}

TEST_P(DecodeGolden, OutputMatchesAtEveryKernelLevel) {
  const Golden& g = GetParam();
  const auto es = video::load_stream(video::stream_by_id(g.stream_id), kFrames);
  EXPECT_EQ(hex(fnv1a(kFnvBasis, es)), hex(g.stream_digest))
      << "stream " << g.stream_id
      << ": the encoded input changed, so the decode digest cannot match";

  const kernels::Level original = kernels::active_level();
  for (int i = 0; i < kernels::kLevelCount; ++i) {
    const auto level = kernels::Level(i);
    if (!kernels::set_active_level(level)) continue;
    int frames = 0;
    const uint64_t got = decode_digest(es, &frames);
    EXPECT_EQ(frames, kFrames) << "level " << kernels::level_name(level);
    EXPECT_EQ(hex(got), hex(g.decode_digest))
        << "stream " << g.stream_id << " at kernel level "
        << kernels::level_name(level);
  }
  ASSERT_TRUE(kernels::set_active_level(original));
}

INSTANTIATE_TEST_SUITE_P(CatalogStreams, DecodeGolden,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return "stream" +
                                  std::to_string(info.param.stream_id);
                         });

}  // namespace
}  // namespace pdw
