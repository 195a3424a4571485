#include "telemetry/gorilla.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <span>
#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace dust::telemetry {
namespace {

TEST(BitWriter, SingleBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  w.write_bit(true);
  EXPECT_EQ(w.bit_count(), 3u);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_TRUE(r.exhausted());
}

TEST(BitWriter, MultiBitValuesRoundTrip) {
  BitWriter w;
  w.write_bits(0b10110, 5);
  w.write_bits(0xdeadbeefcafebabeULL, 64);
  w.write_bits(0, 1);
  BitReader r(w.bytes(), w.bit_count());
  EXPECT_EQ(r.read_bits(5), 0b10110u);
  EXPECT_EQ(r.read_bits(64), 0xdeadbeefcafebabeULL);
  EXPECT_EQ(r.read_bits(1), 0u);
}

TEST(BitWriter, RejectsOver64) {
  BitWriter w;
  EXPECT_THROW(w.write_bits(0, 65), std::invalid_argument);
}

TEST(BitReader, ReadPastEndThrows) {
  BitWriter w;
  w.write_bit(true);
  BitReader r(w.bytes(), w.bit_count());
  r.read_bit();
  EXPECT_THROW(r.read_bit(), std::out_of_range);
}

std::vector<Sample> roundtrip(const std::vector<Sample>& in) {
  CompressedBlock block;
  for (const Sample& s : in) block.append(s);
  return block.decode();
}

TEST(CompressedBlock, EmptyDecodesEmpty) {
  CompressedBlock block;
  EXPECT_TRUE(block.decode().empty());
  EXPECT_EQ(block.sample_count(), 0u);
}

TEST(CompressedBlock, SingleSample) {
  const std::vector<Sample> in{{1234567890123LL, 3.14159}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RegularIntervalConstantValue) {
  std::vector<Sample> in;
  for (int i = 0; i < 100; ++i) in.push_back({1000LL * i, 42.0});
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RegularSeriesCompressesWell) {
  CompressedBlock block;
  for (int i = 0; i < 1000; ++i)
    block.append({1000LL * i, 42.0});
  // Constant value + constant delta: ~1 bit/timestamp + 1 bit/value.
  EXPECT_GT(block.compression_ratio(), 20.0);
}

TEST(CompressedBlock, IrregularTimestamps) {
  std::vector<Sample> in{{0, 1.0},   {7, 2.0},     {8, 3.0},
                         {500, 4.0}, {40000, 5.0}, {40001, 6.0}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, LargeTimestampJumps) {
  std::vector<Sample> in{{0, 1.0},
                         {1LL << 40, 2.0},
                         {(1LL << 40) + 5, 3.0},
                         {(1LL << 41), 4.0}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, NegativeAndExtremeValues) {
  std::vector<Sample> in{{0, -1.5},
                         {1, 0.0},
                         {2, -0.0},
                         {3, 1e300},
                         {4, -1e-300},
                         {5, std::numeric_limits<double>::max()}};
  const auto out = roundtrip(in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].timestamp_ms, in[i].timestamp_ms);
    EXPECT_EQ(std::signbit(out[i].value), std::signbit(in[i].value));
    EXPECT_EQ(out[i].value, in[i].value);
  }
}

TEST(CompressedBlock, EqualTimestampsAllowed) {
  std::vector<Sample> in{{5, 1.0}, {5, 2.0}, {5, 3.0}};
  EXPECT_EQ(roundtrip(in), in);
}

TEST(CompressedBlock, RejectsDecreasingTimestamps) {
  CompressedBlock block;
  block.append({10, 1.0});
  EXPECT_THROW(block.append({9, 2.0}), std::invalid_argument);
}

TEST(CompressedBlock, TracksTimestampRange) {
  CompressedBlock block;
  block.append({100, 1.0});
  block.append({200, 2.0});
  block.append({350, 3.0});
  EXPECT_EQ(block.first_timestamp_ms(), 100);
  EXPECT_EQ(block.last_timestamp_ms(), 350);
  EXPECT_EQ(block.sample_count(), 3u);
}

// --- bit-stream reference and pins ------------------------------------------

/// Bit-at-a-time reference for the word-at-a-time BitWriter/BitReader.
struct ReferenceBits {
  std::vector<std::uint8_t> bytes;
  std::size_t bit_count = 0;

  void put(std::uint64_t value, unsigned bits) {
    for (unsigned i = bits; i-- > 0;) {
      if (bit_count % 8 == 0) bytes.push_back(0);
      if ((value >> i) & 1u)
        bytes.back() |= static_cast<std::uint8_t>(0x80u >> (bit_count % 8));
      ++bit_count;
    }
  }
  std::uint64_t get(std::size_t pos, unsigned bits) const {
    std::uint64_t value = 0;
    for (unsigned i = 0; i < bits; ++i, ++pos)
      value = (value << 1) | ((bytes[pos / 8] >> (7 - pos % 8)) & 1u);
    return value;
  }
};

std::vector<std::uint8_t> bytes_of(std::span<const std::uint8_t> view) {
  return {view.begin(), view.end()};
}

std::uint64_t low_bits(std::uint64_t value, unsigned bits) {
  return bits == 64 ? value : value & ((std::uint64_t{1} << bits) - 1);
}

TEST(BitWriter, WriteBitsMatchesPerBitReferenceAtEveryOffset) {
  util::Rng rng(0xb175);
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      BitWriter w;
      ReferenceBits ref;
      const std::uint64_t head = rng();
      w.write_bits(head, offset);
      ref.put(head, offset);
      const std::uint64_t value = rng();  // garbage above `width` too
      w.write_bits(value, width);
      ref.put(value, width);
      const std::uint64_t tail = rng();
      w.write_bits(tail, 13);
      ref.put(tail, 13);
      ASSERT_EQ(w.bit_count(), ref.bit_count) << offset << "/" << width;
      ASSERT_EQ(bytes_of(w.bytes()), ref.bytes) << offset << "/" << width;

      BitReader r(ref.bytes, ref.bit_count);
      EXPECT_EQ(r.read_bits(offset), low_bits(head, offset));
      EXPECT_EQ(r.read_bits(width), low_bits(value, width))
          << offset << "/" << width;
      // A read that ends exactly at bit_count succeeds...
      EXPECT_EQ(r.read_bits(13), low_bits(tail, 13));
      EXPECT_TRUE(r.exhausted());
      // ...and one bit past it fails.
      EXPECT_THROW(r.read_bits(1), std::out_of_range);
    }
  }
}

TEST(BitWriter, RandomFieldSequencesMatchPerBitReference) {
  util::Rng rng(0xf1e1d5);
  for (int round = 0; round < 200; ++round) {
    BitWriter w;
    ReferenceBits ref;
    std::vector<unsigned> widths;
    const int fields = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < fields; ++i) {
      const auto width = static_cast<unsigned>(rng.below(65));
      const std::uint64_t value = rng();
      w.write_bits(value, width);
      ref.put(value, width);
      widths.push_back(width);
      // bytes() and bit_count() describe the stream after every call.
      ASSERT_EQ(w.bit_count(), ref.bit_count);
      ASSERT_EQ(bytes_of(w.bytes()), ref.bytes);
    }
    BitReader r(w.bytes(), w.bit_count());
    std::size_t pos = 0;
    for (unsigned width : widths) {
      ASSERT_EQ(r.read_bits(width), ref.get(pos, width));
      pos += width;
    }
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(BitReader, ReadsRunningPastEndThrowAtEveryOffset) {
  util::Rng rng(0x0ff5e7);
  for (unsigned total = 1; total <= 80; ++total) {
    BitWriter w;
    w.write_bits(rng(), total > 64 ? 64 : total);
    if (total > 64) w.write_bits(rng(), total - 64);
    for (unsigned skip = 0; skip < 8 && skip <= total; ++skip) {
      const unsigned rest = total - skip;
      if (rest <= 64) {
        BitReader exact(w.bytes(), w.bit_count());
        exact.read_bits(skip);
        EXPECT_NO_THROW(exact.read_bits(rest));
        EXPECT_TRUE(exact.exhausted());
      }
      if (rest + 1 <= 64) {
        BitReader over(w.bytes(), w.bit_count());
        over.read_bits(skip);
        EXPECT_THROW(over.read_bits(rest + 1), std::out_of_range)
            << total << "/" << skip;
      }
    }
  }
}

TEST(BitWriter, IgnoresValueBitsAboveWidthAndReadZeroIsNoop) {
  BitWriter masked;
  masked.write_bits(~std::uint64_t{0} << 3 | 0b101, 3);
  masked.write_bits(0xffff'ffff'ffff'ff00ULL, 8);
  BitWriter clean;
  clean.write_bits(0b101, 3);
  clean.write_bits(0, 8);
  EXPECT_EQ(bytes_of(masked.bytes()), bytes_of(clean.bytes()));
  EXPECT_EQ(masked.bit_count(), 11u);

  BitReader r(clean.bytes(), clean.bit_count());
  EXPECT_EQ(r.read_bits(0), 0u);
  EXPECT_EQ(r.read_bits(3), 0b101u);  // the zero-width read did not advance
  EXPECT_EQ(r.read_bits(0), 0u);
  EXPECT_EQ(r.read_bits(8), 0u);
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(r.read_bits(0), 0u);  // zero bits at the end is not past it
}

struct Fnv1a {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// Series covering every encoder branch: the dod buckets at and one past
/// each edge, the 64-bit escape, negative/equal timestamps, XOR windows of
/// every width, and constants.
std::vector<std::vector<Sample>> pinned_series() {
  std::vector<std::vector<Sample>> all;
  util::Rng rng(0x9e11a);

  std::vector<Sample> random_doubles;  // arbitrary 64-bit patterns
  std::int64_t t = 1'000'000;
  for (int i = 0; i < 700; ++i) {
    random_doubles.push_back({t, std::bit_cast<double>(rng())});
    t += static_cast<std::int64_t>(rng.below(5000));
  }
  all.push_back(random_doubles);

  std::vector<Sample> constant;
  for (int i = 0; i < 300; ++i) constant.push_back({1000LL * i, 42.0});
  all.push_back(constant);

  std::vector<Sample> walk;  // 0.1-resolution random walk
  std::int64_t tenths = 500;
  for (int i = 0; i < 1024; ++i) {
    walk.push_back({5000LL + 1000LL * i + static_cast<std::int64_t>(rng.below(3)),
                    static_cast<double>(tenths) * 0.1});
    tenths += static_cast<std::int64_t>(rng.below(21)) - 10;
  }
  all.push_back(walk);

  // dod at each bucket edge (±63, ±255, ±2047) and past it.
  std::vector<Sample> dod_edges;
  t = 0;
  std::int64_t delta = 10'000;
  dod_edges.push_back({t, 1.0});
  t += delta;
  dod_edges.push_back({t, 2.0});
  for (std::int64_t dod : {-63LL, 63LL, -64LL, 65LL, -255LL, 255LL, -256LL,
                            257LL, -2047LL, 2047LL, -2048LL, 2049LL}) {
    delta += dod;  // the list sums to 3: delta stays near 10 s
    t += delta;
    dod_edges.push_back({t, static_cast<double>(dod)});
  }
  all.push_back(dod_edges);

  std::vector<Sample> escape;  // 64-bit dod escape, huge first timestamp
  t = -(1LL << 62);
  for (std::int64_t step : {1LL << 40, 3LL, 1LL << 61, 0LL, (1LL << 61) + 7,
                            5LL, 1LL << 33}) {
    escape.push_back({t, std::bit_cast<double>(rng())});
    t += step;
  }
  all.push_back(escape);

  std::vector<Sample> negative_equal;  // negative and equal timestamps
  for (std::int64_t ts : {-5000LL, -5000LL, -4999LL, -4000LL, -4000LL, -4000LL,
                          -1LL, 0LL, 0LL, 7LL})
    negative_equal.push_back({ts, static_cast<double>(ts) * 0.25});
  all.push_back(negative_equal);

  std::vector<Sample> windows;  // XOR windows: width 1, 64, reuse, >31 cap
  std::uint64_t bits = 0x4045000000000000ULL;
  for (std::uint64_t x :
       {1ULL << 63, 1ULL, ~0ULL, 0ULL, 0xff0ULL, 0x0f0ULL, 0xffff0000ULL,
        1ULL << 40, 0x8000000000000001ULL, 0x1ULL << 20}) {
    bits ^= x;
    windows.push_back({static_cast<std::int64_t>(windows.size()),
                       std::bit_cast<double>(bits)});
  }
  all.push_back(windows);
  return all;
}

TEST(GorillaCodec, EncodeBytesPinned) {
  Fnv1a fnv;
  for (const std::vector<Sample>& series : pinned_series()) {
    CompressedBlock block;
    for (const Sample& s : series) block.append(s);
    fnv.u64(block.payload_bit_count());
    for (std::uint8_t b : block.payload()) fnv.byte(b);
    const std::vector<Sample> decoded = block.decode();
    ASSERT_EQ(decoded.size(), series.size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      EXPECT_EQ(decoded[i].timestamp_ms, series[i].timestamp_ms);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded[i].value),
                std::bit_cast<std::uint64_t>(series[i].value));
      fnv.u64(static_cast<std::uint64_t>(decoded[i].timestamp_ms));
      fnv.u64(std::bit_cast<std::uint64_t>(decoded[i].value));
    }
  }
  // Taken from the bit-at-a-time codec: the word-at-a-time one must match.
  EXPECT_EQ(fnv.hash, 0xd8f55dc53d110a58ULL) << std::hex << "0x" << fnv.hash;
}

// A bucket's zig-zag field of w bits holds dod in [-2^(w-1), 2^(w-1) - 1].
// dod = +64, +256 and +2048 sit one past their bucket and must take the
// next one; squeezed into the narrow field, each decoded as dod 0.
TEST(GorillaCodec, PositiveBucketEdgesRoundTrip) {
  for (std::int64_t dod : {64LL, 256LL, 2048LL, -64LL, -256LL, -2048LL}) {
    const std::vector<Sample> in{
        {0, 1.0}, {5000, 2.0}, {10000 + dod, 3.0}, {15000 + dod, 4.0}};
    EXPECT_EQ(roundtrip(in), in) << "dod " << dod;
  }
}

TEST(CompressedBlock, DeserializeClearsPadBitsBeforeFurtherAppends) {
  CompressedBlock block;
  block.append({100, 1.5});
  block.append({200, 2.75});
  block.append({310, -3.0});
  ASSERT_NE(block.payload_bit_count() % 8, 0u);
  std::ostringstream os;
  block.serialize(os);
  std::string raw = os.str();
  // The payload is the stream's tail: set the last byte's pad bits.
  const unsigned pad = 8 - block.payload_bit_count() % 8;
  raw.back() = static_cast<char>(static_cast<std::uint8_t>(raw.back()) |
                                 ((1u << pad) - 1));
  std::istringstream is(raw);
  CompressedBlock restored = CompressedBlock::deserialize(is);
  EXPECT_EQ(bytes_of(restored.payload()), bytes_of(block.payload()));
  EXPECT_EQ(restored.payload_bit_count(), block.payload_bit_count());

  block.append({400, 3.0});
  restored.append({400, 3.0});
  EXPECT_EQ(bytes_of(restored.payload()), bytes_of(block.payload()));
  EXPECT_EQ(restored.decode(), block.decode());
}

class GorillaRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

// Property: lossless roundtrip for arbitrary monotone series.
TEST_P(GorillaRandomSweep, RandomWalkRoundTrip) {
  util::Rng rng(GetParam());
  std::vector<Sample> in;
  std::int64_t t = static_cast<std::int64_t>(rng.below(1000000));
  double v = rng.uniform(-100, 100);
  for (int i = 0; i < 500; ++i) {
    in.push_back({t, v});
    t += rng.below(5000);
    v += rng.normal(0.0, 3.0);
    if (rng.bernoulli(0.05)) v = rng.uniform(-1e6, 1e6);  // occasional jump
  }
  EXPECT_EQ(roundtrip(in), in);
}

// Property: smooth gauge-like series (the TSDB's actual workload) compress.
TEST_P(GorillaRandomSweep, SmoothSeriesCompress) {
  util::Rng rng(GetParam() ^ 0x51deca11);
  CompressedBlock block;
  double v = 50.0;
  for (int i = 0; i < 2000; ++i) {
    block.append({1000LL * i, v});
    if (rng.bernoulli(0.1)) v += rng.uniform(-1.0, 1.0);
  }
  EXPECT_GT(block.compression_ratio(), 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GorillaRandomSweep,
                         ::testing::Values(1u, 22u, 333u, 4444u, 55555u));

}  // namespace
}  // namespace dust::telemetry
