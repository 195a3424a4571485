#include "telemetry/gorilla.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace dust::telemetry {

namespace {

std::uint64_t load_be64(const std::uint8_t* at) noexcept {
  std::uint64_t word;
  std::memcpy(&word, at, sizeof word);
  if constexpr (std::endian::native == std::endian::little)
    word = __builtin_bswap64(word);
  return word;
}

void store_be64(std::uint8_t* at, std::uint64_t word) noexcept {
  if constexpr (std::endian::native == std::endian::little)
    word = __builtin_bswap64(word);
  std::memcpy(at, &word, sizeof word);
}

}  // namespace

void BitWriter::write_bits(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitWriter::write_bits: bits > 64");
  if (bits == 0) return;
  // The field spans at most 9 bytes from the tail byte; everything past the
  // written bits is zero, so OR-ing the top-aligned field in is exact. The
  // shift drops the bits of `value` above `bits`.
  const std::size_t at = bit_count_ / 8;
  const unsigned used = bit_count_ % 8;
  if (data_.size() < at + 9)
    data_.resize(std::max<std::size_t>(2 * data_.size(), at + 64));
  const std::uint64_t field = value << (64 - bits);
  std::uint8_t* out = data_.data() + at;
  store_be64(out, load_be64(out) | field >> used);
  if (used + bits > 64) out[8] = static_cast<std::uint8_t>(field << (8 - used));
  bit_count_ += bits;
}

BitWriter BitWriter::from_bytes(std::vector<std::uint8_t> data,
                                std::size_t bit_count) {
  if (data.size() != (bit_count + 7) / 8)
    throw std::invalid_argument("BitWriter::from_bytes: inconsistent sizes");
  if (bit_count % 8 != 0)  // later appends OR into the tail byte
    data.back() &= static_cast<std::uint8_t>(0xff00u >> (bit_count % 8));
  BitWriter writer;
  writer.data_ = std::move(data);
  writer.bit_count_ = bit_count;
  return writer;
}

bool BitReader::read_bit() {
  if (cursor_ >= bit_count_)
    throw std::out_of_range("BitReader: read past end");
  const bool bit =
      (data_[cursor_ / 8] >> (7 - cursor_ % 8)) & 1u;
  ++cursor_;
  return bit;
}

std::uint64_t BitReader::read_bits(unsigned bits) {
  if (bits > 64) throw std::invalid_argument("BitReader::read_bits: bits > 64");
  if (bits > bit_count_ - cursor_)
    throw std::out_of_range("BitReader: read past end");
  if (bits == 0) return 0;
  // Big-endian window of the (up to 9) bytes under the field: eight in one
  // load when the stream has them, byte by byte at its tail.
  const std::uint8_t* at = data_.data() + cursor_ / 8;
  const std::size_t left = data_.size() - cursor_ / 8;
  std::uint64_t window = 0;
  if (left >= 8) {
    window = load_be64(at);
  } else {
    for (std::size_t i = 0; i < left; ++i)
      window |= static_cast<std::uint64_t>(at[i]) << (56 - 8 * i);
  }
  const unsigned skip = cursor_ % 8;
  window <<= skip;
  if (skip + bits > 64) window |= at[8] >> (8 - skip);
  cursor_ += bits;
  return window >> (64 - bits);
}

namespace {

/// Zig-zag to keep small signed deltas in few bits.
std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace

void CompressedBlock::append(const Sample& sample) {
  if (count_ > 0 && sample.timestamp_ms < prev_timestamp_)
    throw std::invalid_argument("CompressedBlock: timestamps must not decrease");

  // --- timestamp ---
  if (count_ == 0) {
    first_timestamp_ = prev_timestamp_ = sample.timestamp_ms;
    writer_.write_bits(static_cast<std::uint64_t>(sample.timestamp_ms), 64);
  } else {
    const std::int64_t delta = sample.timestamp_ms - prev_timestamp_;
    const std::int64_t dod = delta - prev_delta_;
    if (dod == 0) {
      writer_.write_bit(false);
    } else if (dod >= -63 && dod <= 63) {
      writer_.write_bits(0b10, 2);
      writer_.write_bits(zigzag(dod), 7);
    } else if (dod >= -255 && dod <= 255) {
      writer_.write_bits(0b110, 3);
      writer_.write_bits(zigzag(dod), 9);
    } else if (dod >= -2047 && dod <= 2047) {
      writer_.write_bits(0b1110, 4);
      writer_.write_bits(zigzag(dod), 12);
    } else {
      writer_.write_bits(0b1111, 4);
      writer_.write_bits(zigzag(dod), 64);
    }
    prev_delta_ = delta;
    prev_timestamp_ = sample.timestamp_ms;
  }

  // --- value ---
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(sample.value);
  if (count_ == 0) {
    writer_.write_bits(bits, 64);
  } else {
    const std::uint64_t x = bits ^ prev_value_bits_;
    if (x == 0) {
      writer_.write_bit(false);
    } else {
      writer_.write_bit(true);
      auto leading = static_cast<unsigned>(std::countl_zero(x));
      auto trailing = static_cast<unsigned>(std::countr_zero(x));
      if (leading > 31) leading = 31;  // cap so the window field fits
      if (has_window_ && leading >= prev_leading_ && trailing >= prev_trailing_) {
        // Fits in the previous meaningful-bit window.
        writer_.write_bit(false);
        const unsigned length = 64 - prev_leading_ - prev_trailing_;
        writer_.write_bits(x >> prev_trailing_, length);
      } else {
        writer_.write_bit(true);
        const unsigned length = 64 - leading - trailing;
        writer_.write_bits(leading, 6);
        writer_.write_bits(length - 1, 6);  // length in [1, 64]
        writer_.write_bits(x >> trailing, length);
        prev_leading_ = leading;
        prev_trailing_ = trailing;
        has_window_ = true;
      }
    }
    prev_value_bits_ = bits;
  }
  if (count_ == 0) prev_value_bits_ = bits;
  ++count_;
}

std::vector<Sample> CompressedBlock::decode() const {
  std::vector<Sample> samples;
  samples.reserve(count_);
  if (count_ == 0) return samples;
  BitReader reader(writer_.bytes(), writer_.bit_count());

  std::int64_t timestamp =
      static_cast<std::int64_t>(reader.read_bits(64));
  std::uint64_t value_bits = reader.read_bits(64);
  samples.push_back(Sample{timestamp, std::bit_cast<double>(value_bits)});

  std::int64_t delta = 0;
  unsigned leading = 0, trailing = 0;
  for (std::size_t i = 1; i < count_; ++i) {
    // timestamp
    std::int64_t dod = 0;
    if (!reader.read_bit()) {
      dod = 0;
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(7));
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(9));
    } else if (!reader.read_bit()) {
      dod = unzigzag(reader.read_bits(12));
    } else {
      dod = unzigzag(reader.read_bits(64));
    }
    delta += dod;
    timestamp += delta;
    // value
    if (reader.read_bit()) {
      if (reader.read_bit()) {
        leading = static_cast<unsigned>(reader.read_bits(6));
        const unsigned length = static_cast<unsigned>(reader.read_bits(6)) + 1;
        trailing = 64 - leading - length;
        value_bits ^= reader.read_bits(length) << trailing;
      } else {
        const unsigned length = 64 - leading - trailing;
        value_bits ^= reader.read_bits(length) << trailing;
      }
    }
    samples.push_back(Sample{timestamp, std::bit_cast<double>(value_bits)});
  }
  return samples;
}

namespace {

constexpr std::uint32_t kBlockMagic = 0x44535442;  // "DSTB"
constexpr std::uint32_t kBlockVersion = 1;

template <typename T>
void put(std::ostream& os, T value) {
  // Little-endian regardless of host (portable snapshots).
  for (std::size_t i = 0; i < sizeof(T); ++i)
    os.put(static_cast<char>((static_cast<std::uint64_t>(value) >> (8 * i)) &
                             0xff));
}

template <typename T>
T get(std::istream& is) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    const int byte = is.get();
    if (byte == std::char_traits<char>::eof())
      throw std::runtime_error("CompressedBlock: truncated stream");
    value |= static_cast<std::uint64_t>(byte & 0xff) << (8 * i);
  }
  return static_cast<T>(value);
}

}  // namespace

void CompressedBlock::serialize(std::ostream& os) const {
  put(os, kBlockMagic);
  put(os, kBlockVersion);
  put(os, static_cast<std::uint64_t>(count_));
  put(os, static_cast<std::uint64_t>(first_timestamp_));
  put(os, static_cast<std::uint64_t>(prev_timestamp_));
  put(os, static_cast<std::uint64_t>(prev_delta_));
  put(os, prev_value_bits_);
  put(os, static_cast<std::uint32_t>(prev_leading_));
  put(os, static_cast<std::uint32_t>(prev_trailing_));
  put(os, static_cast<std::uint8_t>(has_window_ ? 1 : 0));
  put(os, static_cast<std::uint64_t>(writer_.bit_count()));
  const std::span<const std::uint8_t> bytes = writer_.bytes();
  put(os, static_cast<std::uint64_t>(bytes.size()));
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

CompressedBlock CompressedBlock::deserialize(std::istream& is) {
  if (get<std::uint32_t>(is) != kBlockMagic)
    throw std::runtime_error("CompressedBlock: bad magic");
  if (get<std::uint32_t>(is) != kBlockVersion)
    throw std::runtime_error("CompressedBlock: unsupported version");
  CompressedBlock block;
  block.count_ = static_cast<std::size_t>(get<std::uint64_t>(is));
  block.first_timestamp_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_timestamp_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_delta_ = static_cast<std::int64_t>(get<std::uint64_t>(is));
  block.prev_value_bits_ = get<std::uint64_t>(is);
  block.prev_leading_ = get<std::uint32_t>(is);
  block.prev_trailing_ = get<std::uint32_t>(is);
  block.has_window_ = get<std::uint8_t>(is) != 0;
  const auto bit_count = static_cast<std::size_t>(get<std::uint64_t>(is));
  const auto byte_count = static_cast<std::size_t>(get<std::uint64_t>(is));
  if (byte_count != (bit_count + 7) / 8)
    throw std::runtime_error("CompressedBlock: inconsistent sizes");
  std::vector<std::uint8_t> payload(byte_count);
  is.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(byte_count));
  if (static_cast<std::size_t>(is.gcount()) != byte_count)
    throw std::runtime_error("CompressedBlock: truncated payload");
  block.writer_ = BitWriter::from_bytes(std::move(payload), bit_count);
  return block;
}

CompressedBlock CompressedBlock::from_wire(std::vector<std::uint8_t> payload,
                                           std::size_t bit_count,
                                           std::size_t sample_count,
                                           std::int64_t first_timestamp_ms,
                                           std::int64_t last_timestamp_ms,
                                           double last_value) {
  CompressedBlock block;
  block.writer_ = BitWriter::from_bytes(std::move(payload), bit_count);
  block.count_ = sample_count;
  block.first_timestamp_ = first_timestamp_ms;
  block.prev_timestamp_ = last_timestamp_ms;
  block.prev_value_bits_ = std::bit_cast<std::uint64_t>(last_value);
  return block;
}

double CompressedBlock::compression_ratio() const {
  if (count_ == 0) return 1.0;
  const double raw = static_cast<double>(count_) * 16.0;
  const double stored = static_cast<double>(compressed_bytes());
  return stored > 0 ? raw / stored : 1.0;
}

}  // namespace dust::telemetry
