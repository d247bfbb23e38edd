#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace pelican {

namespace {

// "PELD" — bumped from "PELC" when the header gained the checksum field,
// so pre-checksum checkpoints are rejected cleanly at the magic check
// instead of misreading their first payload word as a CRC.
constexpr std::uint32_t kMagic = 0x50454C44;
/// Byte offset of the header checksum field: magic + format version.
constexpr std::streamoff kChecksumOffset = 8;

static_assert(std::endian::native == std::endian::little,
              "serialization assumes a little-endian host");

/// Slice-by-8 tables: kCrcTables[0] is the bytewise table of the reflected
/// IEEE polynomial, and kCrcTables[s][b] is the CRC of byte b followed by s
/// zero bytes, so one lookup per byte of an 8-byte word advances the CRC by
/// the whole word.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[s - 1][i];
      tables[s][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 8> kCrcTables =
    make_crc_tables();

}  // namespace

std::uint32_t crc32(std::uint32_t crc, const void* data,
                    std::size_t bytes) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const auto& t = kCrcTables;
  crc ^= 0xFFFFFFFFu;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);  // little-endian: p[0] is lo's low byte
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; bytes > 0; ++p, --bytes) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

BinaryWriter::BinaryWriter(const std::filesystem::path& path,
                           std::uint32_t version)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw SerializeError("cannot open for writing: " + path.string());
  }
  write_u32(kMagic);
  write_u32(version);
  write_u32(0);  // checksum placeholder, patched by finish()
  header_done_ = true;
}

void BinaryWriter::write_raw(const void* data, std::size_t bytes) {
  if (bytes == 0) return;  // empty vectors hand us data() == nullptr
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) throw SerializeError("write failed");
  if (header_done_) crc_ = crc32(crc_, data, bytes);
}

void BinaryWriter::write_u8(std::uint8_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_f32(float v) { write_raw(&v, sizeof v); }
void BinaryWriter::write_f64(double v) { write_raw(&v, sizeof v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BinaryWriter::write_f32_span(std::span<const float> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BinaryWriter::write_u32_span(std::span<const std::uint32_t> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BinaryWriter::write_i8_span(std::span<const std::int8_t> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BinaryWriter::finish() {
  if (finished_) return;
  finished_ = true;
  // Patch the payload checksum into the header slot. Written directly (not
  // through write_raw) so the patch itself never feeds the CRC.
  out_.seekp(kChecksumOffset);
  out_.write(reinterpret_cast<const char*>(&crc_), sizeof crc_);
  out_.flush();
  if (!out_) throw SerializeError("flush failed");
  out_.close();
}

BinaryWriter::~BinaryWriter() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; explicit finish() reports errors.
  }
}

BinaryReader::BinaryReader(const std::filesystem::path& path,
                           std::uint32_t expected_version)
    : in_(path, std::ios::binary) {
  if (!in_) {
    throw SerializeError("cannot open for reading: " + path.string());
  }
  if (read_u32() != kMagic) {
    throw SerializeError("bad magic in " + path.string() +
                         " (not a checkpoint, or written before the "
                         "checksummed header format)");
  }
  const std::uint32_t version = read_u32();
  if (version != expected_version) {
    throw SerializeError("version mismatch in " + path.string() +
                         ": found " + std::to_string(version) + ", expected " +
                         std::to_string(expected_version));
  }
  verify_checksum(path, read_u32());
}

void BinaryReader::verify_checksum(const std::filesystem::path& path,
                                   std::uint32_t expected_crc) {
  // One sequential pass over the payload before any typed read: corruption
  // is reported at open, never as garbage weights mid-deserialization.
  const std::istream::pos_type payload_start = in_.tellg();
  std::uint32_t crc = 0;
  std::uint64_t payload_bytes = 0;
  char chunk[64 * 1024];
  while (in_) {
    in_.read(chunk, sizeof chunk);
    crc = crc32(crc, chunk, static_cast<std::size_t>(in_.gcount()));
    payload_bytes += static_cast<std::uint64_t>(in_.gcount());
  }
  if (!in_.eof()) {
    throw SerializeError("read failed while checksumming " + path.string());
  }
  if (crc != expected_crc) {
    throw SerializeError("checksum mismatch in " + path.string() +
                         ": payload does not match its header CRC "
                         "(truncated or corrupted artifact)");
  }
  in_.clear();
  in_.seekg(payload_start);
  payload_end_ =
      static_cast<std::uint64_t>(std::streamoff(payload_start)) + payload_bytes;
}

/// Validates a length prefix BEFORE allocating, like
/// BufferReader::checked_count: a valid CRC proves the bytes are the ones
/// written, not that a length prefix among them is sane.
std::size_t BinaryReader::checked_count(std::uint64_t n,
                                        std::size_t element_size) {
  const auto at = static_cast<std::uint64_t>(std::streamoff(in_.tellg()));
  const std::uint64_t remaining = payload_end_ > at ? payload_end_ - at : 0;
  if (n > remaining / element_size) {
    throw SerializeError("truncated stream: length prefix " +
                         std::to_string(n) + " exceeds remaining bytes");
  }
  return static_cast<std::size_t>(n);
}

void BinaryReader::read_raw(void* data, std::size_t bytes) {
  if (bytes == 0) return;  // empty vectors hand us data() == nullptr
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in_.gcount()) != bytes) {
    throw SerializeError("truncated stream");
  }
}

std::uint8_t BinaryReader::read_u8() {
  std::uint8_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::int64_t BinaryReader::read_i64() {
  std::int64_t v;
  read_raw(&v, sizeof v);
  return v;
}
float BinaryReader::read_f32() {
  float v;
  read_raw(&v, sizeof v);
  return v;
}
double BinaryReader::read_f64() {
  double v;
  read_raw(&v, sizeof v);
  return v;
}

std::string BinaryReader::read_string() {
  const std::size_t n = checked_count(read_u64(), 1);
  std::string s(n, '\0');
  read_raw(s.data(), n);
  return s;
}

std::vector<std::int8_t> BinaryReader::read_i8_vector() {
  const std::size_t n = checked_count(read_u64(), 1);
  std::vector<std::int8_t> xs(n);
  read_raw(xs.data(), n);
  return xs;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::size_t n = checked_count(read_u64(), sizeof(float));
  std::vector<float> xs(n);
  read_raw(xs.data(), n * sizeof(float));
  return xs;
}

std::vector<std::uint32_t> BinaryReader::read_u32_vector() {
  const std::size_t n = checked_count(read_u64(), sizeof(std::uint32_t));
  std::vector<std::uint32_t> xs(n);
  read_raw(xs.data(), n * sizeof(std::uint32_t));
  return xs;
}

// ---------------------------------------------------------------- buffers --

void BufferWriter::write_raw(const void* data, std::size_t bytes) {
  if (bytes == 0) return;  // empty vectors hand us data() == nullptr
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + bytes);
}

void BufferWriter::write_u8(std::uint8_t v) { write_raw(&v, sizeof v); }
void BufferWriter::write_u16(std::uint16_t v) { write_raw(&v, sizeof v); }
void BufferWriter::write_u32(std::uint32_t v) { write_raw(&v, sizeof v); }
void BufferWriter::write_u64(std::uint64_t v) { write_raw(&v, sizeof v); }
void BufferWriter::write_i64(std::int64_t v) { write_raw(&v, sizeof v); }
void BufferWriter::write_f64(double v) { write_raw(&v, sizeof v); }

void BufferWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_raw(s.data(), s.size());
}

void BufferWriter::write_u16_span(std::span<const std::uint16_t> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BufferWriter::write_u64_span(std::span<const std::uint64_t> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BufferWriter::write_f64_span(std::span<const double> xs) {
  write_u64(xs.size());
  write_raw(xs.data(), xs.size_bytes());
}

void BufferReader::read_raw(void* data, std::size_t bytes) {
  if (bytes > remaining()) {
    throw SerializeError("truncated frame: wanted " + std::to_string(bytes) +
                         " bytes, have " + std::to_string(remaining()));
  }
  if (bytes == 0) return;  // empty vectors hand us data() == nullptr
  std::memcpy(data, data_.data() + offset_, bytes);
  offset_ += bytes;
}

std::uint8_t BufferReader::read_u8() {
  std::uint8_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::uint16_t BufferReader::read_u16() {
  std::uint16_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::uint32_t BufferReader::read_u32() {
  std::uint32_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::uint64_t BufferReader::read_u64() {
  std::uint64_t v;
  read_raw(&v, sizeof v);
  return v;
}
std::int64_t BufferReader::read_i64() {
  std::int64_t v;
  read_raw(&v, sizeof v);
  return v;
}
double BufferReader::read_f64() {
  double v;
  read_raw(&v, sizeof v);
  return v;
}

/// Validates a length prefix BEFORE allocating: a malformed frame must
/// throw SerializeError, not drive a multi-gigabyte allocation.
std::size_t BufferReader::checked_count(std::uint64_t n,
                                        std::size_t element_size) {
  if (n > remaining() / element_size) {
    throw SerializeError("truncated frame: length prefix " +
                         std::to_string(n) + " exceeds remaining bytes");
  }
  return static_cast<std::size_t>(n);
}

std::string BufferReader::read_string() {
  const std::size_t n = checked_count(read_u64(), 1);
  std::string s(n, '\0');
  read_raw(s.data(), n);
  return s;
}

std::vector<std::uint16_t> BufferReader::read_u16_vector() {
  const std::size_t n = checked_count(read_u64(), sizeof(std::uint16_t));
  std::vector<std::uint16_t> xs(n);
  read_raw(xs.data(), xs.size() * sizeof(std::uint16_t));
  return xs;
}

std::vector<std::uint64_t> BufferReader::read_u64_vector() {
  const std::size_t n = checked_count(read_u64(), sizeof(std::uint64_t));
  std::vector<std::uint64_t> xs(n);
  read_raw(xs.data(), xs.size() * sizeof(std::uint64_t));
  return xs;
}

std::vector<double> BufferReader::read_f64_vector() {
  const std::size_t n = checked_count(read_u64(), sizeof(double));
  std::vector<double> xs(n);
  read_raw(xs.data(), xs.size() * sizeof(double));
  return xs;
}

}  // namespace pelican
