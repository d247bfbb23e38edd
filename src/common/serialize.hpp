// Minimal binary (de)serialization with explicit little-endian layout.
//
// Used for model checkpoints (the Pelican "download the general model from
// the cloud to the device" step), for the benchmark pipeline cache, and —
// through BufferWriter/BufferReader — for the router tier's wire protocol.
//
// Checkpoint files (BinaryWriter/BinaryReader) carry a header of
//   [magic | format version | payload CRC-32]
// followed by length-prefixed primitive writes. The checksum covers every
// payload byte after the header; the writer patches it in at finish() and
// the reader verifies it BEFORE handing out the first payload byte, so a
// truncated or bit-flipped artifact (e.g. a torn model-store checkpoint)
// fails loudly at open instead of deserializing garbage weights. Readers
// also validate magic/version and throw on truncation.
//
// BufferWriter/BufferReader speak the same primitive layout into/out of an
// in-memory byte buffer with no header — framing and integrity are the
// transport's job there (router/wire length-prefixed frames over
// SOCK_STREAM sockets).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace pelican {

/// Thrown when a stream is truncated, has a bad magic, a version mismatch,
/// or a payload that does not match its header checksum.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// rows * cols of a shape read from untrusted bytes; throws SerializeError
/// on overflow, so hostile dimensions cannot wrap a size check.
[[nodiscard]] inline std::uint64_t checked_product(std::uint64_t rows,
                                                   std::uint64_t cols,
                                                   const char* what) {
  std::uint64_t size = 0;
  if (__builtin_mul_overflow(rows, cols, &size)) {
    throw SerializeError(std::string(what) + ": dimensions overflow");
  }
  return size;
}

/// Incremental CRC-32 (IEEE 802.3 polynomial, the zlib convention: start
/// from 0, feed bytes in any chunking). Exposed so tests and tools can
/// compute expected checkpoint checksums.
[[nodiscard]] std::uint32_t crc32(std::uint32_t crc, const void* data,
                                  std::size_t bytes) noexcept;

class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the header (with a zero checksum
  /// placeholder that finish() patches). Throws on I/O failure.
  BinaryWriter(const std::filesystem::path& path, std::uint32_t version);

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_span(std::span<const float> xs);
  void write_u32_span(std::span<const std::uint32_t> xs);
  void write_i8_span(std::span<const std::int8_t> xs);

  /// Patches the header checksum, flushes and closes; throws if the final
  /// flush fails. Called by the destructor as well (errors are swallowed
  /// there), so call explicitly when failure must be observable.
  void finish();

  ~BinaryWriter();
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

 private:
  void write_raw(const void* data, std::size_t bytes);

  std::ofstream out_;
  std::uint32_t crc_ = 0;      ///< running CRC-32 of the payload bytes
  bool header_done_ = false;   ///< header bytes are excluded from the CRC
  bool finished_ = false;
};

class BinaryReader {
 public:
  /// Opens `path`, validates the header against `expected_version`, and
  /// verifies the payload checksum (one extra sequential pass over the
  /// file) before any typed read. Throws SerializeError on bad magic,
  /// version mismatch, truncation, or checksum mismatch.
  BinaryReader(const std::filesystem::path& path,
               std::uint32_t expected_version);

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] float read_f32();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<float> read_f32_vector();
  [[nodiscard]] std::vector<std::uint32_t> read_u32_vector();
  [[nodiscard]] std::vector<std::int8_t> read_i8_vector();

 private:
  void read_raw(void* data, std::size_t bytes);
  void verify_checksum(const std::filesystem::path& path,
                       std::uint32_t expected_crc);
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t element_size);

  std::ifstream in_;
  std::uint64_t payload_end_ = 0;  ///< stream offset one past the payload
};

/// Primitive writes into a growable in-memory buffer — the same layout as
/// BinaryWriter, minus the file header. Used to build wire-protocol frames
/// (router/wire.hpp); the transport adds the length prefix.
class BufferWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_u16_span(std::span<const std::uint16_t> xs);
  void write_u64_span(std::span<const std::uint64_t> xs);
  void write_f64_span(std::span<const double> xs);

  /// Sizes the buffer for `bytes` in all: a frame of known size is then
  /// written in one allocation instead of regrowing.
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buffer_);
  }

 private:
  void write_raw(const void* data, std::size_t bytes);

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reads over a received byte buffer. Throws SerializeError
/// on overrun (a malformed or truncated frame), never reads past the span.
class BufferReader {
 public:
  explicit BufferReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<std::uint16_t> read_u16_vector();
  [[nodiscard]] std::vector<std::uint64_t> read_u64_vector();
  [[nodiscard]] std::vector<double> read_f64_vector();

  /// Bytes not yet consumed; a fully decoded frame ends at exactly 0.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }

 private:
  void read_raw(void* data, std::size_t bytes);
  [[nodiscard]] std::size_t checked_count(std::uint64_t n,
                                          std::size_t element_size);

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace pelican
