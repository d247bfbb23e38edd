#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <random>
#include <vector>

namespace pelican {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("pelican_serialize_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(SerializeTest, RoundTripsAllPrimitives) {
  {
    BinaryWriter writer(path_, 3);
    writer.write_u8(0xAB);
    writer.write_u32(0xDEADBEEF);
    writer.write_u64(0x0123456789ABCDEFULL);
    writer.write_i64(-42);
    writer.write_f32(3.25f);
    writer.write_f64(-2.5e-300);
    writer.write_string("pelican");
    writer.finish();
  }
  BinaryReader reader(path_, 3);
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.5e-300);
  EXPECT_EQ(reader.read_string(), "pelican");
}

TEST_F(SerializeTest, RoundTripsSpans) {
  const std::vector<float> floats = {1.0f, -2.0f, 0.5f};
  const std::vector<std::uint32_t> ints = {7, 8, 9, 10};
  {
    BinaryWriter writer(path_, 1);
    writer.write_f32_span(floats);
    writer.write_u32_span(ints);
    writer.finish();
  }
  BinaryReader reader(path_, 1);
  EXPECT_EQ(reader.read_f32_vector(), floats);
  EXPECT_EQ(reader.read_u32_vector(), ints);
}

TEST_F(SerializeTest, RoundTripsI8Spans) {
  // The int8 weight payload primitive (nn/quant.hpp): full signed range,
  // mixed with neighbors so framing errors cannot cancel out.
  const std::vector<std::int8_t> bytes = {-128, -127, -1, 0, 1, 63, 127};
  {
    BinaryWriter writer(path_, 1);
    writer.write_i8_span(bytes);
    writer.write_u32(0xCAFEF00D);
    writer.write_i8_span({});
    writer.finish();
  }
  BinaryReader reader(path_, 1);
  EXPECT_EQ(reader.read_i8_vector(), bytes);
  EXPECT_EQ(reader.read_u32(), 0xCAFEF00Du);
  EXPECT_TRUE(reader.read_i8_vector().empty());
}

TEST_F(SerializeTest, EmptySpansRoundTrip) {
  {
    BinaryWriter writer(path_, 1);
    writer.write_f32_span({});
    writer.write_string("");
    writer.finish();
  }
  BinaryReader reader(path_, 1);
  EXPECT_TRUE(reader.read_f32_vector().empty());
  EXPECT_TRUE(reader.read_string().empty());
}

TEST_F(SerializeTest, RejectsVersionMismatch) {
  {
    BinaryWriter writer(path_, 1);
    writer.write_u32(99);
    writer.finish();
  }
  EXPECT_THROW(BinaryReader(path_, 2), SerializeError);
}

TEST_F(SerializeTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    const std::uint32_t garbage[2] = {0x11111111, 1};
    out.write(reinterpret_cast<const char*>(garbage), sizeof garbage);
  }
  EXPECT_THROW(BinaryReader(path_, 1), SerializeError);
}

TEST_F(SerializeTest, RejectsOversizedLengthPrefixWithoutAllocating) {
  // A checkpoint with a valid CRC whose length prefix claims 2^60 elements
  // (or one element more than the payload holds) must throw cleanly from
  // every length-prefixed reader, not try to allocate.
  using Read = void (*)(BinaryReader&);
  const std::pair<const char*, Read> readers[] = {
      {"string", [](BinaryReader& r) { (void)r.read_string(); }},
      {"i8", [](BinaryReader& r) { (void)r.read_i8_vector(); }},
      {"f32", [](BinaryReader& r) { (void)r.read_f32_vector(); }},
      {"u32", [](BinaryReader& r) { (void)r.read_u32_vector(); }},
  };
  for (const std::uint64_t claim : {std::uint64_t{1} << 60, std::uint64_t{9}}) {
    {
      BinaryWriter writer(path_, 1);
      writer.write_u64(claim);
      writer.write_u64(0);  // 8 payload bytes follow the prefix
      writer.finish();
    }
    for (const auto& [name, read] : readers) {
      BinaryReader reader(path_, 1);
      EXPECT_THROW(read(reader), SerializeError)
          << name << " reader, claim " << claim;
    }
  }
}

TEST_F(SerializeTest, ThrowsOnTruncation) {
  {
    BinaryWriter writer(path_, 1);
    writer.write_u32(5);
    writer.finish();
  }
  BinaryReader reader(path_, 1);
  EXPECT_EQ(reader.read_u32(), 5u);
  EXPECT_THROW((void)reader.read_u64(), SerializeError);
}

TEST_F(SerializeTest, ThrowsOnMissingFile) {
  EXPECT_THROW(BinaryReader(path_ / "nope.bin", 1), SerializeError);
}

TEST_F(SerializeTest, WriterFailsOnBadPath) {
  EXPECT_THROW(BinaryWriter("/nonexistent_dir_zz/file.bin", 1),
               SerializeError);
}

TEST(Crc32Test, MatchesTheIeeeReferenceVector) {
  // The classic check value for CRC-32/IEEE (zlib convention).
  const char* data = "123456789";
  EXPECT_EQ(crc32(0, data, 9), 0xCBF43926u);
  // Incremental chunking must not change the digest.
  std::uint32_t crc = crc32(0, data, 4);
  crc = crc32(crc, data + 4, 5);
  EXPECT_EQ(crc, 0xCBF43926u);
  EXPECT_EQ(crc32(0, data, 0), 0u);
}

/// CRC-32/IEEE one bit at a time, straight from the polynomial: shares no
/// table with the library's sliced implementation.
std::uint32_t bitwise_crc32(const unsigned char* p, std::size_t bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicedMatchesBitwiseAtEveryLengthOffsetAndChunking) {
  std::mt19937 rng(7);
  std::vector<unsigned char> buffer(256 + 8);
  for (auto& b : buffer) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 256; ++length) {
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t expected = bitwise_crc32(data, length);
      ASSERT_EQ(crc32(0, data, length), expected)
          << "length " << length << ", offset " << offset;
      // The same bytes fed in random chunks.
      std::uint32_t crc = 0;
      for (std::size_t done = 0; done < length;) {
        const std::size_t chunk =
            std::min<std::size_t>(length - done, 1 + rng() % 20);
        crc = crc32(crc, data + done, chunk);
        done += chunk;
      }
      ASSERT_EQ(crc, expected) << "length " << length << ", offset "
                               << offset << ", chunked";
    }
  }
}

TEST_F(SerializeTest, DetectsPayloadCorruptionAtOpen) {
  {
    BinaryWriter writer(path_, 1);
    writer.write_string("integrity matters");
    writer.write_f32_span({{1.0f, 2.0f, 3.0f}});
    writer.finish();
  }
  // Flip one payload bit (past the 12-byte header).
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_GT(size, 16);
    file.seekp(size - 3);
    char byte = 0;
    file.seekg(size - 3);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(size - 3);
    file.write(&byte, 1);
  }
  EXPECT_THROW(BinaryReader(path_, 1), SerializeError)
      << "a bit-flipped checkpoint must be rejected before any typed read";
}

TEST_F(SerializeTest, DetectsTruncatedPayloadAtOpen) {
  {
    BinaryWriter writer(path_, 1);
    writer.write_f32_span({{1.0f, 2.0f, 3.0f, 4.0f}});
    writer.finish();
  }
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);
  EXPECT_THROW(BinaryReader(path_, 1), SerializeError)
      << "a torn write (short file) must fail the checksum at open";
}

TEST_F(SerializeTest, EmptyPayloadChecksumRoundTrips) {
  { BinaryWriter(path_, 1).finish(); }
  EXPECT_NO_THROW(BinaryReader(path_, 1));
}

TEST(BufferSerializeTest, RoundTripsAllPrimitives) {
  BufferWriter writer;
  writer.write_u8(7);
  writer.write_u16(0xBEEF);
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(0x0123456789ABCDEFULL);
  writer.write_i64(-1234567890123LL);
  writer.write_f64(-2.5e-300);
  writer.write_string("pelican/router");
  writer.write_u16_span({{std::uint16_t{1}, std::uint16_t{65535}}});
  writer.write_u64_span({{std::uint64_t{42}}});
  writer.write_f64_span({{0.5, -0.25}});

  BufferReader reader(writer.buffer());
  EXPECT_EQ(reader.read_u8(), 7);
  EXPECT_EQ(reader.read_u16(), 0xBEEF);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.read_i64(), -1234567890123LL);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -2.5e-300);
  EXPECT_EQ(reader.read_string(), "pelican/router");
  EXPECT_EQ(reader.read_u16_vector(),
            (std::vector<std::uint16_t>{1, 65535}));
  EXPECT_EQ(reader.read_u64_vector(), (std::vector<std::uint64_t>{42}));
  EXPECT_EQ(reader.read_f64_vector(), (std::vector<double>{0.5, -0.25}));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BufferSerializeTest, RoundTripsEmptySpansAndStrings) {
  // Empty vectors/strings hand the writer data() == nullptr; the raw
  // helpers must not forward that to memcpy/ostream::write (UBSan flags a
  // null pointer passed to a nonnull parameter even with a zero count).
  // Surfaced by the asan-ubsan lane on empty predict-reply and histogram
  // frames.
  BufferWriter writer;
  writer.write_string("");
  writer.write_u16_span({});
  writer.write_u64_span({});
  writer.write_f64_span({});
  writer.write_u8(0xA5);  // sentinel: offsets stay aligned past the empties

  BufferReader reader(writer.buffer());
  EXPECT_EQ(reader.read_string(), "");
  EXPECT_TRUE(reader.read_u16_vector().empty());
  EXPECT_TRUE(reader.read_u64_vector().empty());
  EXPECT_TRUE(reader.read_f64_vector().empty());
  EXPECT_EQ(reader.read_u8(), 0xA5);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BufferSerializeTest, ThrowsOnOverrun) {
  BufferWriter writer;
  writer.write_u32(1);
  BufferReader reader(writer.buffer());
  EXPECT_EQ(reader.read_u32(), 1u);
  EXPECT_THROW((void)reader.read_u8(), SerializeError);
}

TEST(BufferSerializeTest, RejectsOversizedLengthPrefixWithoutAllocating) {
  // A frame claiming 2^60 elements must throw cleanly, not try to allocate.
  BufferWriter writer;
  writer.write_u64(std::uint64_t{1} << 60);
  BufferReader reader(writer.buffer());
  EXPECT_THROW((void)reader.read_f64_vector(), SerializeError);
}

}  // namespace
}  // namespace pelican
