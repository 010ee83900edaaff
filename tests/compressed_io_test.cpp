#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "io/checksum.hpp"
#include "io/compressed.hpp"
#include "io/volume_io.hpp"
#include "stream/streamed_sequence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"
#include "util/rng.hpp"
#include "volume/brick_index.hpp"

namespace ifet {
namespace {

using testing::random_volume;

double max_abs_error(const VolumeF& a, const VolumeF& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::fabs(static_cast<double>(a[i]) -
                                      static_cast<double>(b[i])));
  }
  return worst;
}

TEST(CompressVolume, RoundTripWithinQuantizationBound) {
  VolumeF v = random_volume(Dims{16, 16, 16}, 5, -2.0, 3.0);
  for (QuantBits bits : {QuantBits::k8, QuantBits::k16}) {
    CompressedVolume c = compress_volume(v, bits);
    VolumeF back = decompress_volume(c);
    ASSERT_EQ(back.dims(), v.dims());
    EXPECT_LE(max_abs_error(v, back),
              quantization_error_bound(c) + 1e-6);
  }
}

TEST(CompressVolume, SixteenBitsAreMorePrecise) {
  VolumeF v = random_volume(Dims{12, 12, 12}, 6, 0.0, 1.0);
  CompressedVolume c8 = compress_volume(v, QuantBits::k8);
  CompressedVolume c16 = compress_volume(v, QuantBits::k16);
  EXPECT_LT(max_abs_error(v, decompress_volume(c16)),
            max_abs_error(v, decompress_volume(c8)) + 1e-9);
  EXPECT_LT(quantization_error_bound(c16),
            quantization_error_bound(c8));
}

TEST(CompressVolume, ConstantVolumeCompressesExtremely) {
  VolumeF v(Dims{32, 32, 32}, 1.25f);
  CompressedVolume c = compress_volume(v);
  EXPECT_GT(c.compression_ratio(), 100.0);
  VolumeF back = decompress_volume(c);
  for (float x : back.data()) EXPECT_FLOAT_EQ(x, 1.25f);
}

TEST(CompressVolume, SmoothFieldBeatsRandomNoise) {
  VolumeF noise = random_volume(Dims{24, 24, 24}, 7);
  VolumeF smooth(Dims{24, 24, 24});
  for (int k = 0; k < 24; ++k) {
    for (int j = 0; j < 24; ++j) {
      for (int i = 0; i < 24; ++i) {
        smooth.at(i, j, k) = static_cast<float>(i / 6);  // plateaus
      }
    }
  }
  double smooth_ratio = compress_volume(smooth).compression_ratio();
  double noise_ratio = compress_volume(noise).compression_ratio();
  EXPECT_GT(smooth_ratio, 2.0 * noise_ratio);
}

TEST(CompressVolume, LongRunsSplitCorrectly) {
  // A run longer than 255 must be split across RLE chunks and still decode.
  VolumeF v(Dims{16, 16, 16}, 0.5f);  // 4096-voxel run
  v.at(15, 15, 15) = 1.0f;
  CompressedVolume c = compress_volume(v);
  VolumeF back = decompress_volume(c);
  EXPECT_FLOAT_EQ(back.at(0, 0, 0), 0.5f);
  EXPECT_FLOAT_EQ(back.at(15, 15, 15), 1.0f);
}

TEST(CompressVolume, TruncatedPayloadRejected) {
  VolumeF v = random_volume(Dims{8, 8, 8}, 9);
  CompressedVolume c = compress_volume(v);
  c.payload.resize(c.payload.size() / 2);
  EXPECT_THROW(decompress_volume(c), Error);
}

TEST(CompressedSequence, FileRoundTripAllSteps) {
  const std::string path = "/tmp/ifet_cseq_test.cvol";
  Dims d{12, 10, 8};
  const int steps = 5;
  CallbackSource source(d, steps, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 100 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);

  CompressedFileSource reader(path);
  EXPECT_EQ(reader.dims(), d);
  EXPECT_EQ(reader.num_steps(), steps);
  EXPECT_GT(reader.total_payload_bytes(), 0u);
  for (int s = 0; s < steps; ++s) {
    VolumeF original = source.generate(s);
    VolumeF decoded = reader.generate(s);
    EXPECT_LE(max_abs_error(original, decoded), 1.0 / 255.0)
        << "step " << s;
  }
  EXPECT_THROW(reader.generate(steps), Error);
  std::remove(path.c_str());
}

TEST(CompressedSequence, RandomAccessOrderIndependent) {
  const std::string path = "/tmp/ifet_cseq_random.cvol";
  Dims d{8, 8, 8};
  CallbackSource source(d, 4, {0.0, 1.0}, [d](int step) {
    return VolumeF(d, 0.1f * static_cast<float>(step + 1));
  });
  write_compressed_sequence(source, path);
  CompressedFileSource reader(path);
  EXPECT_NEAR(reader.generate(3).at(0, 0, 0), 0.4f, 1e-2);
  EXPECT_NEAR(reader.generate(0).at(0, 0, 0), 0.1f, 1e-2);
  EXPECT_NEAR(reader.generate(2).at(0, 0, 0), 0.3f, 1e-2);
  std::remove(path.c_str());
}

TEST(CompressedSequence, PlugsIntoVolumeSequence) {
  const std::string path = "/tmp/ifet_cseq_stream.cvol";
  Dims d{10, 10, 10};
  CallbackSource source(d, 6, {0.0, 1.0}, [d](int step) {
    return VolumeF(d, 0.05f * static_cast<float>(step));
  });
  write_compressed_sequence(source, path);

  auto disk_source = std::make_shared<CompressedFileSource>(path);
  // Streams with a 2-step budget.
  StreamedSequence seq(disk_source, testing::load_counting_config(d, 2));
  EXPECT_NEAR(seq.step(5).at(3, 3, 3), 0.25f, 1e-2);
  EXPECT_NEAR(seq.step(0).at(3, 3, 3), 0.0f, 1e-2);
  EXPECT_NEAR(seq.step(1).at(3, 3, 3), 0.05f, 1e-2);  // evicts step 5
  EXPECT_NEAR(seq.step(5).at(3, 3, 3), 0.25f, 1e-2);  // re-decoded after LRU
  EXPECT_EQ(seq.generation_count(), 4u);
  std::remove(path.c_str());
}

TEST(CompressedSequence, WriterValidatesUsage) {
  const std::string path = "/tmp/ifet_cseq_bad.cvol";
  Dims d{4, 4, 4};
  {
    CompressedSequenceWriter writer(path, d, 2, {0.0, 1.0});
    writer.append(compress_volume(VolumeF(d, 0.5f)));
    EXPECT_THROW(writer.close(), Error);  // one step missing
    writer.append(compress_volume(VolumeF(d, 0.6f)));
    EXPECT_THROW(writer.append(compress_volume(VolumeF(d, 0.7f))), Error);
    writer.close();
  }
  CompressedFileSource reader(path);
  EXPECT_EQ(reader.num_steps(), 2);
  std::remove(path.c_str());
}

TEST(CompressedSequence, UnfinalizedFileRejected) {
  const std::string path = "/tmp/ifet_cseq_unfinal.cvol";
  Dims d{4, 4, 4};
  {
    CompressedSequenceWriter writer(path, d, 3, {0.0, 1.0});
    writer.append(compress_volume(VolumeF(d, 0.5f)));
    // Destructor must not throw; the file keeps a zeroed index.
  }
  EXPECT_THROW(CompressedFileSource reader(path), Error);
  std::remove(path.c_str());
}

TEST(CompressedSequence, SixteenBitContainerRoundTrips) {
  const std::string path = "/tmp/ifet_cseq16.cvol";
  Dims d{10, 10, 10};
  CallbackSource source(d, 3, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 300 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path, QuantBits::k16);
  CompressedFileSource reader(path);
  for (int s = 0; s < 3; ++s) {
    VolumeF original = source.generate(s);
    VolumeF decoded = reader.generate(s);
    EXPECT_LE(max_abs_error(original, decoded), 1.0 / 65535.0 + 1e-7)
        << "step " << s;
  }
  std::remove(path.c_str());
}

TEST(CompressedSequence, MissingFileRejected) {
  EXPECT_THROW(CompressedFileSource("/tmp/ifet_no_such.cvol"), Error);
  // The typed taxonomy (docs/ROBUSTNESS.md): a missing file is
  // NotFoundError specifically, so the retry loop can fail fast on it.
  EXPECT_THROW(CompressedFileSource("/tmp/ifet_no_such.cvol"), NotFoundError);
}

// ---------------------------------------------------------------------------
// Payload checksums (docs/ROBUSTNESS.md)

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Little-endian u64 at `at` in `bytes`.
std::uint64_t u64_at(const std::string& bytes, std::size_t at) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + b]))
         << (8 * b);
  }
  return v;
}

/// Overwrites the little-endian u64 at `at` in `bytes`.
void put_u64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) bytes[at + b] = static_cast<char>(v >> (8 * b));
}

/// Bytes of a record before its payload: bits u8, lo f32, hi f32, size u64.
constexpr std::size_t kRecordPrefix = 17;

/// Offset of step `step`'s index entry in a .cvol file; the entry holds
/// the payload record's offset and size, then the brick record's.
std::size_t index_entry(const std::string& bytes, int step) {
  return bytes.find('\n') + 1 + 32 * static_cast<std::size_t>(step);
}

/// File offset of step `step`'s payload record.
std::uint64_t record_offset(const std::string& bytes, int step) {
  return u64_at(bytes, index_entry(bytes, step));
}

/// Bit-at-a-time CRC-32 over the reflected polynomial 0xEDB88320: the
/// definition crc32() must agree with for every length and alignment.
std::uint32_t crc32_bytewise(const unsigned char* data, std::size_t size,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(PayloadChecksums, Crc32MatchesBytewiseReference) {
  const char check[] = "123456789";
  EXPECT_EQ(crc32(check, 9), 0xCBF43926u);

  Rng rng(99);
  std::vector<unsigned char> bytes(std::size_t{1} << 20);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.uniform(0.0, 256.0));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const unsigned char* p = bytes.data() + offset;
      EXPECT_EQ(crc32(p, length), crc32_bytewise(p, length, 0))
          << "offset " << offset << ", length " << length;
    }
  }
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, crc32_bytewise(bytes.data(), bytes.size(), 0));

  // Chained: the sum of a prefix seeds the sum of the rest.
  for (const std::size_t split : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4093}, bytes.size() - 3}) {
    const std::uint32_t head = crc32(bytes.data(), split);
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, head), whole)
        << "split at " << split;
  }
}

TEST(PayloadChecksums, BitFlippedCvolPayloadRejected) {
  const std::string path = "/tmp/ifet_cseq_flip.cvol";
  const Dims d{8, 8, 8};
  CallbackSource source(d, 1, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 400 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);

  std::string bytes = slurp(path);
  // v2 layout: text header line, 32-byte index entry, the single record
  // `bits u8 | lo f32 | hi f32 | payload_size u64 | payload | crc`, then
  // the brick record (one 8^3 brick for these dims: 8 bytes + crc).
  const std::size_t header_end = bytes.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  const std::size_t payload_begin = header_end + 1 + 32 + 17;
  const std::size_t payload_end = bytes.size() - 12 - 4;
  ASSERT_GT(payload_end, payload_begin);
  Rng rng(2026);
  const std::size_t offset =
      payload_begin + static_cast<std::size_t>(rng.next_u64() %
                                               (payload_end - payload_begin));
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
  dump(path, bytes);

  CompressedFileSource reader(path);  // header + index are intact
  EXPECT_THROW(reader.generate(0), ChecksumMismatchError);
  std::remove(path.c_str());
}

TEST(PayloadChecksums, BitFlippedVolPayloadRejected) {
  const std::string path = "/tmp/ifet_vol_flip.vol";
  VolumeF v = random_volume(Dims{6, 6, 6}, 11);
  write_vol(v, path);
  EXPECT_EQ(max_abs_error(v, read_vol(path)), 0.0);  // clean round trip

  std::string bytes = slurp(path);
  const std::size_t header_end = bytes.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  Rng rng(4711);
  const std::size_t offset =
      header_end + 1 +
      static_cast<std::size_t>(rng.next_u64() %
                               (bytes.size() - header_end - 1));
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x01);
  dump(path, bytes);
  EXPECT_THROW(read_vol(path), ChecksumMismatchError);
  std::remove(path.c_str());
}

TEST(PayloadChecksums, ChecksumLessVolHeaderRejected) {
  const std::string path = "/tmp/ifet_vol_nocrc.vol";
  VolumeF v = random_volume(Dims{5, 5, 5}, 12);
  write_vol(v, path);
  // Drop " crc32 <sum>" from the header: the header older writers wrote.
  std::string bytes = slurp(path);
  const std::size_t tag = bytes.find(" crc32 ");
  const std::size_t header_end = bytes.find('\n');
  ASSERT_LT(tag, header_end);
  bytes.erase(tag, header_end - tag);
  ASSERT_EQ(bytes.rfind("ifet-vol 5 5 5\n", 0), 0u);
  dump(path, bytes);
  try {
    (void)read_vol(path);
    FAIL() << "a .vol header without a checksum must be rejected";
  } catch (const ChecksumMismatchError& e) {
    FAIL() << "no checksum to mismatch: " << e.what();
  } catch (const CorruptDataError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum field"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(PayloadChecksums, StoreCountsEveryFailedAttempt) {
  const std::string path = "/tmp/ifet_cseq_store_flip.cvol";
  const Dims d{8, 8, 8};
  CallbackSource source(d, 2, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 420 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);
  // Flip the first payload byte of step 1's record.
  std::string bytes = slurp(path);
  const std::uint64_t payload = record_offset(bytes, 1) + kRecordPrefix;
  bytes[payload] = static_cast<char>(bytes[payload] ^ 0x01);
  dump(path, bytes);

  VolumeStoreConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.max_retries = 2;
  VolumeStore store(std::make_shared<CompressedFileSource>(path), config);
  EXPECT_THROW(store.fetch(1), ChecksumMismatchError);
  const StreamStats stats = store.stats();
  EXPECT_EQ(stats.checksum_failures, 3u);  // the first attempt + 2 retries
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.load_failures, 1u);
  EXPECT_EQ(stats.quarantined_steps, 1u);
  EXPECT_EQ(store.quarantined_steps(), std::vector<int>{1});
  // A quarantined fetch rethrows without reading the frame again.
  EXPECT_THROW(store.fetch(1), ChecksumMismatchError);
  EXPECT_EQ(store.stats().checksum_failures, 3u);
  ASSERT_NE(store.fetch(0), nullptr);
  EXPECT_LE(max_abs_error(source.generate(0), *store.fetch(0)), 1.0 / 255.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v2 brick-index section (ingest-time min/max bricks; docs/STREAMING.md)

TEST(BrickSection, V2RoundTripMatchesRebuiltIndex) {
  const std::string path = "/tmp/ifet_cseq_v2.cvol";
  const Dims d{13, 10, 9};  // ragged against the default 8^3 bricks
  CallbackSource source(d, 3, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 700 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);

  CompressedFileSource reader(path);
  EXPECT_EQ(reader.container_brick_size(), BrickIndex::kDefaultBrickSize);
  for (int s = 0; s < 3; ++s) {
    const auto stored = reader.brick_metadata(s);
    ASSERT_NE(stored, nullptr) << "step " << s;
    // The stored ranges must describe the RECONSTRUCTED voxels the
    // renderer actually samples, i.e. match a rebuild from the decoded
    // step bit for bit.
    const BrickIndex rebuilt =
        BrickIndex::build(reader.generate(s), reader.container_brick_size());
    ASSERT_EQ(stored->num_bricks(), rebuilt.num_bricks());
    for (std::size_t b = 0; b < rebuilt.num_bricks(); ++b) {
      EXPECT_EQ(stored->ranges()[b].lo, rebuilt.ranges()[b].lo);
      EXPECT_EQ(stored->ranges()[b].hi, rebuilt.ranges()[b].hi);
    }
  }
  std::remove(path.c_str());
}

TEST(BrickSection, V1ContainerRejected) {
  const std::string path = "/tmp/ifet_cseq_v1.cvol";
  const Dims d{9, 9, 9};
  const int steps = 2;
  CallbackSource source(d, steps, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 800 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);
  // Rebuild the file in the v1 layout older writers produced: "ifet-cseq"
  // and no brick size on the header line, 16-byte index entries (payload
  // offset/size) and the payload records alone.
  const std::string v2 = slurp(path);
  const std::string line = v2.substr(0, v2.find('\n'));
  ASSERT_EQ(line.rfind("ifet-cseq2 ", 0), 0u);
  const std::size_t fields = line.find(' ');
  std::string v1 = "ifet-cseq" +
                   line.substr(fields, line.rfind(' ') - fields) + "\n";
  std::string index(16 * steps, '\0'), records;
  const std::size_t records_begin = v1.size() + index.size();
  for (int s = 0; s < steps; ++s) {
    const std::size_t entry = index_entry(v2, s);
    const std::uint64_t size = u64_at(v2, entry + 8);
    put_u64(index, 16 * s, records_begin + records.size());
    put_u64(index, 16 * s + 8, size);
    records += v2.substr(u64_at(v2, entry), size);
  }
  v1 += index + records;
  dump(path, v1);

  try {
    CompressedFileSource reader(path);
    FAIL() << "a v1 container must be rejected";
  } catch (const CorruptDataError& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(BrickSection, BrickMetadataNeverDecodesPayloads) {
  const std::string path = "/tmp/ifet_cseq_nodecode.cvol";
  const Dims d{12, 12, 12};
  CallbackSource source(d, 4, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 900 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);

  auto disk_source = std::make_shared<CompressedFileSource>(path);
  StreamedSequence seq(disk_source, testing::load_counting_config(d, 2));
  const auto bricks = seq.brick_index(2);
  ASSERT_NE(bricks, nullptr);
  // Served from the container's brick section: zero payloads were decoded
  // and exactly one (brick) record was read.
  EXPECT_EQ(seq.generation_count(), 0u);
  EXPECT_EQ(seq.store().brick_metadata_reads(), 1u);
  // Memoized: the second lookup returns the same index, no second read.
  EXPECT_EQ(seq.brick_index(2).get(), bricks.get());
  EXPECT_EQ(seq.store().brick_metadata_reads(), 1u);
  std::remove(path.c_str());
}

TEST(BrickSection, BitFlippedBrickRecordRejected) {
  const std::string path = "/tmp/ifet_cseq_brickflip.cvol";
  const Dims d{8, 8, 8};
  CallbackSource source(d, 1, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 950 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);

  // The single 8^3 brick's record is the final 12 bytes (8 range bytes +
  // crc32); flip one of the range bytes.
  std::string bytes = slurp(path);
  bytes[bytes.size() - 10] = static_cast<char>(bytes[bytes.size() - 10] ^ 0x40);
  dump(path, bytes);

  CompressedFileSource reader(path);
  EXPECT_THROW(reader.brick_metadata(0), ChecksumMismatchError);
  // The payload section is untouched: the step still decodes cleanly.
  EXPECT_LE(max_abs_error(source.generate(0), reader.generate(0)),
            1.0 / 255.0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Streamed decode: CompressedFileSource reads a record through one
// kReadChunkBytes buffer, checksumming and decoding each chunk in turn.

/// A volume whose RLE payload spans several read chunks: mostly runs of
/// 1-3 voxels, now and then a stretch of 256-655 equal voxels (255-voxel
/// runs), and a final run of 5 voxels (fewer than the 8 the decoder
/// stores at once).
VolumeF chunky_volume(std::uint64_t seed) {
  const Dims d{64, 64, 56};
  VolumeF v(d);
  Rng rng(seed);
  std::size_t i = 0;
  const std::size_t tail = v.size() - 5;
  while (i < tail) {
    const std::size_t length = rng.uniform_index(400) == 0
                                   ? 256 + rng.uniform_index(400)
                                   : 1 + rng.uniform_index(3);
    const auto value = static_cast<float>(rng.uniform());
    for (std::size_t k = 0; k < length && i < tail; ++k) v[i++] = value;
  }
  for (; i < v.size(); ++i) v[i] = 2.0f;
  return v;
}

/// The per-run reference decode: each run's value from the double
/// expression, one voxel at a time.
VolumeF reference_decode(const CompressedVolume& c) {
  VolumeF out(c.dims);
  const double span = c.value_hi > c.value_lo ? c.value_hi - c.value_lo : 1.0;
  const bool wide = c.bits == QuantBits::k16;
  const double levels = wide ? 65535.0 : 255.0;
  std::size_t voxel = 0;
  for (std::size_t p = 0; p < c.payload.size(); p += wide ? 3 : 2) {
    std::uint32_t q = c.payload[p + 1];
    if (wide) q |= static_cast<std::uint32_t>(c.payload[p + 2]) << 8;
    const auto value = static_cast<float>(c.value_lo + span * q / levels);
    for (std::uint32_t r = 0; r < c.payload[p]; ++r) out[voxel++] = value;
  }
  EXPECT_EQ(voxel, out.size());
  return out;
}

bool bitwise_equal(const VolumeF& a, const VolumeF& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

TEST(StreamedDecode, GenerateMatchesDecompressBitwise) {
  const std::string path = "/tmp/ifet_cseq_chunks.cvol";
  CallbackSource source(Dims{64, 64, 56}, 2, {0.0, 2.0}, [](int step) {
    return chunky_volume(700 + static_cast<std::uint64_t>(step));
  });
  for (const QuantBits bits : {QuantBits::k8, QuantBits::k16}) {
    SCOPED_TRACE(bits == QuantBits::k8 ? "8-bit" : "16-bit");
    write_compressed_sequence(source, path, bits);
    CompressedFileSource reader(path);
    for (int s = 0; s < 2; ++s) {
      const CompressedVolume c = compress_volume(source.generate(s), bits);
      // The fixture covers what the chunked decode must get right.
      const std::size_t stride = bits == QuantBits::k8 ? 2 : 3;
      const std::size_t record = kRecordPrefix + c.payload.size();
      ASSERT_GT(record, 2 * CompressedFileSource::kReadChunkBytes);
      bool long_run = false;
      for (std::size_t p = 0; p < c.payload.size(); p += stride) {
        long_run = long_run || c.payload[p] == 255;
      }
      EXPECT_TRUE(long_run);
      EXPECT_EQ(c.payload[c.payload.size() - stride], 5);
      if (bits == QuantBits::k16) {
        // Bytes of a sample record before each chunk boundary: both
        // splits of a 3-byte record occur (1+2 and 2+1).
        bool split_1_2 = false, split_2_1 = false;
        for (std::size_t b = CompressedFileSource::kReadChunkBytes;
             b < record; b += CompressedFileSource::kReadChunkBytes) {
          split_1_2 = split_1_2 || (b - kRecordPrefix) % 3 == 1;
          split_2_1 = split_2_1 || (b - kRecordPrefix) % 3 == 2;
        }
        EXPECT_TRUE(split_1_2 && split_2_1);
      }

      const VolumeF want = reference_decode(c);
      EXPECT_TRUE(bitwise_equal(decompress_volume(c), want)) << "step " << s;
      EXPECT_TRUE(bitwise_equal(reader.generate(s), want)) << "step " << s;
      // Into a used buffer of the right dims: it is taken, and every
      // voxel is overwritten.
      VolumeF storage(reader.dims(), std::nanf(""));
      const float* buffer = storage.data().data();
      const VolumeF into = reader.generate_into(s, storage);
      EXPECT_TRUE(storage.empty());
      EXPECT_EQ(into.data().data(), buffer);
      EXPECT_TRUE(bitwise_equal(into, want)) << "step " << s;
    }
    // Storage of other dims is left with the caller.
    VolumeF other(Dims{4, 4, 4});
    (void)reader.generate_into(0, other);
    EXPECT_EQ(other.size(), 64u);
  }
  std::remove(path.c_str());
}

TEST(StreamedDecode, ChecksumVerdictPrecedesDecodeError) {
  const std::string path = "/tmp/ifet_cseq_verdict.cvol";
  CallbackSource source(Dims{64, 64, 56}, 1, {0.0, 2.0},
                        [](int) { return chunky_volume(710); });
  const CompressedVolume c = compress_volume(source.generate(0));
  write_compressed_sequence(source, path);
  std::string bytes = slurp(path);
  // The last run (5 voxels) becomes 255: it overflows the volume.
  const std::size_t last_run =
      record_offset(bytes, 0) + kRecordPrefix + c.payload.size() - 2;
  ASSERT_EQ(static_cast<unsigned char>(bytes[last_run]), 5);
  bytes[last_run] = static_cast<char>(255);
  dump(path, bytes);

  CompressedFileSource reader(path);
  try {
    (void)reader.generate(0);
    FAIL() << "a corrupt frame must be rejected";
  } catch (const ChecksumMismatchError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

/// Expects generate(step) to reject the record's prefix as a payload size
/// mismatch, before any CRC or decode verdict.
void expect_size_mismatch(const CompressedFileSource& reader, int step) {
  try {
    (void)reader.generate(step);
    FAIL() << "a record whose size disagrees with its index entry must be "
              "rejected";
  } catch (const CorruptDataError& e) {
    const std::string want =
        "payload size mismatch for step " + std::to_string(step);
    EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
        << e.what();
  }
}

TEST(StreamedDecode, PrefixCannotSkipTheChecksum) {
  const std::string path = "/tmp/ifet_cseq_prefix.cvol";
  const Dims d{8, 8, 8};
  CallbackSource source(d, 2, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 430 + static_cast<unsigned>(step));
  });
  for (const int delta : {4, -4}) {
    SCOPED_TRACE("payload size " + std::string(delta > 0 ? "+4" : "-4"));
    write_compressed_sequence(source, path);
    std::string bytes = slurp(path);
    // Step 1's payload-size field: +4 makes prefix + payload fill the whole
    // record, as if the frame had no CRC.
    const std::uint64_t field = record_offset(bytes, 1) + 9;
    put_u64(bytes, field,
            u64_at(bytes, field) + static_cast<std::uint64_t>(delta));
    dump(path, bytes);
    CompressedFileSource reader(path);
    expect_size_mismatch(reader, 1);
    EXPECT_LE(max_abs_error(source.generate(0), reader.generate(0)),
              1.0 / 255.0);
  }
  std::remove(path.c_str());
}

TEST(StreamedDecode, ChecksumLessFrameRejected) {
  const std::string path = "/tmp/ifet_cseq_nocrc.cvol";
  const Dims d{8, 8, 8};
  CallbackSource source(d, 2, {0.0, 1.0}, [d](int step) {
    return testing::random_volume(d, 500 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(source, path);
  // Step 0's index size shrinks by the CRC: the record now reads as the
  // checksum-less frame older writers produced.
  std::string bytes = slurp(path);
  const std::size_t size_field = index_entry(bytes, 0) + 8;
  put_u64(bytes, size_field, u64_at(bytes, size_field) - 4);
  dump(path, bytes);
  CompressedFileSource reader(path);
  expect_size_mismatch(reader, 0);
  EXPECT_LE(max_abs_error(source.generate(1), reader.generate(1)),
            1.0 / 255.0);
  std::remove(path.c_str());
}

TEST(StreamedDecode, TruncationAfterOpenNamesTheStep) {
  const std::string path = "/tmp/ifet_cseq_cut.cvol";
  CallbackSource source(Dims{64, 64, 56}, 3, {0.0, 2.0}, [](int step) {
    return chunky_volume(720 + static_cast<std::uint64_t>(step));
  });
  const auto expect_truncated = [](const CompressedFileSource& reader) {
    try {
      (void)reader.generate(2);
      FAIL() << "a truncated record must be rejected";
    } catch (const CorruptDataError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated record for step 2"),
                std::string::npos)
          << e.what();
    }
  };
  for (const bool bad_prefix : {false, true}) {
    SCOPED_TRACE(bad_prefix ? "corrupt prefix too" : "intact prefix");
    write_compressed_sequence(source, path);
    std::string bytes = slurp(path);
    const std::uint64_t record = record_offset(bytes, 2);
    if (bad_prefix) {
      // A wrong payload size: the truncation still takes precedence, as
      // when the whole record was read before the prefix was checked.
      bytes[record + 9] = static_cast<char>(bytes[record + 9] ^ 0x01);
      dump(path, bytes);
    }
    CompressedFileSource reader(path);
    const VolumeF first = reader.generate(0);
    // Cut the file in step 2's payload, past its first read chunk.
    std::filesystem::resize_file(
        path, record + CompressedFileSource::kReadChunkBytes + 1000);
    expect_truncated(reader);
    // The steps before the cut still read through the open descriptor.
    EXPECT_TRUE(bitwise_equal(reader.generate(0), first));
  }
  std::remove(path.c_str());
}

TEST(StreamedDecode, ReplacedFileReadsThroughTheOpenDescriptor) {
  const std::string path = "/tmp/ifet_cseq_replaced.cvol";
  const std::string other = "/tmp/ifet_cseq_replacement.cvol";
  const Dims d{8, 8, 8};
  const auto writer = [d](float value) {
    return CallbackSource(d, 1, {0.0, 1.0},
                          [d, value](int) { return VolumeF(d, value); });
  };
  write_compressed_sequence(writer(0.25f), path);
  CompressedFileSource reader(path);
  write_compressed_sequence(writer(0.75f), other);
  std::filesystem::rename(other, path);
  EXPECT_EQ(reader.generate(0).at(3, 3, 3), 0.25f);
  EXPECT_EQ(CompressedFileSource(path).generate(0).at(3, 3, 3), 0.75f);
  std::remove(path.c_str());
}

TEST(PayloadChecksums, TruncationNamesTheMissingStep) {
  // The writer's destructor finalizes a partial index, so an interrupted
  // run is rejected with a message naming exactly where the file ends.
  const std::string path = "/tmp/ifet_cseq_partial.cvol";
  const Dims d{4, 4, 4};
  {
    CompressedSequenceWriter writer(path, d, 3, {0.0, 1.0});
    writer.append(compress_volume(VolumeF(d, 0.5f)));
    // No close(): simulates a writer killed mid-sequence.
  }
  try {
    CompressedFileSource reader(path);
    FAIL() << "partial file must be rejected";
  } catch (const CorruptDataError& e) {
    EXPECT_NE(std::string(e.what()).find("truncates at step 1"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ifet
