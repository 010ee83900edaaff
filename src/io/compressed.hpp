// Compressed volume storage and out-of-core streaming.
//
// Paper Sec 7 names the next bottleneck: "one potential bottleneck for
// large data sets is the need to transmit data between the disk and the
// video memory. We will explore this option [fast data decompression] in
// the future." This module is that exploration: volumes are quantized to
// 8 or 16 bits (the paper's renderer samples 8-bit 3D textures anyway) and
// run-length encoded — flow fields are smooth, so RLE on quantized bytes
// bites. A CompressedSequenceFile stores a whole time series with a random-
// access index; CompressedFileSource plugs it into VolumeSequence as a
// disk-backed out-of-core source, so the LRU cache streams decoded steps
// on demand.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// Quantization width for compressed payloads.
enum class QuantBits : std::uint8_t { k8 = 8, k16 = 16 };

/// An encoded volume: quantization range + RLE payload.
struct CompressedVolume {
  Dims dims{};
  QuantBits bits = QuantBits::k8;
  float value_lo = 0.0f;
  float value_hi = 0.0f;
  std::vector<std::uint8_t> payload;  ///< RLE stream of quantized samples.

  /// Encoded bytes (payload + fixed header fields).
  std::size_t byte_size() const { return payload.size() + 24; }
  /// Raw float32 bytes of the same volume.
  std::size_t raw_bytes() const { return dims.count() * sizeof(float); }
  double compression_ratio() const {
    return static_cast<double>(raw_bytes()) /
           static_cast<double>(byte_size());
  }
};

/// Quantize + RLE-encode. Reconstruction error is bounded by half a
/// quantization step: (hi-lo) / (2^bits - 1) / 2.
CompressedVolume compress_volume(const VolumeF& volume,
                                 QuantBits bits = QuantBits::k8);

/// Decode back to float32.
VolumeF decompress_volume(const CompressedVolume& compressed);

/// Maximum absolute reconstruction error guaranteed by the quantization.
double quantization_error_bound(const CompressedVolume& compressed);

/// Multi-step compressed container with a random-access index.
///
/// Layout ("ifet-cseq2"): a text header line (dims, steps, value range and
/// the brick size), 32-byte index entries (payload offset/size +
/// brick-record offset/size per step), then per-step payload records
/// interleaved with brick records. A payload record is
/// `bits u8 | lo f32 | hi f32 | payload_size u64 | payload | crc32`, the
/// CRC covering everything before it. A brick record is the step's
/// serialized BrickIndex (built from the *decoded* reconstruction, so
/// ranges stay valid under quantization) followed by its CRC32 — the
/// renderer's empty-space-skip metadata, readable without decoding the
/// payload. This is the only layout written or read; every CRC is verified
/// on read (io/checksum.hpp, docs/ROBUSTNESS.md).
class CompressedSequenceWriter {
 public:
  /// `num_steps` payloads must then be appended in order. Bricks are
  /// BrickIndex::kDefaultBrickSize on an edge.
  CompressedSequenceWriter(const std::string& path, Dims dims, int num_steps,
                           std::pair<double, double> value_range);
  ~CompressedSequenceWriter();

  void append(const CompressedVolume& volume);

  /// Steps appended so far.
  int steps_written() const { return steps_written_; }
  /// Finalize the index; called automatically by the destructor.
  void close();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  int steps_written_ = 0;
};

/// Disk-backed VolumeSource decoding steps on demand.
///
/// The container is opened once, read-only, and held until destruction;
/// every read is a pread at an index offset, so concurrent decodes share
/// the descriptor without a lock and a file replaced after open is still
/// read through the original one. A step's record streams through one
/// fixed buffer of kReadChunkBytes: each chunk is checksummed and
/// run-length decoded in the same pass, and the CRC verdict still comes
/// before any decode error (docs/ROBUSTNESS.md).
class CompressedFileSource final : public VolumeSource {
 public:
  /// Size of the one buffer a record is read and decoded through.
  static constexpr std::size_t kReadChunkBytes = 64 * 1024;

  explicit CompressedFileSource(const std::string& path);

  Dims dims() const override { return dims_; }
  int num_steps() const override { return num_steps_; }
  std::pair<double, double> value_range() const override { return range_; }
  /// generate_into() with no storage to reuse.
  VolumeF generate(int step) const override;
  /// Decodes `step` into `storage`'s buffer when it has this source's
  /// dims (taking it, so `storage` is left empty), else into a fresh one.
  VolumeF generate_into(int step, VolumeF& storage) const override;

  /// Ingest-time brick metadata from the step's brick record: a read + CRC
  /// check of that small record only — the compressed payload is never
  /// touched.
  std::shared_ptr<const BrickIndex> brick_metadata(int step) const override;

  /// Brick edge carried by the container header.
  int container_brick_size() const { return brick_size_; }

  /// Total compressed payload bytes (for the I/O accounting bench).
  std::size_t total_payload_bytes() const;

 private:
  /// An open file descriptor, closed on destruction; not copyable, so
  /// neither is the source.
  struct Descriptor {
    int fd = -1;
    Descriptor() = default;
    Descriptor(const Descriptor&) = delete;
    Descriptor& operator=(const Descriptor&) = delete;
    ~Descriptor();
  };

  std::string path_;
  Descriptor file_;
  Dims dims_{};
  int num_steps_ = 0;
  int brick_size_ = 0;
  std::pair<double, double> range_{0.0, 1.0};
  struct IndexEntry {
    std::uint64_t offset;
    std::uint64_t size;
    std::uint64_t brick_offset;
    std::uint64_t brick_size;  // bytes incl. CRC
  };
  std::vector<IndexEntry> index_;
};

/// Convenience: compress every step of `source` into `path`.
void write_compressed_sequence(const VolumeSource& source,
                               const std::string& path,
                               QuantBits bits = QuantBits::k8);

}  // namespace ifet
