#include "io/compressed.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>

#include "io/checksum.hpp"
#include "util/io_error.hpp"
#include "volume/brick_index.hpp"

namespace ifet {

namespace {

// The header line carries the brick size; each 32-byte index entry holds
// payload offset/size + brick offset/size, and each step has a CRC'd
// BrickIndex record next to its payload.
constexpr char kMagic[] = "ifet-cseq2";
// Fixed-size prefix of a per-step record: bits u8, lo f32, hi f32,
// payload-size u64. A CRC32 over prefix+payload follows the payload.
constexpr std::size_t kRecordPrefixBytes = 17;
constexpr std::size_t kRecordCrcBytes = 4;
constexpr std::size_t kIndexEntryBytes = 32;

inline std::uint32_t quant_levels(QuantBits bits) {
  return bits == QuantBits::k8 ? 255u : 65535u;
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) out.push_back((v >> (8 * b)) & 0xff);
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int b = 0; b < 4; ++b) out.push_back((v >> (8 * b)) & 0xff);
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int b = 0; b < 4; ++b) v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  return v;
}

constexpr char kEndsEarly[] =
    "decompress_volume: RLE stream ends mid-volume (truncated payload)";
constexpr char kRunOverflows[] = "decompress_volume: run overflows volume";
constexpr char kTrailingBytes[] = "decompress_volume: trailing payload bytes";

/// The one run-length decode loop, shared by decompress_volume and
/// CompressedFileSource::generate_into. The payload may arrive in pieces
/// of any size: a run split across two pieces is carried into the next.
/// The first malformed-stream error is held, not thrown, and stops the
/// decode, so a reader can give a checksum verdict precedence over it.
class RleDecoder {
 public:
  RleDecoder(QuantBits bits, float lo, float hi, std::span<float> out)
      : wide_(bits != QuantBits::k8),
        lo_(lo),
        span_(hi > lo ? hi - lo : 1.0),
        levels_(quant_levels(bits)),
        out_(out.data()),
        voxels_(out.size()) {
    // 8-bit samples dequantize through a table holding, per level, the
    // value the per-run expression gives for it.
    if (!wide_) {
      for (std::uint32_t q = 0; q < 256; ++q) table_[q] = dequantize(q);
    }
  }

  void feed(const std::uint8_t* bytes, std::size_t size) {
    if (error_ != nullptr) return;
    const std::size_t stride = wide_ ? 3 : 2;
    if (carried_ != 0) {
      const std::size_t take = std::min(stride - carried_, size);
      std::memcpy(carry_ + carried_, bytes, take);
      carried_ += take;
      bytes += take;
      size -= take;
      if (carried_ < stride) return;
      carried_ = 0;
      if (!runs(carry_, stride)) return;
    }
    const std::size_t whole = size - size % stride;
    if (!runs(bytes, whole)) return;
    carried_ = size - whole;
    std::memcpy(carry_, bytes + whole, carried_);
  }

  /// The held error, or nullptr when the payload decoded exactly the
  /// volume.
  const char* finish() const {
    if (error_ != nullptr) return error_;
    if (voxel_ < voxels_) return kEndsEarly;
    return carried_ != 0 ? kTrailingBytes : nullptr;
  }

 private:
  float dequantize(std::uint32_t q) const {
    return static_cast<float>(lo_ + span_ * q / static_cast<double>(levels_));
  }

  bool runs(const std::uint8_t* p, std::size_t size) {
    return wide_ ? runs_of<2>(p, size) : runs_of<1>(p, size);
  }

  /// Decodes `size` bytes of whole (run, sample) records; false once the
  /// stream is malformed.
  template <std::size_t kSampleBytes>
  bool runs_of(const std::uint8_t* p, std::size_t size) {
    float* dst = out_ + voxel_;
    float* const last = out_ + voxels_;
    const char* error = nullptr;
    for (const std::uint8_t* end = p + size; p != end; p += 1 + kSampleBytes) {
      if (dst == last) {
        error = kTrailingBytes;
        break;
      }
      const std::uint32_t run = p[0];
      float value;
      if constexpr (kSampleBytes == 1) {
        value = table_[p[1]];
      } else {
        value = dequantize(static_cast<std::uint32_t>(p[1]) |
                           static_cast<std::uint32_t>(p[2]) << 8);
      }
      const auto left = static_cast<std::size_t>(last - dst);
      if (run > left) {
        error = kRunOverflows;
        break;
      }
      if (left >= 8) {
        // Eight stores whatever the run, so short runs take no branch: a
        // shorter run's surplus lies where the next runs write.
        for (int i = 0; i < 8; ++i) dst[i] = value;
        for (std::uint32_t i = 8; i < run; ++i) dst[i] = value;
      } else {
        for (std::uint32_t i = 0; i < run; ++i) dst[i] = value;
      }
      dst += run;
    }
    voxel_ = static_cast<std::size_t>(dst - out_);
    error_ = error;
    return error == nullptr;
  }

  bool wide_;
  float lo_;
  double span_;
  std::uint32_t levels_;
  float* out_;
  std::size_t voxels_;
  std::size_t voxel_ = 0;
  float table_[256] = {};
  std::uint8_t carry_[3] = {};
  std::size_t carried_ = 0;
  const char* error_ = nullptr;
};

/// Reads up to `size` bytes at `offset`; fewer only at end of file or on
/// a read error.
std::size_t read_at(int fd, void* buffer, std::size_t size,
                    std::uint64_t offset) {
  auto* out = static_cast<std::uint8_t*>(buffer);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  return done;
}

}  // namespace

CompressedVolume compress_volume(const VolumeF& volume, QuantBits bits) {
  IFET_REQUIRE(!volume.empty(), "compress_volume: empty volume");
  CompressedVolume out;
  out.dims = volume.dims();
  out.bits = bits;
  float lo = volume[0], hi = volume[0];
  for (float v : volume.data()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  out.value_lo = lo;
  out.value_hi = hi;
  const double span = hi > lo ? hi - lo : 1.0;
  const std::uint32_t levels = quant_levels(bits);

  // Quantize, then run-length encode (run byte 1..255 + sample).
  auto quantize = [&](float v) {
    double t = (v - lo) / span;
    return static_cast<std::uint32_t>(std::lround(t * levels));
  };
  std::uint32_t current = quantize(volume[0]);
  std::uint32_t run = 0;
  auto flush = [&]() {
    while (run > 0) {
      std::uint8_t chunk = static_cast<std::uint8_t>(std::min(run, 255u));
      out.payload.push_back(chunk);
      out.payload.push_back(static_cast<std::uint8_t>(current & 0xff));
      if (bits == QuantBits::k16) {
        out.payload.push_back(static_cast<std::uint8_t>(current >> 8));
      }
      run -= chunk;
    }
  };
  for (float v : volume.data()) {
    std::uint32_t q = quantize(v);
    if (q == current) {
      ++run;
    } else {
      flush();
      current = q;
      run = 1;
    }
  }
  flush();
  return out;
}

VolumeF decompress_volume(const CompressedVolume& compressed) {
  VolumeF out(compressed.dims);
  RleDecoder decoder(compressed.bits, compressed.value_lo, compressed.value_hi,
                     out.data());
  decoder.feed(compressed.payload.data(), compressed.payload.size());
  if (const char* error = decoder.finish()) throw CorruptDataError(error);
  return out;
}

double quantization_error_bound(const CompressedVolume& compressed) {
  double span = compressed.value_hi - compressed.value_lo;
  if (span <= 0.0) return 0.0;
  return 0.5 * span / quant_levels(compressed.bits);
}

// --- Sequence container ------------------------------------------------------

struct CompressedSequenceWriter::Impl {
  std::ofstream out;
  std::streampos index_pos;
  std::vector<std::uint8_t> index_bytes;
  int num_steps;
};

CompressedSequenceWriter::CompressedSequenceWriter(
    const std::string& path, Dims dims, int num_steps,
    std::pair<double, double> value_range)
    : impl_(std::make_unique<Impl>()) {
  IFET_REQUIRE(num_steps > 0, "CompressedSequenceWriter: need steps");
  impl_->out.open(path, std::ios::binary);
  if (!impl_->out.good()) {
    throw NotFoundError("CompressedSequenceWriter: cannot open " + path);
  }
  impl_->num_steps = num_steps;
  impl_->out << kMagic << ' ' << dims.x << ' ' << dims.y << ' ' << dims.z
             << ' ' << num_steps << ' ' << value_range.first << ' '
             << value_range.second << ' ' << BrickIndex::kDefaultBrickSize
             << '\n';
  impl_->index_pos = impl_->out.tellp();
  // Reserve the index region, filled in close().
  std::vector<char> zeros(
      static_cast<std::size_t>(num_steps) * kIndexEntryBytes, 0);
  impl_->out.write(zeros.data(),
                   static_cast<std::streamsize>(zeros.size()));
}

CompressedSequenceWriter::~CompressedSequenceWriter() {
  if (impl_ && impl_->out.is_open()) {
    if (steps_written_ == impl_->num_steps) {
      close();
    } else {
      // Incomplete sequence: never throw from a destructor. Finalize
      // explicitly anyway — write the partial index so the reader can
      // report *which* step the file truncates at (CorruptDataError with
      // the step number) instead of rejecting an all-zero index with a
      // generic message. ofstream without exceptions enabled only sets
      // failbit on error, so this cannot throw.
      impl_->out.seekp(impl_->index_pos);
      impl_->out.write(
          reinterpret_cast<const char*>(impl_->index_bytes.data()),
          static_cast<std::streamsize>(impl_->index_bytes.size()));
      impl_->out.close();
    }
  }
}

void CompressedSequenceWriter::append(const CompressedVolume& volume) {
  IFET_REQUIRE(steps_written_ < impl_->num_steps,
               "CompressedSequenceWriter: too many steps appended");
  // Per-step record: bits u8, lo f32, hi f32, payload u64 + bytes, then a
  // CRC32 over everything before it.
  std::vector<std::uint8_t> record;
  record.push_back(static_cast<std::uint8_t>(volume.bits));
  std::uint8_t fbytes[4];
  std::memcpy(fbytes, &volume.value_lo, 4);
  record.insert(record.end(), fbytes, fbytes + 4);
  std::memcpy(fbytes, &volume.value_hi, 4);
  record.insert(record.end(), fbytes, fbytes + 4);
  append_u64(record, volume.payload.size());
  record.insert(record.end(), volume.payload.begin(), volume.payload.end());
  append_u32(record, crc32(record.data(), record.size()));

  auto offset = static_cast<std::uint64_t>(impl_->out.tellp());
  impl_->out.write(reinterpret_cast<const char*>(record.data()),
                   static_cast<std::streamsize>(record.size()));
  if (!impl_->out.good()) {
    throw IoError("CompressedSequenceWriter: write failed");
  }
  append_u64(impl_->index_bytes, offset);
  append_u64(impl_->index_bytes, record.size());

  // Brick ranges MUST cover the *reconstructed* values the renderer will
  // actually sample: quantization can push a decoded voxel up to half a
  // quant step outside the original range, so building from `volume`'s
  // decoded form (not the pre-compression floats) keeps the skip
  // condition provable.
  const BrickIndex bricks = BrickIndex::build(decompress_volume(volume));
  std::vector<std::uint8_t> brick_record = bricks.serialize();
  append_u32(brick_record, crc32(brick_record.data(), brick_record.size()));
  auto brick_offset = static_cast<std::uint64_t>(impl_->out.tellp());
  impl_->out.write(reinterpret_cast<const char*>(brick_record.data()),
                   static_cast<std::streamsize>(brick_record.size()));
  if (!impl_->out.good()) {
    throw IoError("CompressedSequenceWriter: brick-record write failed");
  }
  append_u64(impl_->index_bytes, brick_offset);
  append_u64(impl_->index_bytes, brick_record.size());
  ++steps_written_;
}

void CompressedSequenceWriter::close() {
  IFET_REQUIRE(steps_written_ == impl_->num_steps,
               "CompressedSequenceWriter: closed before all steps appended");
  impl_->out.seekp(impl_->index_pos);
  impl_->out.write(reinterpret_cast<const char*>(impl_->index_bytes.data()),
                   static_cast<std::streamsize>(impl_->index_bytes.size()));
  impl_->out.close();
}

CompressedFileSource::Descriptor::~Descriptor() {
  if (fd >= 0) ::close(fd);
}

CompressedFileSource::CompressedFileSource(const std::string& path)
    : path_(path) {
  file_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file_.fd < 0) {
    throw NotFoundError("CompressedFileSource: cannot open " + path);
  }
  // The header is one text line, the binary index follows it.
  char head[512] = {};
  const std::size_t head_bytes = read_at(file_.fd, head, sizeof head, 0);
  const void* newline = std::memchr(head, '\n', head_bytes);
  const std::string line(head, newline != nullptr
                                   ? static_cast<const char*>(newline) - head
                                   : head_bytes);
  const std::uint64_t index_offset =
      line.size() + (newline != nullptr ? 1 : 0);
  std::istringstream header(line);
  std::string magic;
  header >> magic >> dims_.x >> dims_.y >> dims_.z >> num_steps_ >>
      range_.first >> range_.second >> brick_size_;
  if (magic != kMagic || !header || num_steps_ <= 0) {
    throw CorruptDataError("CompressedFileSource: bad header in " + path);
  }
  if (brick_size_ <= 0) {
    throw CorruptDataError(
        "CompressedFileSource: header without a positive brick size in " +
        path);
  }
  std::vector<std::uint8_t> raw(static_cast<std::size_t>(num_steps_) *
                                kIndexEntryBytes);
  if (read_at(file_.fd, raw.data(), raw.size(), index_offset) != raw.size()) {
    throw CorruptDataError("CompressedFileSource: truncated index in " +
                           path);
  }
  index_.resize(static_cast<std::size_t>(num_steps_));
  for (int s = 0; s < num_steps_; ++s) {
    IndexEntry& entry = index_[static_cast<std::size_t>(s)];
    const std::uint8_t* p = raw.data() + kIndexEntryBytes * s;
    entry.offset = read_u64(p);
    entry.size = read_u64(p + 8);
    entry.brick_offset = read_u64(p + 16);
    entry.brick_size = read_u64(p + 24);
    if (entry.size == 0 || entry.brick_size == 0) {
      throw CorruptDataError(
          "CompressedFileSource: " + path + " truncates at step " +
          std::to_string(s) +
          " (writer closed before all steps were appended)");
    }
  }
}

VolumeF CompressedFileSource::generate(int step) const {
  VolumeF none;
  return generate_into(step, none);
}

VolumeF CompressedFileSource::generate_into(int step,
                                            VolumeF& storage) const {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "CompressedFileSource: step out of range");
  const IndexEntry& entry = index_[static_cast<std::size_t>(step)];
  const auto where = [&] {
    return " for step " + std::to_string(step) + " in " + path_;
  };
  const auto truncated = [&] {
    return CorruptDataError("CompressedFileSource: truncated record" +
                            where());
  };
  // A malformed prefix of a record the file also cuts short reports the
  // truncation, as it did when the whole record was read first.
  const auto bad_prefix = [&](const char* what) {
    struct stat st {};
    if (::fstat(file_.fd, &st) == 0) {
      const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
      if (entry.offset > file_bytes ||
          file_bytes - entry.offset < entry.size) {
        return truncated();
      }
    }
    return CorruptDataError(std::string("CompressedFileSource: ") + what +
                            where());
  };

  // One fixed buffer: the record streams through it chunk by chunk. Left
  // uninitialized: only bytes a read has just filled are used.
  std::array<std::uint8_t, kReadChunkBytes> chunk;
  std::size_t got = static_cast<std::size_t>(
      std::min<std::uint64_t>(entry.size, kReadChunkBytes));
  if (read_at(file_.fd, chunk.data(), got, entry.offset) != got) {
    throw truncated();
  }
  // The prefix is checked against the index entry before any payload
  // byte is used.
  if (entry.size < kRecordPrefixBytes) throw bad_prefix("record too small");
  const auto bits = static_cast<QuantBits>(chunk[0]);
  float lo = 0.0f, hi = 0.0f;
  std::memcpy(&lo, chunk.data() + 1, 4);
  std::memcpy(&hi, chunk.data() + 5, 4);
  const std::uint64_t payload_size = read_u64(chunk.data() + 9);
  if (payload_size > entry.size - kRecordPrefixBytes) {
    throw bad_prefix("payload size overruns record");
  }
  const std::uint64_t checked_bytes = kRecordPrefixBytes + payload_size;
  if (entry.size != checked_bytes + kRecordCrcBytes) {
    throw bad_prefix("payload size mismatch");
  }

  VolumeF out = !storage.empty() && storage.dims() == dims_
                    ? std::move(storage)
                    : VolumeF(dims_);
  RleDecoder decoder(bits, lo, hi, out.data());
  std::uint32_t crc = 0;
  std::uint8_t stored_crc[kRecordCrcBytes] = {};
  for (std::uint64_t pos = 0;;) {
    // This chunk holds record bytes [pos, pos + got): checksummed up to
    // checked_bytes, payload from kRecordPrefixBytes, then the CRC.
    const std::size_t checked = static_cast<std::size_t>(std::min<
        std::uint64_t>(got, checked_bytes - std::min(pos, checked_bytes)));
    crc = crc32(chunk.data(), checked, crc);
    const std::size_t payload_from =
        pos < kRecordPrefixBytes ? kRecordPrefixBytes - pos : 0;
    if (checked > payload_from) {
      decoder.feed(chunk.data() + payload_from, checked - payload_from);
    }
    for (std::size_t i = checked; i < got; ++i) {
      stored_crc[pos + i - checked_bytes] = chunk[i];
    }
    pos += got;
    if (pos == entry.size) break;
    got = static_cast<std::size_t>(
        std::min<std::uint64_t>(entry.size - pos, kReadChunkBytes));
    if (read_at(file_.fd, chunk.data(), got, entry.offset + pos) != got) {
      throw truncated();
    }
  }

  // The verdict: the frame's CRC outranks any decode error.
  if (crc != read_u32(stored_crc)) {
    throw ChecksumMismatchError("CompressedFileSource: checksum mismatch" +
                                where() +
                                " (frame corrupted on disk or in transit)");
  }
  if (const char* error = decoder.finish()) throw CorruptDataError(error);
  return out;
}

std::shared_ptr<const BrickIndex> CompressedFileSource::brick_metadata(
    int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "CompressedFileSource: step out of range");
  const IndexEntry& entry = index_[static_cast<std::size_t>(step)];
  // A read of the small brick record only; the step's compressed payload
  // is never read, let alone decoded.
  std::vector<std::uint8_t> record(entry.brick_size);
  if (read_at(file_.fd, record.data(), record.size(), entry.brick_offset) !=
      record.size()) {
    throw CorruptDataError(
        "CompressedFileSource: truncated brick record for step " +
        std::to_string(step) + " in " + path_);
  }
  if (record.size() <= kRecordCrcBytes) {
    throw CorruptDataError(
        "CompressedFileSource: brick record too small for step " +
        std::to_string(step) + " in " + path_);
  }
  const std::size_t checked_bytes = record.size() - kRecordCrcBytes;
  const std::uint32_t expected = read_u32(record.data() + checked_bytes);
  if (crc32(record.data(), checked_bytes) != expected) {
    throw ChecksumMismatchError(
        "CompressedFileSource: brick-record checksum mismatch for step " +
        std::to_string(step) + " in " + path_ +
        " (section corrupted on disk or in transit)");
  }
  return std::make_shared<const BrickIndex>(BrickIndex::deserialize(
      dims_, brick_size_, record.data(), checked_bytes));
}

std::size_t CompressedFileSource::total_payload_bytes() const {
  std::size_t total = 0;
  for (const auto& entry : index_) total += entry.size;
  return total;
}

void write_compressed_sequence(const VolumeSource& source,
                               const std::string& path, QuantBits bits) {
  CompressedSequenceWriter writer(path, source.dims(), source.num_steps(),
                                  source.value_range());
  for (int s = 0; s < source.num_steps(); ++s) {
    writer.append(compress_volume(source.generate(s), bits));
  }
  writer.close();
}

}  // namespace ifet
