#include "io/volume_io.hpp"

#include <fstream>
#include <sstream>

#include "io/checksum.hpp"
#include "util/io_error.hpp"

namespace ifet {

namespace {

std::size_t payload_bytes(const VolumeF& volume) {
  return volume.size() * sizeof(float);
}

std::uint32_t payload_crc(const VolumeF& volume) {
  return crc32(volume.data().data(), payload_bytes(volume));
}

}  // namespace

void write_vol(const VolumeF& volume, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) throw NotFoundError("write_vol: cannot open " + path);
  out << "ifet-vol " << volume.dims().x << ' ' << volume.dims().y << ' '
      << volume.dims().z << " crc32 " << payload_crc(volume) << '\n';
  out.write(reinterpret_cast<const char*>(volume.data().data()),
            static_cast<std::streamsize>(payload_bytes(volume)));
  if (!out.good()) throw IoError("write_vol: write failed for " + path);
}

VolumeF read_vol(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw NotFoundError("read_vol: cannot open " + path);
  std::string line;
  std::getline(in, line);
  std::istringstream header(line);
  std::string magic;
  Dims dims;
  header >> magic >> dims.x >> dims.y >> dims.z;
  if (magic != "ifet-vol" || !header) {
    throw CorruptDataError("read_vol: bad header in " + path);
  }
  std::string crc_tag;
  std::uint32_t expected_crc = 0;
  if (!(header >> crc_tag) || crc_tag != "crc32" ||
      !(header >> expected_crc)) {
    throw CorruptDataError("read_vol: missing or malformed checksum field in " +
                           path);
  }
  VolumeF volume(dims);
  in.read(reinterpret_cast<char*>(volume.data().data()),
          static_cast<std::streamsize>(payload_bytes(volume)));
  if (in.gcount() != static_cast<std::streamsize>(payload_bytes(volume))) {
    throw CorruptDataError("read_vol: truncated payload in " + path);
  }
  if (payload_crc(volume) != expected_crc) {
    throw ChecksumMismatchError("read_vol: checksum mismatch in " + path +
                                " (payload corrupted on disk or in transit)");
  }
  return volume;
}

}  // namespace ifet
