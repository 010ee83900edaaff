// Volume file I/O: the .vol format.
//
// A .vol file is a float32 payload in x-fastest order preceded by a
// one-line ASCII header "ifet-vol <dx> <dy> <dz> crc32 <sum>\n", so files
// are self-describing and the payload is verifiable. The header always
// carries the checksum; a header without it is rejected.
// Byte order is host order (the library targets a single machine, like the
// paper's workstation pipeline).
//
// Failures throw the typed taxonomy of util/io_error.hpp: NotFoundError
// when the file cannot be opened, CorruptDataError for bad headers and
// truncated payloads, and its ChecksumMismatchError for a payload that
// fails its CRC (docs/ROBUSTNESS.md).
#pragma once

#include <string>

#include "volume/volume.hpp"

namespace ifet {

/// Write a self-describing, checksummed .vol file.
void write_vol(const VolumeF& volume, const std::string& path);

/// Read a .vol file, verifying its checksum.
VolumeF read_vol(const std::string& path);

}  // namespace ifet
