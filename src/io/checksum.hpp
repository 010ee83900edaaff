// Payload checksums for the volume file formats (docs/ROBUSTNESS.md).
//
// Both self-describing formats (.vol files and .cvol sequence frames and
// brick records) carry a CRC32 over their payload, written always and
// verified on every read, so a bit flip between writer and reader
// surfaces as a typed ChecksumMismatchError (util/io_error.hpp) instead
// of silently feeding garbage voxels to the classifier.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ifet {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `size` bytes.
/// Chainable: pass a previous result as `seed` to extend the sum.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

}  // namespace ifet
