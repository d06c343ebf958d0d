#include "graph/pbin.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include "graph/io_error.hpp"

namespace pimtc::graph {

// The format is defined little-endian and the records are written by
// memcpy; a big-endian port would need byte-swapping shims here.
static_assert(std::endian::native == std::endian::little,
              ".pbin IO assumes a little-endian host");

void encode_pbin_header(const PbinInfo& info,
                        unsigned char out[kPbinHeaderBytes]) noexcept {
  std::memcpy(out, kPbinMagic.data(), kPbinMagic.size());
  std::memcpy(out + 8, &info.version, 4);
  std::memcpy(out + 12, &info.flags, 4);
  std::memcpy(out + 16, &info.num_nodes, 8);
  std::memcpy(out + 24, &info.num_edges, 8);
  std::memcpy(out + 32, &info.checksum, 8);
}

PbinInfo decode_pbin_header(const unsigned char in[kPbinHeaderBytes],
                            std::uint64_t file_bytes,
                            const std::filesystem::path& path) {
  if (std::memcmp(in, kPbinMagic.data(), kPbinMagic.size()) != 0) {
    throw IoError(path, "bad magic (not a .pbin edge file)");
  }
  PbinInfo info;
  std::memcpy(&info.version, in + 8, 4);
  std::memcpy(&info.flags, in + 12, 4);
  std::memcpy(&info.num_nodes, in + 16, 8);
  std::memcpy(&info.num_edges, in + 24, 8);
  std::memcpy(&info.checksum, in + 32, 8);
  if (info.version != kPbinVersion) {
    throw IoError(path, "unsupported .pbin version " +
                            std::to_string(info.version) +
                            " (this build reads version " +
                            std::to_string(kPbinVersion) + ")");
  }
  if ((info.flags & ~kPbinFlagChecksum) != 0) {
    // A version-1 file must not carry flag bits this build cannot honor:
    // silently ignoring them risks misreading the payload.
    char hex[16];
    std::snprintf(hex, sizeof hex, "%x", info.flags & ~kPbinFlagChecksum);
    throw IoError(path, "unknown .pbin flag bits 0x" + std::string(hex) +
                            " (this build understands only the checksum "
                            "flag)");
  }
  if (info.num_nodes > kInvalidNode) {
    throw IoError(path, "header node bound " + std::to_string(info.num_nodes) +
                            " > 2^32-1 (node ids stop at 2^32-2)");
  }
  // Divide instead of multiplying: `num_edges * sizeof(Edge)` wraps for a
  // hostile header (num_edges ~ 2^61), which would pass the size check.
  if (file_bytes < kPbinHeaderBytes ||
      (file_bytes - kPbinHeaderBytes) / sizeof(Edge) < info.num_edges) {
    throw IoError(path, "truncated edge payload (header declares " +
                            std::to_string(info.num_edges) + " edges)");
  }
  return info;
}

}  // namespace pimtc::graph
