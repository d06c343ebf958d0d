// `.pbin` — the compact binary edge format of the out-of-core data path.
//
// Text parsing dominates end-to-end time once graphs stop fitting in page
// cache (the GraphChallenge survey's ingest observation);
// `.pbin` stores the same COO stream as fixed-width little-endian records
// behind a 40-byte header, so ingest becomes a sequential byte copy and the
// chunked reader (stream_reader.hpp) can mmap it and hand out zero-copy
// chunk views.  Layout, all fields little-endian:
//
//   offset  size  field
//        0     8  magic "PIMTCPB1"
//        8     4  version (currently 1)
//       12     4  flags (bit 0: checksum present)
//       16     8  num_nodes — one past the largest referenced node id
//       24     8  num_edges
//       32     8  XXH64 of the edge payload (seed 0), 0 when the flag is off
//       40  m*8  edge records: u then v, 4 bytes each
//
// The writer always sets the checksum flag.  The chunked reader verifies
// the checksum whenever the flag is set; a file with the flag clear, which
// version 1 allows, reads unchecked.  This file only defines the
// format: the one reader is ChunkedEdgeReader (stream_reader.hpp), which
// also checks every record against num_nodes, and the one writer is the
// `.pbin` EdgeWriter from make_edge_writer (io.hpp), which back-patches the
// header on finish().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <filesystem>

#include "common/types.hpp"

namespace pimtc::graph {

inline constexpr std::array<char, 8> kPbinMagic = {'P', 'I', 'M', 'T',
                                                   'C', 'P', 'B', '1'};
inline constexpr std::uint32_t kPbinVersion = 1;
inline constexpr std::uint32_t kPbinFlagChecksum = 1u << 0;
inline constexpr std::size_t kPbinHeaderBytes = 40;

/// Decoded `.pbin` header.
struct PbinInfo {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t num_nodes = 0;
  EdgeCount num_edges = 0;
  std::uint64_t checksum = 0;

  [[nodiscard]] bool has_checksum() const noexcept {
    return (flags & kPbinFlagChecksum) != 0;
  }
};

/// Serializes `info` (with the magic) into the fixed on-disk header.
void encode_pbin_header(const PbinInfo& info,
                        unsigned char out[kPbinHeaderBytes]) noexcept;

/// Decodes and validates a header read from a file of `file_bytes` bytes:
/// magic, version, flag bits, a node bound of at most 2^32-1 (the largest
/// id is 2^32-2; kInvalidNode is reserved), and a declared payload that
/// fits the file.  Throws IoError naming `path`.
[[nodiscard]] PbinInfo decode_pbin_header(
    const unsigned char in[kPbinHeaderBytes], std::uint64_t file_bytes,
    const std::filesystem::path& path);

}  // namespace pimtc::graph
