// ChunkedEdgeReader — the one reader of graph files.
//
// Reads both supported edge-file formats (text COO and `.pbin`) and yields
// fixed-size edge chunks without ever materializing the graph: peak
// reader memory is O(chunk_edges), not O(m).  read_coo, the ingest
// pipeline and `pimtc convert` all drain it, so every graph file is
// checked here: `.pbin` headers are decoded from the reader's
// own open input, every `.pbin` chunk is checked against the header's node
// bound, and no format yields the reserved id kInvalidNode (2^32-1).
// `.pbin` is mmap-ed when the platform allows it (POSIX, with a silent
// buffered-read fallback), in which case next() returns zero-copy views
// straight into the mapping; text parses block-at-a-time from the
// mapping or from a reused read buffer — no per-line allocation.
//
// Chunk-view lifetime: the span returned by next() stays valid until the
// *second* following next() call.  Internally the non-mapped paths
// alternate between two chunk buffers, which is exactly the depth the
// double-buffered ingest pipeline (engine::ingest_stream) needs: the
// consumer processes chunk k while a producer task parses chunk k+1.
//
// Errors are graph::IoError naming the file and, for text, the 1-based
// line:
//   "pimtc::graph IO error on 'web.txt': line 17482: malformed line ..."
// A `.pbin` payload checksum the header declares is verified incrementally;
// a mismatch throws when the final chunk is consumed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "graph/coo.hpp"

namespace pimtc::graph {

/// The supported on-disk edge formats, dispatched by extension.
enum class FileFormat {
  kText,  ///< "u v" per line (.txt/.text/.el/.edges/.coo/.graph/.tsv)
  kPbin,  ///< versioned header + checksum (.pbin, see pbin.hpp)
};

[[nodiscard]] const char* to_string(FileFormat format) noexcept;

/// Extension dispatch shared by the chunked reader and make_edge_writer.
/// Throws IoError naming the supported formats for an unknown (or missing)
/// extension — a typo'd path fails loudly instead of being parsed as text.
[[nodiscard]] FileFormat file_format_of(const std::filesystem::path& path);

[[nodiscard]] inline bool is_blank(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

/// Strict base-10 u64 parse over a non-NUL-terminated range, the id
/// grammar of every text input (edge lines and update streams): skips
/// leading blanks, then consumes digits only (no sign, no hex).  Saturates
/// instead of wrapping on overflow so the caller's range check still fires.
[[nodiscard]] inline bool parse_u64(const char*& p, const char* end,
                                    std::uint64_t& out) noexcept {
  while (p != end && is_blank(*p)) ++p;
  if (p == end || *p < '0' || *p > '9') return false;
  std::uint64_t v = 0;
  bool overflow = false;
  while (p != end && *p >= '0' && *p <= '9') {
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      overflow = true;
    } else {
      v = v * 10 + digit;
    }
    ++p;
  }
  out = overflow ? std::numeric_limits<std::uint64_t>::max() : v;
  return true;
}

struct ReaderOptions {
  /// Edges per chunk (also the reader's working-set bound: two chunk
  /// buffers on the non-mmap paths).  Must be >= 1.
  std::size_t chunk_edges = std::size_t{1} << 20;

  /// mmap the file (POSIX).  Falls back to buffered reads when mapping is
  /// unavailable or fails; mapped() reports what actually happened.
  bool use_mmap = true;
};

class ChunkedEdgeReader {
 public:
  /// Opens `path`, dispatching the format by extension (file_format_of).
  explicit ChunkedEdgeReader(const std::filesystem::path& path,
                             ReaderOptions options = {});

  ~ChunkedEdgeReader();

  ChunkedEdgeReader(const ChunkedEdgeReader&) = delete;
  ChunkedEdgeReader& operator=(const ChunkedEdgeReader&) = delete;

  /// The next chunk of at most chunk_edges edges, empty exactly at end of
  /// stream.  The view stays valid until the second following next() call
  /// (see the lifetime note above).
  [[nodiscard]] std::span<const Edge> next();

  [[nodiscard]] FileFormat format() const noexcept { return format_; }

  /// True when the file is being served from an mmap (zero-copy chunks for
  /// `.pbin`).
  [[nodiscard]] bool mapped() const noexcept { return map_ != nullptr; }

  /// Edges handed out so far.
  [[nodiscard]] EdgeCount edges_read() const noexcept { return edges_read_; }

  /// Edge count declared by the `.pbin` header.  Lets callers reserve()
  /// exactly.
  [[nodiscard]] std::optional<EdgeCount> declared_edges() const noexcept {
    return declared_edges_;
  }

  /// Node bound declared by the `.pbin` header (num_nodes).
  [[nodiscard]] std::optional<std::uint64_t> declared_nodes() const noexcept {
    return declared_nodes_;
  }

 private:
  void open_input();
  void parse_pbin_header();
  [[nodiscard]] std::span<const Edge> next_pbin();
  [[nodiscard]] std::span<const Edge> next_lines();

  /// Buffered text path: tops up the window, carrying a partial trailing
  /// line.  Returns false when the file is exhausted and the window empty.
  bool refill_window();

  /// Parses one full line [p, end) from the window (blank/comment lines
  /// count toward line_ but emit nothing).
  void consume_line(const char* p, const char* end, std::vector<Edge>& out);

  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void fail_line(const std::string& what) const;

  std::filesystem::path path_;
  FileFormat format_;
  ReaderOptions options_;

  // Input: exactly one of map_ (with its fd) or file_ is active.
  int fd_ = -1;
  const unsigned char* map_ = nullptr;
  std::size_t file_bytes_ = 0;

  std::FILE* file_ = nullptr;

  // `.pbin` cursor (over the mapping or the file).
  std::size_t payload_offset_ = 0;  ///< next unread byte
  std::size_t payload_end_ = 0;
  Xxh64 hash_;
  bool has_checksum_ = false;
  std::uint64_t checksum_expect_ = 0;
  bool checksum_checked_ = false;

  // Text window: the mapping itself, or buf_ refilled with carry.
  std::vector<char> buf_;
  const char* win_ = nullptr;
  const char* win_end_ = nullptr;
  bool input_exhausted_ = false;
  std::uint64_t line_ = 0;  ///< 1-based, the line being parsed

  // Alternating output buffers (non-zero-copy paths).
  std::vector<Edge> out_[2];
  int out_index_ = 0;

  std::optional<EdgeCount> declared_edges_;
  std::optional<std::uint64_t> declared_nodes_;
  EdgeCount edges_read_ = 0;
  bool done_ = false;
};

}  // namespace pimtc::graph
