#include "graph/stream_reader.hpp"

#include <cstring>
#include <stdexcept>

#include "graph/io_error.hpp"
#include "graph/pbin.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PIMTC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define PIMTC_HAVE_MMAP 0
#endif

namespace pimtc::graph {
namespace {

constexpr std::size_t kReadBlock = std::size_t{1} << 20;  // buffered IO block

}  // namespace

const char* to_string(FileFormat format) noexcept {
  switch (format) {
    case FileFormat::kText: return "text";
    case FileFormat::kPbin: return "pbin";
  }
  return "?";
}

FileFormat file_format_of(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  if (ext == ".pbin") return FileFormat::kPbin;
  if (ext == ".txt" || ext == ".text" || ext == ".el" || ext == ".edges" ||
      ext == ".coo" || ext == ".graph" || ext == ".tsv") {
    return FileFormat::kText;
  }
  throw IoError(path,
                "unsupported graph file extension '" + ext +
                    "' (supported: .txt/.text/.el/.edges/.coo/.graph/.tsv "
                    "text COO, .pbin pimtc binary)");
}

ChunkedEdgeReader::ChunkedEdgeReader(const std::filesystem::path& path,
                                     ReaderOptions options)
    : path_(path), format_(file_format_of(path)), options_(options) {
  if (options_.chunk_edges == 0) {
    throw std::invalid_argument("ChunkedEdgeReader: chunk_edges must be >= 1");
  }
  open_input();
  if (format_ == FileFormat::kPbin) parse_pbin_header();
}

ChunkedEdgeReader::~ChunkedEdgeReader() {
#if PIMTC_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(map_), file_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
#endif
  if (file_ != nullptr) std::fclose(file_);
}

void ChunkedEdgeReader::fail(const std::string& what) const {
  throw IoError(path_, what);
}

void ChunkedEdgeReader::fail_line(const std::string& what) const {
  fail("line " + std::to_string(line_) + ": " + what);
}

void ChunkedEdgeReader::open_input() {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path_, ec);
  if (ec) fail("cannot open for reading");
  file_bytes_ = static_cast<std::size_t>(size);

#if PIMTC_HAVE_MMAP
  if (options_.use_mmap && file_bytes_ > 0) {
    fd_ = ::open(path_.c_str(), O_RDONLY);
    if (fd_ >= 0) {
      void* m =
          ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
      if (m != MAP_FAILED) {
        map_ = static_cast<const unsigned char*>(m);
        // Sequential streaming access: let the kernel read ahead freely.
        ::madvise(m, file_bytes_, MADV_SEQUENTIAL);
        win_ = reinterpret_cast<const char*>(map_);
        win_end_ = win_ + file_bytes_;
        input_exhausted_ = true;  // the whole file is the window
        return;
      }
      ::close(fd_);
      fd_ = -1;
    }
    // Fall through to the buffered path: mapping is an optimization, not a
    // requirement.
  }
#endif
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) fail("cannot open for reading");
  win_ = win_end_ = nullptr;
}

void ChunkedEdgeReader::parse_pbin_header() {
  unsigned char raw[kPbinHeaderBytes];
  if (file_bytes_ < sizeof raw) fail("truncated header");
  if (map_ != nullptr) {
    std::memcpy(raw, map_, sizeof raw);
  } else if (std::fread(raw, 1, sizeof raw, file_) != sizeof raw) {
    fail("truncated header");
  }
  const PbinInfo info = decode_pbin_header(raw, file_bytes_, path_);
  declared_edges_ = info.num_edges;
  declared_nodes_ = info.num_nodes;
  has_checksum_ = info.has_checksum();
  checksum_expect_ = info.checksum;
  payload_offset_ = sizeof raw;
  payload_end_ = sizeof raw + info.num_edges * sizeof(Edge);
}

bool ChunkedEdgeReader::refill_window() {
  if (map_ != nullptr || file_ == nullptr || input_exhausted_) return false;
  const std::size_t rem = static_cast<std::size_t>(win_end_ - win_);
  if (rem > 0 && win_ != buf_.data()) {
    std::memmove(buf_.data(), win_, rem);
  }
  // One growable block buffer reused for the whole file; grows only when a
  // single line exceeds it.
  if (buf_.size() < rem + kReadBlock) buf_.resize(rem + kReadBlock);
  const std::size_t want = buf_.size() - rem;
  const std::size_t got = std::fread(buf_.data() + rem, 1, want, file_);
  if (got < want) {
    if (std::ferror(file_) != 0) fail("read failed");
    input_exhausted_ = true;
  }
  win_ = buf_.data();
  win_end_ = buf_.data() + rem + got;
  return got > 0;
}

void ChunkedEdgeReader::consume_line(const char* p, const char* end,
                                     std::vector<Edge>& out) {
  ++line_;
  while (p != end && is_blank(*p)) ++p;
  if (p == end || *p == '#' || *p == '%') return;  // blank or comment
  std::uint64_t u = 0;
  std::uint64_t v = 0;
  if (!parse_u64(p, end, u) || !parse_u64(p, end, v)) {
    fail_line("malformed line (expected two integers)");
  }
  if (u >= kInvalidNode || v >= kInvalidNode) fail_line("node id > 2^32-2");
  out.push_back(Edge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
}

std::span<const Edge> ChunkedEdgeReader::next_lines() {
  std::vector<Edge>& out = out_[out_index_];
  out_index_ ^= 1;
  out.clear();
  if (out.capacity() < options_.chunk_edges) out.reserve(options_.chunk_edges);

  while (out.size() < options_.chunk_edges) {
    if (win_ == win_end_) {
      if (refill_window()) continue;
      done_ = true;
      break;
    }
    const char* nl = static_cast<const char*>(
        std::memchr(win_, '\n', static_cast<std::size_t>(win_end_ - win_)));
    if (nl == nullptr && !input_exhausted_) {
      if (refill_window()) continue;
    }
    const char* line_end = nl != nullptr ? nl : win_end_;
    consume_line(win_, line_end, out);
    win_ = nl != nullptr ? nl + 1 : win_end_;
  }
  edges_read_ += out.size();
  return out;
}

std::span<const Edge> ChunkedEdgeReader::next_pbin() {
  const std::size_t remaining =
      (payload_end_ - payload_offset_) / sizeof(Edge);
  const std::size_t n =
      remaining < options_.chunk_edges ? remaining : options_.chunk_edges;
  if (n == 0) {
    done_ = true;
    if (has_checksum_ && !checksum_checked_) {
      // Zero-edge payload: the checksum still covers the empty string.
      checksum_checked_ = true;
      if (hash_.digest() != checksum_expect_) {
        fail("payload checksum mismatch (file corrupt?)");
      }
    }
    return {};
  }

  std::span<const Edge> result;
  if (map_ != nullptr) {
    // Zero-copy view into the mapping.  The records are plain 2x32-bit
    // little-endian pairs at an 8-aligned offset, matching Edge's layout
    // exactly (static_asserted in types.hpp / pbin.cpp).
    result = {reinterpret_cast<const Edge*>(map_ + payload_offset_), n};
  } else {
    std::vector<Edge>& out = out_[out_index_];
    out_index_ ^= 1;
    out.resize(n);
    if (std::fread(out.data(), sizeof(Edge), n, file_) != n) {
      fail("truncated edge payload");
    }
    result = out;
  }
  // The header's node bound (at most 2^32-1, so kInvalidNode never passes)
  // must cover every record, or a later consumer sizes its tables too small.
  // Value ternaries, not std::max: they compile to cmov, not to branches.
  NodeId top = 0;
  for (const Edge& e : result) {
    const NodeId hi = e.u > e.v ? e.u : e.v;
    top = top > hi ? top : hi;
  }
  if (top >= *declared_nodes_) {
    fail("header node bound smaller than the payload's largest id");
  }
  payload_offset_ += n * sizeof(Edge);
  edges_read_ += n;

  if (has_checksum_) {
    hash_.update(result.data(), result.size_bytes());
    if (payload_offset_ == payload_end_) {
      checksum_checked_ = true;
      if (hash_.digest() != checksum_expect_) {
        fail("payload checksum mismatch (file corrupt?)");
      }
    }
  }
  return result;
}

std::span<const Edge> ChunkedEdgeReader::next() {
  if (done_) return {};
  return format_ == FileFormat::kPbin ? next_pbin() : next_lines();
}

}  // namespace pimtc::graph
