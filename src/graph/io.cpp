#include "graph/io.hpp"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include "common/hash.hpp"
#include "graph/io_error.hpp"
#include "graph/pbin.hpp"
#include "graph/stream_reader.hpp"

namespace pimtc::graph {
namespace {

/// Width of the count fields in padded (back-patched) text headers:
/// wide enough for any uint64, and the patch rewrites exactly these bytes.
constexpr int kPadWidth = 20;

[[noreturn]] void fail(const std::filesystem::path& path,
                       const std::string& what) {
  throw IoError(path, what);
}

[[noreturn]] void fail_line(const std::filesystem::path& path,
                            std::uint64_t line, const std::string& what) {
  fail(path, "line " + std::to_string(line) + ": " + what);
}

// ---------------------------------------------------------------------------
// Streaming writer sinks over one FileSink.  Each back-patches its header on
// finish() when the counts were not declared up front; `.pbin` always does,
// because its header also carries the payload checksum.

class FileSink {
 public:
  FileSink(const std::filesystem::path& path) : path_(path) {
    file_ = std::fopen(path.c_str(), "wb");
    if (file_ == nullptr) fail(path_, "cannot open for writing");
  }

  ~FileSink() {
    if (file_ != nullptr) std::fclose(file_);
  }

  void write(const void* data, std::size_t bytes) {
    if (std::fwrite(data, 1, bytes, file_) != bytes) {
      fail(path_, "write failed");
    }
  }

  void patch_at(long offset, const void* data, std::size_t bytes) {
    if (std::fseek(file_, offset, SEEK_SET) != 0) fail(path_, "write failed");
    write(data, bytes);
  }

  void close() {
    std::FILE* f = file_;
    file_ = nullptr;
    if (f != nullptr && std::fclose(f) != 0) fail(path_, "write failed");
  }

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
  std::FILE* file_ = nullptr;
};

/// Appends the decimal digits of `v` to `out`.
void append_u64(std::vector<char>& out, std::uint64_t v) {
  char tmp[20];
  const auto res = std::to_chars(tmp, tmp + sizeof tmp, v);
  out.insert(out.end(), tmp, res.ptr);
}

constexpr std::size_t kSinkFlushBytes = std::size_t{1} << 20;

/// Text sink: the write_coo_text format.  With declared counts the header
/// is emitted in final (compact) form immediately — the byte-stable
/// round-trip path; otherwise it is padded and patched on finish().
class TextSink final : public EdgeWriter {
 public:
  TextSink(const std::filesystem::path& path, const WriterOptions& options)
      : sink_(path), patch_(!(options.declared_edges && options.declared_nodes)) {
    char header[96];
    int len;
    if (!patch_) {
      len = std::snprintf(header, sizeof header,
                          "# pimtc COO edge list; %llu edges, %llu nodes\n",
                          static_cast<unsigned long long>(*options.declared_edges),
                          static_cast<unsigned long long>(*options.declared_nodes));
    } else {
      len = std::snprintf(header, sizeof header,
                          "# pimtc COO edge list; %*llu edges, %*llu nodes\n",
                          kPadWidth, 0ull, kPadWidth, 0ull);
    }
    sink_.write(header, static_cast<std::size_t>(len));
    buf_.reserve(kSinkFlushBytes + 64);
  }

  ~TextSink() override {
    try {
      finish();
    } catch (...) {  // destructor path: errors surface via explicit finish()
    }
  }

  void append(std::span<const Edge> chunk) override {
    for (const Edge& e : chunk) {
      append_u64(buf_, e.u);
      buf_.push_back(' ');
      append_u64(buf_, e.v);
      buf_.push_back('\n');
      if (buf_.size() >= kSinkFlushBytes) flush();
    }
    account(chunk);
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    flush();
    if (patch_) {
      char header[96];
      const int len = std::snprintf(
          header, sizeof header,
          "# pimtc COO edge list; %*llu edges, %*llu nodes\n", kPadWidth,
          static_cast<unsigned long long>(edges_), kPadWidth,
          static_cast<unsigned long long>(nodes_));
      sink_.patch_at(0, header, static_cast<std::size_t>(len));
    }
    sink_.close();
  }

 private:
  void flush() {
    if (!buf_.empty()) sink_.write(buf_.data(), buf_.size());
    buf_.clear();
  }

  FileSink sink_;
  std::vector<char> buf_;
  bool patch_;
  bool finished_ = false;
};

/// `.pbin` sink: raw records behind a placeholder header that finish()
/// overwrites with the real counts and the payload checksum.
class PbinSink final : public EdgeWriter {
 public:
  explicit PbinSink(const std::filesystem::path& path) : sink_(path) {
    write_header(0);
  }

  ~PbinSink() override {
    try {
      finish();
    } catch (...) {  // a half-patched header fails the checks on read
    }
  }

  void append(std::span<const Edge> chunk) override {
    if (chunk.empty()) return;
    sink_.write(chunk.data(), chunk.size_bytes());
    hash_.update(chunk.data(), chunk.size_bytes());
    account(chunk);
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    write_header(hash_.digest());
    sink_.close();
  }

 private:
  /// Writes the header at offset 0 with the counts accounted so far.
  void write_header(std::uint64_t checksum) {
    PbinInfo info;
    info.version = kPbinVersion;
    info.flags = kPbinFlagChecksum;
    info.num_nodes = nodes_;
    info.num_edges = edges_;
    info.checksum = checksum;
    unsigned char raw[kPbinHeaderBytes];
    encode_pbin_header(info, raw);
    sink_.patch_at(0, raw, sizeof raw);
  }

  FileSink sink_;
  Xxh64 hash_;
  bool finished_ = false;
};

}  // namespace

EdgeList read_coo(const std::filesystem::path& path) {
  ChunkedEdgeReader reader(path);
  EdgeList list;
  if (const auto declared = reader.declared_edges()) list.reserve(*declared);
  for (std::span<const Edge> chunk = reader.next(); !chunk.empty();
       chunk = reader.next()) {
    list.append(chunk);
  }
  return list;
}

std::vector<EdgeUpdate> read_update_stream(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) fail(path, "cannot open for reading");
  std::vector<EdgeUpdate> updates;
  std::string line;  // one growable buffer reused for every line
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const char* p = line.data();
    const char* end = p + line.size();
    while (p != end && is_blank(*p)) ++p;
    if (p == end || *p == '#' || *p == '%') continue;
    bool is_insert = true;
    if (*p == '+' || *p == '-') {
      is_insert = *p == '+';
      ++p;
    }
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!parse_u64(p, end, u) || !parse_u64(p, end, v)) {
      fail_line(path, line_no, "malformed line (expected two integers)");
    }
    if (u >= kInvalidNode || v >= kInvalidNode) {
      fail_line(path, line_no, "node id > 2^32-2");
    }
    const Edge e{static_cast<NodeId>(u), static_cast<NodeId>(v)};
    updates.push_back(is_insert ? insert_of(e) : delete_of(e));
  }
  return updates;
}

void write_coo_text(const EdgeList& list, const std::filesystem::path& path) {
  WriterOptions options;
  options.declared_edges = list.num_edges();
  options.declared_nodes = list.num_nodes();
  TextSink sink(path, options);
  sink.append(list.edges());
  sink.finish();
}

std::unique_ptr<EdgeWriter> make_edge_writer(const std::filesystem::path& path,
                                             WriterOptions options) {
  switch (file_format_of(path)) {
    case FileFormat::kPbin:
      return std::make_unique<PbinSink>(path);
    case FileFormat::kText:
      return std::make_unique<TextSink>(path, options);
  }
  throw std::runtime_error("unreachable");
}

}  // namespace pimtc::graph
