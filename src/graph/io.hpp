// COO file IO: the in-memory entry points over the one reader and the one
// writer of graph files.
//
// Text format: one "u v" pair per line; lines whose first non-blank
// character is '#' or '%' are comments (SNAP / KONECT conventions) and
// whitespace-only lines are skipped — downloaded datasets routinely carry
// a trailing blank line or indented comments.  The binary format is
// ".pbin" (graph/pbin.hpp): versioned header, node/edge counts and an
// XXH64 payload checksum.  Node ids run up to 2^32-2 in both formats;
// 2^32-1 is the reserved kInvalidNode.
//
// read_coo drains the chunked streaming reader (graph/stream_reader.hpp),
// which does every check; errors name the file and, for text, the 1-based
// line.  The EdgeWriter sinks from make_edge_writer are the one write
// side — `pimtc convert` pipes reader chunks into one, so conversion in
// either direction runs in O(chunk) memory.
//
// Update-stream format (fully-dynamic counting, `pimtc count --stream=`):
// one update per line — "+u v" inserts, "-u v" deletes, a bare "u v" is an
// insert; the sign may be separated from u by whitespace, and the ids take
// the text-COO grammar (digits only, no sign of their own).  Comments and
// blank lines follow the text-COO rules.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/coo.hpp"

namespace pimtc::graph {

/// The whole file as one list, read through ChunkedEdgeReader (format by
/// extension: ".pbin" or a text extension; unknown extensions throw,
/// naming the supported formats — they are not parsed as text).  Self
/// loops and duplicates are kept (graph::preprocess removes them).
[[nodiscard]] EdgeList read_coo(const std::filesystem::path& path);

/// Text COO with a "# pimtc COO edge list; <m> edges, <n> nodes" header.
void write_coo_text(const EdgeList& list, const std::filesystem::path& path);

/// Reads a ± update stream ("+u v" / "-u v" / bare "u v" per line) for the
/// fully-dynamic counting session.
[[nodiscard]] std::vector<EdgeUpdate> read_update_stream(
    const std::filesystem::path& path);

/// Options for make_edge_writer.
struct WriterOptions {
  /// Exact counts, when the caller knows them up front (a `.pbin` source
  /// header).  With counts the text header is emitted in final form
  /// immediately — this is what makes text -> pbin -> text reproduce the
  /// original byte-for-byte.  Without them the header is written padded
  /// and patched by finish().
  std::optional<EdgeCount> declared_edges;
  std::optional<std::uint64_t> declared_nodes;
};

/// Streaming edge sink: append() chunks in arrival order, then finish().
/// A header that carries counts not known up front (and every `.pbin`
/// header, which also carries the payload checksum) is back-patched on
/// finish(), so a source of unknown length converts in O(chunk) memory.  finish() is called
/// best-effort by the destructor; call it explicitly to see write errors.
class EdgeWriter {
 public:
  virtual ~EdgeWriter() = default;

  virtual void append(std::span<const Edge> chunk) = 0;
  virtual void finish() = 0;

  /// One past the largest node id appended so far.
  [[nodiscard]] std::uint64_t node_bound() const noexcept { return nodes_; }

 protected:
  /// Folds a chunk into the edge/node counters.
  void account(std::span<const Edge> chunk) noexcept {
    edges_ += chunk.size();
    for (const Edge& e : chunk) {
      const std::uint64_t bound = std::uint64_t{e.u > e.v ? e.u : e.v} + 1;
      if (bound > nodes_) nodes_ = bound;
    }
  }

  EdgeCount edges_ = 0;
  std::uint64_t nodes_ = 0;
};

/// Streaming writer for `path`, dispatched by extension (same table as
/// file_format_of; unknown extensions throw): text COO or `.pbin`, whose
/// payload is always checksummed.
[[nodiscard]] std::unique_ptr<EdgeWriter> make_edge_writer(
    const std::filesystem::path& path, WriterOptions options = {});

}  // namespace pimtc::graph
