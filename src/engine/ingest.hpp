// Out-of-core ingest: stream an edge file into an engine session chunk by
// chunk, overlapping disk/parse work with host preprocessing.
//
// The pipeline (paper Section 4's host side, generalized to files larger
// than RAM):
//
//   ChunkedEdgeReader ──> [producer task: parse chunk k+1]      (pool)
//                    └──> [consumer: filter + feed chunk k]     (caller)
//
// The next chunk is always parsed on the shared ThreadPool while the
// caller filters the current one and feeds it to the sink — the reader's
// two-buffer chunk lifetime is exactly this pipeline depth.  Filtering is
// order-preserving (graph::EdgeFilter, the filter preprocess uses),
// because the pim backend's reservoir sampling is sensitive to arrival
// order and streamed ingest must be bit-identical to one-shot read_coo +
// remove_loops_and_duplicates + count.  ingest_file always filters, so
// engine ingest holds O(chunk) plus the filter's O(distinct edges) table.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>

#include "engine/engine.hpp"
#include "graph/stream_reader.hpp"

namespace pimtc::engine {

struct IngestStats {
  EdgeCount edges_read = 0;          ///< parsed from the file
  EdgeCount edges_ingested = 0;      ///< handed to the sink after filters
  EdgeCount self_loops_dropped = 0;
  EdgeCount duplicates_dropped = 0;
  std::uint64_t chunks = 0;
  std::uint64_t node_bound = 0;      ///< one past the largest ingested id
  bool mapped = false;               ///< the reader served from an mmap

  double read_seconds = 0.0;        ///< IO + parse (producer side)
  double preprocess_seconds = 0.0;  ///< filters
  double feed_seconds = 0.0;        ///< sink / add_edges time
};

/// The generic pipeline: drains `reader` into `sink` (called once per
/// chunk, in order, possibly with an empty span filtered down to nothing —
/// sinks must tolerate that).  `dedup` drops self loops and every repeat of
/// an undirected edge across the whole stream through one
/// graph::EdgeFilter, keeping the first copy; it holds O(distinct edges)
/// memory.
IngestStats ingest_stream(
    graph::ChunkedEdgeReader& reader,
    const std::function<void(std::span<const Edge>)>& sink,
    bool dedup = false);

/// Streams `path` into an engine session chunk-at-a-time via add_edges(),
/// dropping self loops and duplicate edges on the way (every engine's
/// add_edges contract).  Holds O(chunk) plus the filter's table instead of
/// the EdgeList.  Estimates are bit-identical to read_coo +
/// remove_loops_and_duplicates + count() for every backend (exact backends
/// are batch-split invariant; the pim reservoir sees the same arrival
/// order).
IngestStats ingest_file(TriangleCountEngine& engine,
                        const std::filesystem::path& path,
                        const graph::ReaderOptions& reader = {});

}  // namespace pimtc::engine
