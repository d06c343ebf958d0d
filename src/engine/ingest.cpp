#include "engine/ingest.hpp"

#include <chrono>
#include <future>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "graph/preprocess.hpp"

namespace pimtc::engine {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

IngestStats ingest_stream(
    graph::ChunkedEdgeReader& reader,
    const std::function<void(std::span<const Edge>)>& sink, bool dedup) {
  IngestStats stats;
  std::vector<Edge> scratch;  // reused filtered-chunk buffer
  graph::EdgeFilter filter;

  // Producer side: reader.next() with its time charged to read_seconds.
  // Between submit() and get() only the producer touches the reader and
  // read_seconds; the future's get() is the synchronization point.
  auto timed_next = [&reader, &stats]() {
    const auto t0 = Clock::now();
    std::span<const Edge> chunk = reader.next();
    stats.read_seconds += seconds_since(t0);
    return chunk;
  };

  std::span<const Edge> chunk = timed_next();
  std::future<std::span<const Edge>> pending;
  try {
    while (!chunk.empty()) {
      pending = ThreadPool::global().submit(timed_next);

      auto t0 = Clock::now();
      std::span<const Edge> feed = chunk;
      if (dedup) {
        scratch.clear();
        for (const Edge& e : chunk) {
          if (filter.keep(e)) scratch.push_back(e);
        }
        feed = scratch;
      }
      for (const Edge& e : feed) {
        const std::uint64_t bound = std::uint64_t{e.u > e.v ? e.u : e.v} + 1;
        if (bound > stats.node_bound) stats.node_bound = bound;
      }
      stats.preprocess_seconds += seconds_since(t0);

      t0 = Clock::now();
      sink(feed);
      stats.feed_seconds += seconds_since(t0);
      stats.edges_ingested += feed.size();
      ++stats.chunks;

      chunk = pending.get();
    }
  } catch (...) {
    // The producer task holds a reference to the reader (owned by our
    // caller) — never unwind past it while it is still running.
    if (pending.valid()) pending.wait();
    throw;
  }

  stats.edges_read = reader.edges_read();
  stats.self_loops_dropped = filter.loops();
  stats.duplicates_dropped = filter.duplicates();
  stats.mapped = reader.mapped();
  return stats;
}

IngestStats ingest_file(TriangleCountEngine& engine,
                        const std::filesystem::path& path,
                        const graph::ReaderOptions& reader) {
  graph::ChunkedEdgeReader source(path, reader);
  return ingest_stream(
      source,
      [&engine](std::span<const Edge> batch) {
        if (!batch.empty()) engine.add_edges(batch);
      },
      /*dedup=*/true);
}

}  // namespace pimtc::engine
