// Tests for the out-of-core ingest path: the `.pbin` format (round trips,
// corruption rejection), the chunked streaming reader (mmap vs buffered
// equivalence, chunk-size invariance, error messages with file + 1-based
// line) and the engine::ingest_file pipeline (streamed estimates
// bit-identical to one-shot on every backend, also from a file with loops
// and duplicates; the loop-and-duplicate filter).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "engine/ingest.hpp"
#include "engine/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/io_error.hpp"
#include "graph/pbin.hpp"
#include "graph/stream_reader.hpp"

namespace pimtc {
namespace {

namespace fs = std::filesystem;

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "pimtc_ingest_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string slurp(const fs::path& path) const {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Expects `fn` to throw a runtime_error whose message contains every
  /// needle (the file name, the 1-based line, the reason).
  template <typename Fn>
  void expect_error_containing(Fn&& fn, std::vector<std::string> needles) {
    try {
      fn();
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string msg = e.what();
      for (const std::string& needle : needles) {
        EXPECT_NE(msg.find(needle), std::string::npos)
            << "message '" << msg << "' lacks '" << needle << "'";
      }
    }
  }

  /// A deterministic graph with duplicates and self loops kept (generators
  /// emit simple graphs; ingest filter tests need the dirt).
  [[nodiscard]] static graph::EdgeList dirty_graph() {
    graph::EdgeList g = graph::gen::barabasi_albert(200, 3, 7);
    g.push_back({5, 5});              // self loop
    g.push_back(g[0]);                // exact duplicate
    g.push_back({g[1].v, g[1].u});    // reversed duplicate
    g.push_back({7, 7});
    return g;
  }

  /// Drains a reader into one edge vector.
  [[nodiscard]] static std::vector<Edge> drain(graph::ChunkedEdgeReader& r) {
    std::vector<Edge> out;
    for (std::span<const Edge> c = r.next(); !c.empty(); c = r.next()) {
      out.insert(out.end(), c.begin(), c.end());
    }
    return out;
  }

  /// Writes `g` through the extension-dispatched sink, counts declared up
  /// front (the `pimtc generate` path).
  static void write_graph(const graph::EdgeList& g, const fs::path& path) {
    graph::WriterOptions wopt;
    wopt.declared_edges = g.num_edges();
    wopt.declared_nodes = g.num_nodes();
    const auto writer = graph::make_edge_writer(path, wopt);
    writer->append(g.edges());
    writer->finish();
  }

  /// The decoded header of a `.pbin` file (a file shorter than a header
  /// reads as zero padding, which fails the magic check).
  [[nodiscard]] graph::PbinInfo pbin_header(const fs::path& path) const {
    std::string bytes = slurp(path);
    const std::uint64_t file_bytes = bytes.size();
    if (bytes.size() < graph::kPbinHeaderBytes) {
      bytes.resize(graph::kPbinHeaderBytes);
    }
    return graph::decode_pbin_header(
        reinterpret_cast<const unsigned char*>(bytes.data()), file_bytes,
        path);
  }

  /// Expects reading `path` to fail naming every needle: through read_coo
  /// and through the chunked reader on the mmap and the buffered path.
  void expect_read_error(const fs::path& path,
                         const std::vector<std::string>& needles) {
    expect_error_containing([&] { (void)graph::read_coo(path); }, needles);
    for (const bool use_mmap : {true, false}) {
      expect_error_containing(
          [&] {
            graph::ChunkedEdgeReader reader(
                path, {.chunk_edges = 4, .use_mmap = use_mmap});
            (void)drain(reader);
          },
          needles);
    }
  }

  fs::path dir_;
};

// ---- .pbin format -----------------------------------------------------------

TEST_F(IngestTest, PbinRoundTripPreservesOrderAndCounts) {
  const graph::EdgeList g = dirty_graph();
  const auto path = dir_ / "g.pbin";
  write_graph(g, path);

  const graph::PbinInfo info = pbin_header(path);
  EXPECT_EQ(info.version, graph::kPbinVersion);
  EXPECT_TRUE(info.has_checksum());
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_EQ(info.num_nodes, g.num_nodes());

  const graph::EdgeList back = graph::read_coo(path);
  ASSERT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
}

TEST_F(IngestTest, PbinWithoutChecksumHasZeroFieldsAndReadsBack) {
  // A file that declares no checksum (flags and checksum fields 0, which
  // the format allows though the writer never emits it) reads back
  // unchecked on both read paths.
  const graph::EdgeList g = dirty_graph();
  write_graph(g, dir_ / "sum.pbin");
  std::string bytes = slurp(dir_ / "sum.pbin");
  std::memset(bytes.data() + 12, 0, 4);  // flags
  std::memset(bytes.data() + 32, 0, 8);  // checksum
  std::ofstream(dir_ / "nosum.pbin", std::ios::binary) << bytes;

  const graph::PbinInfo info = pbin_header(dir_ / "nosum.pbin");
  EXPECT_EQ(info.flags, 0u);
  EXPECT_EQ(info.checksum, 0u);
  EXPECT_EQ(info.num_edges, g.num_edges());
  EXPECT_EQ(info.num_nodes, g.num_nodes());

  const graph::EdgeList back = graph::read_coo(dir_ / "nosum.pbin");
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.num_edges(); ++i) EXPECT_EQ(back[i], g[i]);
  for (const bool use_mmap : {true, false}) {
    graph::ChunkedEdgeReader reader(dir_ / "nosum.pbin",
                                    {.chunk_edges = 4, .use_mmap = use_mmap});
    const std::vector<Edge> streamed = drain(reader);
    ASSERT_EQ(streamed.size(), g.num_edges());
    for (std::size_t i = 0; i < g.num_edges(); ++i) {
      EXPECT_EQ(streamed[i], g[i]);
    }
  }
}

TEST_F(IngestTest, TextToPbinToTextIsByteStable) {
  // write_coo_text emits the canonical header; converting through .pbin
  // carries exact counts, so the text that comes back is byte-identical.
  const graph::EdgeList g = graph::gen::barabasi_albert(150, 3, 11);
  const auto txt = dir_ / "g.txt";
  const auto pbin = dir_ / "g.pbin";
  const auto back = dir_ / "back.txt";
  graph::write_coo_text(g, txt);

  for (const auto& [from, to] : {std::pair{txt, pbin}, std::pair{pbin, back}}) {
    graph::ChunkedEdgeReader reader(from, {.chunk_edges = 64});
    graph::WriterOptions wopt;
    wopt.declared_edges = reader.declared_edges();
    wopt.declared_nodes = reader.declared_nodes();
    const auto writer = graph::make_edge_writer(to, wopt);
    for (std::span<const Edge> c = reader.next(); !c.empty();
         c = reader.next()) {
      writer->append(c);
    }
    writer->finish();
  }
  EXPECT_EQ(slurp(txt), slurp(back));
}

TEST_F(IngestTest, PbinRejectsCorruptedMagic) {
  write_graph(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes[0] = 'X';
  std::ofstream(dir_ / "bad.pbin", std::ios::binary) << bytes;
  expect_read_error(dir_ / "bad.pbin", {"bad.pbin", "magic"});
}

TEST_F(IngestTest, PbinRejectsTruncatedPayload) {
  write_graph(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes.resize(bytes.size() - 5);
  std::ofstream(dir_ / "cut.pbin", std::ios::binary) << bytes;
  expect_read_error(dir_ / "cut.pbin", {"cut.pbin", "truncated"});
}

TEST_F(IngestTest, PbinRejectsChecksumMismatchOnBothPaths) {
  write_graph(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  // Flip a low payload bit: the edge stays within the header's node bound,
  // so only the checksum can catch the corruption.
  bytes[graph::kPbinHeaderBytes] ^= 0x01;
  std::ofstream(dir_ / "flip.pbin", std::ios::binary) << bytes;
  expect_read_error(dir_ / "flip.pbin", {"flip.pbin", "checksum"});
}

TEST_F(IngestTest, PbinRejectsUnknownFlagBitsOnBothPaths) {
  // A version-1 file carrying flag bits this build cannot honor must be
  // rejected, not silently half-read.  Flags live at header offset 12.
  write_graph(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  bytes[12] = static_cast<char>(bytes[12] | 0x40);
  std::ofstream(dir_ / "flags.pbin", std::ios::binary) << bytes;
  expect_read_error(dir_ / "flags.pbin",
                    {"flags.pbin", "unknown .pbin flag bits"});
}

TEST_F(IngestTest, PbinRejectsZeroLengthFileOnBothPaths) {
  std::ofstream(dir_ / "empty.pbin", std::ios::binary).flush();
  expect_read_error(dir_ / "empty.pbin", {"empty.pbin", "truncated header"});
}

TEST_F(IngestTest, PbinRejectsHeaderPayloadSizeMismatch) {
  // A header declaring more edges than the payload holds — a payload-size
  // mismatch rather than a mid-write truncation — names the file too.
  write_graph(graph::gen::wheel(8), dir_ / "g.pbin");
  std::string bytes = slurp(dir_ / "g.pbin");
  std::uint64_t m = 0;
  std::memcpy(&m, bytes.data() + 24, 8);
  m += 3;
  std::memcpy(bytes.data() + 24, &m, 8);
  std::ofstream(dir_ / "short.pbin", std::ios::binary) << bytes;
  expect_read_error(dir_ / "short.pbin",
                    {"short.pbin", "truncated edge payload"});
}

TEST_F(IngestTest, PbinErrorsAreTypedIoErrors) {
  // The CLI's `error: <file>: <reason>` line needs the structured fields,
  // not just the legacy what() string.
  std::ofstream(dir_ / "empty.pbin", std::ios::binary).flush();
  try {
    (void)graph::read_coo(dir_ / "empty.pbin");
    FAIL() << "expected graph::IoError";
  } catch (const graph::IoError& e) {
    EXPECT_EQ(e.path().filename(), "empty.pbin");
    EXPECT_EQ(e.reason(), "truncated header");
  }
}

// ---- chunked reader ---------------------------------------------------------

TEST_F(IngestTest, ChunkSizeDoesNotChangeTheStream) {
  const graph::EdgeList g = dirty_graph();
  for (const char* name : {"g.txt", "g.pbin"}) {
    const auto path = dir_ / name;
    auto w = graph::make_edge_writer(path);
    w->append(g.edges());
    w->finish();
    // chunk=1, a ragged size, and chunk > m must all yield the same edges
    // in the same order as read_coo.
    const graph::EdgeList oneshot = graph::read_coo(path);
    ASSERT_EQ(oneshot.num_edges(), g.num_edges()) << name;
    for (const std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, g.num_edges() + 13}) {
      graph::ChunkedEdgeReader reader(path, {.chunk_edges = chunk});
      const std::vector<Edge> streamed = drain(reader);
      ASSERT_EQ(streamed.size(), g.num_edges()) << name << " chunk " << chunk;
      for (std::size_t i = 0; i < streamed.size(); ++i) {
        ASSERT_EQ(streamed[i], oneshot[i]) << name << " chunk " << chunk;
      }
    }
  }
}

TEST_F(IngestTest, MmapAndBufferedPathsAgree) {
  const graph::EdgeList g = dirty_graph();
  for (const char* name : {"g.txt", "g.pbin"}) {
    const auto path = dir_ / name;
    auto w = graph::make_edge_writer(path);
    w->append(g.edges());
    w->finish();
    graph::ChunkedEdgeReader mapped(path, {.chunk_edges = 32, .use_mmap = true});
    graph::ChunkedEdgeReader buffered(path,
                                      {.chunk_edges = 32, .use_mmap = false});
    EXPECT_FALSE(buffered.mapped());
    const std::vector<Edge> a = drain(mapped);
    const std::vector<Edge> b = drain(buffered);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << name;
  }
}

TEST_F(IngestTest, DeclaredCountsComeFromHeaders) {
  const graph::EdgeList g = graph::gen::wheel(9);
  write_graph(g, dir_ / "g.pbin");
  graph::write_coo_text(g, dir_ / "g.txt");

  graph::ChunkedEdgeReader pbin(dir_ / "g.pbin");
  EXPECT_EQ(pbin.declared_edges().value(), g.num_edges());
  EXPECT_EQ(pbin.declared_nodes().value(), g.num_nodes());

  graph::ChunkedEdgeReader text(dir_ / "g.txt");
  EXPECT_FALSE(text.declared_edges().has_value());
}

TEST_F(IngestTest, TextErrorsNameFileAndOneBasedLine) {
  std::ofstream(dir_ / "bad.txt") << "# comment\n1 2\n3 four\n";
  expect_error_containing(
      [&] {
        graph::ChunkedEdgeReader reader(dir_ / "bad.txt");
        (void)drain(reader);
      },
      {"bad.txt", "line 3", "two integers"});
  expect_error_containing([&] { (void)graph::read_coo(dir_ / "bad.txt"); },
                          {"bad.txt", "line 3"});
}

TEST_F(IngestTest, UnknownExtensionIsRejectedWithTheSupportedList) {
  // `.mtx` (MatrixMarket) is a retired format: it fails like any other
  // unknown extension, even on a well-formed MatrixMarket file.
  std::ofstream(dir_ / "g.csv") << "1,2\n";
  std::ofstream(dir_ / "g.mtx")
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n";
  for (const char* name : {"g.csv", "g.mtx"}) {
    const fs::path path = dir_ / name;
    expect_error_containing([&] { (void)graph::read_coo(path); },
                            {name, "unsupported", ".pbin"});
    expect_error_containing(
        [&] { graph::ChunkedEdgeReader reader(path); },
        {name, "unsupported"});
    expect_error_containing([&] { (void)graph::make_edge_writer(path); },
                            {name, "unsupported"});
  }
}

// ---- ingest pipeline --------------------------------------------------------

TEST_F(IngestTest, StreamedEstimatesBitIdenticalToOneShot) {
  // The acceptance bar: add_edges chunk-at-a-time must reproduce the
  // one-shot count() exactly — on the exact backends trivially, on the pim
  // backend because the reservoir sees the identical arrival order.  The
  // dirty copy of the file (100 repeats, alternate ones reversed, and a
  // self loop) must stream to the same estimate: ingest_file always
  // filters, as every engine's add_edges expects.
  graph::EdgeList g = graph::gen::barabasi_albert(300, 4, 13);
  graph::gen::add_hubs(g, 2, 40, 14);
  graph::EdgeList dirty = g;
  for (std::size_t i = 0; i < 100; ++i) {
    dirty.push_back(i % 2 == 0 ? g[i] : Edge{g[i].v, g[i].u});
  }
  dirty.push_back({3, 3});
  write_graph(g, dir_ / "g.pbin");
  write_graph(dirty, dir_ / "dirty.pbin");

  for (const char* backend : {"cpu-fast", "pim", "cpu"}) {
    engine::EngineConfig cfg;
    cfg.seed = 99;
    cfg.num_colors = 4;
    const double oneshot = engine::make_engine(backend, cfg)->count(g).estimate;
    for (const char* file : {"g.pbin", "dirty.pbin"}) {
      for (const std::size_t chunk :
           {std::size_t{1}, std::size_t{57}, g.num_edges() + 5}) {
        auto eng = engine::make_engine(backend, cfg);
        const engine::IngestStats stats =
            engine::ingest_file(*eng, dir_ / file, {.chunk_edges = chunk});
        EXPECT_EQ(stats.edges_ingested, g.num_edges())
            << backend << " " << file << " chunk " << chunk;
        EXPECT_EQ(stats.node_bound, g.num_nodes());
        const double streamed = eng->recount().estimate;
        EXPECT_EQ(streamed, oneshot)
            << backend << " " << file << " chunk " << chunk;
      }
    }
  }
}

TEST_F(IngestTest, FiltersDropLoopsAndDuplicatesOrderPreserving) {
  const graph::EdgeList g = dirty_graph();  // 2 loops, 2 duplicates appended
  const auto path = dir_ / "g.pbin";
  write_graph(g, path);

  graph::ReaderOptions ropt;
  ropt.chunk_edges = 16;
  std::vector<Edge> fed;
  graph::ChunkedEdgeReader reader(path, ropt);
  const engine::IngestStats stats = engine::ingest_stream(
      reader,
      [&](std::span<const Edge> c) { fed.insert(fed.end(), c.begin(), c.end()); },
      /*dedup=*/true);

  EXPECT_EQ(stats.edges_read, g.num_edges());
  EXPECT_EQ(stats.self_loops_dropped, 2u);
  EXPECT_EQ(stats.duplicates_dropped, 2u);
  EXPECT_EQ(stats.edges_ingested, fed.size());
  EXPECT_EQ(fed.size(), g.num_edges() - 4);
  // Order-preserving: the survivors are the clean prefix graph, in order.
  for (std::size_t i = 0; i < fed.size(); ++i) EXPECT_EQ(fed[i], g[i]);
}

TEST_F(IngestTest, EmptyGraphStreamsCleanly) {
  write_graph(graph::EdgeList{}, dir_ / "empty.pbin");
  auto eng = engine::make_engine("cpu-fast", {});
  const engine::IngestStats stats =
      engine::ingest_file(*eng, dir_ / "empty.pbin");
  EXPECT_EQ(stats.edges_read, 0u);
  EXPECT_EQ(stats.chunks, 0u);
  EXPECT_EQ(eng->recount().estimate, 0.0);
}

}  // namespace
}  // namespace pimtc
