// Regression tests for parser hardening: hostile headers, fault-spec
// strings and command-line flags that used to slip past validation (mostly
// found by the fuzz harnesses in tests/fuzz/).  Each case pins the *graceful* failure mode — a typed
// IoError / invalid_argument naming the problem — where the seed behavior
// was an unchecked giant allocation (length_error / bad_alloc) or a
// silently wrong value (NaN rate, wrapped negative integer).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/io.hpp"
#include "graph/io_error.hpp"
#include "graph/pbin.hpp"
#include "graph/stream_reader.hpp"
#include "pim/fault.hpp"
#include "../tools/cli_args.hpp"

namespace pimtc {
namespace {

namespace fs = std::filesystem;

class ParserHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "pimtc_parser_hardening_test";
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] fs::path write_file(const std::string& name,
                                    const std::string& bytes) const {
    const fs::path path = dir_ / name;
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  /// A syntactically valid .pbin header (no checksum) declaring
  /// `num_edges` edges over `num_nodes` nodes.
  [[nodiscard]] static std::string pbin_header(std::uint64_t num_edges,
                                               std::uint64_t num_nodes = 4) {
    std::string raw(graph::kPbinHeaderBytes, '\0');
    std::memcpy(raw.data(), graph::kPbinMagic.data(),
                graph::kPbinMagic.size());
    const std::uint32_t version = graph::kPbinVersion;
    std::memcpy(raw.data() + 8, &version, 4);
    std::memcpy(raw.data() + 16, &num_nodes, 8);
    std::memcpy(raw.data() + 24, &num_edges, 8);
    return raw;
  }

  /// A whole .pbin file: header with node bound `num_nodes`, then `edges`.
  [[nodiscard]] static std::string pbin_file(std::uint64_t num_nodes,
                                             const std::vector<Edge>& edges) {
    std::string raw = pbin_header(edges.size(), num_nodes);
    raw.append(reinterpret_cast<const char*>(edges.data()),
               edges.size() * sizeof(Edge));
    return raw;
  }

  /// Expects `fn` to throw an IoError whose reason contains `needle`.
  template <typename Fn>
  static void expect_io_error(Fn&& fn, const std::string& needle,
                              const std::string& what) {
    try {
      fn();
      ADD_FAILURE() << what << ": expected IoError";
    } catch (const graph::IoError& e) {
      EXPECT_NE(e.reason().find(needle), std::string::npos)
          << what << ": " << e.what();
    }
  }

  fs::path dir_;
};

// A num_edges chosen so that num_edges * sizeof(Edge) wraps to a tiny
// value: the pre-fix size check passed and the one-shot reader tried to
// allocate 2^61 Edge records.  Must now fail as a truncated payload.
TEST_F(ParserHardeningTest, PbinHeaderEdgeCountOverflowIsTruncation) {
  const std::uint64_t wrap = (std::uint64_t{1} << 61) + 1;  // *8 == 8 mod 2^64
  const fs::path path = write_file("wrap.pbin", pbin_header(wrap));
  EXPECT_THROW((void)graph::read_coo(path), graph::IoError);
  for (const bool use_mmap : {true, false}) {
    EXPECT_THROW(graph::ChunkedEdgeReader reader(path, {.use_mmap = use_mmap}),
                 graph::IoError);
  }
}

TEST_F(ParserHardeningTest, PbinHonestOversizedCountIsStillTruncation) {
  // No overflow, just a plain lie: 1000 declared edges, zero payload bytes.
  const fs::path path = write_file("lie.pbin", pbin_header(1000));
  for (const bool use_mmap : {true, false}) {
    EXPECT_THROW(graph::ChunkedEdgeReader reader(path, {.use_mmap = use_mmap}),
                 graph::IoError);
  }
}

// A header whose node bound is below a record's id.  The chunked reader
// behind `convert`, `count --chunk-edges` and `serve --graph` used to pass
// it through, so `convert` wrote files whose headers understated their
// ids.  The check runs per chunk, so it fires mid-stream.
TEST_F(ParserHardeningTest, PbinUnderstatedNodeBoundIsRejectedWhileStreaming) {
  const fs::path path =
      write_file("lie.pbin", pbin_file(4, {Edge{0, 1}, Edge{4, 10}}));
  for (const bool use_mmap : {true, false}) {
    graph::ChunkedEdgeReader reader(path,
                                    {.chunk_edges = 1, .use_mmap = use_mmap});
    EXPECT_EQ(reader.next().size(), 1u);  // (0, 1) is within the bound
    expect_io_error([&] { (void)reader.next(); }, "header node bound",
                    use_mmap ? "mmap" : "buffered");
  }
  expect_io_error([&] { (void)graph::read_coo(path); }, "header node bound",
                  "read_coo");
}

// Node id 2^32-1 is kInvalidNode: EdgeList's node bound (id + 1 in 32 bits)
// wrapped to 0 on it and `pimtc stats` crashed.  Every input format rejects
// it, and 2^32-2 still loads.
TEST_F(ParserHardeningTest, ReservedNodeIdIsRejectedInEveryFormat) {
  const auto rejects = [](const fs::path& path, const std::string& needle) {
    expect_io_error([&] { (void)graph::read_coo(path); }, needle,
                    path.filename().string());
  };
  rejects(write_file("max.txt", "0 4294967295\n"), "line 1: node id");
  rejects(write_file("bound.pbin", pbin_file(4294967296, {Edge{0, 1}})),
          "header node bound");
  const Edge reserved{0, kInvalidNode};
  rejects(write_file("max.pbin", pbin_file(kInvalidNode, {reserved})),
          "header node bound");
  expect_io_error(
      [&] {
        (void)graph::read_update_stream(
            write_file("max_stream.txt", "+0 4294967295\n"));
      },
      "line 1: node id", "update stream");

  const Edge top{0, kInvalidNode - 1};
  EXPECT_EQ(graph::read_coo(write_file("top.txt", "0 4294967294\n"))[0], top);
  const std::string top_pbin = pbin_file(kInvalidNode, {top});
  EXPECT_EQ(graph::read_coo(write_file("top.pbin", top_pbin))[0], top);
  EXPECT_EQ(graph::read_update_stream(
                write_file("top_stream.txt", "+0 4294967294\n"))[0],
            insert_of(top));
}

// The update-stream sign belongs to the line, not to the ids: strtoull took
// a sign per id, so `+1 +4` inserted (1,4) — which the edge-file reader
// rejects as `1 +4` — and `+1 -4` failed as an out-of-range id after -4
// wrapped.  The ids now take the edge-file grammar.
TEST_F(ParserHardeningTest, UpdateStreamIdsTakeNoSign) {
  for (const char* line : {"+1 +4", "+1 -4", "-+1 4", "1 +4"}) {
    const fs::path path = write_file("signed.txt", line);
    expect_io_error([&] { (void)graph::read_update_stream(path); },
                    "malformed line", line);
  }
  // A sign set apart from the pair is still the line's sign.
  const std::vector<EdgeUpdate> ok =
      graph::read_update_stream(write_file("ok.txt", "- 2 3\n+ 1 4\n"));
  ASSERT_EQ(ok.size(), 2u);
  EXPECT_EQ(ok[0], delete_of(Edge{2, 3}));
  EXPECT_EQ(ok[1], insert_of(Edge{1, 4}));
}

// ---- FaultSpec string hardening --------------------------------------------

TEST(FaultSpecHardeningTest, NanAndInfRatesAreRejected) {
  const auto expect_bad = [](const std::string& spec) {
    EXPECT_THROW((void)pim::FaultSpec::parse(spec), std::invalid_argument)
        << spec;
  };
  // NaN fails every ordered comparison, so `rate < 0 || rate > 1` used to
  // accept it and poison every downstream probability comparison.
  expect_bad("corrupt=nan");
  expect_bad("launch-transient=nan");
  expect_bad("bitflip=NAN");
  expect_bad("launch-permanent=inf");
  expect_bad("corrupt=-inf");
}

TEST(FaultSpecHardeningTest, NegativeIntegersAreRejectedNotWrapped) {
  // stoull("-1") wraps to 2^64-1; "seed=-1" used to parse successfully.
  const auto expect_bad = [](const std::string& spec) {
    EXPECT_THROW((void)pim::FaultSpec::parse(spec), std::invalid_argument)
        << spec;
  };
  expect_bad("seed=-1");
  expect_bad("spares=-3");
  expect_bad("seed=+1");   // sign prefixes are not part of the grammar
  expect_bad("seed= 1");   // neither is embedded whitespace
}

TEST(FaultSpecHardeningTest, BoundaryValuesStillParse) {
  EXPECT_EQ(pim::FaultSpec::parse("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_DOUBLE_EQ(pim::FaultSpec::parse("corrupt=1.0").transfer_corrupt, 1.0);
  EXPECT_DOUBLE_EQ(pim::FaultSpec::parse("corrupt=0").transfer_corrupt, 0.0);
}

// ---- command-line flag shape -------------------------------------------------

TEST(CliArgsTest, FlagShapeMatchesTheSupportedList) {
  // A bare valued flag used to read as "1" (--chunk-edges streamed 1-edge
  // chunks) and a switch with a value counted as set (--json=0 printed
  // JSON); both are now errors naming the flag.
  constexpr std::string_view kSupported = "--chunk-edges= --colors= --json";
  const auto check = [&](std::vector<std::string> argv) {
    std::vector<char*> ptrs;
    for (std::string& a : argv) ptrs.push_back(a.data());
    const cli::Args args(static_cast<int>(ptrs.size()), ptrs.data(), 0);
    args.require_known(kSupported);
    return args;
  };
  const auto error_of = [&](std::vector<std::string> argv) {
    try {
      (void)check(std::move(argv));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of({"--chunk-edges"}), "--chunk-edges needs a value");
  EXPECT_EQ(error_of({"--json", "--colors"}), "--colors needs a value");
  EXPECT_EQ(error_of({"--json=0"}), "--json takes no value");
  EXPECT_EQ(error_of({"--json="}), "--json takes no value");
  EXPECT_EQ(error_of({"--colour=4"}), "unknown argument '--colour'");

  const cli::Args ok = check({"--chunk-edges=4096", "--json", "--colors="});
  EXPECT_EQ(ok.u64("chunk-edges", 0), 4096u);
  EXPECT_TRUE(ok.flag("json"));
  EXPECT_EQ(ok.str("colors", "8"), "");
}

}  // namespace
}  // namespace pimtc
