// Fuzz harness for the graph-file front end: ChunkedEdgeReader, the one
// reader of graph files, across both supported on-disk formats.
//
// The first input byte selects the format (so one corpus exercises both
// parsers): `data[0] % 4` picks `.pbin` for 0 and 1 and text for 2 and 3 —
// slot 1 was the retired legacy `.bin` format and slot 2 the retired
// MatrixMarket `.mtx`; keeping the modulus keeps every corpus file on a
// parser, and the MatrixMarket inputs now replay through text.  The rest is
// the file body, written to a scratch file with that extension and fed
// through read_coo and the chunked reader, mmap and buffered.  Expected
// rejections throw graph::IoError and are swallowed; any other escape —
// std::length_error from an unchecked reserve, bad_alloc from a wrapped
// size check, a sanitizer report — is a finding.  This is the harness that
// flagged the `num_edges * sizeof(Edge)` overflow in the binary size checks
// (fixed in src/graph/pbin.cpp, regression-pinned in
// tests/parser_hardening_test.cpp).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <unistd.h>

#include "graph/io.hpp"
#include "graph/io_error.hpp"
#include "graph/stream_reader.hpp"
#include "fuzz_util.hpp"

namespace {

namespace fs = std::filesystem;
using pimtc::graph::ChunkedEdgeReader;

/// Per-process scratch directory for the input file (named, because the
/// reader opens by path and dispatches on the extension).
const fs::path& scratch_dir() {
  static const fs::path dir = [] {
    const fs::path d = fs::temp_directory_path() /
                       ("pimtc_fuzz_pbin_" + std::to_string(::getpid()));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

void drain(ChunkedEdgeReader& reader) {
  for (std::span<const pimtc::Edge> chunk = reader.next(); !chunk.empty();
       chunk = reader.next()) {
  }
}

void exercise(const fs::path& path) {
  // Small chunks force many refill/boundary transitions per input.
  for (const bool use_mmap : {true, false}) {
    try {
      pimtc::graph::ReaderOptions options;
      options.chunk_edges = 3;
      options.use_mmap = use_mmap;
      ChunkedEdgeReader reader(path, options);
      drain(reader);
    } catch (const pimtc::graph::IoError&) {
    }
  }
  try {
    (void)pimtc::graph::read_coo(path);
  } catch (const pimtc::graph::IoError&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  static constexpr const char* kExtensions[] = {".pbin", ".pbin", ".txt",
                                                ".txt"};
  const fs::path path =
      scratch_dir() / (std::string("input") + kExtensions[data[0] % 4]);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data + 1),
              static_cast<std::streamsize>(size - 1));
  }
  exercise(path);
  return 0;
}
