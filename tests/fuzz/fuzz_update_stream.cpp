// Fuzz harness for the dynamic-update front end: graph::read_update_stream
// (the `--stream` "+u v" / "-u v" file grammar) and the strict CLI flag
// parsers (cli::Args::u64/u32/f64 and the require_known name/shape check
// from tools/cli_args.hpp).
//
// The first input byte selects the target; the rest is either written to a
// scratch file and parsed as an update stream, or split on newlines into a
// synthetic "--key=value" argv and pushed through every accessor.
// Expected rejections (IoError for streams, invalid_argument for flags)
// are swallowed; anything else is a finding.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "graph/io.hpp"
#include "graph/io_error.hpp"
#include "../../tools/cli_args.hpp"
#include "fuzz_util.hpp"

namespace {

namespace fs = std::filesystem;

const fs::path& scratch_path() {
  static const fs::path path = [] {
    const fs::path dir =
        fs::temp_directory_path() /
        ("pimtc_fuzz_stream_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    return dir / "updates.txt";
  }();
  return path;
}

void fuzz_update_stream(const std::uint8_t* data, std::size_t size) {
  {
    std::ofstream out(scratch_path(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  try {
    (void)pimtc::graph::read_update_stream(scratch_path());
  } catch (const pimtc::graph::IoError&) {
  }
}

void fuzz_cli_args(const std::uint8_t* data, std::size_t size) {
  // One synthetic argv entry per input line (NUL-free; argv strings are
  // NUL-terminated by construction).
  std::vector<std::string> argv_storage{"pimtc", "count"};
  std::string line;
  for (std::size_t i = 0; i < size; ++i) {
    const char c = static_cast<char>(data[i]);
    if (c == '\n') {
      if (!line.empty()) argv_storage.push_back(line);
      line.clear();
    } else if (c != '\0') {
      line.push_back(c);
    }
  }
  if (!line.empty()) argv_storage.push_back(line);
  if (argv_storage.size() > 64) argv_storage.resize(64);
  std::vector<char*> argv;
  argv.reserve(argv_storage.size());
  for (std::string& s : argv_storage) argv.push_back(s.data());
  try {
    const pimtc::cli::Args args(static_cast<int>(argv.size()), argv.data(), 2);
    // Hit every accessor for a spread of keys the CLI actually uses; the
    // fallback value must come back only when the key is absent.
    for (const char* key : {"edges", "seed", "chunk-edges", "colors",
                            "threads", "p", "delete-frac", "staging"}) {
      try {
        (void)args.u64(key, 7);
      } catch (const std::invalid_argument&) {
      }
      try {
        (void)args.u32(key, 7);
      } catch (const std::invalid_argument&) {
      }
      try {
        (void)args.f64(key, 0.5);
      } catch (const std::invalid_argument&) {
      }
      (void)args.str(key);
      (void)args.flag(key);
    }
    args.require_known("--edges= --seed= --chunk-edges= --json --no-mmap");
  } catch (const std::invalid_argument&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  if (data[0] % 2 == 0) {
    fuzz_update_stream(data + 1, size - 1);
  } else {
    fuzz_cli_args(data + 1, size - 1);
  }
  return 0;
}
