// --key=value argument bag shared by the pimtc CLI (tools/pimtc_cli.cpp),
// the bench binaries (bench/bench_util.hpp) and the parser fuzz harnesses
// (tests/fuzz/fuzz_update_stream.cpp).
//
// Numeric accessors parse strictly: trailing garbage ("--edges=10k"),
// negative values for unsigned flags and overflow are all rejected with the
// offending flag named — never silently truncated through an atof
// round-trip (which also lost precision on 64-bit seeds above 2^53), and
// require_known() rejects any flag the command does not take or gives in
// the wrong shape (a value for a switch, none for a valued flag).
//
// Malformed *positional* syntax (an argument that does not start with "--")
// calls the `on_syntax_error` handler when one is supplied — the CLI passes
// its usage() — and otherwise throws std::invalid_argument, which is what
// the fuzz harnesses need: a library-style failure mode with no process
// exit.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace pimtc::cli {

class Args {
 public:
  using SyntaxErrorHandler = void (*)();

  Args(int argc, char** argv, int first,
       SyntaxErrorHandler on_syntax_error = nullptr) {
    for (int i = first; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--", 2) != 0) {
        if (on_syntax_error != nullptr) on_syntax_error();
        throw std::invalid_argument("argument '" + std::string(a) +
                                    "' does not start with --");
      }
      const char* eq = std::strchr(a, '=');
      if (eq) {
        kv_[std::string(a + 2, eq)] = std::string(eq + 1);
      } else {
        kv_[a + 2] = std::nullopt;
      }
    }
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second.value_or("");
  }

  /// Unsigned 64-bit integer flag (full seed range, no double round-trip).
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    const std::string value = it->second.value_or("");
    if (value.empty() || value[0] == '-' || value[0] == '+' ||
        std::isspace(static_cast<unsigned char>(value[0]))) {
      bad(key, value, "a non-negative integer");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
      bad(key, value, "a non-negative integer");
    }
    return parsed;
  }

  [[nodiscard]] std::uint32_t u32(const std::string& key,
                                  std::uint32_t fallback) const {
    const std::uint64_t parsed = u64(key, fallback);
    if (parsed > 0xffffffffull) bad(key, str(key), "a 32-bit integer");
    return static_cast<std::uint32_t>(parsed);
  }

  /// Finite floating-point flag; negativity is rejected here because every
  /// numeric CLI dial (probabilities, fractions, scales, margins) is
  /// non-negative — a stray '-' is a typo, not a request.
  [[nodiscard]] double f64(const std::string& key, double fallback) const {
    const auto it = kv_.find(key);
    if (it == kv_.end()) return fallback;
    const std::string value = it->second.value_or("");
    if (value.empty() || value[0] == '-' ||
        std::isspace(static_cast<unsigned char>(value[0]))) {
      bad(key, value, "a non-negative number");
    }
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
        !std::isfinite(parsed)) {
      bad(key, value, "a non-negative number");
    }
    return parsed;
  }

  [[nodiscard]] bool flag(const std::string& key) const {
    return kv_.contains(key);
  }

  /// Throws std::invalid_argument naming the first flag given that
  /// `supported` (flags as printed in a usage line, e.g. "--scale= --quick")
  /// does not list, or lists in another shape: a flag listed as "--x="
  /// needs a value and one listed as "--x" takes none.  A misspelt or
  /// misshapen flag is an error, never silently ignored or guessed at.
  void require_known(std::string_view supported) const {
    for (const auto& [key, value] : kv_) {
      const std::optional<bool> valued = listed_shape(supported, key);
      if (!valued) {
        throw std::invalid_argument("unknown argument '--" + key + "'");
      }
      if (*valued && !value) {
        throw std::invalid_argument("--" + key + " needs a value");
      }
      if (!*valued && value) {
        throw std::invalid_argument("--" + key + " takes no value");
      }
    }
  }

 private:
  /// Whether `supported` lists the flag named `key` with a value
  /// ("--key=...") or without; nullopt when it does not list it.
  [[nodiscard]] static std::optional<bool> listed_shape(
      std::string_view supported, std::string_view key) {
    for (std::size_t pos = supported.find("--");
         pos != std::string_view::npos; pos = supported.find("--", pos + 2)) {
      const std::string_view rest = supported.substr(pos + 2);
      if (!rest.starts_with(key)) continue;
      if (rest.size() == key.size() || rest[key.size()] == ' ') return false;
      if (rest[key.size()] == '=') return true;
    }
    return std::nullopt;
  }

  [[noreturn]] static void bad(const std::string& key, const std::string& value,
                               const char* expected) {
    throw std::invalid_argument("--" + key + " must be " + expected +
                                ", got '" + value + "'");
  }

  /// Flag name -> value text; nullopt for a flag given without '='.
  std::map<std::string, std::optional<std::string>> kv_;
};

}  // namespace pimtc::cli
