#include "pim/fault.hpp"

#include <stdexcept>
#include <string>

namespace pimtc::pim {
namespace {

[[noreturn]] void bad_spec(const std::string& what) {
  throw std::invalid_argument(
      "fault spec: " + what +
      " (expected comma-separated key=value pairs; keys: seed, "
      "launch-transient, launch-permanent, corrupt, bitflip, "
      "recovery=retry|rematerialize|degrade, spares)");
}

double parse_rate(const std::string& key, const std::string& value) {
  std::size_t pos = 0;
  double rate = 0.0;
  try {
    rate = std::stod(value, &pos);
  } catch (const std::exception&) {
    bad_spec("'" + key + "' needs a number, got '" + value + "'");
  }
  // Written as a negated conjunction so NaN (which fails every ordered
  // comparison, including `< 0.0`) is rejected rather than slipping through.
  if (pos != value.size() || !(rate >= 0.0 && rate <= 1.0)) {
    bad_spec("'" + key + "' must be a probability in [0, 1], got '" + value +
             "'");
  }
  return rate;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  // stoull happily wraps "-1" to 2^64-1 and skips leading whitespace;
  // demand a bare decimal digit up front so negatives are an error.
  if (value.empty() || value.front() < '0' || value.front() > '9') {
    bad_spec("'" + key + "' needs a non-negative integer, got '" + value +
             "'");
  }
  std::size_t pos = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(value, &pos);
  } catch (const std::exception&) {
    bad_spec("'" + key + "' needs a non-negative integer, got '" + value +
             "'");
  }
  if (pos != value.size()) {
    bad_spec("'" + key + "' needs a non-negative integer, got '" + value +
             "'");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

FaultSpec FaultSpec::parse(const std::string& spec) {
  if (spec.empty()) bad_spec("empty spec (omit the flag to disable injection)");
  FaultSpec out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(start, end - start);
    start = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) bad_spec("'" + item + "' is not key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "seed") {
      out.seed = parse_u64(key, value);
    } else if (key == "launch-transient") {
      out.launch_transient = parse_rate(key, value);
    } else if (key == "launch-permanent") {
      out.launch_permanent = parse_rate(key, value);
    } else if (key == "corrupt") {
      out.transfer_corrupt = parse_rate(key, value);
    } else if (key == "bitflip") {
      out.mram_bitflip = parse_rate(key, value);
    } else if (key == "recovery") {
      if (value == "retry") {
        out.recovery = Recovery::kRetry;
      } else if (value == "rematerialize") {
        out.recovery = Recovery::kRematerialize;
      } else if (value == "degrade") {
        out.recovery = Recovery::kDegrade;
      } else {
        bad_spec("'recovery' must be retry|rematerialize|degrade, got '" +
                 value + "'");
      }
    } else if (key == "spares") {
      const std::uint64_t v = parse_u64(key, value);
      if (v > 2048) bad_spec("'spares' must be <= 2048, got '" + value + "'");
      out.spare_banks = static_cast<std::uint32_t>(v);
    } else {
      bad_spec("unknown key '" + key + "'");
    }
  }
  return out;
}

}  // namespace pimtc::pim
