// Fuzz harness for pim::FaultSpec::parse — the user-facing
// `--inject-faults=<spec>` grammar.
//
// A parse either throws std::invalid_argument (a rejected spec) or returns
// a FaultSpec whose every field satisfies the documented invariants; the
// harness aborts if an accepted spec violates them.  This is the harness
// that flagged the NaN-rate and wrapped-negative-integer acceptances fixed
// in src/pim/fault.cpp (regression-pinned in
// tests/parser_hardening_test.cpp).
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "pim/fault.hpp"
#include "fuzz_util.hpp"

namespace {

void check_rate(double rate) {
  // NaN fails both comparisons, so spell the invariant as a conjunction.
  if (!(rate >= 0.0 && rate <= 1.0)) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string spec(reinterpret_cast<const char*>(data), size);
  pimtc::pim::FaultSpec out;
  try {
    out = pimtc::pim::FaultSpec::parse(spec);
  } catch (const std::invalid_argument&) {
    return 0;  // rejected specs are the expected failure mode
  }
  // Accepted specs must satisfy every documented invariant.
  check_rate(out.launch_transient);
  check_rate(out.launch_permanent);
  check_rate(out.transfer_corrupt);
  check_rate(out.mram_bitflip);
  if (out.spare_banks > 2048) std::abort();
  return 0;
}
