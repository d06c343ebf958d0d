// Wall-clock of one triangle-counting run split into the paper's phases
// (Section 4.1: Setup / Sample creation / Triangle count).
//
// Lives in common/ because two layers share it: the PIM runtime charges
// modeled seconds into it (pim::PimSystem), and the engine layer reports it
// for every backend (engine::CountReport).
#pragma once

namespace pimtc {

/// For the PIM backend the first three fields are *simulated* seconds from
/// the timing model and `host_s` is measured local host time (file
/// streaming, batch building, Misra-Gries), kept separate so projection to
/// other host hardware stays possible.  For the CPU backends everything is
/// measured locally (`ingest_s` = structure build / conversion, `count_s` =
/// counting).  Engines report times accumulated since construction or the
/// last reset_timers().
struct PhaseTimes {
  double setup_s = 0.0;   ///< allocation + program load (PIM only)
  double ingest_s = 0.0;  ///< sample creation / CSR conversion / batch merge
  double count_s = 0.0;   ///< the counting kernel itself
  double host_s = 0.0;    ///< measured host-CPU orchestration time

  [[nodiscard]] double total_s() const noexcept {
    return setup_s + ingest_s + count_s + host_s;
  }
};

}  // namespace pimtc
