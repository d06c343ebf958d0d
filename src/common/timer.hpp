// Wall-clock timing helpers.
//
// The evaluation splits every PIM run into three phases (Setup, Sample
// creation, Triangle count); host-side phases are wall-clock measured while
// device-side phases come from the simulator's cycle model.  WallTimer is the
// host half of that story.
#pragma once

#include <chrono>

namespace pimtc {

class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;

  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds since construction or the last reset().
  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

}  // namespace pimtc
