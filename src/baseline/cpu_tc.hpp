// CPU triangle-counting baseline — stand-in for the paper's comparator
// [51]/[165] (Tom et al. HPEC'17 / Bader's triangle-counting code): accepts
// COO, converts internally to CSR, counts with the degree-ordered forward
// algorithm (merge intersections over orientation toward higher degree).
//
// Besides the count, it returns a *work profile* (conversion record writes,
// intersection merge steps) and locally measured wall-clock for the two
// stages.  The profile feeds the analytic platform models in
// device_model.hpp, which is how Figures 6 and 7 compare platforms that do
// not exist in this environment (see DESIGN.md).
#pragma once

#include <cstdint>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "common/work_profile.hpp"
#include "graph/coo.hpp"

namespace pimtc::baseline {

/// Platform-independent operation counts of one COO -> count run.  The type
/// is shared with the unified engine report (engine::WorkProfile aliases it
/// too) so that a CountReport's work profile feeds the platform models
/// directly.
using TcWorkProfile = pimtc::WorkProfile;

struct CpuCountResult {
  TriangleCount triangles = 0;
  TcWorkProfile profile;
  double measured_convert_s = 0.0;  ///< local wall-clock, COO -> CSR
  double measured_count_s = 0.0;    ///< local wall-clock, counting
};

class CpuTriangleCounter {
 public:
  /// `pool` defaults to the process-global pool.
  explicit CpuTriangleCounter(ThreadPool* pool = nullptr);

  /// Full run: internal CSR conversion + count (the conversion is charged on
  /// every call — exactly the property the dynamic experiment exposes).
  [[nodiscard]] CpuCountResult count(const graph::EdgeList& coo) const;

 private:
  ThreadPool* pool_;
};

}  // namespace pimtc::baseline
