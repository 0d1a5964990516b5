// The paper's Sec. 4.2 MBR placement LP, kept as the reference for the
// weighted-median solver the flow uses (mbr/placement.hpp). The min/max
// terms of each pin's HPWL are linearized through helper variables and
// solved by the dense simplex in reference/simplex.hpp. Both solvers return
// the same optimum; tests/placement_test and tests/properties_test check it.
#pragma once

#include <vector>

#include "mbr/placement.hpp"

namespace mbrc::mbr {

/// Minimizes placement_objective over `corner_region` through the LP.
geom::Point optimal_position_lp(const std::vector<PinBox>& boxes,
                                const geom::Rect& corner_region);

}  // namespace mbrc::mbr
