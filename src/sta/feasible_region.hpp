// Timing-feasible placement regions (Sec. 2, placement compatibility).
//
// Per connected D/Q pin: the bounding box of the net's other pins is always
// feasible (moving the pin inside it is HPWL-neutral, so it cannot lengthen
// the wire), and positive slack additionally licenses a detour of the
// slack-equivalent Manhattan distance outside that box. The register's
// region is the intersection over its data pins, united with its own
// footprint (its current location is trivially feasible) -- this keeps
// negative-slack registers inside compatibility checking, exactly the
// paper's rule ("the intersection of the bounding boxes of the violating
// pins with the feasible regions of the rest of the D and Q pins").
// A data pin's movement budget is at least the useful-skew-balanced slack,
// (d_slack + q_slack) / 2, when both sides are constrained: the paper merges
// registers *because* one clock offset can later rebalance their D/Q slacks
// (Sec. 1, Sec. 2), and the balanced value is the slack that remains on both
// sides after that offset is applied.
// The union is taken as a bounding box, a mild over-approximation; final
// timing is re-verified by the flow's closing STA.
#pragma once

#include "geom/rect.hpp"
#include "netlist/design.hpp"
#include "sta/sta.hpp"

namespace mbrc::sta {

struct FeasibleRegionOptions {
  /// Wire-delay sensitivity used to convert slack to distance (ns per um of
  /// added Manhattan detour). Conservative: includes the downstream load
  /// increase a move causes, not just the pin-to-pin wire.
  double delay_per_um = 0.0025;
  /// Cap on the converted distance (um); very large slacks do not license
  /// arbitrarily long moves (routing detours, congestion).
  double max_radius = 120.0;
};

/// The region within which `reg` may be placed without degrading timing:
/// its footprint inflated by the distance equivalent of its worst connected
/// D/Q slack (0 when any data pin has negative slack), clipped to the core.
geom::Rect timing_feasible_region(const netlist::Design& design,
                                  const TimingReport& report,
                                  netlist::CellId reg,
                                  const FeasibleRegionOptions& options = {});

/// Slack-to-distance conversion used above (clamped to [0, max_radius]).
double slack_to_distance(double slack, const FeasibleRegionOptions& options);

}  // namespace mbrc::sta
