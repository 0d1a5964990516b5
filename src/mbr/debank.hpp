// Strategic debanking -- the inverse move of composition, driven by timing.
//
// Composition trades clock-tree load for shared clock pins: every merge
// welds its members' launch edges together. When a bank ends up on the
// critical path, that weld is often the limiting constraint -- the bits of
// one MBR want *different* clock arrivals (one bit's D side is late, a
// sibling's Q side feeds a short path), but a shared clock pin can only
// realize one useful-skew offset for all of them. Splitting such a bank
// back into narrow pieces restores per-piece skew, sizing and placement
// freedom, at the price of the lost area/cap sharing.
//
// This pass selects the timing-critical banks worth that trade (MBRs whose
// worst constrained bit, the min over the bank's constrained D and Q pins,
// has negative slack) and splits each into single-bit registers. It is
// the only code that splits a register, so the structural invariants
// (per-bit D/Q connectivity, shared control nets, scan info) are maintained
// in exactly one place. The flow's bank/debank loop (flow.cpp) then
// re-legalizes the pieces, offers them back to scoped recomposition, and
// keeps the result only if the combined cost (mbr/cost.hpp) improved.
//
// Together the split and the loop implement the paper's future-work
// extension (Sec. 5): "the decomposition of the initial 8-bit MBRs and
// their recomposition using the proposed methodology".
#pragma once

#include <vector>

#include "netlist/design.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {

struct DebankOptions {
  /// Iteration cap for the flow's bank/debank loop (flow.cpp); the loop
  /// also stops as soon as an iteration fails to improve the combined cost.
  int max_iterations = 4;
  /// An iteration must improve the combined cost by more than this to be
  /// accepted; guards the monotone-cost invariant against float noise.
  double cost_epsilon = 1e-9;
};

struct DebankResult {
  int banks_split = 0;
  int pieces_created = 0;
  /// The narrow registers created by the splits, in split order.
  std::vector<netlist::CellId> pieces;
  /// The bank cells that were removed, in split order (the flow uses this
  /// to drop their useful-skew entries).
  std::vector<netlist::CellId> removed;
};

/// Splits the most timing-critical eligible MBRs of `design` into
/// single-bit pieces of the class's weakest drive variant (worst
/// constrained slack first, ties by cell id, at most eight banks per call).
/// Only multi-bit, movable, non-scan-ordered registers whose class offers a
/// single-bit cell are considered. Each piece keeps its bit's D/Q nets, the
/// shared clock/control nets, scan info and gating group. The pieces
/// overlap the original footprints: the caller must legalize them and
/// re-stitch touched scan chains afterwards. Deterministic: the selection
/// depends only on `design` and `timing`, never on thread schedule. The
/// flow's loop reads `options`; the split itself does not.
DebankResult debank_critical_registers(const DebankOptions& options,
                                       netlist::Design& design,
                                       const sta::TimingReport& timing);

}  // namespace mbrc::mbr
