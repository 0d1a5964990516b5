// Clock-tree estimator.
//
// MBR composition is evaluated by its effect on the clock tree (Table 1:
// clock buffer count, clock capacitance, clock wire-length). This module
// builds a bottom-up clustered buffer tree over the register clock pins --
// the same greedy geometric matching style used by early CTS stages -- and
// reports its aggregate statistics. The tree is virtual: it estimates what
// a CTS run would build, it does not edit the netlist.
//
// Clock-gating structure is respected: registers of different gating groups
// (or different clock nets) sit under different subtrees, which are then
// combined up to a single root per clock net.
#pragma once

#include <vector>

#include "netlist/design.hpp"

namespace mbrc::cts {

/// The estimator has no knobs; the struct keeps estimate_clock_tree's
/// signature stable. Clock wire uses lib::kWireCapPerUm.
struct CtsOptions {};

struct ClockTreeStats {
  int sinks = 0;             // register clock pins
  int buffers = 0;           // inserted clock buffers (all levels)
  int levels = 0;            // depth of the deepest subtree
  double wire_length = 0.0;  // um of clock routing (star per cluster)
  double sink_cap = 0.0;     // fF of register clock pins
  double buffer_cap = 0.0;   // fF of buffer input pins
  double wire_cap = 0.0;     // fF of clock wire
  /// Everything the clock network switches: sinks + buffers + wire.
  double total_cap() const { return sink_cap + buffer_cap + wire_cap; }
};

/// Estimates the clock tree(s) for all clock nets of `design`.
ClockTreeStats estimate_clock_tree(const netlist::Design& design,
                                   const CtsOptions& options = {});

}  // namespace mbrc::cts
