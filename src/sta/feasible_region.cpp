#include "sta/feasible_region.hpp"

#include <algorithm>

namespace mbrc::sta {

double slack_to_distance(double slack, const FeasibleRegionOptions& options) {
  if (slack == kNoRequired) return options.max_radius;  // unconstrained pin
  if (slack <= 0) return 0.0;
  return std::min(options.max_radius, slack / options.delay_per_um);
}

geom::Rect timing_feasible_region(const netlist::Design& design,
                                  const TimingReport& report,
                                  netlist::CellId reg,
                                  const FeasibleRegionOptions& options) {
  const netlist::Cell& cell = design.cell(reg);
  geom::Rect region = geom::Rect::universe();
  bool constrained = false;

  // Useful-skew balancing: one clock offset can shift slack between the D
  // and Q sides, so the budget both sides can rely on is their mean.
  double balanced = kNoRequired;
  const double d = report.register_d_slack(design, reg);
  const double q = report.register_q_slack(design, reg);
  if (d != kNoRequired && q != kNoRequired) balanced = (d + q) / 2;

  for (netlist::PinId pin_id : cell.pins) {
    const netlist::Pin& p = design.pin(pin_id);
    const bool is_data =
        p.role == netlist::PinRole::kD || p.role == netlist::PinRole::kQ ||
        p.role == netlist::PinRole::kScanIn ||
        p.role == netlist::PinRole::kScanOut;
    if (!is_data || !p.net.valid()) continue;

    // Bounding box of the net's *other* pins: moving this pin inside it is
    // HPWL-neutral, so it cannot lengthen the wire and degrade timing --
    // this is the Sec. 2 rule that keeps negative-slack registers inside
    // compatibility checking. Positive slack additionally licenses a detour
    // of the equivalent distance outside the box.
    geom::Rect others = geom::Rect::empty();
    const netlist::Net& net = design.net(p.net);
    if (net.driver.valid() && net.driver != pin_id)
      others = others.expand(design.pin_position(net.driver));
    for (netlist::PinId s : net.sinks)
      if (s != pin_id) others = others.expand(design.pin_position(s));
    if (others.is_empty()) continue;  // single-pin net: unconstrained

    double slack = report.slack(pin_id);
    if (balanced != kNoRequired && slack != kNoRequired)
      slack = std::max(slack, balanced);
    const double radius = slack_to_distance(slack, options);
    region = region.intersect(others.inflate(radius));
    constrained = true;
  }

  if (!constrained) {
    // No connected data pins: the register can sit anywhere timing-wise;
    // give it a generous region around its current spot.
    region = cell.footprint().inflate(options.max_radius);
  }

  // The current location is always feasible (the register is already
  // there); keep the footprint inside the region so every register's region
  // is non-empty and contains itself.
  region = region.unite(cell.footprint());
  return region.intersect(design.core());
}

}  // namespace mbrc::sta
