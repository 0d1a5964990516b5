// Ablation: the placement-aware weights of Sec. 3.2.
//
// With weights off, every candidate costs 1 and the ILP minimizes the raw
// register count with no regard for intervening registers. The paper argues
// the weights are what keep routing congestion and wire-length under
// control; this ablation quantifies that trade-off on D1-D3.
#include <iostream>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "util/table.hpp"

using namespace mbrc;

int main() {
  const lib::Library library = lib::make_default_library();
  const auto profiles = benchgen::standard_profiles();

  util::Table table({"Design", "Weights", "TotRegs", "OvflEdges", "MaxCong",
                     "WL total(mm)", "TNS(ns)"});

  for (int d = 0; d < 3; ++d) {
    for (const bool use_weights : {true, false}) {
      benchgen::GeneratedDesign generated =
          benchgen::generate_design(library, profiles[d]);
      mbr::FlowOptions options;
      options.timing.clock_period = generated.calibrated_clock_period;
      options.composition.enumeration.use_weights = use_weights;
      const mbr::FlowResult result =
          mbr::run_composition_flow(generated.design, options);
      table.row()
          .cell(profiles[d].name)
          .cell(std::string(use_weights ? "on" : "off"))
          .cell(result.after.design.total_registers)
          .cell(result.after.overflow_edges)
          .cell(result.after.max_congestion, 3)
          .cell((result.after.clock_wire + result.after.signal_wire) / 1000.0,
                1)
          .cell(result.after.tns, 1);
    }
  }

  std::cout << "=== Ablation: placement-aware weights on/off ===\n\n";
  table.print(std::cout);
  std::cout
      << "\nFinding: weights-off merges considerably more registers (blocked\n"
         "candidates are no longer refused) while our bounding-box congestion\n"
         "model barely moves -- the interleaved-MBR hotspots the paper's\n"
         "weights guard against only materialize in detailed routing, below\n"
         "this model's resolution. The ablation therefore shows the *cost*\n"
         "side of the weights (fewer merges) faithfully, and the protection\n"
         "side only as a small max-congestion delta.\n";
  return 0;
}
