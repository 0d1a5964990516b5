// Ablation: decompose-and-recompose of pre-existing wide MBRs -- the
// paper's future-work proposal for designs like D4:
//
//   "MBR composition in designs that already contain a large number of
//    8-bit MBRs, like D4, doesn't provide significant reduction in the
//    clock tree capacitance. ... we plan in the future to consider the
//    decomposition of the initial 8-bit MBRs and their recomposition."
//
// This bench runs D4 (and D1 as a control) through the flow with the
// decomposition pre-pass off and on, under the paper's default cost and
// under the power/area-heavy cost {alpha 0.02, beta 1, gamma 0.3}.
#include <iostream>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "util/table.hpp"

using namespace mbrc;

namespace {

struct CostSetting {
  const char* name;
  mbr::CostModel cost;
};

}  // namespace

int main() {
  const lib::Library library = lib::make_default_library();
  const auto profiles = benchgen::standard_profiles();
  // The paper's pure timing weight, and the power/area-heavy setting of
  // BENCH_debank.json's beta_gamma rows.
  const CostSetting settings[] = {{"default", {}},
                                  {"0.02/1/0.3", {0.02, 1.0, 0.3}}};

  util::Table table({"Design", "Cost", "Decompose", "Split", "TotRegs",
                     "ClkCap(fF)", "ClkCap save", "TNS(ns)", "OvflEdges",
                     "FinalCost"});

  for (const int index : {0, 3}) {  // D1 (control) and D4 (the target)
    for (const CostSetting& setting : settings) {
      for (const bool decompose : {false, true}) {
        benchgen::GeneratedDesign generated =
            benchgen::generate_design(library, profiles[index]);
        mbr::FlowOptions options;
        options.timing.clock_period = generated.calibrated_clock_period;
        options.cost = setting.cost;
        options.decompose_wide_mbrs = decompose;
        options.decompose.min_slack = 0.02;
        const mbr::FlowResult r =
            mbr::run_composition_flow(generated.design, options);
        table.row()
            .cell(profiles[index].name)
            .cell(std::string(setting.name))
            .cell(std::string(decompose ? "on" : "off"))
            .cell(r.decomposition.registers_split)
            .cell(r.after.design.total_registers)
            .cell(r.after.clock_cap, 0)
            .percent((r.before.clock_cap - r.after.clock_cap) /
                         r.before.clock_cap,
                     2)
            .cell(r.after.tns, 1)
            .cell(r.after.overflow_edges)
            .cell(r.final_cost, 1);
      }
    }
  }

  std::cout << "=== Ablation: decompose-and-recompose wide MBRs "
               "(paper future work) ===\n\n";
  table.print(std::cout);
  std::cout
      << "\nThe pre-pass pays off on D4 only when the cost prices power and\n"
         "area. At the default (timing-only) weight it leaves D4's clock-cap\n"
         "saving essentially unchanged and costs a little TNS. Under\n"
         "0.02/1/0.3 it raises D4's saving and lowers its final combined\n"
         "cost, giving up TNS that this cost weighs lightly. D1, with few\n"
         "wide MBRs, barely moves.\n";
  return 0;
}
