// Convergence study of the multi-objective bank/debank loop.
//
// For every (profile, cost-setting) pair the flow runs with the debank
// loop on and the per-iteration cost trajectory (combined cost, TNS, clock
// power, area) lands in the JSON. The bench is also the loop's executable
// contract:
//   - the accepted combined-cost trajectory must be monotone
//     non-increasing on every run (violation -> exit 2);
//   - one configuration re-runs at a different jobs value and the
//     deterministic counter snapshots must match bit-identically
//     (divergence -> exit 2);
//   - every set-partition solve must end proven optimal: one stopped at
//     the solver's node cap fails the run (exit 2).
//
// Profiles: the Table 1 designs D1..D4 plus the scenario pair (DM
// multi-clock, DP power-capped; benchgen::scenario_profiles). Cost
// settings: alpha-dominant (the paper's pure timing objective), balanced,
// and beta/gamma-dominant (power/area-capped).
//
// Knobs (all optional):
//   MBRC_DEBANK_SMOKE  when set: scenario profiles only, at reduced size
//                      (CI smoke; a few seconds instead of minutes)
//   MBRC_BENCH_JSON    output path (default BENCH_debank.json)
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "obs/json.hpp"

using namespace mbrc;

namespace {

struct Setting {
  std::string name;
  double alpha = 1.0, beta = 0.0, gamma = 0.0;
};

struct Run {
  std::string profile;
  std::string setting;
  mbr::CostModel cost;
  int registers = 0;
  int jobs = 0;
  mbr::FlowResult result;
  bool monotone = true;
};

// The CPU the run was measured on ("model name" in /proc/cpuinfo), so the
// committed artifact names its host; "unknown" where that file is absent.
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      return line.substr(colon + 2);
  }
  return "unknown";
}

// The monotone-cost guarantee: every *accepted* iteration must improve on
// the best cost it entered with (flow.cpp rejects and rolls back anything
// else, so a violation here is a flow bug, not a tuning issue).
bool trajectory_monotone(const mbr::FlowResult& result) {
  for (const auto& it : result.debank_iterations)
    if (it.accepted && !(it.cost_after < it.cost_before)) return false;
  return true;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("MBRC_DEBANK_SMOKE") != nullptr;

  std::vector<benchgen::DesignProfile> profiles;
  if (!smoke) {
    const auto standard = benchgen::standard_profiles();
    profiles.assign(standard.begin(), standard.begin() + 4);  // D1..D4
  }
  for (benchgen::DesignProfile p : benchgen::scenario_profiles()) {
    if (smoke) p.register_cells /= 2;
    profiles.push_back(p);
  }

  const std::vector<Setting> settings = {
      {"alpha", 1.0, 0.0, 0.0},
      {"balanced", 1.0, 0.3, 0.05},
      {"beta_gamma", 0.02, 1.0, 0.3},
  };

  const lib::Library library = lib::make_default_library();
  std::vector<Run> runs;
  bool monotone_ok = true;
  bool determinism_ok = true;
  bool exact_ok = true;

  for (const benchgen::DesignProfile& profile : profiles) {
    const benchgen::GeneratedDesign generated =
        benchgen::generate_design(library, profile);
    std::cout << profile.name << ": " << profile.register_cells
              << " registers\n";

    for (const Setting& setting : settings) {
      mbr::FlowOptions options;
      options.timing.clock_period = generated.calibrated_clock_period;
      options.cost.alpha = setting.alpha;
      options.cost.beta = setting.beta;
      options.cost.gamma = setting.gamma;
      options.debank_loop = true;

      Run run;
      run.profile = profile.name;
      run.setting = setting.name;
      run.cost = options.cost;
      run.registers = profile.register_cells;
      run.jobs = options.jobs;
      {
        netlist::Design design = generated.design;  // fresh copy per run
        run.result = mbr::run_composition_flow(design, options);
      }
      run.monotone = trajectory_monotone(run.result);
      monotone_ok = monotone_ok && run.monotone;
      const auto& counters = run.result.counters.counters;
      if (const auto hits = counters.find("ilp.set_partition.budget_hits");
          hits != counters.end()) {
        exact_ok = false;
        std::cout << "  " << hits->second
                  << " set-partition solves stopped at the node cap\n";
      }

      std::cout << "  " << setting.name << ": cost " << run.result.final_cost
                << ", tns " << run.result.before.tns << " -> "
                << run.result.after.tns << ", iterations "
                << run.result.debank_iterations.size()
                << (run.monotone ? "" : "  NON-MONOTONE") << "\n";

      // Jobs-invariance spot check on the first profile's alpha setting:
      // the deterministic outputs (counters, trajectory, final cost) must
      // be bit-identical at any thread count.
      if (&profile == &profiles.front() && setting.name == "alpha") {
        mbr::FlowOptions reran = options;
        reran.jobs = run.jobs == 1 ? 4 : 1;
        netlist::Design design = generated.design;
        const mbr::FlowResult other =
            mbr::run_composition_flow(design, reran);
        const bool same =
            other.counters == run.result.counters &&
            other.final_cost == run.result.final_cost &&
            other.debank_iterations.size() ==
                run.result.debank_iterations.size();
        determinism_ok = determinism_ok && same;
        if (!same)
          std::cout << "  jobs " << run.jobs << " vs " << reran.jobs
                    << ": DETERMINISM DIVERGED\n";
      }
      runs.push_back(std::move(run));
    }
  }

  const char* env = std::getenv("MBRC_BENCH_JSON");
  const std::string out_path = env ? env : "BENCH_debank.json";
  std::ofstream out(out_path);
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", 1).kv("bench", "debank_convergence");
  w.kv("smoke", smoke);
  w.kv("cpu_model", cpu_model());
  w.kv("hardware_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("monotone_ok", monotone_ok);
  w.kv("determinism_ok", determinism_ok);
  w.key("runs").begin_array();
  for (const Run& run : runs) {
    w.begin_object()
        .kv("profile", run.profile)
        .kv("setting", run.setting)
        .kv("alpha", run.cost.alpha)
        .kv("beta", run.cost.beta)
        .kv("gamma", run.cost.gamma)
        .kv("registers", run.registers)
        .kv("monotone", run.monotone)
        .kv("final_cost", run.result.final_cost)
        .kv("mbrs_created", run.result.mbrs_created)
        .kv("tns_before", run.result.before.tns)
        .kv("tns_after", run.result.after.tns)
        .kv("wns_after", run.result.after.wns)
        .kv("clock_power_uw_before", run.result.before.clock_power_uw)
        .kv("clock_power_uw_after", run.result.after.clock_power_uw)
        .kv("area_before", run.result.before.design.area)
        .kv("area_after", run.result.after.design.area)
        .kv("flow_seconds", run.result.total_seconds);
    w.key("iterations").begin_array();
    for (const auto& it : run.result.debank_iterations) {
      w.begin_object()
          .kv("banks_split", it.banks_split)
          .kv("pieces_created", it.pieces_created)
          .kv("mbrs_created", it.mbrs_created)
          .kv("cost_before", it.cost_before)
          .kv("cost_after", it.cost_after)
          .kv("tns", it.tns)
          .kv("clock_power_uw", it.clock_power_uw)
          .kv("area", it.area)
          .kv("accepted", it.accepted)
          .end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "wrote " << out_path << "\n";

  // Every failure is a contract violation of the deterministic flow, not a
  // slow run.
  return monotone_ok && determinism_ok && exact_ok ? 0 : 2;
}
