// Design-size x thread-count scaling of the full composition flow.
//
// For every scale factor (benchgen::scaled_profiles: D1 with factor-times
// the registers) the design is generated once, then the flow runs at each
// jobs value on a fresh copy. Reported per run: flow wall seconds, speedup
// against the first jobs value at the same size, and the per-stage wall
// breakdown (FlowResult::stages) -- the breakdown is what says which stage
// eats the scaling headroom when speedup plateaus. FlowResult::counters is
// deterministic output (DESIGN.md §11): every run is checked bit-identical
// against the first jobs value at its size and the verdict lands in the
// JSON, so a scaling row can never silently come from a divergent result.
//
// Wall times are measurement, not contract: on a single-core host
// (hardware_threads 1 in the JSON) every jobs value runs the same work on
// the calling thread and speedup hovers around 1.0 by construction.
//
// Knobs (all optional):
//   MBRC_SCALING_FACTORS  comma list of scale factors   (default "1,2,5")
//   MBRC_SCALING_JOBS     comma list of jobs values     (default "1,2,4,8")
//   MBRC_BENCH_JSON       output path     (default BENCH_flow_scaling.json)
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/generator.hpp"
#include "mbr/flow.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

using namespace mbrc;

namespace {

std::vector<int> parse_list(const char* env, const std::string& fallback) {
  const char* raw = std::getenv(env);
  std::istringstream in(raw ? raw : fallback);
  std::vector<int> values;
  std::string token;
  while (std::getline(in, token, ',')) {
    const int value = std::atoi(token.c_str());
    if (value >= 1) values.push_back(value);
  }
  return values;
}

struct Run {
  int factor = 0;
  std::string profile;
  int registers = 0;
  double generate_seconds = 0.0;
  int jobs = 0;
  double flow_seconds = 0.0;
  double speedup = 0.0;
  int mbrs_created = 0;
  bool counters_match = false;
  std::map<std::string, double> stage_seconds;
};

}  // namespace

int main() {
  const std::vector<int> factors = parse_list("MBRC_SCALING_FACTORS", "1,2,5");
  const std::vector<int> jobs_values =
      parse_list("MBRC_SCALING_JOBS", "1,2,4,8");
  if (factors.empty() || jobs_values.empty()) {
    std::cerr << "flow_scaling: empty factor or jobs list\n";
    return 1;
  }

  const lib::Library library = lib::make_default_library();
  std::vector<Run> runs;
  bool all_counters_match = true;

  for (const int factor : factors) {
    const benchgen::DesignProfile profile =
        benchgen::scaled_profiles(factor).front();
    obs::StageTable setup;
    const benchgen::GeneratedDesign generated = [&] {
      obs::Span span("generate", setup);
      return benchgen::generate_design(library, profile);
    }();
    const double generate_seconds = setup.at("generate").seconds;
    std::cout << profile.name << ": " << profile.register_cells
              << " registers, generated in " << generate_seconds << " s\n";

    mbr::FlowOptions options;
    options.timing.clock_period = generated.calibrated_clock_period;

    double baseline_seconds = 0.0;
    const obs::CountersSnapshot* baseline_counters = nullptr;
    std::vector<obs::CountersSnapshot> snapshots;
    snapshots.reserve(jobs_values.size());
    for (const int jobs : jobs_values) {
      options.jobs = jobs;
      netlist::Design design = generated.design;  // fresh copy per run
      const mbr::FlowResult result =
          mbr::run_composition_flow(design, options);

      Run run;
      run.factor = factor;
      run.profile = profile.name;
      run.registers = profile.register_cells;
      run.generate_seconds = generate_seconds;
      run.jobs = jobs;
      run.flow_seconds = result.total_seconds;
      run.mbrs_created = result.mbrs_created;
      if (baseline_counters == nullptr) {
        baseline_seconds = result.total_seconds;
        snapshots.push_back(result.counters);
        baseline_counters = &snapshots.back();
        run.counters_match = true;
      } else {
        run.counters_match = result.counters == *baseline_counters;
      }
      all_counters_match = all_counters_match && run.counters_match;
      run.speedup = result.total_seconds > 0.0
                        ? baseline_seconds / result.total_seconds
                        : 0.0;
      for (const auto& [stage, stats] : result.stages)
        run.stage_seconds[stage] = stats.seconds;

      std::cout << "  jobs " << jobs << ": " << run.flow_seconds
                << " s, speedup " << run.speedup
                << (run.counters_match ? "" : "  COUNTERS DIVERGED") << "\n";
      runs.push_back(std::move(run));
    }
  }

  const char* env = std::getenv("MBRC_BENCH_JSON");
  const std::string out_path = env ? env : "BENCH_flow_scaling.json";
  std::ofstream out(out_path);
  obs::JsonWriter w(out);
  w.begin_object();
  w.kv("schema", 1).kv("bench", "flow_scaling");
  w.kv("hardware_threads",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.kv("counters_bit_identical", all_counters_match);
  w.key("runs").begin_array();
  for (const Run& run : runs) {
    w.begin_object()
        .kv("profile", run.profile)
        .kv("factor", run.factor)
        .kv("registers", run.registers)
        .kv("generate_seconds", run.generate_seconds)
        .kv("jobs", run.jobs)
        .kv("flow_seconds", run.flow_seconds)
        .kv("speedup", run.speedup)
        .kv("mbrs_created", run.mbrs_created)
        .kv("counters_match", run.counters_match);
    w.key("stage_seconds").begin_object();
    for (const auto& [stage, seconds] : run.stage_seconds) w.kv(stage, seconds);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << '\n';
  std::cout << "wrote " << out_path << "\n";

  // A divergent counter snapshot is a determinism bug, not a slow run.
  return all_counters_match ? 0 : 2;
}
