// Per-layer accounting for the traced runs: busy seconds and work counts,
// collected from the benchmark's own calls into each layer's public
// functions, and the planner replay both traced runs share.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "mbr/composition.hpp"

namespace perfbench {

/// Busy seconds and work counts per layer. Times are sums over the calls
/// the traced run made; a layer the workload never calls stays at zero.
struct Layers {
  // sta
  double sta_full_build_s = 0.0;
  double sta_update_s = 0.0;
  std::int64_t sta_full_builds = 0;
  std::int64_t sta_incremental_updates = 0;
  std::int64_t sta_repaired_pins = 0;
  // mbr.compat / mbr.partition
  double compat_s = 0.0;
  std::int64_t compat_nodes = 0;
  std::int64_t compat_edges = 0;
  double partition_s = 0.0;
  std::int64_t subgraphs_partitioned = 0;
  std::int64_t subgraphs_planned = 0;
  // mbr.candidates / ilp
  double candidates_s = 0.0;
  std::int64_t candidates_kept = 0;
  std::int64_t candidates_dropped_inf = 0;
  std::int64_t truncated_subgraphs = 0;
  double ilp_s = 0.0;
  std::int64_t ilp_solves = 0;
  std::int64_t ilp_nodes = 0;
  std::int64_t ilp_budget_hits = 0;
  double max_subgraph_s = 0.0;  // slowest enumerate + solve task
  // mbr.apply
  double mapping_s = 0.0;
  double placement_s = 0.0;
  double rewire_s = 0.0;
  std::int64_t merges = 0;
  std::int64_t mapping_rejected = 0;
  // place / restitch / skew / sizing / evaluate / debank
  double legalize_s = 0.0;
  std::int64_t legalize_cells = 0;
  std::int64_t legalize_evicted = 0;
  double restitch_s = 0.0;
  double skew_s = 0.0;
  std::int64_t skew_iterations = 0;
  double sizing_s = 0.0;
  std::int64_t sizing_cells = 0;
  double evaluate_s = 0.0;
  double cts_s = 0.0;
  double route_s = 0.0;
  double debank_s = 0.0;
  std::int64_t debank_iterations = 0;
  std::int64_t debank_accepted = 0;

  /// Busy seconds of the planner layers (graph, partition, enumerate,
  /// solve).
  double plan_busy_s() const {
    return compat_s + partition_s + candidates_s + ilp_s;
  }
  /// Busy seconds of every timed layer call.
  double busy_s() const;
};

/// Replays plan_composition (region null) or plan_composition_region at
/// jobs 1 through build_compatibility_graph, partition_graph,
/// enumerate_candidates and solve_subgraph, timing each call. The plan is
/// the one the program's planner returns for the same inputs.
mbrc::mbr::CompositionPlan replay_plan(
    const mbrc::netlist::Design& design, const mbrc::sta::TimingReport& timing,
    const mbrc::mbr::CompositionOptions& options,
    const std::vector<mbrc::netlist::CellId>* region, Layers& layers);

/// Counter delta of `name` between two registry snapshots.
std::int64_t counter_delta(const mbrc::obs::CountersSnapshot& before,
                           const mbrc::obs::CountersSnapshot& after,
                           const char* name);

/// Extra numbers only one kind of traced run produces; zero elsewhere.
struct TraceExtras {
  /// Wall time of planning (flows: the jobs-N flow's plan stage; ECO: the
  /// session's recompose calls) and the serial busy time of the same plans.
  double plan_wall_s = 0.0;
  double plan_busy_s = 0.0;
  double plan_jobs = 1.0;
  double trace_overhead_pct = 0.0;
  double unexplained_pct = 0.0;
  double generate_s = 0.0;
  // service (eco only)
  double apply_edits_ms = 0.0;
  double query_ms = 0.0;
  double recompose_ms = 0.0;
  double daemon_overhead_ms = 0.0;
  std::int64_t recompose_subgraphs = 0;
  std::int64_t recompose_candidates = 0;
  std::int64_t recompose_ilp_nodes = 0;
  // quality of the composed design (flows only)
  double clock_power_saved_pct = 0.0;
  double registers_saved_pct = 0.0;
  double tns_ns = 0.0;
  double hold_failing = 0.0;
  double final_cost = 0.0;
};

/// Writes every per-layer metric, with its unit, into `result`.
void report_layers(const Layers& layers, const TraceExtras& extras,
                   Result& result);

}  // namespace perfbench
