#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/counters.hpp"

namespace perfbench {

namespace mbr = mbrc::mbr;

double Layers::busy_s() const {
  return sta_update_s + plan_busy_s() + mapping_s + placement_s + rewire_s +
         legalize_s + restitch_s + skew_s + sizing_s + evaluate_s + debank_s;
}

std::int64_t counter_delta(const mbrc::obs::CountersSnapshot& before,
                           const mbrc::obs::CountersSnapshot& after,
                           const char* name) {
  const auto value = [name](const mbrc::obs::CountersSnapshot& s) {
    const auto it = s.counters.find(name);
    return it == s.counters.end() ? std::int64_t{0} : it->second;
  };
  return value(after) - value(before);
}

mbr::CompositionPlan replay_plan(const mbrc::netlist::Design& design,
                                 const mbrc::sta::TimingReport& timing,
                                 const mbr::CompositionOptions& options,
                                 const std::vector<mbrc::netlist::CellId>* region,
                                 Layers& layers) {
  mbr::CompositionPlan plan;
  mbr::CompatibilityOptions compatibility = options.compatibility;
  compatibility.jobs = 1;
  plan.graph = timed(layers.compat_s, [&] {
    return mbr::build_compatibility_graph(design, timing, compatibility);
  });
  layers.compat_nodes += plan.graph.node_count();
  layers.compat_edges += plan.graph.edge_count();

  std::vector<std::vector<int>> subgraphs = timed(layers.partition_s, [&] {
    return mbr::partition_graph(plan.graph, design, options.partition);
  });
  layers.subgraphs_partitioned += static_cast<std::int64_t>(subgraphs.size());
  if (region != nullptr) {
    // plan_composition_region's filter: keep subgraphs holding a region cell.
    timed(layers.partition_s, [&] {
      std::vector<mbrc::netlist::CellId> sorted = *region;
      std::sort(sorted.begin(), sorted.end());
      std::erase_if(subgraphs, [&](const std::vector<int>& subgraph) {
        return std::none_of(subgraph.begin(), subgraph.end(), [&](int node) {
          return std::binary_search(sorted.begin(), sorted.end(),
                                    plan.graph.node(node).cell);
        });
      });
    });
  }
  layers.subgraphs_planned += static_cast<std::int64_t>(subgraphs.size());

  const mbr::BlockerIndex blockers = timed(
      layers.candidates_s, [&] { return mbr::BlockerIndex(plan.graph); });
  plan.subgraph_count = static_cast<int>(subgraphs.size());
  const mbrc::obs::CountersSnapshot before = mbrc::obs::counters_snapshot();
  for (const std::vector<int>& subgraph : subgraphs) {
    double enumerate_s = 0.0;
    double solve_s = 0.0;
    const mbr::EnumerationResult enumeration = timed(enumerate_s, [&] {
      return mbr::enumerate_candidates(plan.graph, design.library(), blockers,
                                       subgraph, options.enumeration);
    });
    const mbrc::ilp::SetPartitionResult solved = timed(solve_s, [&] {
      return mbr::solve_subgraph(subgraph, enumeration.candidates,
                                 options.solver);
    });
    layers.candidates_s += enumerate_s;
    layers.ilp_s += solve_s;
    layers.max_subgraph_s = std::max(layers.max_subgraph_s, enumerate_s + solve_s);
    layers.candidates_kept +=
        static_cast<std::int64_t>(enumeration.candidates.size());
    layers.candidates_dropped_inf += enumeration.dropped_infinite_weight;
    ++layers.ilp_solves;

    // The planner's reduction, in subgraph order.
    plan.candidate_count +=
        static_cast<std::int64_t>(enumeration.candidates.size());
    if (enumeration.truncated) {
      ++plan.truncated_subgraphs;
      ++layers.truncated_subgraphs;
    }
    if (!solved.feasible)
      throw std::runtime_error("subgraph set partition infeasible");
    plan.ilp_nodes += solved.nodes_explored;
    layers.ilp_nodes += solved.nodes_explored;
    plan.objective += solved.objective;
    for (int index : solved.chosen) {
      mbr::Selection selection;
      selection.candidate = enumeration.candidates[index];
      for (int node : selection.candidate.nodes)
        selection.members.push_back(plan.graph.node(node).cell);
      plan.selections.push_back(std::move(selection));
    }
  }
  layers.ilp_budget_hits += counter_delta(
      before, mbrc::obs::counters_snapshot(), "ilp.set_partition.budget_hits");
  std::sort(plan.selections.begin(), plan.selections.end(),
            [](const mbr::Selection& a, const mbr::Selection& b) {
              return a.members.front() < b.members.front();
            });
  return plan;
}

void report_layers(const Layers& l, const TraceExtras& x, Result& r) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto count = [](std::int64_t n) { return static_cast<double>(n); };
  const double attempts = count(l.candidates_kept + l.candidates_dropped_inf);

  r.set("sta.full_build_s", l.sta_full_build_s, "s");
  r.set("sta.full_builds", count(l.sta_full_builds), "count");
  r.set("sta.update_s", l.sta_update_s, "s");
  r.set("sta.incremental_updates", count(l.sta_incremental_updates), "count");
  r.set("sta.repaired_pins", count(l.sta_repaired_pins), "count");

  r.set("mbr.compat_s", l.compat_s, "s");
  r.set("mbr.compat.nodes", count(l.compat_nodes), "count");
  r.set("mbr.compat.edges", count(l.compat_edges), "count");

  r.set("mbr.partition_s", l.partition_s, "s");
  r.set("mbr.partition.subgraphs", count(l.subgraphs_partitioned), "count");
  r.set("mbr.partition.region_frac",
        ratio(count(l.subgraphs_planned), count(l.subgraphs_partitioned)),
        "ratio");

  r.set("mbr.candidates_s", l.candidates_s, "s");
  r.set("mbr.candidates.kept", count(l.candidates_kept), "count");
  r.set("mbr.candidates.dropped_inf", count(l.candidates_dropped_inf), "count");
  r.set("mbr.candidates.kept_frac", ratio(count(l.candidates_kept), attempts),
        "ratio");
  r.set("mbr.candidates.us_per_attempt", ratio(l.candidates_s * 1e6, attempts),
        "us");
  r.set("mbr.candidates.truncated_subgraphs", count(l.truncated_subgraphs),
        "count");

  r.set("ilp.solve_s", l.ilp_s, "s");
  r.set("ilp.solves", count(l.ilp_solves), "count");
  r.set("ilp.nodes", count(l.ilp_nodes), "count");
  r.set("ilp.budget_hits", count(l.ilp_budget_hits), "count");
  r.set("ilp.max_subgraph_s", l.max_subgraph_s, "s");

  r.set("mbr.plan_wall_s", x.plan_wall_s, "s");
  r.set("mbr.plan.parallel_eff",
        ratio(x.plan_busy_s, x.plan_wall_s * x.plan_jobs), "ratio");

  r.set("mbr.mapping_s", l.mapping_s, "s");
  r.set("mbr.placement_s", l.placement_s, "s");
  r.set("mbr.rewire_s", l.rewire_s, "s");
  r.set("mbr.apply.merges", count(l.merges), "count");
  r.set("mbr.mapping.rejected", count(l.mapping_rejected), "count");

  r.set("place.legalize_s", l.legalize_s, "s");
  r.set("place.legalize.cells", count(l.legalize_cells), "count");
  r.set("place.legalize.evicted", count(l.legalize_evicted), "count");
  r.set("place.legalize.us_per_cell",
        ratio(l.legalize_s * 1e6, count(l.legalize_cells)), "us");

  r.set("mbr.restitch_s", l.restitch_s, "s");
  r.set("sta.skew_s", l.skew_s, "s");
  r.set("sta.skew.iterations", count(l.skew_iterations), "count");

  r.set("mbr.sizing_s", l.sizing_s, "s");
  r.set("mbr.sizing.cells", count(l.sizing_cells), "count");
  r.set("mbr.sizing.us_per_cell",
        ratio(l.sizing_s * 1e6, count(l.sizing_cells)), "us");

  r.set("mbr.evaluate_s", l.evaluate_s, "s");
  r.set("cts.estimate_s", l.cts_s, "s");
  r.set("route.estimate_s", l.route_s, "s");

  r.set("mbr.debank_s", l.debank_s, "s");
  r.set("mbr.debank.iterations", count(l.debank_iterations), "count");
  r.set("mbr.debank.accepted", count(l.debank_accepted), "count");

  r.set("service.apply_edits_ms", x.apply_edits_ms, "ms");
  r.set("service.query_ms", x.query_ms, "ms");
  r.set("service.recompose_ms", x.recompose_ms, "ms");
  r.set("service.daemon_overhead_ms", x.daemon_overhead_ms, "ms");
  r.set("service.recompose.subgraphs", count(x.recompose_subgraphs), "count");
  r.set("service.recompose.candidates", count(x.recompose_candidates), "count");
  r.set("service.recompose.ilp_nodes", count(x.recompose_ilp_nodes), "count");

  r.set("benchgen.generate_s", x.generate_s, "s");
  r.set("trace_overhead_pct", x.trace_overhead_pct, "%");
  r.set("trace.unexplained_pct", x.unexplained_pct, "%");

  r.set("qor.clock_power_saved_pct", x.clock_power_saved_pct, "%");
  r.set("qor.registers_saved_pct", x.registers_saved_pct, "%");
  r.set("qor.tns_ns", x.tns_ns, "ns");
  r.set("qor.hold_failing", x.hold_failing, "count");
  r.set("qor.final_cost", x.final_cost, "cost");
}

}  // namespace perfbench
