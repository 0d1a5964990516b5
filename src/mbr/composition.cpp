#include "mbr/composition.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/assert.hpp"

namespace mbrc::mbr {

std::vector<const Selection*> CompositionPlan::merges() const {
  std::vector<const Selection*> out;
  for (const Selection& s : selections)
    if (s.candidate.nodes.size() >= 2) out.push_back(&s);
  return out;
}

ilp::SetPartitionResult solve_subgraph(
    const std::vector<int>& subgraph, const std::vector<Candidate>& candidates,
    const ilp::SetPartitionOptions& options) {
  // Map graph node ids to dense element ids. partition_graph hands out each
  // subgraph sorted ascending, so the dense id is the node's rank.
  const auto element_of = [&](int node) {
    const auto it = std::lower_bound(subgraph.begin(), subgraph.end(), node);
    MBRC_ASSERT_MSG(it != subgraph.end() && *it == node,
                    "candidate references node outside its subgraph");
    return static_cast<int>(it - subgraph.begin());
  };

  ilp::SetPartitionProblem problem;
  problem.element_count = static_cast<int>(subgraph.size());
  problem.candidates.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    ilp::SetPartitionCandidate spc;
    spc.weight = c.weight;
    spc.elements.reserve(c.nodes.size());
    for (int node : c.nodes) spc.elements.push_back(element_of(node));
    problem.candidates.push_back(std::move(spc));
  }
  return ilp::solve_set_partition(problem, options);
}

namespace {

// Shared back half of plan_composition / plan_composition_region: enumerate
// and solve the given subgraphs over an already-built graph, then reduce
// into the plan in deterministic order.
void plan_over_subgraphs(CompositionPlan& plan, const netlist::Design& design,
                         const std::vector<std::vector<int>>& subgraphs,
                         const CompositionOptions& options) {
  const BlockerIndex blockers(plan.graph);
  plan.subgraph_count = static_cast<int>(subgraphs.size());

  // Per-subgraph fan-out: enumeration and the branch & bound solve are
  // fused into one task per subgraph (better load balance than two barrier
  // stages), each writing its own pre-sized slot. A task keeps only what
  // the reduction reads -- the chosen candidates and the tallies -- so the
  // enumerated candidates of a subgraph are freed as soon as it is solved.
  // The reduction below runs on this thread in subgraph order, so the plan
  // is identical to the serial loop at any job count.
  struct SubgraphOutcome {
    std::vector<Candidate> chosen;
    std::int64_t candidate_count = 0;
    bool truncated = false;
    ilp::SetPartitionResult solved;
  };
  std::vector<SubgraphOutcome> outcomes = runtime::parallel_transform(
      &runtime::ThreadPool::global(), options.jobs, subgraphs,
      [&](const std::vector<int>& subgraph) {
        obs::Span span("plan.subgraph");
        EnumerationResult enumeration =
            enumerate_candidates(plan.graph, design.library(), blockers,
                                 subgraph, options.enumeration);
        SubgraphOutcome outcome;
        outcome.solved =
            solve_subgraph(subgraph, enumeration.candidates, options.solver);
        outcome.candidate_count =
            static_cast<std::int64_t>(enumeration.candidates.size());
        outcome.truncated = enumeration.truncated;
        for (int index : outcome.solved.chosen)
          outcome.chosen.push_back(std::move(enumeration.candidates[index]));
        return outcome;
      });

  for (SubgraphOutcome& outcome : outcomes) {
    plan.candidate_count += outcome.candidate_count;
    if (outcome.truncated) ++plan.truncated_subgraphs;

    const ilp::SetPartitionResult& solved = outcome.solved;
    MBRC_ASSERT_MSG(solved.feasible,
                    "subgraph ILP infeasible despite singleton candidates");
    plan.ilp_nodes += solved.nodes_explored;
    plan.objective += solved.objective;

    for (Candidate& candidate : outcome.chosen) {
      Selection selection;
      selection.candidate = std::move(candidate);
      for (int node : selection.candidate.nodes)
        selection.members.push_back(plan.graph.node(node).cell);
      plan.selections.push_back(std::move(selection));
    }
  }

  // Deterministic order: by first member cell id.
  std::sort(plan.selections.begin(), plan.selections.end(),
            [](const Selection& a, const Selection& b) {
              return a.members.front() < b.members.front();
            });
}

}  // namespace

namespace {

// The flow-wide jobs knob also drives the compatibility-graph fan-out.
CompatibilityOptions compatibility_with_jobs(const CompositionOptions& options) {
  CompatibilityOptions compatibility = options.compatibility;
  compatibility.jobs = options.jobs;
  return compatibility;
}

}  // namespace

CompositionPlan plan_composition(const netlist::Design& design,
                                 const sta::TimingReport& timing,
                                 const CompositionOptions& options) {
  CompositionPlan plan;
  plan.graph =
      build_compatibility_graph(design, timing, compatibility_with_jobs(options));
  const auto subgraphs = partition_graph(plan.graph, design, options.partition);
  plan_over_subgraphs(plan, design, subgraphs, options);
  return plan;
}

CompositionPlan plan_composition_region(
    const netlist::Design& design, const sta::TimingReport& timing,
    const std::vector<netlist::CellId>& region,
    const CompositionOptions& options) {
  CompositionPlan plan;
  plan.graph =
      build_compatibility_graph(design, timing, compatibility_with_jobs(options));

  std::vector<netlist::CellId> sorted_region = region;
  std::sort(sorted_region.begin(), sorted_region.end());

  auto subgraphs = partition_graph(plan.graph, design, options.partition);
  std::erase_if(subgraphs, [&](const std::vector<int>& subgraph) {
    for (int node : subgraph)
      if (std::binary_search(sorted_region.begin(), sorted_region.end(),
                             plan.graph.node(node).cell))
        return false;
    return true;
  });
  plan_over_subgraphs(plan, design, subgraphs, options);
  return plan;
}

}  // namespace mbrc::mbr
