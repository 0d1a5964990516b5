// Exact weighted set-partitioning solver, specialized for the MBR
// composition ILP of Sec. 3.1:
//
//   minimize   sum_i w_i x_i
//   subject to for every element j:  sum_{i : j in M_i} x_i = 1
//              x_i in {0, 1}
//
// Elements are the composable registers of one compatibility subgraph
// (<= 30 by construction, Sec. 3; at most 64 are supported, one bit each);
// candidates are the valid MBR cliques.
//
// The solver is an exact depth-first branch & bound:
//   - it branches on the uncovered element with the fewest placeable
//     candidates and tries that element's candidates cheapest first;
//   - each node is solved under a cut-off (the incumbent minus the path
//     cost, passed down by value); a child is entered only if its weight
//     plus an additive lower bound (each uncovered element pays at least
//     min over its covering candidates of w / cover-size) beats the
//     cut-off, and the loop stops at the first child whose weight rules out
//     every later one;
//   - a transposition table keyed by the covered-element mask stores what
//     each expansion proved: the exact optimum of completing the mask (when
//     it beat the cut-off) or a lower bound on it. An exact entry is reused
//     on every later visit; a bound prunes a visit it already rules out.
// Every level covers at least one element, so the tree is at most n deep
// and finite. The memo is what keeps it tractable: the subproblem below a
// node depends only on its covered mask, so a mask is expanded again only
// when a looser cut-off lets it beat its stored bound. A mask's value is
// summed child-first from the same candidates whatever path reaches it
// (never by add-then-subtract), so ties resolve the same way on every run:
// the first optimum in branching order is kept.
//
// One solve is still bounded: it expands at most a fixed number of nodes
// (1M, a constant, not an option), which also caps its memo. Real MBR
// subgraphs end proven optimal far below it (the largest measured solve
// expands 226k); only instances the additive bound cannot prune -- dense
// subgraphs with nearly uniform per-bit costs -- reach it. Such a solve
// returns the best partition found so far with `budget_hit` set, and
// counts `ilp.set_partition.budget_hits`. The cap counts nodes, never
// time, so results stay deterministic.
//
// The test-only generic simplex-based branch & bound
// (reference/branch_and_bound.hpp) solves the same models to cross-validate
// optimality.
#pragma once

#include <cstdint>
#include <vector>

namespace mbrc::ilp {

struct SetPartitionCandidate {
  std::vector<int> elements;  // distinct element ids in [0, element_count)
  double weight = 0.0;
};

struct SetPartitionProblem {
  int element_count = 0;
  std::vector<SetPartitionCandidate> candidates;
};

struct SetPartitionResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<int> chosen;  // indices into problem.candidates
  std::int64_t nodes_explored = 0;
  /// The node cap stopped the search: `chosen` is the best partition found,
  /// not proven optimal (`feasible` is false if none was found).
  bool budget_hit = false;
};

/// No solver knobs: the node cap is a fixed safety bound, not a tuning
/// parameter. The struct stays so existing callers that pass options keep
/// compiling.
struct SetPartitionOptions {};

/// Solves the weighted set-partitioning problem exactly. Candidates with
/// empty element lists are ignored.
SetPartitionResult solve_set_partition(const SetPartitionProblem& problem,
                                       const SetPartitionOptions& options = {});

/// Solves many independent instances, fanning the branch & bound searches
/// out across up to `jobs` threads. Every instance runs the same serial
/// search with its own state (no shared incumbents), and results come back
/// in input order, so the output -- including per-instance nodes_explored --
/// is identical to calling solve_set_partition in a loop at any job count.
std::vector<SetPartitionResult> solve_set_partitions(
    const std::vector<SetPartitionProblem>& problems,
    const SetPartitionOptions& options = {}, int jobs = 1);

}  // namespace mbrc::ilp
