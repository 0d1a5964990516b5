// Generic mixed-integer linear programming by branch & bound on the LP
// relaxation (reference/simplex.hpp). Test-only: it cross-checks the
// production set-partition solver (ilp/set_partition.hpp).
//
// Branching: most-fractional integer variable; depth-first with the
// round-down child explored first (keeps memory O(depth) and finds feasible
// incumbents quickly for the set-partitioning-like models this library
// generates). Pruning: LP bound vs. incumbent.
#pragma once

#include "reference/lp_model.hpp"
#include "reference/simplex.hpp"

namespace mbrc::ilp {

struct BranchAndBoundOptions {
  lp::SimplexOptions simplex;
  int max_nodes = 200'000;
  double integrality_tolerance = 1e-6;
  /// Prune children whose bound is not better than incumbent - gap.
  double absolute_gap = 1e-9;
};

struct BranchAndBoundStats {
  int nodes_explored = 0;
  int lp_solves = 0;
};

/// Solves `model` honoring the integrality flags on its variables.
/// Returns kOptimal with the best integer solution, kInfeasible when no
/// integer point exists, kIterationLimit when the node budget was exhausted
/// before proving optimality (the incumbent, if any, is still returned).
lp::Solution solve_ilp(const lp::Model& model,
                       const BranchAndBoundOptions& options = {},
                       BranchAndBoundStats* stats = nullptr);

}  // namespace mbrc::ilp
