// Exact weighted set-partitioning solver, specialized for the MBR
// composition ILP of Sec. 3.1:
//
//   minimize   sum_i w_i x_i
//   subject to for every element j:  sum_{i : j in M_i} x_i = 1
//              x_i in {0, 1}
//
// Elements are the composable registers of one compatibility subgraph
// (<= 30 by construction, Sec. 3); candidates are the valid MBR cliques.
// The solver is a best-first branch & bound on the element with the fewest
// available candidates, with an additive lower bound: each uncovered element
// must pay at least min over covering candidates of (w / cover-size).
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
};

struct SetPartitionOptions {
  /// Node budget; the search is exact well below this for <= 30-element
  /// instances. When exceeded, the best incumbent found so far is returned
  /// (feasible=true) but optimality is no longer guaranteed.
  std::int64_t max_nodes = 5'000'000;
};

/// Solves the weighted set-partitioning problem exactly (within the node
/// budget). Candidates with empty element lists are ignored.
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
