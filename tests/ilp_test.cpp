#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "ilp/set_partition.hpp"
#include "reference/branch_and_bound.hpp"
#include "util/rng.hpp"

namespace mbrc::ilp {
namespace {

TEST(BranchAndBound, Knapsack) {
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  const int a = m.add_binary("a", 5);
  const int b = m.add_binary("b", 4);
  const int c = m.add_binary("c", 3);
  m.add_constraint({{a, 2}, {b, 3}, {c, 1}}, lp::Relation::kLessEqual, 5);
  const lp::Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 9.0, 1e-9);  // a + b
}

TEST(BranchAndBound, IntegerRounding) {
  // LP relaxation optimum is fractional; ILP must branch.
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  const int x = m.add_variable("x", 0, 10, 1.0, true);
  const int y = m.add_variable("y", 0, 10, 1.0, true);
  m.add_constraint({{x, 2}, {y, 2}}, lp::Relation::kLessEqual, 7);
  const lp::Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.values[x] + s.values[y], 3.0, 1e-9);
}

TEST(BranchAndBound, InfeasibleInteger) {
  // 2x = 3 has a continuous solution but no integer one.
  lp::Model m;
  const int x = m.add_variable("x", 0, 10, 1.0, true);
  m.add_constraint({{x, 2}}, lp::Relation::kEqual, 3);
  EXPECT_EQ(solve_ilp(m).status, lp::SolveStatus::kInfeasible);
}

TEST(BranchAndBound, MixedIntegerContinuous) {
  // max 3i + 2c s.t. i + c <= 4.5, i integer, c continuous.
  lp::Model m;
  m.set_sense(lp::Sense::kMaximize);
  const int i = m.add_variable("i", 0, 10, 3.0, true);
  const int c = m.add_continuous("c", 2.0, 0.0);
  m.add_constraint({{i, 1}, {c, 1}}, lp::Relation::kLessEqual, 4.5);
  const lp::Solution s = solve_ilp(m);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[i], 4.0, 1e-6);
  EXPECT_NEAR(s.values[c], 0.5, 1e-6);
  EXPECT_NEAR(s.objective, 13.0, 1e-6);
}

TEST(SetPartition, PicksCheapestExactCover) {
  SetPartitionProblem p;
  p.element_count = 3;
  p.candidates = {{{0}, 1.0}, {{1}, 1.0},      {{2}, 1.0},
                  {{0, 1}, 1.5}, {{1, 2}, 1.1}, {{0, 1, 2}, 2.6}};
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 2.1, 1e-9);  // {0} + {1,2}
  EXPECT_EQ(r.chosen, (std::vector<int>{0, 4}));
}

TEST(SetPartition, InfeasibleWithoutFullCover) {
  SetPartitionProblem p;
  p.element_count = 2;
  p.candidates = {{{0}, 1.0}};  // element 1 uncoverable
  EXPECT_FALSE(solve_set_partition(p).feasible);
}

TEST(SetPartition, OverlapForcesSingletons) {
  // The only multi-element candidates overlap, so one of them plus
  // singletons is optimal.
  SetPartitionProblem p;
  p.element_count = 3;
  p.candidates = {{{0}, 1.0},    {{1}, 1.0},    {{2}, 1.0},
                  {{0, 1}, 0.4}, {{1, 2}, 0.5}};
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.objective, 1.4, 1e-9);  // {0,1} + {2}
}

TEST(SetPartition, EmptyProblemIsTriviallyFeasible) {
  const SetPartitionResult r = solve_set_partition({});
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 0.0);
  EXPECT_TRUE(r.chosen.empty());
}

TEST(SetPartition, RejectsDuplicateElementInCandidate) {
  SetPartitionProblem p;
  p.element_count = 2;
  p.candidates = {{{0, 0}, 1.0}};
  EXPECT_THROW(solve_set_partition(p), util::AssertionError);
}

// Build a random set-partition instance whose feasibility is guaranteed by
// singletons; used by the cross-validation property below.
SetPartitionProblem random_instance(util::Rng& rng, int elements,
                                    int extra_candidates) {
  SetPartitionProblem p;
  p.element_count = elements;
  for (int e = 0; e < elements; ++e)
    p.candidates.push_back({{e}, rng.uniform_real(0.5, 1.5)});
  for (int c = 0; c < extra_candidates; ++c) {
    SetPartitionCandidate cand;
    const int size =
        static_cast<int>(rng.uniform_int(2, std::min(4, elements)));
    std::vector<int> pool(elements);
    for (int e = 0; e < elements; ++e) pool[e] = e;
    for (int k = 0; k < size; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      cand.elements.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    cand.weight = rng.uniform_real(0.2, 2.0);
    p.candidates.push_back(std::move(cand));
  }
  return p;
}

// Property: the specialized set-partition solver and the generic
// simplex-based branch & bound agree on the optimal objective.
TEST(SetPartition, MatchesGenericBranchAndBound) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const SetPartitionProblem p =
        random_instance(rng, static_cast<int>(rng.uniform_int(3, 8)),
                        static_cast<int>(rng.uniform_int(2, 10)));
    const SetPartitionResult fast = solve_set_partition(p);
    ASSERT_TRUE(fast.feasible);

    lp::Model m;
    for (std::size_t c = 0; c < p.candidates.size(); ++c)
      m.add_binary("c" + std::to_string(c), p.candidates[c].weight);
    for (int e = 0; e < p.element_count; ++e) {
      std::vector<lp::Term> terms;
      for (std::size_t c = 0; c < p.candidates.size(); ++c) {
        const auto& elems = p.candidates[c].elements;
        if (std::find(elems.begin(), elems.end(), e) != elems.end())
          terms.push_back({static_cast<int>(c), 1.0});
      }
      m.add_constraint(std::move(terms), lp::Relation::kEqual, 1.0);
    }
    const lp::Solution generic = solve_ilp(m);
    ASSERT_EQ(generic.status, lp::SolveStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(fast.objective, generic.objective, 1e-6) << "trial " << trial;

    // The fast solver's chosen set is a valid partition.
    std::vector<int> cover(p.element_count, 0);
    for (int c : fast.chosen)
      for (int e : p.candidates[c].elements) ++cover[e];
    for (int e = 0; e < p.element_count; ++e) EXPECT_EQ(cover[e], 1);
  }
}

// ---------------------------------------------------------------------------
// Exhaustive oracle: dynamic programming over covered-element masks that
// always branches on the lowest uncovered element and tries every disjoint
// candidate containing it. No bounds, no pruning, no ordering heuristics --
// deliberately nothing in common with the solver.
double oracle_optimum(const SetPartitionProblem& p) {
  std::vector<std::uint64_t> masks;
  std::vector<double> weights;
  for (const auto& cand : p.candidates) {
    if (cand.elements.empty()) continue;
    std::uint64_t m = 0;
    for (int e : cand.elements) m |= std::uint64_t{1} << e;
    masks.push_back(m);
    weights.push_back(cand.weight);
  }
  const std::uint64_t full = (std::uint64_t{1} << p.element_count) - 1;
  std::unordered_map<std::uint64_t, double> memo;
  const auto best = [&](auto&& self, std::uint64_t covered) -> double {
    if (covered == full) return 0.0;
    if (const auto it = memo.find(covered); it != memo.end()) return it->second;
    const std::uint64_t lowest = ~covered & (covered + 1);
    double value = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < masks.size(); ++c)
      if ((masks[c] & lowest) && !(masks[c] & covered))
        value = std::min(value, weights[c] + self(self, covered | masks[c]));
    memo.emplace(covered, value);
    return value;
  };
  return best(best, 0);
}

// The result is a partition of the elements and its objective is the sum
// of the chosen weights.
void expect_valid_partition(const SetPartitionProblem& p,
                            const SetPartitionResult& r) {
  std::vector<int> cover(p.element_count, 0);
  double sum = 0.0;
  for (int c : r.chosen) {
    sum += p.candidates[c].weight;
    for (int e : p.candidates[c].elements) ++cover[e];
  }
  for (int e = 0; e < p.element_count; ++e) EXPECT_EQ(cover[e], 1) << e;
  EXPECT_NEAR(sum, r.objective, 1e-9 * std::max(1.0, r.objective));
}

// Random instances at 16-24 elements with non-dyadic weights (tenths,
// thirds and a uniform draw), feasible through the singletons.
SetPartitionProblem random_wide_instance(util::Rng& rng, int elements) {
  SetPartitionProblem p;
  p.element_count = elements;
  for (int e = 0; e < elements; ++e)
    p.candidates.push_back({{e}, 1.0 + rng.uniform_int(0, 9) / 10.0});
  const int extra = elements * static_cast<int>(rng.uniform_int(4, 14));
  for (int c = 0; c < extra; ++c) {
    SetPartitionCandidate cand;
    // Elements cluster in a window, like registers of one subgraph.
    const int lo = static_cast<int>(rng.uniform_int(0, elements - 2));
    const int hi = std::min(elements - 1, lo + 11);
    const int size = static_cast<int>(rng.uniform_int(2, hi - lo + 1));
    std::vector<int> pool;
    for (int e = lo; e <= hi; ++e) pool.push_back(e);
    for (int k = 0; k < size; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      cand.elements.push_back(pool[pick]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    cand.weight = size * 0.7 + rng.uniform_int(0, 5) / 3.0 +
                  rng.uniform_real(0.0, 0.2);
    p.candidates.push_back(std::move(cand));
  }
  return p;
}

TEST(SetPartition, MatchesExhaustiveOracleAt16To24Elements) {
  util::Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const int elements = 16 + trial % 9;
    const SetPartitionProblem p = random_wide_instance(rng, elements);
    const SetPartitionResult r = solve_set_partition(p);
    ASSERT_TRUE(r.feasible) << "trial " << trial;
    const double expected = oracle_optimum(p);
    EXPECT_NEAR(r.objective, expected, 1e-9 * expected) << "trial " << trial;
    expect_valid_partition(p, r);
  }
}

// All 1-, 2-, 4- and 8-cliques of a dense random graph, priced
// a*|S| - b*log2|S| plus noise: the per-bit cost is nearly the same for
// every candidate, the shape a power/area-weighted cost model produces, so
// the additive min(w/|S|) bound is almost flat and prunes next to nothing.
void collect_cliques(const std::vector<std::uint64_t>& adjacent, int size,
                     std::uint64_t allowed, std::vector<int>& clique,
                     std::vector<std::vector<int>>& out) {
  if (static_cast<int>(clique.size()) == size) {
    out.push_back(clique);
    return;
  }
  for (; allowed != 0; allowed &= allowed - 1) {
    const int v = std::countr_zero(allowed);
    clique.push_back(v);
    collect_cliques(adjacent, size, allowed & (allowed - 1) & adjacent[v],
                    clique, out);
    clique.pop_back();
  }
}

SetPartitionProblem near_uniform_instance(util::Rng& rng, int elements,
                                          double edge_probability) {
  std::vector<std::uint64_t> adjacent(elements, 0);
  for (int i = 0; i < elements; ++i)
    for (int j = i + 1; j < elements; ++j)
      if (rng.chance(edge_probability)) {
        adjacent[i] |= std::uint64_t{1} << j;
        adjacent[j] |= std::uint64_t{1} << i;
      }
  SetPartitionProblem p;
  p.element_count = elements;
  for (const int size : {1, 2, 4, 8}) {
    std::vector<std::vector<int>> cliques;
    std::vector<int> clique;
    collect_cliques(adjacent, size, (std::uint64_t{1} << elements) - 1, clique,
                    cliques);
    for (auto& members : cliques)
      p.candidates.push_back(
          {std::move(members), 1.0 * size - 0.2 * std::log2(size) +
                                   rng.uniform_real(0.0, 0.05)});
  }
  return p;
}

// A static-bound branch & bound needs more than 5M nodes on each of these
// instances; the memoised search proves them optimal in well under 1M.
TEST(SetPartition, NearUniformPerBitCostStaysExactAndSmall) {
  util::Rng rng(20007);
  for (int trial = 0; trial < 3; ++trial) {
    const SetPartitionProblem p = near_uniform_instance(rng, 20, 0.7);
    const SetPartitionResult r = solve_set_partition(p);
    ASSERT_TRUE(r.feasible) << "trial " << trial;
    EXPECT_FALSE(r.budget_hit) << "trial " << trial;
    EXPECT_LT(r.nodes_explored, 1'000'000) << "trial " << trial;
    const double expected = oracle_optimum(p);
    EXPECT_NEAR(r.objective, expected, 1e-9 * expected) << "trial " << trial;
    expect_valid_partition(p, r);
  }
}

// The same family at 30 elements and G(30, 0.7) is beyond the additive
// bound: the search runs into its node cap. It must stop there -- one solve
// stays bounded in time and memo size -- and still hand back the best
// partition it found, flagged as not proven optimal.
TEST(SetPartition, DenseNearUniformSubgraphStopsAtNodeCap) {
  util::Rng rng(30007);
  const SetPartitionProblem p = near_uniform_instance(rng, 30, 0.7);
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.budget_hit);
  EXPECT_EQ(r.nodes_explored, 1'000'000);
  expect_valid_partition(p, r);
  // Better than leaving every element alone: the incumbent is a real
  // search result, not a fallback.
  double singletons = 0.0;
  for (const auto& cand : p.candidates)
    if (cand.elements.size() == 1) singletons += cand.weight;
  EXPECT_LT(r.objective, singletons);
}

// Exactly tied optima resolve to the first one in branching order: element
// 0 is branched first (both elements have two candidates; lowest id wins)
// and its cheapest candidate {0} comes before {0, 1}.
TEST(SetPartition, TiesKeepFirstOptimumInBranchingOrder) {
  SetPartitionProblem p;
  p.element_count = 2;
  p.candidates = {{{0, 1}, 1.0}, {{1}, 0.5}, {{0}, 0.5}};
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.objective, 1.0);
  EXPECT_EQ(r.chosen, (std::vector<int>{1, 2}));
}

// 64 elements is the widest mask; the all-covered mask is the table's empty
// key, which must never be stored.
TEST(SetPartition, SolvesSixtyFourElements) {
  SetPartitionProblem p;
  p.element_count = 64;
  for (int e = 0; e < 64; ++e) p.candidates.push_back({{e}, 1.0});
  for (int e = 0; e + 1 < 64; e += 2) p.candidates.push_back({{e, e + 1}, 1.5});
  const SetPartitionResult r = solve_set_partition(p);
  ASSERT_TRUE(r.feasible);
  EXPECT_DOUBLE_EQ(r.objective, 32 * 1.5);
  EXPECT_EQ(r.chosen.size(), 32u);
  expect_valid_partition(p, r);
}

TEST(SetPartition, RejectsMoreThanSixtyFourElements) {
  SetPartitionProblem p;
  p.element_count = 65;
  for (int e = 0; e < 65; ++e) p.candidates.push_back({{e}, 1.0});
  EXPECT_THROW(solve_set_partition(p), util::AssertionError);
}

// The batch entry point returns the serial per-instance results at any job
// count, node counts included.
TEST(SetPartition, BatchIsIdenticalAtOneAndFourJobs) {
  util::Rng rng(99);
  std::vector<SetPartitionProblem> problems;
  for (int i = 0; i < 12; ++i)
    problems.push_back(i % 3 == 0 ? near_uniform_instance(rng, 16, 0.7)
                                  : random_wide_instance(rng, 16 + i % 5));
  const std::vector<SetPartitionResult> serial =
      solve_set_partitions(problems, {}, 1);
  const std::vector<SetPartitionResult> parallel =
      solve_set_partitions(problems, {}, 4);
  ASSERT_EQ(serial.size(), problems.size());
  ASSERT_EQ(parallel.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_EQ(serial[i].chosen, parallel[i].chosen) << i;
    EXPECT_EQ(serial[i].objective, parallel[i].objective) << i;
    EXPECT_EQ(serial[i].nodes_explored, parallel[i].nodes_explored) << i;
    const SetPartitionResult alone = solve_set_partition(problems[i]);
    EXPECT_EQ(alone.chosen, serial[i].chosen) << i;
    EXPECT_EQ(alone.nodes_explored, serial[i].nodes_explored) << i;
  }
}

}  // namespace
}  // namespace mbrc::ilp
