#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mbrc::ilp
