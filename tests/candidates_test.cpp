#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "mbr/candidates.hpp"
#include "mbr/cliques.hpp"
#include "mbr/composition.hpp"
#include "obs/counters.hpp"
#include "reference/worked_example.hpp"

namespace mbrc::mbr {
namespace {

std::string names(const std::vector<int>& nodes) {
  std::string s;
  for (int n : nodes) s += WorkedExample::node_name(n);
  return s;
}

TEST(CandidateWeight, Formula) {
  EXPECT_DOUBLE_EQ(candidate_weight(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(candidate_weight(3, 0), 1.0 / 3);
  EXPECT_DOUBLE_EQ(candidate_weight(8, 0), 0.125);
  EXPECT_DOUBLE_EQ(candidate_weight(2, 1), 4.0);   // b * 2^n
  EXPECT_DOUBLE_EQ(candidate_weight(3, 1), 6.0);   // the paper's ABC
  EXPECT_DOUBLE_EQ(candidate_weight(8, 1), 16.0);  // the paper's 8-bit case
  EXPECT_DOUBLE_EQ(candidate_weight(4, 1), 8.0);
  EXPECT_DOUBLE_EQ(candidate_weight(4, 3), 32.0);
  EXPECT_TRUE(std::isinf(candidate_weight(3, 3)));  // n >= b
  EXPECT_TRUE(std::isinf(candidate_weight(2, 5)));
}

TEST(CandidateWeight, PaperExampleTradeoff) {
  // Sec. 3.2: one blocked 8-bit (w=16) loses to a clean 4-bit plus a
  // blocked 4-bit (w = 0.25 + 8 = 8.25).
  EXPECT_GT(candidate_weight(8, 1),
            candidate_weight(4, 0) + candidate_weight(4, 1));
  // And clean big beats clean small pairs: 1/8 < 1/4 + 1/4.
  EXPECT_LT(candidate_weight(8, 0),
            2 * candidate_weight(4, 0));
}

class WorkedExampleCandidates : public ::testing::Test {
protected:
  WorkedExampleCandidates()
      : example(make_worked_example()), blockers(example.graph) {
    for (int i = 0; i < example.graph.node_count(); ++i) subgraph.push_back(i);
  }

  EnumerationResult enumerate(EnumerationOptions options = {}) {
    return enumerate_candidates(example.graph, *example.library, blockers,
                                subgraph, options);
  }

  WorkedExample example;
  BlockerIndex blockers;
  std::vector<int> subgraph;
};

TEST_F(WorkedExampleCandidates, Fig3WeightsExact) {
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;  // list AE/ACE like the figure
  const EnumerationResult result = enumerate(options);

  std::map<std::string, const Candidate*> by_name;
  for (const Candidate& c : result.candidates) by_name[names(c.nodes)] = &c;

  const auto expect_weight = [&](const std::string& name, double weight,
                                 int blockers_n) {
    ASSERT_TRUE(by_name.contains(name)) << name;
    EXPECT_NEAR(by_name.at(name)->weight, weight, 1e-9) << name;
    EXPECT_EQ(by_name.at(name)->blockers, blockers_n) << name;
  };
  // Clean 2-bit pairs: 0.5 (Fig. 3).
  for (const std::string name : {"AB", "AC", "AD", "BD", "CD"})
    expect_weight(name, 0.5, 0);
  expect_weight("BC", 4.0, 1);    // blocked by D
  expect_weight("ABC", 6.0, 1);   // blocked by D
  for (const std::string name : {"ABD", "ACD", "BCD", "BF", "CF"})
    expect_weight(name, 1.0 / 3, 0);
  expect_weight("ABCD", 0.25, 0);
  expect_weight("BCF", 8.0, 1);   // 4 bits, blocked by D
  expect_weight("AE", 0.2, 0);    // 5 bits, incomplete 8
  expect_weight("ACE", 1.0 / 6, 0);
  // Singletons use the clean formula 1/b.
  expect_weight("A", 1.0, 0);
  expect_weight("E", 0.25, 0);
  expect_weight("F", 0.5, 0);

  // Incomplete mapping widths.
  EXPECT_EQ(by_name.at("AE")->mapped_width, 8);
  EXPECT_TRUE(by_name.at("AE")->is_incomplete());
  EXPECT_EQ(by_name.at("ABCD")->mapped_width, 4);
  EXPECT_FALSE(by_name.at("ABCD")->is_incomplete());
}

TEST_F(WorkedExampleCandidates, FlowAreaRuleRejectsWastefulIncomplete) {
  // With the paper's 5% overhead cap, AE and ACE disappear ("in reality,
  // incomplete register AE would have been rejected").
  const EnumerationResult result = enumerate();
  for (const Candidate& c : result.candidates) {
    EXPECT_NE(names(c.nodes), "AE");
    EXPECT_NE(names(c.nodes), "ACE");
  }
}

TEST_F(WorkedExampleCandidates, IncompleteDisabledDropsOddSizes) {
  EnumerationOptions options;
  options.allow_incomplete = false;
  const EnumerationResult result = enumerate(options);
  for (const Candidate& c : result.candidates) {
    EXPECT_FALSE(c.is_incomplete());
    EXPECT_EQ(c.bits, c.mapped_width);
  }
}

TEST_F(WorkedExampleCandidates, EveryCandidateIsACliqueWithCommonRegion) {
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;
  const EnumerationResult result = enumerate(options);
  EXPECT_FALSE(result.truncated);
  for (const Candidate& c : result.candidates) {
    for (std::size_t a = 0; a < c.nodes.size(); ++a)
      for (std::size_t b = a + 1; b < c.nodes.size(); ++b)
        EXPECT_TRUE(example.graph.has_edge(c.nodes[a], c.nodes[b]))
            << names(c.nodes);
    EXPECT_FALSE(c.common_region.is_empty()) << names(c.nodes);
    // The common region is inside every member's region.
    for (int node : c.nodes) {
      const geom::Rect& r = example.graph.node(node).region;
      EXPECT_EQ(c.common_region.intersect(r), c.common_region)
          << names(c.nodes);
    }
  }
}

TEST_F(WorkedExampleCandidates, MatchesMaximalCliqueSubsetEnumeration) {
  // Equivalence with the paper's Bron-Kerbosch + sub-clique DP: every
  // candidate is a subset of some maximal clique, and every subset of a
  // maximal clique with a valid width and non-empty region appears.
  EnumerationOptions options;
  options.incomplete_area_overhead = 10.0;
  const EnumerationResult result = enumerate(options);
  const auto maximal = maximal_cliques(example.graph, subgraph);

  std::set<std::vector<int>> produced;
  for (const Candidate& c : result.candidates) produced.insert(c.nodes);

  for (const Candidate& c : result.candidates) {
    bool inside_some_maximal = false;
    for (const auto& m : maximal) {
      if (std::includes(m.begin(), m.end(), c.nodes.begin(), c.nodes.end())) {
        inside_some_maximal = true;
        break;
      }
    }
    EXPECT_TRUE(inside_some_maximal) << names(c.nodes);
  }

  // Exhaustively check subsets of each maximal clique (cliques are tiny).
  const auto widths =
      example.library->available_widths(lib::RegisterFunction{});
  for (const auto& m : maximal) {
    const int n = static_cast<int>(m.size());
    for (unsigned mask = 1; mask < (1u << n); ++mask) {
      std::vector<int> subset;
      int bits = 0;
      geom::Rect region = geom::Rect::universe();
      for (int i = 0; i < n; ++i) {
        if (mask >> i & 1) {
          subset.push_back(m[i]);
          bits += example.graph.node(m[i]).bits;
          region = region.intersect(example.graph.node(m[i]).region);
        }
      }
      const bool complete =
          std::binary_search(widths.begin(), widths.end(), bits);
      if (!complete) continue;  // incomplete rules tested separately
      if (region.is_empty()) continue;
      const int blocked =
          blockers.count_blockers(example.graph, subset);
      if (blocked >= bits) continue;  // weight infinity: dropped
      EXPECT_TRUE(produced.contains(subset)) << names(subset);
    }
  }
}

TEST_F(WorkedExampleCandidates, TruncationGuard) {
  EnumerationOptions options;
  options.max_candidates_per_subgraph = 5;
  const EnumerationResult result = enumerate(options);
  EXPECT_TRUE(result.truncated);
  // The cap holds, except that lost singletons are appended afterwards so
  // the downstream ILP stays feasible.
  EXPECT_LE(result.candidates.size(), 5u + 6u);
  int singletons = 0;
  for (const Candidate& c : result.candidates) singletons += c.is_singleton();
  EXPECT_EQ(singletons, 6);
}

TEST_F(WorkedExampleCandidates, TruncatedEnumerationKeepsIlpFeasible) {
  // Even a pathologically small candidate cap must leave the exact-cover
  // ILP solvable (every node retains its keep-as-is option).
  for (const std::size_t cap : {1u, 2u, 3u, 7u}) {
    EnumerationOptions options;
    options.max_candidates_per_subgraph = cap;
    const EnumerationResult result = enumerate(options);
    const ilp::SetPartitionResult solved =
        mbr::solve_subgraph(subgraph, result.candidates);
    EXPECT_TRUE(solved.feasible) << "cap " << cap;
  }
}

TEST(BlockerIndexTest, CountsOnlyNonMembersStrictlyInside) {
  const WorkedExample example = make_worked_example();
  const BlockerIndex index(example.graph);
  using WE = WorkedExample;
  // D is inside hull(A, B, C) (Fig. 2).
  EXPECT_EQ(index.count_blockers(example.graph, {WE::kA, WE::kB, WE::kC}), 1);
  // ...but a member never blocks its own candidate.
  EXPECT_EQ(
      index.count_blockers(example.graph, {WE::kA, WE::kB, WE::kC, WE::kD}),
      0);
  // Singletons have no hull to block.
  EXPECT_EQ(index.count_blockers(example.graph, {WE::kA}), 0);
}

TEST(PerBitScan, RuleMatrix) {
  const WorkedExample example = make_worked_example();
  CompatibilityGraph g;
  auto add = [&](int section, int order) {
    RegisterInfo info = example.graph.node(0);
    info.scan.partition = 0;
    info.scan.section = section;
    info.scan.order = order;
    return g.add_node(info);
  };
  const int free1 = add(-1, -1);
  const int free2 = add(-1, -1);
  const int s0_0 = add(0, 0);
  const int s0_1 = add(0, 1);
  const int s0_3 = add(0, 3);
  const int s1_0 = add(1, 0);

  // No ordering constraints at all.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {free1, free2}));
  // One contiguous run of a single section.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {s0_0, s0_1}));
  // Non-contiguous orders: the chain would have to leave and re-enter.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s0_3}));
  // Two different ordered sections cross the MBR.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s1_0}));
  // Ordered and free registers mixed.
  EXPECT_TRUE(candidate_needs_per_bit_scan(g, {s0_0, s0_1, free1}));
  // A single ordered register is fine.
  EXPECT_FALSE(candidate_needs_per_bit_scan(g, {s0_0}));
}

TEST(CostModelTest, DefaultReducesToPaperWeight) {
  const lib::Library library = lib::make_default_library();
  const lib::RegisterCell* cell = library.cheapest_cell({}, 4);
  ASSERT_NE(cell, nullptr);
  const CostModel defaults;
  EXPECT_FALSE(defaults.multi_objective());
  // alpha=1, beta=gamma=0: the candidate cost IS the paper weight,
  // bit-exactly, whatever cell would be created.
  for (const double w : {0.125, 1.0 / 3, 0.5, 4.0, 16.0}) {
    EXPECT_EQ(defaults.candidate_cost(w, cell), w);
    EXPECT_EQ(defaults.candidate_cost(w, nullptr), w);
  }

  CostModel priced;
  priced.beta = 0.1;
  priced.gamma = 0.05;
  EXPECT_TRUE(priced.multi_objective());
  EXPECT_DOUBLE_EQ(priced.candidate_cost(0.5, cell),
                   0.5 + 0.1 * cell->power_proxy() + 0.05 * cell->area);
}

TEST_F(WorkedExampleCandidates, TruncationGuardSingletonsCarryCostTerms) {
  // Regression (S1): the truncation guard used to append lost singletons
  // with the bare paper weight candidate_weight(bits, 0), silently dropping
  // the beta/gamma cost terms every regularly-enumerated candidate carries.
  // Under a multi-objective model that under-priced keeping a register
  // unmerged, so the truncated ILP was biased toward unmerged banks.
  EnumerationOptions costed;
  costed.cost.beta = 0.1;
  costed.cost.gamma = 0.05;
  const EnumerationResult full = enumerate(costed);
  std::map<std::string, double> full_weight;
  for (const Candidate& c : full.candidates)
    if (c.is_singleton()) full_weight[names(c.nodes)] = c.weight;
  ASSERT_FALSE(full_weight.empty());

  EnumerationOptions truncated = costed;
  truncated.max_candidates_per_subgraph = 1;
  const EnumerationResult result = enumerate(truncated);
  ASSERT_TRUE(result.truncated);
  int guarded = 0;
  for (const Candidate& c : result.candidates) {
    if (!c.is_singleton()) continue;
    ++guarded;
    const auto it = full_weight.find(names(c.nodes));
    ASSERT_NE(it, full_weight.end()) << names(c.nodes);
    // Identical to the untruncated enumeration's singleton pricing...
    EXPECT_DOUBLE_EQ(c.weight, it->second) << names(c.nodes);
    // ...which is strictly above the bare paper weight when beta/gamma on.
    EXPECT_GT(c.weight, candidate_weight(c.bits, 0)) << names(c.nodes);
  }
  EXPECT_EQ(guarded, 6);  // every worked-example node kept its keep-option
}

TEST(DroppedInfiniteWeight, TalliedAndFlushedToCounter) {
  // Two compatible 1-bit registers at diagonal corners; two strangers sit
  // strictly inside the pair's convex hull. The pair candidate has n=2
  // blockers >= b=2 bits -> infinite weight -> silently dropped by
  // enumeration. Regression (S2): that drop used to vanish without a
  // trace; it must be tallied in the result and flushed to the
  // flow.candidates.dropped_infinite_weight counter.
  const lib::Library library = lib::make_default_library();
  const lib::RegisterCell* unit = library.cheapest_cell({}, 1);
  ASSERT_NE(unit, nullptr);

  CompatibilityGraph graph;
  const auto add = [&](geom::Rect footprint) {
    RegisterInfo info;
    info.lib_cell = unit;
    info.bits = 1;
    info.footprint = footprint;
    info.region = {-100.0, -100.0, 100.0, 100.0};
    return graph.add_node(info);
  };
  const int a = add({0.0, 0.0, 1.0, 1.0});
  const int b = add({10.0, 10.0, 11.0, 11.0});
  add({4.0, 4.0, 5.0, 5.0});  // blocker, center (4.5, 4.5)
  add({5.0, 5.0, 6.0, 6.0});  // blocker, center (5.5, 5.5)
  graph.add_edge(a, b);
  graph.finalize();

  const BlockerIndex blockers(graph);
  ASSERT_EQ(blockers.count_blockers(graph, {a, b}), 2);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  const EnumerationResult result =
      enumerate_candidates(graph, library, blockers, {a, b}, {});
  const obs::CountersSnapshot delta =
      obs::counters_delta(before, obs::counters_snapshot());

  EXPECT_EQ(result.dropped_infinite_weight, 1);
  const auto it =
      delta.counters.find("flow.candidates.dropped_infinite_weight");
  ASSERT_NE(it, delta.counters.end());
  EXPECT_EQ(it->second, 1);
  // The pair is gone but both keep-as-is singletons survived.
  int singletons = 0;
  for (const Candidate& c : result.candidates) singletons += c.is_singleton();
  EXPECT_EQ(singletons, 2);
  EXPECT_EQ(result.candidates.size(), 2u);
}

}  // namespace
}  // namespace mbrc::mbr
