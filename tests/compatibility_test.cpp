#include <gtest/gtest.h>

#include "mbr/compatibility.hpp"
#include "reference/worked_example.hpp"

namespace mbrc::mbr {
namespace {

// Builds a RegisterInfo for rule tests without a backing design.
RegisterInfo info_at(const lib::Library& library, geom::Point position,
                     double d_slack, double q_slack, double radius = 30.0) {
  RegisterInfo info;
  info.lib_cell = library.cells_for(lib::RegisterFunction{}, 1).front();
  info.bits = 1;
  info.footprint = {position.x, position.y, position.x + 2.5,
                    position.y + 1.8};
  info.region = info.footprint.inflate(radius);
  info.d_slack = d_slack;
  info.q_slack = q_slack;
  info.drive_resistance = 2.4;
  info.clock_net = netlist::NetId{0};
  return info;
}

class RuleFixture : public ::testing::Test {
protected:
  lib::Library library = lib::make_default_library();
  CompatibilityOptions options;
};

TEST_F(RuleFixture, FunctionalRequiresSameNets) {
  RegisterInfo a = info_at(library, {0, 0}, 0.1, 0.1);
  RegisterInfo b = info_at(library, {5, 0}, 0.1, 0.1);
  EXPECT_TRUE(functionally_compatible(a, b));
  b.clock_net = netlist::NetId{1};
  EXPECT_FALSE(functionally_compatible(a, b));
  b.clock_net = a.clock_net;
  b.gating_group = 3;
  EXPECT_FALSE(functionally_compatible(a, b));
  b.gating_group = a.gating_group;
  b.reset_net = netlist::NetId{9};
  EXPECT_FALSE(functionally_compatible(a, b));
}

TEST_F(RuleFixture, FunctionalRequiresSameClass) {
  RegisterInfo a = info_at(library, {0, 0}, 0.1, 0.1);
  RegisterInfo b = info_at(library, {5, 0}, 0.1, 0.1);
  b.lib_cell =
      library.cells_for(lib::RegisterFunction{.has_reset = true}, 1).front();
  EXPECT_FALSE(functionally_compatible(a, b));
}

TEST_F(RuleFixture, ScanRequiresSamePartition) {
  RegisterInfo a = info_at(library, {0, 0}, 0.1, 0.1);
  RegisterInfo b = info_at(library, {5, 0}, 0.1, 0.1);
  EXPECT_TRUE(scan_compatible(a, b));  // both unscanned (-1)
  a.scan.partition = 2;
  EXPECT_FALSE(scan_compatible(a, b));
  b.scan.partition = 2;
  EXPECT_TRUE(scan_compatible(a, b));
  // Different sections of the same partition remain pairwise compatible;
  // the per-bit-scan consequence is handled per candidate.
  a.scan.section = 0;
  b.scan.section = 1;
  EXPECT_TRUE(scan_compatible(a, b));
}

TEST_F(RuleFixture, PlacementRequiresOverlapAndProximity) {
  RegisterInfo a = info_at(library, {0, 0}, 0.1, 0.1, 10.0);
  RegisterInfo b = info_at(library, {15, 0}, 0.1, 0.1, 10.0);
  EXPECT_TRUE(placement_compatible(a, b, options));

  RegisterInfo far = info_at(library, {100, 0}, 0.1, 0.1, 10.0);
  EXPECT_FALSE(placement_compatible(a, far, options));  // regions disjoint

  RegisterInfo distant = info_at(library, {80, 0}, 0.1, 0.1, 200.0);
  CompatibilityOptions tight = options;
  tight.max_distance = 50.0;
  EXPECT_FALSE(placement_compatible(a, distant, tight));  // distance filter
}

TEST_F(RuleFixture, TimingRejectsOppositeSlackSigns) {
  // a wants a later clock (negative D), b wants an earlier one (negative Q):
  // merging them would pull the MBR's skew in opposite directions.
  RegisterInfo a = info_at(library, {0, 0}, -0.1, 0.15);
  RegisterInfo b = info_at(library, {5, 0}, 0.15, -0.1);
  CompatibilityOptions loose = options;
  loose.slack_similarity = 1.0;  // isolate the sign rule
  EXPECT_FALSE(timing_compatible(a, b, loose));
  // Same-direction profiles are fine.
  RegisterInfo c = info_at(library, {5, 0}, -0.05, 0.2);
  EXPECT_TRUE(timing_compatible(a, c, loose));
}

TEST_F(RuleFixture, TimingRequiresSimilarMagnitudes) {
  RegisterInfo a = info_at(library, {0, 0}, 0.05, 0.05);
  RegisterInfo b = info_at(library, {5, 0}, 0.05 + options.slack_similarity + 0.01,
                           0.05);
  EXPECT_FALSE(timing_compatible(a, b, options));
  RegisterInfo c = info_at(library, {5, 0}, 0.05 + options.slack_similarity - 0.01,
                           0.05);
  EXPECT_TRUE(timing_compatible(a, c, options));
  // Q-side similarity matters equally.
  RegisterInfo d = info_at(library, {5, 0}, 0.05,
                           0.05 + options.slack_similarity + 0.01);
  EXPECT_FALSE(timing_compatible(a, d, options));
}

TEST(WorkedExample, ReproducesFig1EdgeSet) {
  const WorkedExample example = make_worked_example();
  const CompatibilityGraph& g = example.graph;
  using WE = WorkedExample;
  // Fig. 1 edges.
  const std::vector<std::pair<int, int>> edges = {
      {WE::kA, WE::kB}, {WE::kA, WE::kC}, {WE::kA, WE::kD}, {WE::kA, WE::kE},
      {WE::kB, WE::kC}, {WE::kB, WE::kD}, {WE::kB, WE::kF}, {WE::kC, WE::kD},
      {WE::kC, WE::kE}, {WE::kC, WE::kF}};
  for (auto [u, v] : edges)
    EXPECT_TRUE(g.has_edge(u, v))
        << WE::node_name(u) << "-" << WE::node_name(v);
  EXPECT_EQ(g.edge_count(), static_cast<std::int64_t>(edges.size()));
  // Explicit non-edges from the figure.
  EXPECT_FALSE(g.has_edge(WE::kD, WE::kE));
  EXPECT_FALSE(g.has_edge(WE::kD, WE::kF));
  EXPECT_FALSE(g.has_edge(WE::kE, WE::kF));
  EXPECT_FALSE(g.has_edge(WE::kA, WE::kF));
  EXPECT_FALSE(g.has_edge(WE::kB, WE::kE));
}

TEST(CompatibilityGraph, ConnectedComponents) {
  const WorkedExample example = make_worked_example();
  // The worked example is one connected component of six nodes.
  const auto components = example.graph.connected_components();
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 6u);

  CompatibilityGraph g;
  for (int i = 0; i < 5; ++i) g.add_node(example.graph.node(0));
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  g.finalize();
  const auto parts = g.connected_components();
  ASSERT_EQ(parts.size(), 3u);  // {0,1}, {2}, {3,4}
  EXPECT_EQ(parts[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(parts[1], (std::vector<int>{2}));
  EXPECT_EQ(parts[2], (std::vector<int>{3, 4}));
}

TEST(CompatibilityGraph, DuplicateEdgesCollapse) {
  const WorkedExample example = make_worked_example();
  CompatibilityGraph g;
  g.add_node(example.graph.node(0));
  g.add_node(example.graph.node(1));
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_EQ(g.edge_count(), 1);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
}

}  // namespace
}  // namespace mbrc::mbr
