// map_candidate (Sec. 4.1) in isolation: drive-resistance matching, clock
// cap preference, scan-style selection, bit ordering and the incomplete-MBR
// area fallback.
#include <gtest/gtest.h>

#include "mbr/mapping.hpp"
#include "netlist/design.hpp"
#include "reference/worked_example.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {
namespace {

using netlist::CellId;
using netlist::Design;

class MappingFixture : public ::testing::Test {
protected:
  MappingFixture()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 300, 36}) {
    clock = design.create_net(true);
  }

  // Adds a register at `pos` and returns its graph node index.
  int add_node(const std::string& cell_name, geom::Point pos) {
    const auto* cell = library.register_by_name(cell_name);
    EXPECT_NE(cell, nullptr) << cell_name;
    const CellId reg =
        design.add_register("r" + std::to_string(counter++), cell, pos);
    design.connect(design.register_clock_pin(reg), clock);
    RegisterInfo info;
    info.cell = reg;
    info.lib_cell = cell;
    info.bits = cell->bits;
    info.footprint = design.cell(reg).footprint();
    info.region = info.footprint.inflate(60);
    info.drive_resistance = cell->drive_resistance;
    info.clock_net = clock;
    return graph.add_node(info);
  }

  Candidate candidate_over(std::vector<int> nodes, int mapped_width = 0) {
    Candidate c;
    c.nodes = std::move(nodes);
    for (int n : c.nodes) c.bits += graph.node(n).bits;
    c.mapped_width = mapped_width == 0 ? c.bits : mapped_width;
    c.common_region = {0, 0, 300, 36};
    return c;
  }

  lib::Library library;
  Design design;
  netlist::NetId clock;
  CompatibilityGraph graph;
  int counter = 0;
};

TEST_F(MappingFixture, DriveMatchesStrongestMember) {
  const int weak = add_node("DFFP_B2_X1", {10, 9});
  const int strong = add_node("DFFP_B2_X4", {20, 9});
  const auto mapping =
      map_candidate(design, graph, candidate_over({weak, strong}));
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->cell->bits, 4);
  // Must be at least as strong as the X4 member (resistance 0.6).
  EXPECT_LE(mapping->cell->drive_resistance, 0.6 + 1e-9);
}

TEST_F(MappingFixture, WeakMembersGetWeakCell) {
  const int a = add_node("DFFP_B2_X1", {10, 9});
  const int b = add_node("DFFP_B2_X1", {20, 9});
  const auto mapping = map_candidate(design, graph, candidate_over({a, b}));
  ASSERT_TRUE(mapping.has_value());
  // X1 suffices, and it has the lowest clock-pin cap among qualifiers.
  EXPECT_NEAR(mapping->cell->drive_resistance, 2.4, 1e-9);
}

TEST_F(MappingFixture, BitOffsetsCoverMembersInOrder) {
  const int a = add_node("DFFP_B1_X1", {30, 9});
  const int b = add_node("DFFP_B2_X1", {10, 9});
  const int c = add_node("DFFP_B1_X1", {20, 9});
  const auto mapping =
      map_candidate(design, graph, candidate_over({a, b, c}));
  ASSERT_TRUE(mapping.has_value());
  ASSERT_EQ(mapping->member_order.size(), 3u);
  // Spatial order (x ascending): b (10), c (20), a (30).
  EXPECT_EQ(mapping->member_order[0], b);
  EXPECT_EQ(mapping->member_order[1], c);
  EXPECT_EQ(mapping->member_order[2], a);
  EXPECT_EQ(mapping->bit_offset, (std::vector<int>{0, 2, 3}));
}

TEST_F(MappingFixture, ScanSectionMembersLeadTheBitOrder) {
  const int free_node = add_node("DFFQ_B1_X1", {5, 9});
  const int free_node2 = add_node("DFFQ_B1_X1", {8, 9});
  const int s1 = add_node("DFFQ_B1_X1", {40, 9});
  const int s0 = add_node("DFFQ_B1_X1", {60, 9});
  graph.node_mutable(s0).scan = {0, 3, 0};
  graph.node_mutable(s1).scan = {0, 3, 1};
  graph.node_mutable(free_node).scan = {0, -1, -1};
  graph.node_mutable(free_node2).scan = {0, -1, -1};

  Candidate c = candidate_over({free_node, free_node2, s1, s0});
  c.needs_per_bit_scan = candidate_needs_per_bit_scan(graph, c.nodes);
  EXPECT_TRUE(c.needs_per_bit_scan);  // section + free mix
  const auto mapping = map_candidate(design, graph, c);
  ASSERT_TRUE(mapping.has_value());
  EXPECT_EQ(mapping->cell->scan_style, lib::ScanStyle::kPerBitPins);
  // Section members first, in section order, despite their x positions.
  EXPECT_EQ(mapping->member_order[0], s0);
  EXPECT_EQ(mapping->member_order[1], s1);
  EXPECT_EQ(mapping->member_order[2], free_node);
}

TEST_F(MappingFixture, IncompleteFallsBackToAreaFeasibleVariant) {
  // Strong member forces an X4 map; if the X4 8-bit cell busts the area
  // budget, the mapper falls back to the strongest variant that fits
  // rather than abandoning the merge.
  const int a = add_node("DFFP_B4_X4", {10, 9});
  const int b = add_node("DFFP_B2_X1", {20, 9});
  const int c = add_node("DFFP_B1_X1", {30, 9});
  Candidate cand = candidate_over({a, b, c}, /*mapped_width=*/8);
  ASSERT_TRUE(cand.is_incomplete());

  MappingOptions options;
  options.incomplete_area_overhead = 0.35;  // X1 fits, X4 does not
  std::string why;
  const auto mapping = map_candidate(design, graph, cand, options, &why);
  ASSERT_TRUE(mapping.has_value()) << why;
  double replaced = 0.0;
  for (int n : cand.nodes) replaced += graph.node(n).lib_cell->area;
  EXPECT_LE(mapping->cell->area, replaced * 1.35 + 1e-9);
  // It is not the weakest available either: strongest-fitting wins.
  const auto all = library.cells_for(lib::RegisterFunction{}, 8);
  double weakest = 0.0;
  for (const auto* v : all) weakest = std::max(weakest, v->drive_resistance);
  EXPECT_LE(mapping->cell->drive_resistance, weakest);
}

TEST_F(MappingFixture, RejectsWhenNothingFits) {
  const int a = add_node("DFFP_B1_X1", {10, 9});
  const int b = add_node("DFFP_B1_X1", {20, 9});
  Candidate cand = candidate_over({a, b}, /*mapped_width=*/8);
  std::string why;
  const auto mapping = map_candidate(design, graph, cand, {}, &why);
  EXPECT_FALSE(mapping.has_value());  // 2 bits on an 8-bit: hopeless area
  EXPECT_FALSE(why.empty());
}

TEST_F(MappingFixture, UnknownWidthRejected) {
  const int a = add_node("DFFP_B1_X1", {10, 9});
  const int b = add_node("DFFP_B1_X1", {20, 9});
  const int c = add_node("DFFP_B1_X1", {30, 9});
  Candidate cand = candidate_over({a, b, c});  // 3 bits, no 3-bit cell
  std::string why;
  EXPECT_FALSE(map_candidate(design, graph, cand, {}, &why).has_value());
  EXPECT_NE(why.find("no library cell"), std::string::npos);
}

}  // namespace
}  // namespace mbrc::mbr
