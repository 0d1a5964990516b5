// Determinism regression tests for the hazards mbrc-lint R1/R2 guard
// against: results must not depend on hash-map insertion (and hence
// iteration) order or on the relative order equal-keyed elements reach an
// unstable sort in.
//
//   - TimingEngine::apply_skew_diff collects changed registers from two
//     unordered maps; permuting the SkewMap's insertion order must leave
//     every arrival/required/slack bit-identical (and equal to the
//     from-scratch run_sta oracle).
//   - CompatibilityGraph construction appends edges in probe order;
//     permuting the add_edge order must produce the same finalized graph
//     and the same enumerated candidates.
//   - DesignChecker reports are part of flow output: placement and scan
//     diagnostics must come out in ascending row / scan-partition order,
//     not hash order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "benchgen/generator.hpp"
#include "check/checker.hpp"
#include "mbr/candidates.hpp"
#include "mbr/compatibility.hpp"
#include "reference/worked_example.hpp"
#include "sta/timing_engine.hpp"
#include "util/rng.hpp"

namespace mbrc {
namespace {

using netlist::CellId;

benchgen::GeneratedDesign make_design(const lib::Library& library,
                                      std::uint64_t seed) {
  benchgen::DesignProfile profile;
  profile.name = "det";
  profile.seed = seed;
  profile.register_cells = 180;
  profile.comb_per_register = 3.0;
  return benchgen::generate_design(library, profile);
}

void expect_bit_identical(const sta::TimingReport& got,
                          const sta::TimingReport& want) {
  ASSERT_EQ(got.arrival.size(), want.arrival.size());
  for (std::size_t i = 0; i < got.arrival.size(); ++i) {
    ASSERT_EQ(got.arrival[i], want.arrival[i]) << "arrival pin " << i;
    ASSERT_EQ(got.arrival_min[i], want.arrival_min[i]) << "min pin " << i;
    ASSERT_EQ(got.required[i], want.required[i]) << "required pin " << i;
  }
  ASSERT_EQ(got.endpoints.size(), want.endpoints.size());
  for (std::size_t i = 0; i < got.endpoints.size(); ++i) {
    ASSERT_EQ(got.endpoints[i].pin, want.endpoints[i].pin);
    ASSERT_EQ(got.endpoints[i].slack, want.endpoints[i].slack);
    ASSERT_EQ(got.endpoints[i].hold_slack, want.endpoints[i].hold_slack);
  }
}

TEST(SkewDeterminism, InsertionOrderDoesNotChangeTheReport) {
  const lib::Library library = lib::make_default_library();
  const auto generated = make_design(library, 4242);
  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;

  // The same skew assignment, inserted forward, reversed, and shuffled:
  // three different unordered_map iteration orders into apply_skew_diff.
  const auto registers = generated.design.registers();
  std::vector<std::pair<CellId, double>> entries;
  for (std::size_t i = 0; i < registers.size(); i += 2)
    entries.emplace_back(registers[i],
                         0.01 * static_cast<double>(i % 17) - 0.08);

  std::vector<std::vector<std::pair<CellId, double>>> orders;
  orders.push_back(entries);
  orders.push_back({entries.rbegin(), entries.rend()});
  auto shuffled = entries;
  util::Rng rng(99);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  orders.push_back(shuffled);

  std::vector<sta::TimingReport> reports;
  for (const auto& order : orders) {
    sta::SkewMap skew;
    for (const auto& [cell, value] : order) skew[cell] = value;
    sta::TimingEngine engine(generated.design, options);
    engine.update();        // seed the clean baseline
    engine.update(skew);    // exercises apply_skew_diff's changed-set path
    reports.push_back(engine.report());
  }

  const sta::TimingReport oracle =
      [&] {
        sta::SkewMap skew;
        for (const auto& [cell, value] : entries) skew[cell] = value;
        return sta::run_sta(generated.design, options, skew);
      }();
  for (const auto& report : reports) expect_bit_identical(report, oracle);
}

TEST(SkewDeterminism, PermutedUpdateSequencesConverge) {
  const lib::Library library = lib::make_default_library();
  const auto generated = make_design(library, 7);
  sta::TimingOptions options;
  options.clock_period = generated.calibrated_clock_period;
  const auto registers = generated.design.registers();

  // Two engines walk different intermediate skew states (so their changed
  // sets differ step to step) but end on the same final assignment.
  sta::SkewMap final_skew;
  for (std::size_t i = 0; i < registers.size(); i += 3)
    final_skew[registers[i]] = 0.005 * static_cast<double>(i % 11);

  sta::TimingEngine a(generated.design, options);
  sta::TimingEngine b(generated.design, options);
  sta::SkewMap half;
  std::size_t n = 0;
  for (const auto& [cell, value] : final_skew)
    if (++n % 2) half[cell] = value - 0.001;
  a.update(half);
  a.update(final_skew);
  b.update(final_skew);
  expect_bit_identical(a.report(), b.report());
  expect_bit_identical(a.report(),
                       sta::run_sta(generated.design, options, final_skew));
}

TEST(CompatibilityDeterminism, EdgeInsertionOrderIsCanonicalized) {
  // Same node set, same edge set, three different add_edge orders: the
  // finalized adjacency and the enumerated candidates must be identical.
  const mbr::WorkedExample example = mbr::make_worked_example();
  std::vector<std::pair<int, int>> edges;
  for (int a = 0; a < example.graph.node_count(); ++a)
    for (int b = a + 1; b < example.graph.node_count(); ++b)
      if (example.graph.has_edge(a, b)) edges.emplace_back(a, b);
  ASSERT_FALSE(edges.empty());

  const auto build = [&](const std::vector<std::pair<int, int>>& order) {
    mbr::CompatibilityGraph graph;
    for (const auto& info : example.graph.nodes()) graph.add_node(info);
    for (const auto& [a, b] : order) graph.add_edge(a, b);
    graph.finalize();
    return graph;
  };

  std::vector<std::pair<int, int>> reversed(edges.rbegin(), edges.rend());
  auto swapped = edges;  // permute endpoints too: add_edge(b, a)
  for (auto& [a, b] : swapped) std::swap(a, b);

  const auto canonical = [&](const mbr::CompatibilityGraph& graph) {
    std::vector<std::string> names;
    mbr::BlockerIndex blockers(graph);
    std::vector<int> subgraph;
    for (int i = 0; i < graph.node_count(); ++i) subgraph.push_back(i);
    const auto result = mbr::enumerate_candidates(
        graph, *example.library, blockers, subgraph, {});
    for (const auto& c : result.candidates) {
      std::string name;
      for (int n : c.nodes) name += mbr::WorkedExample::node_name(n);
      names.push_back(name + ":" + std::to_string(c.weight));
    }
    return names;
  };

  const auto want = canonical(build(edges));
  EXPECT_EQ(canonical(build(reversed)), want);
  EXPECT_EQ(canonical(build(swapped)), want);
}

class CheckerOrderFixture : public ::testing::Test {
protected:
  CheckerOrderFixture() : library(lib::make_default_library()) {
    // Big enough that every scan partition is populated and overlaps can be
    // planted across many distinct rows.
    benchgen::DesignProfile profile;
    profile.name = "det-check";
    profile.seed = 31;
    profile.register_cells = 600;
    profile.comb_per_register = 2.0;
    generated.emplace(benchgen::generate_design(library, profile));
  }

  netlist::Design& design() { return generated->design; }

  /// Extracts the integer that follows `marker` in each violation of
  /// `check`, in report order.
  static std::vector<int> numbers_after(const check::CheckReport& report,
                                        const std::string& check,
                                        const std::string& marker) {
    std::vector<int> out;
    for (const auto& v : report.violations) {
      if (v.check != check) continue;
      const std::size_t pos = v.detail.find(marker);
      if (pos == std::string::npos) continue;
      out.push_back(std::stoi(v.detail.substr(pos + marker.size())));
    }
    return out;
  }

  lib::Library library;
  std::optional<benchgen::GeneratedDesign> generated;
};

TEST_F(CheckerOrderFixture, OverlapReportsComeOutInRowOrder) {
  // Plant overlaps in many distinct rows by stacking register pairs, then
  // require the placement diagnostics in ascending row order -- the report
  // is flow output, so it must not follow unordered_map iteration order.
  const auto regs = design().registers();
  ASSERT_GE(regs.size(), 40u);
  int planted = 0;
  for (std::size_t i = 0; i + 1 < regs.size() && planted < 12; i += 15) {
    design().cell(regs[i + 1]).position = design().cell(regs[i]).position;
    design().notify_moved(regs[i + 1]);
    ++planted;
  }
  ASSERT_GE(planted, 8);

  check::DesignChecker checker(design());
  checker.check_placement();
  const auto rows =
      numbers_after(checker.report(), "placement", "overlap in row ");
  ASSERT_GE(rows.size(), 4u) << checker.report().to_string();
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()))
      << checker.report().to_string();
}

TEST_F(CheckerOrderFixture, ScanReportsComeOutInPartitionOrder) {
  // Cut one SI link per scan partition; the resulting chain diagnostics
  // must be grouped by ascending partition id.
  std::vector<int> cut_partitions;
  for (CellId reg : design().registers()) {
    const netlist::Cell& cell = design().cell(reg);
    if (!cell.reg->function.is_scan || cell.scan.partition < 0) continue;
    if (std::find(cut_partitions.begin(), cut_partitions.end(),
                  cell.scan.partition) != cut_partitions.end())
      continue;
    for (netlist::PinId pin_id : cell.pins) {
      const netlist::Pin& p = design().pin(pin_id);
      if (p.role == netlist::PinRole::kScanIn && p.net.valid() &&
          design().net(p.net).driver.valid()) {
        design().disconnect(pin_id);
        cut_partitions.push_back(cell.scan.partition);
        break;
      }
    }
  }
  ASSERT_GE(cut_partitions.size(), 2u);

  check::DesignChecker checker(design());
  checker.check_scan_chains();
  const auto partitions =
      numbers_after(checker.report(), "scan", "scan partition ");
  ASSERT_GE(partitions.size(), 2u) << checker.report().to_string();
  EXPECT_TRUE(std::is_sorted(partitions.begin(), partitions.end()))
      << checker.report().to_string();
}

}  // namespace
}  // namespace mbrc
