// Unit tests for the one register split path: debank_critical_registers
// (mbr/debank.hpp) selects timing-critical banks and splits each into
// single-bit pieces.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mbr/debank.hpp"
#include "sta/sta.hpp"

namespace mbrc::mbr {
namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinId;
using netlist::PinRole;

class DebankSplit : public ::testing::Test {
protected:
  DebankSplit()
      : library(lib::make_default_library()),
        design(&library, {0, 0, 200, 36}) {
    clock = design.create_net(true);
  }

  // A resettable register with per-bit D/Q nets and the shared clock and
  // reset nets.
  CellId add_reg(const std::string& name, geom::Point pos, int bits = 8) {
    const auto* cell = library.register_by_name(
        "DFFR_B" + std::to_string(bits) + "_X1");
    const CellId reg = design.add_register(name, cell, pos);
    design.connect(design.register_clock_pin(reg), clock);
    if (!reset.valid()) {
      reset = design.create_net();
      const CellId driver = design.add_comb("rst", inverter(), {0, 0});
      design.connect(output_pin(driver), reset);
    }
    design.connect(design.register_control_pin(reg, PinRole::kReset), reset);
    for (int b = 0; b < bits; ++b) {
      d_nets[name].push_back(design.create_net());
      design.connect(design.register_d_pin(reg, b), d_nets[name].back());
      q_nets[name].push_back(design.create_net());
      design.connect(design.register_q_pin(reg, b), q_nets[name].back());
    }
    return reg;
  }

  // An inverter chain from net `from` to net `to` whose stages zig-zag
  // across the core at height y: each stage adds a long wire.
  void chain(NetId from, NetId to, int stages, double y) {
    NetId prev = from;
    for (int i = 0; i < stages; ++i) {
      const double x = (i % 2 == 0) ? 190.0 : 30.0;
      const CellId stage = design.add_comb(
          "chain" + std::to_string(chain_cells++), inverter(), {x, y});
      design.connect(input_pin(stage), prev);
      if (i + 1 == stages) {
        design.connect(output_pin(stage), to);
      } else {
        prev = design.create_net();
        design.connect(output_pin(stage), prev);
      }
    }
  }

  // One inverter from net `from` to net `to` right next to (x, y).
  void hop(NetId from, NetId to, double x, double y) {
    const CellId stage = design.add_comb(
        "hop" + std::to_string(chain_cells++), inverter(), {x, y});
    design.connect(input_pin(stage), from);
    design.connect(output_pin(stage), to);
  }

  const lib::CombCell* inverter() const {
    return library.comb_by_name("INV_X1");
  }
  PinId input_pin(CellId cell) const { return pin(cell, false); }
  PinId output_pin(CellId cell) const { return pin(cell, true); }
  PinId pin(CellId cell, bool output) const {
    for (PinId p : design.cell(cell).pins)
      if (design.pin(p).is_output == output) return p;
    return PinId{};
  }

  double worst_slack(const sta::TimingReport& report, CellId cell) const {
    return std::min(report.register_d_slack(design, cell),
                    report.register_q_slack(design, cell));
  }

  lib::Library library;
  netlist::Design design;
  NetId clock, reset;
  int chain_cells = 0;
  std::map<std::string, std::vector<NetId>> d_nets, q_nets;
};

TEST_F(DebankSplit, SplitsCriticalBankIntoSingleBitPieces) {
  const CellId bank = add_reg("w", {50, 9});
  design.cell(bank).scan.partition = 2;
  design.cell(bank).gating_group = 3;
  const CellId capture = add_reg("cap", {190, 20}, 1);
  chain(q_nets["w"][0], d_nets["cap"][0], 12, 20);

  const sta::TimingReport report = sta::run_sta(design, {});
  ASSERT_LT(worst_slack(report, bank), 0.0) << "chain not deep enough";
  const int bits_before = design.stats().register_bits;

  const DebankResult result = debank_critical_registers({}, design, report);
  EXPECT_EQ(result.banks_split, 1);
  EXPECT_EQ(result.pieces_created, 8);
  ASSERT_EQ(result.removed, std::vector<CellId>{bank});
  EXPECT_TRUE(design.cell(bank).dead);
  // The critical single-bit capture register has nothing to split.
  EXPECT_FALSE(design.cell(capture).dead);
  design.check_consistency();
  EXPECT_EQ(design.stats().register_bits, bits_before);

  ASSERT_EQ(result.pieces.size(), 8u);
  for (int b = 0; b < 8; ++b) {
    const CellId piece = result.pieces[b];
    const netlist::Cell& cell = design.cell(piece);
    EXPECT_EQ(cell.reg->bits, 1);
    EXPECT_TRUE(cell.reg->function.has_reset);
    // Piece b carries the bank's bit b.
    EXPECT_EQ(design.pin(design.register_d_pin(piece, 0)).net,
              d_nets["w"][b]);
    EXPECT_EQ(design.pin(design.register_q_pin(piece, 0)).net,
              q_nets["w"][b]);
    EXPECT_EQ(design.register_clock_net(piece), clock);
    EXPECT_EQ(design.pin(design.register_control_pin(piece, PinRole::kReset))
                  .net,
              reset);
    EXPECT_EQ(cell.scan.partition, 2);
    EXPECT_EQ(cell.scan.section, -1);
    EXPECT_EQ(cell.scan.order, -1);
    EXPECT_EQ(cell.gating_group, 3);
  }
}

TEST_F(DebankSplit, NeverSelectsFixedSizeOnlyOrSectionLocked) {
  const CellId fixed = add_reg("fixed", {20, 9});
  design.cell(fixed).fixed = true;
  const CellId size_only = add_reg("size_only", {40, 9});
  design.cell(size_only).size_only = true;
  const CellId sectioned = add_reg("sectioned", {60, 9});
  design.cell(sectioned).scan.partition = 0;
  design.cell(sectioned).scan.section = 1;
  design.cell(sectioned).scan.order = 0;
  const CellId capture = add_reg("cap", {190, 20}, 4);
  chain(q_nets["fixed"][0], d_nets["cap"][0], 12, 20);
  chain(q_nets["size_only"][0], d_nets["cap"][1], 12, 25);
  chain(q_nets["sectioned"][0], d_nets["cap"][2], 12, 30);
  design.cell(capture).fixed = true;  // critical, but not the subject here

  const sta::TimingReport report = sta::run_sta(design, {});
  for (const CellId cell : {fixed, size_only, sectioned, capture})
    ASSERT_LT(worst_slack(report, cell), 0.0) << design.cell(cell).name;

  const DebankResult result = debank_critical_registers({}, design, report);
  EXPECT_EQ(result.banks_split, 0);
  EXPECT_TRUE(result.pieces.empty());
  for (const CellId cell : {fixed, size_only, sectioned, capture})
    EXPECT_FALSE(design.cell(cell).dead) << design.cell(cell).name;
}

TEST_F(DebankSplit, NeverSplitsSingleBitRegisters) {
  const CellId single = add_reg("single", {80, 9}, 1);
  const CellId capture = add_reg("cap", {190, 20}, 1);
  chain(q_nets["single"][0], d_nets["cap"][0], 12, 20);

  const sta::TimingReport report = sta::run_sta(design, {});
  for (const CellId cell : {single, capture})
    ASSERT_LT(worst_slack(report, cell), 0.0) << design.cell(cell).name;

  const DebankResult result = debank_critical_registers({}, design, report);
  EXPECT_EQ(result.banks_split, 0);
  EXPECT_TRUE(result.pieces.empty());
  for (const CellId cell : {single, capture})
    EXPECT_FALSE(design.cell(cell).dead) << design.cell(cell).name;
}

TEST_F(DebankSplit, SelectionKeysOnWorstConstrainedBit) {
  // Bank "a" has a comfortable D side (one short hop from "s") and a
  // critical Q side (a deep chain into "b"). An average of the two sides
  // would hide the critical one; selection must key on min(d, q). Bank "s"
  // is the control: constrained on both sides (a short hop from the
  // single-bit "src" feeds its D side), with positive slack on each.
  const CellId src = add_reg("src", {2, 9}, 1);
  const CellId s = add_reg("s", {10, 9});
  const CellId a = add_reg("a", {20, 9});
  const CellId b = add_reg("b", {190, 20});
  hop(q_nets["src"][0], d_nets["s"][0], 6, 9);
  hop(q_nets["s"][0], d_nets["a"][0], 15, 9);
  chain(q_nets["a"][0], d_nets["b"][0], 12, 20);

  const sta::TimingReport report = sta::run_sta(design, {});
  const double a_d = report.register_d_slack(design, a);
  const double a_q = report.register_q_slack(design, a);
  ASSERT_LT(a_q, 0.0) << "chain not deep enough";
  ASSERT_GT(a_d, 0.0);
  ASSERT_GT((a_d + a_q) / 2, 0.0)
      << "the average would reject too: scenario lost its teeth";
  const double s_d = report.register_d_slack(design, s);
  const double s_q = report.register_q_slack(design, s);
  ASSERT_NE(s_d, sta::kNoRequired);
  ASSERT_GT(s_d, 0.0);
  ASSERT_GT(s_q, 0.0);

  const DebankResult result = debank_critical_registers({}, design, report);
  EXPECT_TRUE(design.cell(a).dead) << "critical Q side must select the bank";
  EXPECT_TRUE(design.cell(b).dead) << "critical D side selects too";
  EXPECT_FALSE(design.cell(s).dead) << "slack-rich bank must stay intact";
  EXPECT_FALSE(design.cell(src).dead);
  EXPECT_EQ(result.banks_split, 2);
}

TEST_F(DebankSplit, SplitsAtMostEightWorstFirstTiesByCellId) {
  // Seven "tied" banks share one position and one D net at the end of a
  // chain, so their slacks are bit-identical; three "worse" banks, added
  // after them, sit at the end of a deeper chain. Only their D[0] is
  // constrained, so each bank's worst slack is its D[0] slack.
  std::vector<CellId> tied, worse;
  for (int i = 0; i < 7; ++i)
    tied.push_back(add_reg("t" + std::to_string(i), {100, 9}));
  for (int i = 0; i < 3; ++i)
    worse.push_back(add_reg("w" + std::to_string(i), {100, 27}));
  add_reg("launch", {2, 20}, 1);
  const NetId tied_net = design.create_net();
  const NetId worse_net = design.create_net();
  chain(q_nets["launch"][0], tied_net, 10, 20);
  chain(q_nets["launch"][0], worse_net, 14, 30);
  for (std::size_t i = 0; i < tied.size(); ++i) {
    design.disconnect(design.register_d_pin(tied[i], 0));
    design.connect(design.register_d_pin(tied[i], 0), tied_net);
  }
  for (std::size_t i = 0; i < worse.size(); ++i) {
    design.disconnect(design.register_d_pin(worse[i], 0));
    design.connect(design.register_d_pin(worse[i], 0), worse_net);
  }

  const sta::TimingReport report = sta::run_sta(design, {});
  const double tied_slack = worst_slack(report, tied[0]);
  ASSERT_LT(tied_slack, 0.0) << "chain not deep enough";
  for (const CellId cell : tied)
    ASSERT_EQ(worst_slack(report, cell), tied_slack);
  for (const CellId cell : worse)
    ASSERT_LT(worst_slack(report, cell), tied_slack);

  const DebankResult result = debank_critical_registers({}, design, report);
  const std::vector<CellId> expected = {worse[0], worse[1], worse[2], tied[0],
                                        tied[1],  tied[2],  tied[3],  tied[4]};
  EXPECT_EQ(result.removed, expected);
  EXPECT_EQ(result.banks_split, 8);
  EXPECT_EQ(result.pieces_created, 64);
  EXPECT_FALSE(design.cell(tied[5]).dead);
  EXPECT_FALSE(design.cell(tied[6]).dead);
  design.check_consistency();
}

TEST_F(DebankSplit, TimingEndpointsPreserved) {
  add_reg("w", {50, 9});
  add_reg("cap", {190, 20}, 1);
  add_reg("src", {2, 9}, 1);
  chain(q_nets["w"][0], d_nets["cap"][0], 12, 20);
  hop(q_nets["src"][0], d_nets["w"][3], 30, 9);

  const sta::TimingReport before = sta::run_sta(design, {});
  const DebankResult result = debank_critical_registers({}, design, before);
  ASSERT_EQ(result.banks_split, 1);
  const sta::TimingReport after = sta::run_sta(design, {});
  EXPECT_EQ(after.total_endpoints(), before.total_endpoints());
}

}  // namespace
}  // namespace mbrc::mbr
