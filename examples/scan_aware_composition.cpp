// Scan-aware composition (Sec. 2's scan compatibility and Sec. 4.1's scan
// mapping rules), on a small hand-built design:
//
//   - partition 0 holds six scan flops, three of them locked in an ordered
//     scan section (s0 < s1 < s2);
//   - partition 1 holds four free scan flops.
//
// The example shows how the ordered section forces either an internal-chain
// MBR over a *contiguous* run or a per-bit-scan cell, how partitions never
// mix, and how the chains are re-stitched after composition.
#include <iostream>

#include "mbr/flow.hpp"
#include "reference/worked_example.hpp"
#include "sta/sta.hpp"

using namespace mbrc;

namespace {

netlist::PinId scan_pin(const netlist::Design& design, netlist::CellId cell,
                        netlist::PinRole role) {
  for (netlist::PinId p : design.cell(cell).pins)
    if (design.pin(p).role == role) return p;
  return netlist::PinId{};
}

void print_chain(const netlist::Design& design, int partition) {
  // Find the head (unconnected SI) and walk SO -> SI links.
  netlist::CellId cursor;
  for (netlist::CellId reg : design.registers()) {
    if (design.cell(reg).scan.partition != partition) continue;
    const netlist::PinId si = scan_pin(design, reg, netlist::PinRole::kScanIn);
    if (si.valid() && !design.pin(si).net.valid()) cursor = reg;
  }
  std::cout << "  partition " << partition << ": ";
  while (cursor.valid()) {
    std::cout << design.cell(cursor).name << " ";
    const netlist::PinId so =
        scan_pin(design, cursor, netlist::PinRole::kScanOut);
    const netlist::NetId net = design.pin(so).net;
    if (!net.valid() || design.net(net).sinks.empty()) break;
    cursor = design.pin(design.net(net).sinks.front()).cell;
  }
  std::cout << '\n';
}

}  // namespace

int main() {
  const lib::Library library = lib::make_default_library();
  netlist::Design design(&library, {0, 0, 120, 36});

  const auto* sdff = library.register_by_name("DFFQ_B1_X1");
  const auto* inv = library.comb_by_name("INV_X1");
  const netlist::NetId clock = design.create_net(true);
  const netlist::NetId scan_enable = design.create_net();
  const netlist::CellId se_driver = design.add_comb("se_drv", inv, {0, 0});
  design.connect(design.cell(se_driver).pins.back(), scan_enable);

  // Registers with simple D/Q connectivity (self-loops keep timing happy).
  auto add_flop = [&](const std::string& name, geom::Point pos, int partition,
                      int section, int order) {
    const netlist::CellId reg = design.add_register(name, sdff, pos);
    design.cell(reg).scan = {partition, section, order};
    design.connect(design.register_clock_pin(reg), clock);
    design.connect(
        design.register_control_pin(reg, netlist::PinRole::kScanEnable),
        scan_enable);
    const netlist::NetId loop = design.create_net();
    design.connect(design.register_q_pin(reg, 0), loop);
    design.connect(design.register_d_pin(reg, 0), loop);
    return reg;
  };

  // Partition 0: an ordered section of three, plus three free flops, all
  // placed close together so they are placement-compatible.
  add_flop("s0", {20, 9}, 0, /*section=*/0, /*order=*/0);
  add_flop("s1", {26, 9}, 0, 0, 1);
  add_flop("s2", {32, 9}, 0, 0, 2);
  add_flop("f0", {84, 9}, 0, -1, -1);
  add_flop("f1", {90, 9}, 0, -1, -1);
  add_flop("f2", {96, 9}, 0, -1, -1);
  // Partition 1: four free flops nearby -- never mergeable with partition 0.
  for (int i = 0; i < 4; ++i)
    add_flop("p1_" + std::to_string(i), {60.0 + 6 * i, 9}, 1, -1, -1);

  mbr::restitch_scan_chains(design);
  std::cout << "Initial scan chains:\n";
  print_chain(design, 0);
  print_chain(design, 1);

  // Compose, with the paranoid flow checker on: scan-chain integrity is
  // exactly the invariant this demo is about, so have every stage prove it.
  mbr::FlowOptions options;
  options.check_level = check::CheckLevel::kParanoid;
  options.timing.clock_period = 2.0;  // relaxed: scan demo, not a timing one
  // Both 3-flop groups map to incomplete 4-bit cells; scan cells carry extra
  // area, so the paper's default 5% incomplete-area budget is a hair short
  // here -- widen it to let the demo show the scan-mapping machinery.
  options.composition.enumeration.incomplete_area_overhead = 0.10;
  options.mapping.incomplete_area_overhead = 0.10;
  const mbr::FlowResult result = mbr::run_composition_flow(design, options);

  std::cout << "\nAfter composition (" << result.mbrs_created
            << " MBRs created):\n";
  for (netlist::CellId reg : design.registers()) {
    const netlist::Cell& cell = design.cell(reg);
    std::cout << "  " << cell.name << ": " << cell.reg->name
              << " partition=" << cell.scan.partition;
    if (cell.scan.section >= 0)
      std::cout << " section=" << cell.scan.section;
    if (cell.reg->scan_style == lib::ScanStyle::kPerBitPins)
      std::cout << " [per-bit scan pins]";
    std::cout << '\n';
  }

  std::cout << "\nRe-stitched scan chains:\n";
  print_chain(design, 0);
  print_chain(design, 1);

  std::cout << "\nNote: the ordered section {s0,s1,s2} may merge into one "
               "internal-chain MBR\n(contiguous orders) while registers of "
               "different partitions never merge;\nmixing section and free "
               "registers requires the per-bit-scan variant (Sec. 2).\n";
  design.check_consistency();
  return 0;
}
