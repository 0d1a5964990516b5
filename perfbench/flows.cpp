#include "flows.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "check/checker.hpp"
#include "cts/cts.hpp"
#include "layers.hpp"
#include "mbr/flow.hpp"
#include "obs/counters.hpp"
#include "place/legalizer.hpp"
#include "route/congestion.hpp"
#include "sta/timing_engine.hpp"

namespace perfbench {

namespace mbr = mbrc::mbr;
namespace netlist = mbrc::netlist;

namespace {

// flow_d1x10: the paper's default cost on a 29,400-register design, where
// the superlinear stages and enumeration show. flow_d2_cost: the
// multi-objective cost with the debank loop on a 3,740-register design,
// where the set-partition solver dominates.
const FlowWorkload kFlowWorkloads[] = {
    {"flow_d1x10", "D1", 10, {1.0, 0.0, 0.0}, false},
    {"flow_d2_cost", "D2", 1, {0.02, 1.0, 0.3}, true},
};

constexpr int kMinFlows = 2;

constexpr int kSetups = 3;

mbr::FlowOptions flow_options(const FlowWorkload& workload,
                              double clock_period, int jobs) {
  mbr::FlowOptions options;
  options.timing.clock_period = clock_period;
  options.cost = workload.cost;
  options.debank_loop = workload.debank_loop;
  options.jobs = jobs;
  return options;
}

bool any_debank_accepted(const mbr::FlowResult& result) {
  return std::any_of(result.debank_iterations.begin(),
                     result.debank_iterations.end(),
                     [](const auto& iteration) { return iteration.accepted; });
}

void add_metrics(Digest& digest, const mbr::Metrics& m) {
  digest.add(m.design.cells).add(m.design.area).add(m.design.total_registers)
      .add(m.design.register_bits).add(m.design.clock_buffers)
      .add(m.design.clock_pin_cap);
  digest.add(static_cast<std::int64_t>(m.composable_registers)).add(m.wns)
      .add(m.tns).add(static_cast<std::int64_t>(m.failing_endpoints))
      .add(static_cast<std::int64_t>(m.total_endpoints)).add(m.hold_wns)
      .add(static_cast<std::int64_t>(m.failing_hold_endpoints))
      .add(static_cast<std::int64_t>(m.clock_buffers)).add(m.clock_cap)
      .add(m.clock_power_uw).add(m.leakage_nw).add(m.clock_wire)
      .add(m.signal_wire).add(static_cast<std::int64_t>(m.overflow_edges))
      .add(m.max_congestion);
}

// The deterministic part of a flow's output: work counters, the Table 1
// metrics before and after, the plan objective, the merges and the debank
// trajectory. Bit-identical at any `jobs`.
std::string flow_digest(const mbr::FlowResult& r) {
  Digest digest;
  digest.add(r.counters);
  add_metrics(digest, r.before);
  add_metrics(digest, r.after);
  digest.add(r.plan.objective).add(static_cast<std::int64_t>(r.mbrs_created))
      .add(static_cast<std::int64_t>(r.registers_merged))
      .add(static_cast<std::int64_t>(r.rejected_at_mapping))
      .add(static_cast<std::int64_t>(r.incomplete_mbrs)).add(r.final_cost);
  for (const auto& it : r.debank_iterations)
    digest.add(static_cast<std::int64_t>(it.banks_split))
        .add(static_cast<std::int64_t>(it.mbrs_created)).add(it.cost_after)
        .add(static_cast<std::int64_t>(it.accepted));
  return digest.hex();
}

// The output checks of one flow run; each failure names what broke.
std::vector<std::string> check_flow_output(
    const netlist::Design& design, const mbr::FlowResult& result,
    const mbrc::check::DesignChecker::Baseline& baseline) {
  std::vector<std::string> failures;
  const bool debank_kept = any_debank_accepted(result);
  mbrc::check::DesignChecker checker(design);
  checker.check_structure().check_nets().check_placement()
      .check_scan_chains().check_conservation(baseline, !debank_kept);
  if (!checker.report().ok())
    failures.push_back("design check: " + checker.report().to_string());
  if (!debank_kept && result.after.design.total_registers >
                          result.before.design.total_registers)
    failures.push_back("register count grew without an accepted debank");
  return failures;
}

double pct_saved(double before, double after) {
  return before != 0.0 ? 100.0 * (before - after) / before : 0.0;
}

void add_qor(const mbr::FlowResult& r, TraceExtras& x) {
  x.clock_power_saved_pct =
      pct_saved(r.before.clock_power_uw, r.after.clock_power_uw);
  x.registers_saved_pct =
      pct_saved(static_cast<double>(r.before.design.total_registers),
                static_cast<double>(r.after.design.total_registers));
  x.tns_ns = r.after.tns;
  x.hold_failing = r.after.failing_hold_endpoints;
  x.final_cost = r.final_cost;
}

void add_qor_details(const mbr::FlowResult& r, Result& result) {
  TraceExtras x;
  add_qor(r, x);
  result.detail("qor_clock_power_saved_pct", x.clock_power_saved_pct);
  result.detail("qor_registers_saved_pct", x.registers_saved_pct);
  result.detail("qor_tns_ns", x.tns_ns);
  result.detail("qor_hold_failing", x.hold_failing);
  result.detail("qor_final_cost", x.final_cost);
  result.detail("ilp_budget_hits",
                static_cast<double>(r.counters.counters.count(
                                        "ilp.set_partition.budget_hits")
                                        ? r.counters.counters.at(
                                              "ilp.set_partition.budget_hits")
                                        : 0));
  result.detail("truncated_subgraphs",
                static_cast<double>(r.plan.truncated_subgraphs));
  result.detail("mbrs_created", static_cast<double>(r.mbrs_created));
}

// ---------------------------------------------------------------------------
// Serial replay of run_flow_stages (jobs 1) through the layers' public
// functions, in the flow's stage order. Every call that does flow work is
// the program's own; only the glue between calls is repeated here.

struct Applied {
  std::vector<netlist::CellId> new_cells;
  int mbrs_created = 0;
  int registers_merged = 0;
  int rejected_at_mapping = 0;
  int incomplete_mbrs = 0;
};

// apply_plan_merges at jobs 1: map and place every merge against the
// pre-apply design, then rewire in order, re-placing a merge whose read
// nets an earlier rewire touched.
Applied replay_apply(netlist::Design& design, const mbr::CompositionPlan& plan,
                     const mbr::FlowOptions& options,
                     const std::string& name_prefix, Layers& layers) {
  Applied result;
  const std::vector<const mbr::Selection*> merges = plan.merges();
  layers.merges += static_cast<std::int64_t>(merges.size());

  struct Prepared {
    std::optional<mbr::Mapping> mapping;
    mbrc::geom::Point position;
    std::vector<std::int32_t> read_nets;
  };
  std::vector<Prepared> prepared;
  prepared.reserve(merges.size());
  for (const mbr::Selection* selection : merges) {
    Prepared p;
    p.mapping = timed(layers.mapping_s, [&] {
      return mbr::map_candidate(design, plan.graph, selection->candidate,
                                options.mapping);
    });
    if (p.mapping) {
      p.position = timed(layers.placement_s, [&] {
        return mbr::place_mbr(design, plan.graph, selection->candidate,
                              *p.mapping, options.placement);
      });
      for (int node : selection->candidate.nodes) {
        const mbr::RegisterInfo& info = plan.graph.node(node);
        for (int bit = 0; bit < info.bits; ++bit) {
          for (const netlist::PinId pin : {design.register_d_pin(info.cell, bit),
                                           design.register_q_pin(info.cell, bit)}) {
            if (!pin.valid()) continue;
            const netlist::NetId net = design.pin(pin).net;
            if (net.valid()) p.read_nets.push_back(net.index);
          }
        }
      }
      std::sort(p.read_nets.begin(), p.read_nets.end());
      p.read_nets.erase(std::unique(p.read_nets.begin(), p.read_nets.end()),
                        p.read_nets.end());
    }
    prepared.push_back(std::move(p));
  }

  static mbrc::obs::Counter& replays = mbrc::obs::counter("flow.apply.replayed");
  std::unordered_set<std::int32_t> touched_nets;
  const auto touch_cell_nets = [&](netlist::CellId id) {
    for (const netlist::PinId pin : design.cell(id).pins) {
      const netlist::NetId net = design.pin(pin).net;
      if (net.valid()) touched_nets.insert(net.index);
    }
  };
  int name_counter = 0;
  for (std::size_t m = 0; m < merges.size(); ++m) {
    const mbr::Selection* selection = merges[m];
    const Prepared& p = prepared[m];
    if (!p.mapping) {
      ++result.rejected_at_mapping;
      ++layers.mapping_rejected;
      continue;
    }
    mbrc::geom::Point position = p.position;
    if (std::any_of(p.read_nets.begin(), p.read_nets.end(),
                    [&](std::int32_t net) { return touched_nets.count(net); })) {
      replays.add(1);
      position = timed(layers.placement_s, [&] {
        return mbr::place_mbr(design, plan.graph, selection->candidate,
                              *p.mapping, options.placement);
      });
    }
    for (int node : selection->candidate.nodes)
      touch_cell_nets(plan.graph.node(node).cell);
    const netlist::CellId cell = timed(layers.rewire_s, [&] {
      return mbr::rewire_candidate(design, plan.graph, selection->candidate,
                                   *p.mapping, position,
                                   name_prefix + std::to_string(name_counter++));
    });
    touch_cell_nets(cell);
    result.new_cells.push_back(cell);
    ++result.mbrs_created;
    result.registers_merged +=
        static_cast<int>(selection->candidate.nodes.size());
    if (selection->candidate.is_incomplete()) ++result.incomplete_mbrs;
  }
  return result;
}

// legalize_new_cells: widest first, then by id.
void replay_legalize(netlist::Design& design,
                     const std::vector<netlist::CellId>& cells,
                     Layers& layers) {
  const mbrc::place::LegalizeResult legal = timed(layers.legalize_s, [&] {
    std::vector<netlist::CellId> order = cells;
    std::sort(order.begin(), order.end(),
              [&](netlist::CellId a, netlist::CellId b) {
                const double wa = design.cell(a).width();
                const double wb = design.cell(b).width();
                if (wa != wb) return wa > wb;
                return a < b;
              });
    mbrc::place::RowGrid grid = mbrc::place::build_occupancy(design, order);
    return mbrc::place::legalize_cells(design, grid, order);
  });
  layers.legalize_cells += static_cast<std::int64_t>(cells.size());
  layers.legalize_evicted += legal.cells_evicted;
  if (!legal.success) throw std::runtime_error("legalization failed");
}

void replay_restitch(netlist::Design& design, Layers& layers) {
  timed(layers.restitch_s, [&] { mbr::restitch_scan_chains(design); });
}

mbrc::sta::SkewMap replay_skew(const netlist::Design& design,
                               const mbr::FlowOptions& options,
                               const mbrc::sta::TimingOptions& timing_options,
                               const mbrc::sta::SkewMap& initial,
                               const std::vector<netlist::CellId>& cells,
                               mbrc::sta::TimingEngine& engine,
                               Layers& layers) {
  const std::unordered_set<netlist::CellId> allowed(cells.begin(), cells.end());
  const mbrc::sta::UsefulSkewResult skewed = timed(layers.skew_s, [&] {
    return mbrc::sta::optimize_useful_skew(
        design, timing_options, options.skew, initial,
        options.skew_only_new_mbrs ? &allowed : nullptr, &engine);
  });
  layers.skew_iterations += skewed.iterations_run;
  return skewed.skew;
}

void replay_size(netlist::Design& design,
                 const std::vector<netlist::CellId>& cells,
                 const mbrc::sta::SkewMap& skew,
                 mbrc::sta::TimingEngine& engine, Layers& layers) {
  timed(layers.sizing_s,
        [&] { mbr::size_new_mbrs(design, cells, skew, engine); });
  layers.sizing_cells += static_cast<std::int64_t>(cells.size());
}

// run_flow_stages at jobs 1 with checking off, timed call by call.
// `plan_busy_s` receives the busy time of the main plan (the flow's `plan`
// stage), without the debank loop's region plans.
mbr::FlowResult replay_flow(netlist::Design& design,
                            const mbr::FlowOptions& options, Layers& layers,
                            double& plan_busy_s) {
  mbr::FlowResult result;
  mbrc::sta::TimingOptions timing_options = options.timing;
  timing_options.jobs = 1;
  mbr::CompositionOptions composition = options.composition;
  composition.jobs = 1;
  composition.enumeration.cost = options.cost;
  mbrc::sta::TimingEngine engine(design, timing_options);

  const auto evaluate = [&](const mbrc::sta::SkewMap& skew) {
    return timed(layers.evaluate_s, [&] {
      return mbr::evaluate_design(design, options, skew, &engine);
    });
  };
  const auto update = [&](const mbrc::sta::SkewMap& skew)
      -> const mbrc::sta::TimingReport& {
    return timed(layers.sta_update_s,
                 [&]() -> const mbrc::sta::TimingReport& {
                   return engine.update(skew);
                 });
  };

  result.before = evaluate({});
  const mbrc::sta::TimingReport timing = update({});
  const double busy_before = layers.plan_busy_s();
  result.plan = replay_plan(design, timing, composition, nullptr, layers);
  plan_busy_s = layers.plan_busy_s() - busy_before;
  Applied applied = replay_apply(design, result.plan, options, "mbrc_", layers);
  std::vector<netlist::CellId> new_cells = std::move(applied.new_cells);
  result.mbrs_created = applied.mbrs_created;
  result.registers_merged = applied.registers_merged;
  result.rejected_at_mapping = applied.rejected_at_mapping;
  result.incomplete_mbrs = applied.incomplete_mbrs;
  if (!new_cells.empty()) replay_legalize(design, new_cells, layers);
  replay_restitch(design, layers);
  if (options.apply_useful_skew && !new_cells.empty())
    result.skew = replay_skew(design, options, timing_options, {}, new_cells,
                              engine, layers);
  if (options.size_new_mbrs)
    replay_size(design, new_cells, result.skew, engine, layers);

  if (options.debank_loop) {
    static mbrc::obs::Counter& c_iterations =
        mbrc::obs::counter("flow.debank.iterations");
    static mbrc::obs::Counter& c_accepted =
        mbrc::obs::counter("flow.debank.accepted");
    static mbrc::obs::Counter& c_reverted =
        mbrc::obs::counter("flow.debank.reverted");
    static mbrc::obs::Counter& c_mbrs =
        mbrc::obs::counter("flow.debank.mbrs_created");
    const auto combined = [&](const mbr::Metrics& m) {
      return options.cost.combined_cost(
          m.tns, m.clock_power_uw + 1e-3 * m.leakage_nw, m.design.area);
    };
    const mbr::Metrics entry = evaluate(result.skew);
    double best_cost = combined(entry);
    const int entry_hold_failures = entry.failing_hold_endpoints;

    for (int iter = 0; iter < options.debank.max_iterations; ++iter) {
      const netlist::Design::Snapshot saved_design =
          timed(layers.debank_s, [&] { return design.snapshot(); });
      const mbrc::sta::SkewMap saved_skew = result.skew;
      const mbrc::sta::TimingReport& critical = update(result.skew);
      const mbr::DebankResult split = timed(layers.debank_s, [&] {
        return mbr::debank_critical_registers(options.debank, design, critical);
      });
      if (split.banks_split == 0) break;
      c_iterations.add(1);
      ++layers.debank_iterations;

      mbr::FlowResult::DebankIteration record;
      record.banks_split = split.banks_split;
      record.pieces_created = split.pieces_created;
      record.cost_before = best_cost;
      for (netlist::CellId removed : split.removed) result.skew.erase(removed);
      replay_legalize(design, split.pieces, layers);
      replay_restitch(design, layers);

      const mbrc::sta::TimingReport& replan = update(result.skew);
      const mbr::CompositionPlan region_plan =
          replay_plan(design, replan, composition, &split.pieces, layers);
      Applied region = replay_apply(design, region_plan, options,
                                    "mbrc_d" + std::to_string(iter) + "_",
                                    layers);
      record.mbrs_created = region.mbrs_created;
      for (auto it = result.skew.begin(); it != result.skew.end();) {
        if (design.cell(it->first).dead)
          it = result.skew.erase(it);
        else
          ++it;
      }
      if (!region.new_cells.empty()) {
        replay_legalize(design, region.new_cells, layers);
        replay_restitch(design, layers);
      }
      std::vector<netlist::CellId> working = region.new_cells;
      for (netlist::CellId piece : split.pieces)
        if (!design.cell(piece).dead) working.push_back(piece);
      if (options.apply_useful_skew && !working.empty())
        result.skew = replay_skew(design, options, timing_options,
                                  result.skew, working, engine, layers);
      if (options.size_new_mbrs && !working.empty())
        replay_size(design, working, result.skew, engine, layers);

      const mbr::Metrics trial = evaluate(result.skew);
      record.cost_after = combined(trial);
      record.tns = trial.tns;
      record.clock_power_uw = trial.clock_power_uw;
      record.area = trial.design.area;
      record.accepted =
          record.cost_after < best_cost - options.debank.cost_epsilon &&
          trial.failing_hold_endpoints <= entry_hold_failures;
      result.debank_iterations.push_back(record);
      if (record.accepted) {
        ++layers.debank_accepted;
        best_cost = record.cost_after;
        result.mbrs_created += region.mbrs_created;
        result.registers_merged += region.registers_merged;
        result.rejected_at_mapping += region.rejected_at_mapping;
        result.incomplete_mbrs += region.incomplete_mbrs;
        c_accepted.add(1);
        c_mbrs.add(region.mbrs_created);
      } else {
        timed(layers.debank_s, [&] { design.restore(saved_design); });
        result.skew = saved_skew;
        c_reverted.add(1);
        break;
      }
    }
  }

  result.after = evaluate(result.skew);
  result.final_cost = options.cost.combined_cost(
      result.after.tns,
      result.after.clock_power_uw + 1e-3 * result.after.leakage_nw,
      result.after.design.area);
  return result;
}

}  // namespace

const FlowWorkload* find_flow_workload(std::string_view name) {
  for (const FlowWorkload& workload : kFlowWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

mbrc::benchgen::DesignProfile workload_profile(const char* profile, int scale) {
  const std::vector<mbrc::benchgen::DesignProfile> profiles =
      scale > 1 ? mbrc::benchgen::scaled_profiles(scale)
                : mbrc::benchgen::standard_profiles();
  const std::string name =
      scale > 1 ? std::string(profile) + "x" + std::to_string(scale) : profile;
  for (const mbrc::benchgen::DesignProfile& p : profiles)
    if (p.name == name) return p;
  throw std::runtime_error("unknown benchgen profile " + name);
}

double seeded_clock_period(const GeneratedInput& input, std::uint64_t seed) {
  Rng rng(derive_seed(seed, "clock-period"));
  return input.generated.calibrated_clock_period *
         (1.0 + rng.uniform(-0.005, 0.005));
}

GeneratedInput generate_input(const mbrc::benchgen::DesignProfile& profile) {
  auto library =
      std::make_unique<mbrc::lib::Library>(mbrc::lib::make_default_library());
  mbrc::benchgen::GeneratedDesign generated =
      mbrc::benchgen::generate_design(*library, profile);
  return {std::move(library), std::move(generated)};
}

Result run_flow_workload(const FlowWorkload& workload, std::uint64_t seed,
                         double seconds, int jobs) {
  Result result;
  const mbrc::benchgen::DesignProfile profile =
      workload_profile(workload.profile, workload.scale);

  // Set-up: library + design generation, repeated; the median is setup_s.
  std::vector<double> setups;
  std::optional<GeneratedInput> generated;
  for (int i = 0; i < kSetups; ++i) {
    generated.reset();
    const Clock::time_point start = Clock::now();
    generated.emplace(generate_input(profile));
    setups.push_back(seconds_since(start));
  }
  const GeneratedInput& input = *generated;
  const mbr::FlowOptions options =
      flow_options(workload, seeded_clock_period(input, seed), jobs);
  const mbrc::check::DesignChecker::Baseline baseline =
      mbrc::check::DesignChecker::capture(input.generated.design);

  const RssSampler rss;
  std::vector<double> flow_ms, plan_ms;
  double measured_s = 0.0;
  std::string first_digest;
  while (result.attempted < kMinFlows || measured_s < seconds) {
    netlist::Design design = input.generated.design;
    ++result.attempted;
    std::vector<std::string> failures;
    mbr::FlowResult flow;
    const Clock::time_point start = Clock::now();
    try {
      flow = mbr::run_composition_flow(design, options);
    } catch (const std::exception& e) {
      failures.push_back(std::string("flow threw: ") + e.what());
    }
    const double elapsed = seconds_since(start);
    measured_s += elapsed;
    if (failures.empty()) {
      flow_ms.push_back(elapsed * 1e3);
      const auto plan = flow.stages.find("plan");
      if (plan != flow.stages.end())
        plan_ms.push_back(plan->second.seconds * 1e3);
      failures = check_flow_output(design, flow, baseline);
      const std::string digest = flow_digest(flow);
      if (first_digest.empty()) {
        first_digest = digest;
        add_qor_details(flow, result);
      } else if (digest != first_digest) {
        failures.push_back("flow digest " + digest +
                           " differs from the first run's " + first_digest);
      }
    }
    if (!failures.empty()) {
      ++result.failed;
      for (const std::string& f : failures) result.fail(f);
    }
  }

  result.set("setup_s", median(setups), "s");
  result.set("op_p50_ms", median(flow_ms), "ms");
  result.set("ops_per_s",
             measured_s > 0.0 ? static_cast<double>(flow_ms.size()) / measured_s
                              : 0.0,
             "1/s");
  result.set("plan_p50_ms", median(plan_ms), "ms");
  result.set("peak_rss_mb", rss.peak_mb(), "MB");
  result.set("ops_ok_pct",
             100.0 * static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(result.attempted),
             "%");
  result.detail("jobs", jobs);
  result.detail("flows", static_cast<double>(flow_ms.size()));
  result.detail("clock_period_ns", options.timing.clock_period);
  result.detail("registers",
                static_cast<double>(input.generated.design.registers().size()));
  result.detail("flow_digest", first_digest);
  return result;
}

Result run_flow_traced(const FlowWorkload& workload, std::uint64_t seed,
                       int jobs) {
  Result result;
  TraceExtras extras;
  Layers layers;
  const Clock::time_point setup = Clock::now();
  const GeneratedInput input =
      generate_input(workload_profile(workload.profile, workload.scale));
  const double clock_period = seeded_clock_period(input, seed);
  extras.generate_s = seconds_since(setup);
  const mbrc::check::DesignChecker::Baseline baseline =
      mbrc::check::DesignChecker::capture(input.generated.design);
  const auto check = [&](const char* what, const netlist::Design& design,
                         const mbr::FlowResult& flow) {
    ++result.attempted;
    const std::vector<std::string> failures =
        check_flow_output(design, flow, baseline);
    if (failures.empty()) return;
    ++result.failed;
    for (const std::string& f : failures) result.fail(std::string(what) + ": " + f);
  };

  // The untraced references: jobs N first (it also warms the allocator, so
  // the jobs-1 time base is not charged for first-touch page faults), then
  // jobs 1 (the replay's time base). Their digests must agree.
  netlist::Design parallel_design = input.generated.design;
  const mbr::FlowResult parallel = mbr::run_composition_flow(
      parallel_design, flow_options(workload, clock_period, jobs));
  check("jobs-N flow", parallel_design, parallel);

  netlist::Design serial_design = input.generated.design;
  const Clock::time_point serial_start = Clock::now();
  const mbr::FlowResult serial = mbr::run_composition_flow(
      serial_design, flow_options(workload, clock_period, 1));
  const double serial_s = seconds_since(serial_start);
  check("jobs-1 flow", serial_design, serial);
  const std::string serial_digest = flow_digest(serial);

  if (flow_digest(parallel) != serial_digest) {
    ++result.failed;
    result.fail("jobs-" + std::to_string(jobs) +
                " flow digest differs from jobs 1");
  }
  const auto plan_stage = parallel.stages.find("plan");
  extras.plan_wall_s =
      plan_stage != parallel.stages.end() ? plan_stage->second.seconds : 0.0;
  extras.plan_jobs = jobs;

  // Measurement-only probes, outside the replay's counter window: one full
  // timing build and the two estimators on the input design.
  {
    netlist::Design probe_design = input.generated.design;
    mbrc::sta::TimingOptions timing = flow_options(workload, clock_period, 1).timing;
    mbrc::sta::TimingEngine probe(probe_design, timing);
    timed(layers.sta_full_build_s, [&] { probe.update(); });
  }
  const mbr::FlowOptions options = flow_options(workload, clock_period, 1);
  const auto probe_estimators = [&](const netlist::Design& design) {
    timed(layers.cts_s,
          [&] { (void)mbrc::cts::estimate_clock_tree(design, options.cts); });
    timed(layers.route_s,
          [&] { (void)mbrc::route::estimate_congestion(design, options.route); });
  };
  probe_estimators(input.generated.design);

  // The replay, bracketed by the counter delta that its digest carries.
  netlist::Design design = input.generated.design;
  const mbrc::obs::CountersSnapshot before = mbrc::obs::counters_snapshot();
  const Clock::time_point replay_start = Clock::now();
  mbr::FlowResult replay;
  ++result.attempted;
  try {
    replay = replay_flow(design, options, layers, extras.plan_busy_s);
  } catch (const std::exception& e) {
    ++result.failed;
    result.fail(std::string("replay threw: ") + e.what());
  }
  const double replay_s = seconds_since(replay_start);
  const mbrc::obs::CountersSnapshot after = mbrc::obs::counters_snapshot();
  replay.counters = mbrc::obs::counters_delta(before, after);
  probe_estimators(design);
  check("replay", design, replay);

  const std::string replay_digest = flow_digest(replay);
  if (replay_digest != serial_digest) {
    ++result.failed;
    result.fail("replay digest " + replay_digest +
                " differs from the jobs-1 flow's " + serial_digest);
  }

  layers.sta_full_builds =
      counter_delta(before, after, "sta.engine.full_builds");
  layers.sta_incremental_updates =
      counter_delta(before, after, "sta.engine.incremental_updates");
  const auto cone = replay.counters.histograms.find("sta.engine.repaired_pins");
  if (cone != replay.counters.histograms.end())
    layers.sta_repaired_pins = cone->second.sum;

  extras.trace_overhead_pct = 100.0 * (replay_s - serial_s) / serial_s;
  extras.unexplained_pct = 100.0 * (serial_s - layers.busy_s()) / serial_s;
  add_qor(replay, extras);
  report_layers(layers, extras, result);

  result.detail("jobs", jobs);
  result.detail("flow_digest", serial_digest);
  result.detail("replay_digest", replay_digest);
  result.detail("serial_flow_s", serial_s);
  result.detail("parallel_flow_s", parallel.total_seconds);
  result.detail("replay_s", replay_s);
  result.detail("layer_busy_s", layers.busy_s());
  result.detail("ilp_share_of_busy", layers.ilp_s / layers.busy_s());
  result.detail("legalize_share_of_busy", layers.legalize_s / layers.busy_s());
  result.detail("sizing_share_of_busy", layers.sizing_s / layers.busy_s());
  add_qor_details(serial, result);
  return result;
}

}  // namespace perfbench
