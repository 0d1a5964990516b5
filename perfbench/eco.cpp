#include "eco.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "flows.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "service/daemon.hpp"
#include "service/session.hpp"
#include "sta/timing_engine.hpp"

namespace perfbench {

namespace netlist = mbrc::netlist;
namespace service = mbrc::service;
using mbrc::obs::JsonValue;
using mbrc::obs::JsonWriter;

namespace {

// Two closed-loop clients on a 29,400-register design (benchgen D1 x 10):
// each waits for a reply before sending its next request.
const EcoWorkload kEcoWorkloads[] = {
    {"eco_d1x10", "D1", 10, 2, 2},
};

constexpr int kSetups = 3;
// Rounds every client completes however slow the system is; their
// responses form the transcript whose hash must repeat for a seed.
constexpr std::size_t kTranscriptRounds = 10;
constexpr int kTracedRounds = 30;
// Edits stay this far inside the core so a move never leaves it.
constexpr double kCoreMargin = 10.0;

struct Site {
  std::int32_t cell = 0;
  double x = 0.0, y = 0.0;
  bool fixed = false;
};

struct EcoEdit {
  bool move = false;  // else skew
  std::int32_t cell = 0;
  double x = 0.0, y = 0.0;
  double skew = 0.0;
};

struct Round {
  std::vector<EcoEdit> edits;
  std::vector<std::int32_t> registers;  // edited registers, ascending
};

// The seeded edit stream of one client: each round edits 2-4 registers of
// one cluster (an anchor and its nearest neighbours) with small moves or
// clock skews.
class RoundStream {
public:
  RoundStream(std::vector<Site> sites, std::vector<double> core,
              std::uint64_t seed)
      : sites_(std::move(sites)), core_(std::move(core)), rng_(seed) {}

  std::vector<std::int32_t> cluster(int count) {
    const Site& anchor = sites_[static_cast<std::size_t>(
        rng_.between(0, static_cast<int>(sites_.size()) - 1))];
    std::vector<std::pair<double, std::int32_t>> by_distance;
    by_distance.reserve(sites_.size());
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      const double dx = sites_[i].x - anchor.x, dy = sites_[i].y - anchor.y;
      by_distance.push_back({dx * dx + dy * dy, static_cast<std::int32_t>(i)});
    }
    std::partial_sort(by_distance.begin(), by_distance.begin() + count,
                      by_distance.end());
    std::vector<std::int32_t> indices;
    for (int i = 0; i < count; ++i) indices.push_back(by_distance[i].second);
    return indices;
  }

  Round next() {
    Round round;
    for (const std::int32_t index : cluster(rng_.between(2, 4))) {
      Site& site = sites_[static_cast<std::size_t>(index)];
      EcoEdit edit;
      edit.cell = site.cell;
      if (!site.fixed && rng_.unit() < 0.5) {
        edit.move = true;
        site.x = std::clamp(site.x + rng_.uniform(-1.0, 1.0),
                            core_[0] + kCoreMargin, core_[2] - kCoreMargin);
        site.y = std::clamp(site.y + rng_.uniform(-1.0, 1.0),
                            core_[1] + kCoreMargin, core_[3] - kCoreMargin);
        edit.x = site.x;
        edit.y = site.y;
      } else {
        edit.skew = rng_.uniform(-0.05, 0.05);
      }
      round.edits.push_back(edit);
      round.registers.push_back(site.cell);
    }
    std::sort(round.registers.begin(), round.registers.end());
    return round;
  }

  const std::vector<Site>& sites() const { return sites_; }

private:
  std::vector<Site> sites_;
  std::vector<double> core_;  // xlo, ylo, xhi, yhi
  Rng rng_;
};

std::string session_name(int client) { return "c" + std::to_string(client); }

// --- requests --------------------------------------------------------------

std::string request(const std::string& cmd, int client,
                    const std::function<void(JsonWriter&)>& body = {}) {
  std::ostringstream os;
  JsonWriter w(os, 0);
  w.begin_object().kv("cmd", cmd).kv("session", session_name(client));
  if (body) body(w);
  w.end_object();
  return os.str();
}

void ids(JsonWriter& w, const char* key, const std::vector<std::int32_t>& list) {
  w.key(key).begin_array();
  for (const std::int32_t id : list) w.value(static_cast<std::int64_t>(id));
  w.end_array();
}

std::string open_request(const EcoWorkload& workload, int client) {
  const mbrc::benchgen::DesignProfile profile =
      workload_profile(workload.profile, workload.scale);
  return request("open_design", client, [&](JsonWriter& w) {
    w.kv("profile", std::string(workload.profile));
    w.kv("registers", profile.register_cells);
  });
}

std::string edits_request(int client, const Round& round) {
  return request("apply_edits", client, [&](JsonWriter& w) {
    w.key("edits").begin_array();
    for (const EcoEdit& edit : round.edits) {
      w.begin_object().kv("cell", static_cast<std::int64_t>(edit.cell));
      if (edit.move)
        w.kv("op", "move").kv("x", edit.x).kv("y", edit.y);
      else
        w.kv("op", "skew").kv("skew", edit.skew);
      w.end_object();
    }
    w.end_array();
  });
}

std::string query_request(int client, const std::vector<std::int32_t>& regs) {
  return request("query_timing", client,
                 [&](JsonWriter& w) { ids(w, "registers", regs); });
}

// --- clients ---------------------------------------------------------------

// One closed-loop client: its session, its edit stream and its log.
struct Client {
  int index = 0;
  std::unique_ptr<RoundStream> stream;
  std::int64_t requests = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> edit_ms, query_ms, recompose_ms, round_ms;
  std::vector<JsonValue> recompose_answers;  // per timed round
  Digest transcript;

  // Sends one request and returns the parsed reply; a reply that is not
  // ok:true is a failed request.
  JsonValue send(service::Daemon& daemon, const std::string& line,
                 bool record = false) {
    const std::string reply = daemon.handle_sync(line);
    ++requests;
    if (record) transcript.add(reply);
    mbrc::obs::JsonParseResult parsed = mbrc::obs::parse_json(reply);
    if (!parsed.ok || !parsed.value.bool_or("ok", false)) {
      ++failed;
      failures.push_back(session_name(index) + ": " + line.substr(0, 80) +
                         " -> " + reply.substr(0, 200));
    }
    return std::move(parsed.value);
  }

  // open_design, list_registers, the first full timing build and the first
  // recompose: the session set-up.
  void open(service::Daemon& daemon, const EcoWorkload& workload,
            std::uint64_t seed) {
    const JsonValue opened =
        send(daemon, open_request(workload, index), true);
    std::vector<double> core;
    if (const JsonValue* c = opened.find("core"))
      for (const JsonValue& v : c->array()) core.push_back(v.as_number());
    const JsonValue listed = send(daemon, request("list_registers", index), true);
    std::vector<Site> sites;
    if (const JsonValue* regs = listed.find("registers"))
      for (const JsonValue& r : regs->array())
        sites.push_back({static_cast<std::int32_t>(r.int_or("cell", 0)),
                         r.number_or("x", 0.0), r.number_or("y", 0.0),
                         r.bool_or("fixed", false)});
    if (sites.size() < 8 || core.size() != 4)
      throw std::runtime_error("open_design returned no usable registers");
    stream = std::make_unique<RoundStream>(
        std::move(sites), std::move(core),
        derive_seed(seed, "eco-client-" + std::to_string(index)));

    const std::vector<std::int32_t> warm = stream->cluster(4);
    std::vector<std::int32_t> region;
    for (const std::int32_t i : warm) region.push_back(stream->sites()[i].cell);
    send(daemon, query_request(index, region), true);
    send(daemon,
         request("recompose_region", index,
                 [&](JsonWriter& w) { ids(w, "region", region); }),
         true);
  }

  // One closed-loop round: apply_edits, query_timing on the edited
  // registers, recompose_region on the touched set.
  void round(service::Daemon& daemon) {
    const Round r = stream->next();
    const bool record = round_ms.size() < kTranscriptRounds;
    const std::string edit_line = edits_request(index, r);
    const std::string query_line = query_request(index, r.registers);
    const std::string recompose_line = request("recompose_region", index);
    const Clock::time_point t0 = Clock::now();
    send(daemon, edit_line, record);
    const Clock::time_point t1 = Clock::now();
    send(daemon, query_line, record);
    const Clock::time_point t2 = Clock::now();
    JsonValue recomposed = send(daemon, recompose_line, record);
    const Clock::time_point t3 = Clock::now();
    const auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    edit_ms.push_back(ms(t0, t1));
    query_ms.push_back(ms(t1, t2));
    recompose_ms.push_back(ms(t2, t3));
    round_ms.push_back(ms(t0, t3));
    recompose_answers.push_back(std::move(recomposed));
  }

  void close(service::Daemon& daemon) {
    send(daemon, request("check", index));
    send(daemon, request("close", index));
  }
};

// Runs `body(client)` on one thread per client and rethrows the first
// failure after all have joined.
void on_each_client(std::vector<Client>& clients,
                    const std::function<void(Client&)>& body) {
  std::vector<std::exception_ptr> errors(clients.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < clients.size(); ++i)
      threads.emplace_back([&, i] {
        try {
          body(clients[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

struct Service {
  std::unique_ptr<mbrc::lib::Library> library;
  std::unique_ptr<service::Daemon> daemon;
  std::vector<Client> clients;
};

Service open_service(const EcoWorkload& workload, std::uint64_t seed,
                     int clients, int jobs) {
  Service s;
  s.library =
      std::make_unique<mbrc::lib::Library>(mbrc::lib::make_default_library());
  service::DaemonOptions options;
  options.jobs = jobs;
  s.daemon = std::make_unique<service::Daemon>(*s.library, options);
  s.clients.resize(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) s.clients[i].index = i;
  on_each_client(s.clients,
                 [&](Client& c) { c.open(*s.daemon, workload, seed); });
  return s;
}

void collect_failures(const std::vector<Client>& clients, Result& result) {
  for (const Client& c : clients) {
    result.attempted += c.requests;
    result.failed += c.failed;
    for (const std::string& f : c.failures) result.fail(f);
  }
}

std::vector<double> gather(const std::vector<Client>& clients,
                           std::vector<double> Client::*series) {
  std::vector<double> all;
  for (const Client& c : clients)
    all.insert(all.end(), (c.*series).begin(), (c.*series).end());
  return all;
}

}  // namespace

const EcoWorkload* find_eco_workload(std::string_view name) {
  for (const EcoWorkload& workload : kEcoWorkloads)
    if (name == workload.name) return &workload;
  return nullptr;
}

Result run_eco_workload(const EcoWorkload& workload, std::uint64_t seed,
                        double seconds) {
  Result result;
  std::vector<double> setups;
  std::optional<Service> service;
  for (int i = 0; i < kSetups; ++i) {
    if (service) {
      for (Client& c : service->clients)
        c.send(*service->daemon, request("close", c.index));
      collect_failures(service->clients, result);
      service.reset();
    }
    const Clock::time_point start = Clock::now();
    service.emplace(
        open_service(workload, seed, workload.clients, workload.daemon_jobs));
    setups.push_back(seconds_since(start));
  }
  Service& s = *service;
  const RssSampler rss;

  const Clock::time_point start = Clock::now();
  on_each_client(s.clients, [&](Client& c) {
    while (c.round_ms.size() < kTranscriptRounds ||
           seconds_since(start) < seconds)
      c.round(*s.daemon);
  });
  const double window_s = seconds_since(start);
  on_each_client(s.clients, [&](Client& c) { c.close(*s.daemon); });
  collect_failures(s.clients, result);

  const std::vector<double> rounds = gather(s.clients, &Client::round_ms);
  const std::vector<double> queries = gather(s.clients, &Client::query_ms);
  const std::vector<double> recomposes = gather(s.clients, &Client::recompose_ms);
  result.set("setup_s", median(setups), "s");
  result.set("op_p50_ms", median(rounds), "ms");
  result.set("ops_per_s", static_cast<double>(rounds.size()) / window_s, "1/s");
  result.set("plan_p50_ms", median(recomposes), "ms");
  result.set("peak_rss_mb", rss.peak_mb(), "MB");
  result.set("ops_ok_pct",
             100.0 * static_cast<double>(result.attempted - result.failed) /
                 static_cast<double>(std::max<std::int64_t>(result.attempted, 1)),
             "%");

  result.detail("rounds", static_cast<double>(rounds.size()));
  result.detail("round_p90_ms", percentile(rounds, 0.9));
  result.detail("edit_p50_ms", median(gather(s.clients, &Client::edit_ms)));
  result.detail("query_p50_ms", median(queries));
  result.detail("query_p90_ms", percentile(queries, 0.9));
  result.detail("recompose_p50_ms", median(recomposes));
  result.detail("recompose_p90_ms", percentile(recomposes, 0.9));
  result.detail("daemon_jobs", workload.daemon_jobs);
  result.detail("clients", workload.clients);
  for (const Client& c : s.clients)
    result.detail("transcript_" + session_name(c.index), c.transcript.hex());
  return result;
}

Result run_eco_traced(const EcoWorkload& workload, std::uint64_t seed) {
  Result result;
  TraceExtras extras;
  Layers layers;

  // The daemon pass: client 0's rounds, one at a time.
  Service s = open_service(workload, seed, 1, 1);
  Client& client = s.clients[0];
  for (int i = 0; i < kTracedRounds; ++i) client.round(*s.daemon);
  client.close(*s.daemon);
  collect_failures(s.clients, result);

  // The direct pass: the same design and rounds through a Session.
  const Clock::time_point generate = Clock::now();
  const GeneratedInput input =
      generate_input(workload_profile(workload.profile, workload.scale));
  extras.generate_s = seconds_since(generate);
  service::SessionOptions options;
  options.timing.clock_period = input.generated.calibrated_clock_period;
  service::Session session(*input.library, input.generated.design, options);
  mbrc::sta::TimingEngine mirror(session.design(), options.timing);
  mbrc::sta::SkewMap mirror_skew;

  RoundStream stream(
      [&] {
        std::vector<Site> sites;
        for (const netlist::CellId reg : session.design().registers()) {
          const netlist::Cell& cell = session.design().cell(reg);
          sites.push_back({reg.index, cell.position.x, cell.position.y,
                           cell.fixed});
        }
        return sites;
      }(),
      [&] {
        const mbrc::geom::Rect& core = session.design().core();
        return std::vector<double>{core.xlo, core.ylo, core.xhi, core.yhi};
      }(),
      derive_seed(seed, "eco-client-0"));
  const auto cells = [](const std::vector<std::int32_t>& list) {
    std::vector<netlist::CellId> out;
    for (const std::int32_t id : list) out.push_back(netlist::CellId(id));
    return out;
  };
  {
    std::vector<std::int32_t> region;
    for (const std::int32_t i : stream.cluster(4))
      region.push_back(stream.sites()[i].cell);
    session.query({{}, cells(region)});
    session.recompose(cells(region));
    timed(layers.sta_full_build_s, [&] { mirror.update(mirror_skew); });
  }

  std::vector<double> apply_ms, query_ms, recompose_ms, overhead_ms;
  double recompose_total_s = 0.0, session_total_s = 0.0, split_total_s = 0.0;
  const mbrc::mbr::CompositionOptions composition = options.composition;
  for (int i = 0; i < kTracedRounds; ++i) {
    const Round round = stream.next();
    std::vector<service::Edit> edits;
    for (const EcoEdit& e : round.edits) {
      service::Edit edit;
      edit.cell = netlist::CellId(e.cell);
      edit.op = e.move ? service::Edit::Op::kMove : service::Edit::Op::kSkew;
      edit.x = e.x;
      edit.y = e.y;
      edit.skew = e.skew;
      if (!e.move) mirror_skew[edit.cell] = e.skew;
      edits.push_back(edit);
    }
    double a = 0.0, q = 0.0, rc = 0.0;
    const service::EditOutcome applied = timed(a, [&] { return session.apply(edits); });
    const service::TimingAnswer answer =
        timed(q, [&] { return session.query({{}, cells(round.registers)}); });
    const service::RecomposeAnswer recomposed =
        timed(rc, [&] { return session.recompose({}); });
    result.attempted += 3;
    if (!applied.ok() || !answer.ok() || !recomposed.ok()) {
      ++result.failed;
      result.fail("direct session round " + std::to_string(i) + " failed");
    }

    // The recompose again, split: engine update, then the planner layers.
    const double split_start = layers.sta_update_s + layers.plan_busy_s();
    const mbrc::sta::TimingReport& report =
        timed(layers.sta_update_s,
              [&]() -> const mbrc::sta::TimingReport& {
                return mirror.update(mirror_skew);
              });
    layers.sta_repaired_pins +=
        static_cast<std::int64_t>(mirror.stats().last_repaired_pins);
    const std::vector<netlist::CellId> region = cells(round.registers);
    const mbrc::mbr::CompositionPlan plan =
        replay_plan(session.design(), report, composition, &region, layers);
    split_total_s += layers.sta_update_s + layers.plan_busy_s() - split_start;

    const JsonValue& daemon_answer =
        client.recompose_answers[static_cast<std::size_t>(i)];
    const bool split_matches =
        plan.subgraph_count == recomposed.subgraphs &&
        plan.candidate_count == recomposed.candidates &&
        plan.ilp_nodes == recomposed.ilp_nodes &&
        plan.objective == recomposed.objective;
    const bool daemon_matches =
        daemon_answer.int_or("subgraphs", -1) == recomposed.subgraphs &&
        daemon_answer.int_or("candidates", -1) == recomposed.candidates &&
        daemon_answer.int_or("ilp_nodes", -1) == recomposed.ilp_nodes &&
        daemon_answer.number_or("objective", -1.0) == recomposed.objective;
    if (!split_matches || !daemon_matches) {
      ++result.failed;
      result.fail("round " + std::to_string(i) + ": " +
                  (split_matches ? "daemon" : "layer split") +
                  " recompose answer differs from the direct session's");
    }

    apply_ms.push_back(a * 1e3);
    query_ms.push_back(q * 1e3);
    recompose_ms.push_back(rc * 1e3);
    overhead_ms.push_back(client.round_ms[static_cast<std::size_t>(i)] -
                          (a + q + rc) * 1e3);
    recompose_total_s += rc;
    session_total_s += a + q + rc;
    extras.recompose_subgraphs += recomposed.subgraphs;
    extras.recompose_candidates += recomposed.candidates;
    extras.recompose_ilp_nodes += recomposed.ilp_nodes;
  }
  const mbrc::check::CheckReport check = session.check();
  ++result.attempted;
  if (!check.ok()) {
    ++result.failed;
    result.fail("direct session check: " + check.to_string());
  }

  layers.sta_full_builds = static_cast<std::int64_t>(mirror.stats().full_builds);
  layers.sta_incremental_updates =
      static_cast<std::int64_t>(mirror.stats().incremental_updates);
  extras.apply_edits_ms = median(apply_ms);
  extras.query_ms = median(query_ms);
  extras.recompose_ms = median(recompose_ms);
  extras.daemon_overhead_ms = median(overhead_ms);
  extras.plan_wall_s = recompose_total_s;
  extras.plan_busy_s = layers.plan_busy_s();
  extras.plan_jobs = 1;
  extras.trace_overhead_pct =
      100.0 * (split_total_s - recompose_total_s) / recompose_total_s;
  double daemon_total_ms = 0.0;
  for (const double ms : client.round_ms) daemon_total_ms += ms;
  const double explained_s =
      session_total_s - recompose_total_s + layers.plan_busy_s();
  extras.unexplained_pct =
      100.0 * (daemon_total_ms * 1e-3 - explained_s) / (daemon_total_ms * 1e-3);
  report_layers(layers, extras, result);

  result.detail("rounds", kTracedRounds);
  result.detail("compat_partition_share_of_recompose",
                (layers.compat_s + layers.partition_s) / recompose_total_s);
  result.detail("transcript_c0", client.transcript.hex());
  return result;
}

}  // namespace perfbench
