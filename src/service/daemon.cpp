#include "service/daemon.hpp"

#include <array>
#include <fstream>
#include <future>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <utility>

#include "benchgen/generator.hpp"
#include "netlist/io.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace mbrc::service {

namespace {

// Request latency is wall clock and therefore measurement-only: it is
// surfaced by the stats verb (DESIGN.md §11) and no response payload ever
// depends on it. A request starts on the reading thread and finishes on a
// strand, so its latency is two obs::now_ns() reads, not a scoped Span.
double micros_since(std::int64_t start_ns) {
  return static_cast<double>(obs::now_ns() - start_ns) / 1e3;
}

// Session verbs that execute() answers. Any other cmd string comes from
// an untrusted client, so its latency is filed under one "unknown" key
// instead of growing the recorder (and every stats reply) without bound.
// Keep in step with the dispatch in Daemon::execute.
constexpr std::array<std::string_view, 9> kSessionVerbs = {
    "apply_edits", "check", "close", "list_registers", "open_design",
    "query_timing", "recompose_region", "rollback", "snapshot"};

std::string_view latency_key(std::string_view cmd) {
  for (const std::string_view verb : kSessionVerbs)
    if (cmd == verb) return verb;
  return "unknown";
}

std::string fail(std::int64_t id, const std::string& message) {
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", false).kv("error", message);
  w.end_object();
  return os.str();
}

std::int64_t request_id(const obs::JsonValue& request) {
  return request.int_or("id", -1);
}

/// Reads an optional array of non-negative entity ids. Returns false (with
/// `error` set) on a malformed list; an absent member is an empty list.
template <class IdT>
bool parse_ids(const obs::JsonValue& request, const char* key,
               std::vector<IdT>& out, std::string& error) {
  const obs::JsonValue* list = request.find(key);
  if (list == nullptr) return true;
  if (!list->is_array()) {
    error = std::string(key) + " must be an array of ids";
    return false;
  }
  for (const obs::JsonValue& item : list->array()) {
    const std::optional<std::int64_t> id = item.as_int();
    if (!id.has_value() || *id < 0 ||
        *id > std::numeric_limits<std::int32_t>::max()) {
      error = std::string(key) + " entries must be non-negative integers";
      return false;
    }
    out.push_back(IdT(static_cast<std::int32_t>(*id)));
  }
  return true;
}

bool parse_check_level(const std::string& text, check::CheckLevel& out) {
  if (text == "off") out = check::CheckLevel::kOff;
  else if (text == "stage") out = check::CheckLevel::kStageBoundaries;
  else if (text == "paranoid") out = check::CheckLevel::kParanoid;
  else return false;
  return true;
}

/// Decodes one apply_edits entry. Returns empty on success.
std::string parse_edit(const obs::JsonValue& entry, Edit& out) {
  if (!entry.is_object()) return "edit must be an object";
  const std::optional<std::int64_t> cell =
      entry.find("cell") != nullptr ? entry.find("cell")->as_int()
                                    : std::nullopt;
  if (!cell.has_value() || *cell < 0 ||
      *cell > std::numeric_limits<std::int32_t>::max())
    return "edit needs a non-negative integer cell id";
  out.cell = netlist::CellId(static_cast<std::int32_t>(*cell));

  const std::string op = entry.string_or("op", "");
  if (op == "move") {
    out.op = Edit::Op::kMove;
    const obs::JsonValue* x = entry.find("x");
    const obs::JsonValue* y = entry.find("y");
    if (x == nullptr || !x->is_number() || y == nullptr || !y->is_number())
      return "move needs numeric x and y";
    out.x = x->as_number();
    out.y = y->as_number();
  } else if (op == "swap") {
    out.op = Edit::Op::kSwap;
    out.variant = entry.string_or("variant", "");
    if (out.variant.empty()) return "swap needs a variant cell name";
  } else if (op == "skew") {
    out.op = Edit::Op::kSkew;
    out.clear_skew = entry.bool_or("clear", false);
    const obs::JsonValue* skew = entry.find("skew");
    if (!out.clear_skew && (skew == nullptr || !skew->is_number()))
      return "skew needs a numeric skew (or clear: true)";
    if (skew != nullptr && skew->is_number()) out.skew = skew->as_number();
  } else {
    return "unknown edit op: " + op;
  }
  return {};
}

}  // namespace

Daemon::Daemon(const lib::Library& library, DaemonOptions options)
    : library_(library), options_(options) {
  if (options_.jobs > 1)
    pool_ = std::make_unique<runtime::ThreadPool>(options_.jobs - 1);
}

Daemon::~Daemon() {
  finish_trace();  // a traced run that just hit EOF still keeps its tail
  drain();
}

bool Daemon::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shutdown_;
}

std::size_t Daemon::session_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

void Daemon::drain() {
  // The calling thread helps the pool while waiting so a drain from the
  // serve thread cannot starve strand jobs on a small pool.
  std::unique_lock<std::mutex> lock(mutex_);
  while (outstanding_ > 0) {
    if (pool_ != nullptr) {
      lock.unlock();
      if (!pool_->run_one()) {
        lock.lock();
        idle_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
      lock.lock();
    } else {
      idle_.wait(lock);
    }
  }
}

void Daemon::finish_one() {
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
  if (outstanding_ == 0) idle_.notify_all();
}

void Daemon::run_strand(std::shared_ptr<Strand> strand) {
  for (;;) {
    std::function<void()> job;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (strand->queue.empty()) {
        strand->running = false;
        return;
      }
      job = std::move(strand->queue.front());
      strand->queue.pop_front();
    }
    job();
    finish_one();
  }
}

void Daemon::post(const std::shared_ptr<Strand>& strand,
                  std::function<void()> job) {
  bool start = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
    strand->queue.push_back(std::move(job));
    if (!strand->running) {
      strand->running = true;
      start = true;
    }
  }
  if (!start) return;
  if (pool_ != nullptr) {
    std::shared_ptr<Strand> owned = strand;
    pool_->submit([this, owned] { run_strand(owned); });
  } else {
    run_strand(strand);
  }
}

void Daemon::handle(std::string line, std::function<void(std::string)> sink) {
  static obs::Counter& c_requests = obs::counter("service.requests");
  static obs::Counter& c_bad = obs::counter("service.requests.bad");
  c_requests.add(1);
  const std::int64_t t_received = obs::now_ns();

  const obs::JsonParseResult parsed = obs::parse_json(line);
  if (!parsed.ok) {
    c_bad.add(1);
    obs::flight::record(obs::flight::EventKind::kProtocolError, "parse error",
                        -1);
    dump_flight("protocol error");
    sink(fail(-1, "parse error: " + parsed.error));
    return;
  }
  if (!parsed.value.is_object()) {
    c_bad.add(1);
    obs::flight::record(obs::flight::EventKind::kProtocolError,
                        "request not an object", -1);
    dump_flight("protocol error");
    sink(fail(-1, "request must be a JSON object"));
    return;
  }
  const std::int64_t id = request_id(parsed.value);
  const std::string cmd = parsed.value.string_or("cmd", "");

  // Global commands execute inline on the calling thread. They never touch
  // Session state: stats reads only atomic gauges and registry snapshots,
  // so it can answer while every strand is busy.
  if (cmd == "ping" || cmd == "shutdown" || cmd == "stats" ||
      cmd == "trace_start" || cmd == "trace_stop") {
    obs::flight::record(obs::flight::EventKind::kRequest, cmd, id);
    std::string response;
    if (cmd == "stats") {
      response = do_stats(id);
    } else if (cmd == "trace_start") {
      response = do_trace_start(id, parsed.value);
    } else if (cmd == "trace_stop") {
      response = do_trace_stop(id);
    } else {
      if (cmd == "shutdown") {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
      }
      std::ostringstream os;
      obs::JsonWriter w(os, 0);
      w.begin_object().kv("id", id).kv("ok", true);
      if (cmd == "shutdown") w.kv("shutdown", true);
      w.end_object();
      response = os.str();
    }
    latency_.record(cmd, micros_since(t_received));
    sink(std::move(response));
    // A traced run that ends via shutdown must not drop its tail. Flushed
    // after the response so the client is not blocked on the drain.
    if (cmd == "shutdown") finish_trace();
    return;
  }

  const std::string name = parsed.value.string_or("session", "");
  if (cmd.empty() || name.empty()) {
    c_bad.add(1);
    sink(fail(id, cmd.empty() ? "request needs a cmd"
                              : "request needs a session"));
    return;
  }

  std::shared_ptr<Strand> strand;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(name);
    if (cmd == "open_design") {
      if (it != sessions_.end()) {
        c_bad.add(1);
        // Fall through outside the lock: respond without touching the strand.
      } else {
        strand = std::make_shared<Strand>();
        sessions_[name] = strand;
      }
    } else if (it != sessions_.end()) {
      strand = it->second;
    }
  }
  if (strand == nullptr) {
    sink(fail(id, cmd == "open_design" ? "session already open: " + name
                                       : "unknown session: " + name));
    return;
  }

  // Session commands run on the strand: FIFO per session, concurrent
  // across sessions.
  std::shared_ptr<obs::JsonValue> request =
      std::make_shared<obs::JsonValue>(std::move(parsed.value));
  post(strand,
       [this, strand, request, name, t_received, sink = std::move(sink)] {
    // Strand span "req <id>: <cmd> @<session>" -- the request's timeline
    // row in Perfetto; the handler and engine spans nest inside it. The
    // name is built only while a tracer is live; spans are opened ONLY
    // inside posted strand jobs (tracked by outstanding_), which is what
    // lets finish_trace() uninstall-then-drain without racing a span.
    std::string span_name;
    if (obs::Tracer::active() != nullptr)
      span_name = "req " + std::to_string(request_id(*request)) + ": " +
                  request->string_or("cmd", "") + " @" + name;
    std::string response;
    {
      obs::Span strand_span(span_name);
      try {
        response = execute(*strand, *request);
      } catch (const std::exception& e) {
        if (request->string_or("cmd", "") == "open_design") {
          // A throwing open (e.g. a malformed artifact) vacates the name.
          std::lock_guard<std::mutex> lock(mutex_);
          strand->closed = true;
          sessions_.erase(name);
        }
        response = fail(request_id(*request),
                        std::string("request failed: ") + e.what());
      }
    }
    update_gauges(*strand);
    latency_.record(latency_key(request->string_or("cmd", "")),
                    micros_since(t_received));
    sink(std::move(response));
  });
}

void Daemon::update_gauges(Strand& strand) {
  SessionGauges& gauges = strand.gauges;
  gauges.requests.fetch_add(1, std::memory_order_relaxed);
  if (strand.session == nullptr) return;
  const Session& session = *strand.session;
  gauges.journal_length.store(
      static_cast<std::int64_t>(session.journal_length()),
      std::memory_order_relaxed);
  gauges.snapshots.store(static_cast<std::int64_t>(session.snapshot_count()),
                         std::memory_order_relaxed);
  gauges.topology_version.store(
      static_cast<std::int64_t>(session.design().topology_version()),
      std::memory_order_relaxed);
  const sta::TimingEngine::Stats& engine = session.engine_stats();
  gauges.full_builds.store(static_cast<std::int64_t>(engine.full_builds),
                           std::memory_order_relaxed);
  gauges.incremental_updates.store(
      static_cast<std::int64_t>(engine.incremental_updates),
      std::memory_order_relaxed);
}

std::string Daemon::handle_sync(const std::string& line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  handle(line, [&promise](std::string response) {
    promise.set_value(std::move(response));
  });
  if (pool_ != nullptr)
    return runtime::help_get(*pool_, std::move(future));
  return future.get();
}

std::size_t Daemon::serve(std::istream& in, std::ostream& out) {
  std::mutex out_mutex;
  // The sink captures this frame; a throw on the read loop's back edge
  // (getline, shutdown check) must still drain in-flight requests before
  // out/out_mutex die.
  DrainGuard drain_guard(*this);
  const auto sink = [&out, &out_mutex](std::string response) {
    std::lock_guard<std::mutex> lock(out_mutex);
    out << response << '\n';
    out.flush();
  };

  std::size_t served = 0;
  std::string line;
  while (!shutdown_requested() && std::getline(in, line)) {
    if (line.empty()) continue;
    handle(std::move(line), sink);
    ++served;
    line.clear();
  }
  return served;  // drain_guard drains before out/out_mutex go away
}

// ---------------------------------------------------------------------------
// Telemetry verbs (inline on the calling thread).
// ---------------------------------------------------------------------------

std::string Daemon::do_stats(std::int64_t id) {
  // Order matters for the pinned byte-layout test in service_test.cpp:
  // id, ok, service, verbs, pool, sessions, counters, histograms, trace.
  const std::map<std::string, LatencyRecorder::VerbStats> verbs =
      latency_.snapshot();
  const obs::CountersSnapshot registry = obs::counters_snapshot();

  std::vector<std::pair<std::string, std::shared_ptr<Strand>>> strands;
  bool shutdown;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    strands.assign(sessions_.begin(), sessions_.end());
    shutdown = shutdown_;
  }

  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", true);

  w.key("service").begin_object();
  w.kv("jobs", static_cast<std::int64_t>(options_.jobs));
  w.kv("sessions_open", static_cast<std::int64_t>(strands.size()));
  w.kv("shutdown", shutdown);
  w.end_object();

  w.key("verbs").begin_object();
  for (const auto& [verb, stats] : verbs) {
    w.key(verb).begin_object();
    w.kv("count", stats.count);
    w.kv("p50_us", stats.p50_us).kv("p95_us", stats.p95_us);
    w.kv("p99_us", stats.p99_us).kv("max_us", stats.max_us);
    w.end_object();
  }
  w.end_object();

  w.key("pool").begin_object();
  w.kv("workers",
       static_cast<std::int64_t>(pool_ != nullptr ? pool_->worker_count()
                                                  : 0));
  w.kv("queue_depth",
       static_cast<std::int64_t>(pool_ != nullptr ? pool_->queue_depth() : 0));
  w.kv("queue_depth_peak",
       static_cast<std::int64_t>(pool_ != nullptr ? pool_->queue_depth_peak()
                                                  : 0));
  w.kv("active_workers",
       static_cast<std::int64_t>(pool_ != nullptr ? pool_->active_workers()
                                                  : 0));
  w.end_object();

  w.key("sessions").begin_object();
  for (const auto& [name, strand] : strands) {
    const SessionGauges& g = strand->gauges;
    w.key(name).begin_object();
    w.kv("requests", g.requests.load(std::memory_order_relaxed));
    w.kv("journal_length", g.journal_length.load(std::memory_order_relaxed));
    w.kv("snapshots", g.snapshots.load(std::memory_order_relaxed));
    w.kv("topology_version",
         g.topology_version.load(std::memory_order_relaxed));
    w.key("engine").begin_object();
    w.kv("full_builds", g.full_builds.load(std::memory_order_relaxed));
    w.kv("incremental_updates",
         g.incremental_updates.load(std::memory_order_relaxed));
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.key("counters").begin_object();
  for (const auto& [name, value] : registry.counters) w.kv(name, value);
  w.end_object();

  w.key("histograms").begin_object();
  for (const auto& [name, hist] : registry.histograms) {
    w.key(name).begin_object();
    w.kv("count", hist.count).kv("sum", hist.sum);
    w.key("buckets").begin_object();
    for (const auto& [bucket, n] : hist.buckets)
      w.kv(std::to_string(bucket), n);
    w.end_object();
    w.end_object();
  }
  w.end_object();

  w.key("trace").begin_object();
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    w.kv("active", tracer_ != nullptr);
    w.kv("path", trace_path_);
  }
  w.end_object();

  w.end_object();
  return os.str();
}

std::string Daemon::do_trace_start(std::int64_t id,
                                   const obs::JsonValue& request) {
  const std::string path = request.string_or("path", "");
  if (path.empty()) return fail(id, "trace_start needs a path");
  std::lock_guard<std::mutex> lock(trace_mutex_);
  if (tracer_ != nullptr)
    return fail(id, "a trace is already active: " + trace_path_);
  if (obs::Tracer::active() != nullptr)
    return fail(id, "another tracer is active in this process");
  tracer_ = std::make_unique<obs::Tracer>();
  trace_path_ = path;
  tracer_->install();
  obs::flight::record(obs::flight::EventKind::kTraceControl,
                      "trace_start " + path, id);
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", true).kv("tracing", true);
  w.kv("path", path).end_object();
  return os.str();
}

std::string Daemon::do_trace_stop(std::int64_t id) {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    path = trace_path_;
  }
  if (!finish_trace()) return fail(id, "no trace is active");
  std::size_t events;
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    events = trace_event_count_;
  }
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", true).kv("tracing", false);
  w.kv("path", path).kv("events", static_cast<std::int64_t>(events));
  w.end_object();
  return os.str();
}

bool Daemon::finish_trace() {
  std::unique_ptr<obs::Tracer> tracer;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    if (tracer_ == nullptr) return false;
    tracer = std::move(tracer_);
    path = trace_path_;
    trace_path_.clear();
  }
  // Stop collection, then wait out every in-flight strand job: jobs
  // accepted before the uninstall are tracked in outstanding_, so after
  // drain() every span they opened is closed; jobs posted after the
  // uninstall see no active tracer and record nothing. That ordering is
  // what makes take() (which asserts all spans closed) safe on a live
  // daemon.
  tracer->uninstall();
  drain();
  const obs::TraceData data = tracer->take();
  {
    std::ofstream out(path);
    if (out) obs::write_chrome_trace(out, data);
  }
  {
    std::lock_guard<std::mutex> lock(trace_mutex_);
    trace_event_count_ = data.events.size();
  }
  obs::flight::record(obs::flight::EventKind::kTraceControl,
                      "trace_stop " + path,
                      static_cast<std::int64_t>(data.events.size()));
  return true;
}

void Daemon::dump_flight(const char* trigger) {
  if (options_.flight_dump_path.empty()) return;
  obs::flight::dump_to_file(options_.flight_dump_path, trigger);
}

// ---------------------------------------------------------------------------
// Request execution (runs on the session's strand).
// ---------------------------------------------------------------------------

std::string Daemon::do_open(Strand& strand, const obs::JsonValue& request) {
  const std::int64_t id = request_id(request);
  const std::string name = request.string_or("session", "");
  // A failed open vacates the name so the client can retry it.
  const auto open_fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    strand.closed = true;
    sessions_.erase(name);
    return fail(id, message);
  };
  SessionOptions session_options = options_.session_defaults;

  const std::string level_text = request.string_or("check_level", "");
  if (!level_text.empty() &&
      !parse_check_level(level_text, session_options.check_level))
    return open_fail("check_level must be off, stage or paranoid");
  const std::int64_t max_snapshots = request.int_or("max_snapshots", -1);
  if (max_snapshots >= 0)
    session_options.max_snapshots = static_cast<std::size_t>(max_snapshots);

  const std::string path = request.string_or("path", "");
  const std::string profile_name = request.string_or("profile", "");
  netlist::Design design(&library_, {});
  double clock_period = session_options.timing.clock_period;
  if (!path.empty()) {
    std::optional<netlist::Design> loaded =
        netlist::load_design_file(library_, path);
    if (!loaded.has_value()) return open_fail("cannot open design: " + path);
    design = std::move(*loaded);
  } else if (!profile_name.empty()) {
    benchgen::DesignProfile profile;
    bool found = false;
    for (const benchgen::DesignProfile& p : benchgen::standard_profiles())
      if (p.name == profile_name) {
        profile = p;
        found = true;
      }
    if (!found) {
      profile.name = profile_name;  // custom profile, parameterized below
      profile.register_cells = 200;
    }
    const std::int64_t registers = request.int_or("registers", 0);
    if (registers > 0) profile.register_cells = static_cast<int>(registers);
    const std::int64_t seed = request.int_or("seed", 0);
    if (seed > 0) profile.seed = static_cast<std::uint64_t>(seed);
    benchgen::GeneratedDesign generated =
        benchgen::generate_design(library_, profile);
    design = std::move(generated.design);
    clock_period = generated.calibrated_clock_period;
  } else {
    return open_fail("open_design needs a profile or a path");
  }

  const obs::JsonValue* period = request.find("clock_period");
  if (period != nullptr && period->is_number())
    clock_period = period->as_number();
  session_options.timing.clock_period = clock_period;

  strand.session = std::make_unique<Session>(library_, std::move(design),
                                             session_options);
  const netlist::DesignStats stats = strand.session->design().stats();
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", true);
  w.kv("cells", stats.cells).kv("registers", stats.total_registers);
  w.kv("register_bits", stats.register_bits);
  w.kv("clock_period", clock_period);
  const geom::Rect& core = strand.session->design().core();
  w.key("core").begin_array();
  w.value(core.xlo).value(core.ylo).value(core.xhi).value(core.yhi);
  w.end_array();
  w.kv("topology_version", static_cast<std::int64_t>(
                               strand.session->design().topology_version()));
  w.end_object();
  return os.str();
}

std::string Daemon::do_close(Strand& strand, const obs::JsonValue& request) {
  const std::int64_t id = request_id(request);
  const std::string name = request.string_or("session", "");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    strand.closed = true;
    sessions_.erase(name);
  }
  strand.session.reset();
  std::ostringstream os;
  obs::JsonWriter w(os, 0);
  w.begin_object().kv("id", id).kv("ok", true).kv("closed", name);
  w.end_object();
  return os.str();
}

std::string Daemon::execute(Strand& strand, const obs::JsonValue& request) {
  const std::int64_t id = request_id(request);
  const std::string cmd = request.string_or("cmd", "");
  const std::string session_name = request.string_or("session", "");

  // Handler span ("service.<cmd>"), nested inside the strand span; the
  // session/engine spans nest inside this one.
  std::string span_name;
  if (obs::Tracer::active() != nullptr) span_name = "service." + cmd;
  obs::Span handler_span(span_name);
  obs::flight::record(obs::flight::EventKind::kRequest,
                      session_name + " " + cmd, id);

  if (cmd == "open_design") return do_open(strand, request);
  if (strand.closed) return fail(id, "session is closed");
  if (strand.session == nullptr) return fail(id, "session is not open");
  if (cmd == "close") return do_close(strand, request);
  Session& session = *strand.session;

  if (cmd == "apply_edits") {
    const obs::JsonValue* list = request.find("edits");
    if (list == nullptr || !list->is_array())
      return fail(id, "apply_edits needs an edits array");
    std::vector<Edit> edits;
    edits.reserve(list->array().size());
    for (const obs::JsonValue& entry : list->array()) {
      Edit edit;
      const std::string error = parse_edit(entry, edit);
      if (!error.empty()) return fail(id, error);
      edits.push_back(std::move(edit));
    }
    for (const Edit& edit : edits) {
      const char* op = edit.op == Edit::Op::kMove   ? "move"
                       : edit.op == Edit::Op::kSwap ? "swap"
                                                    : "skew";
      obs::flight::record(obs::flight::EventKind::kEdit,
                          session_name + " " + op, edit.cell.index, id);
    }
    const EditOutcome outcome = session.apply(edits);
    if (outcome.check_failed) {
      obs::flight::record(obs::flight::EventKind::kCheckFailure,
                          session_name + " post-edit check", id);
      dump_flight("checker failure");
    }
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", outcome.ok());
    if (!outcome.ok())
      w.kv("error", outcome.error).kv("error_index", outcome.error_index);
    w.kv("applied", outcome.applied);
    w.kv("topology_version",
         static_cast<std::int64_t>(outcome.topology_version));
    w.kv("journal_length", outcome.journal_length);
    w.end_object();
    return os.str();
  }

  if (cmd == "query_timing") {
    TimingQuery query;
    std::string error;
    if (!parse_ids(request, "pins", query.pins, error) ||
        !parse_ids(request, "registers", query.registers, error))
      return fail(id, error);
    const TimingAnswer answer = session.query(query);
    if (answer.check_failed) {
      obs::flight::record(obs::flight::EventKind::kCheckFailure,
                          session_name + " paranoid cross-check", id);
      dump_flight("checker failure");
    }
    if (!answer.ok()) return fail(id, answer.error);
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", true);
    w.kv("wns", answer.wns).kv("tns", answer.tns);
    w.kv("failing_endpoints", answer.failing_endpoints);
    w.kv("total_endpoints", answer.total_endpoints);
    w.kv("hold_wns", answer.hold_wns);
    w.key("pins").begin_array();
    for (const TimingAnswer::PinSlack& pin : answer.pins) {
      w.begin_object().kv("pin", pin.pin.index).kv("slack", pin.slack);
      w.kv("hold_slack", pin.hold_slack).end_object();
    }
    w.end_array();
    w.key("registers").begin_array();
    for (const TimingAnswer::RegisterSlack& reg : answer.registers) {
      w.begin_object().kv("cell", reg.cell.index);
      w.kv("d_slack", reg.d_slack).kv("q_slack", reg.q_slack).end_object();
    }
    w.end_array();
    w.key("engine").begin_object();
    w.kv("full_builds", static_cast<std::int64_t>(answer.full_builds));
    w.kv("incremental_updates",
         static_cast<std::int64_t>(answer.incremental_updates));
    w.kv("repaired_pins", answer.repaired_pins);
    w.end_object();
    w.end_object();
    return os.str();
  }

  if (cmd == "recompose_region") {
    std::vector<netlist::CellId> region;
    std::string error;
    if (!parse_ids(request, "region", region, error)) return fail(id, error);
    // Optional per-request cost knobs (mbr/cost.hpp): any of alpha / beta /
    // gamma present overrides the session's model for this plan only;
    // absent knobs keep the session defaults.
    std::optional<mbr::CostModel> cost;
    if (request.find("alpha") != nullptr || request.find("beta") != nullptr ||
        request.find("gamma") != nullptr) {
      mbr::CostModel model =
          session.options().composition.enumeration.cost;
      model.alpha = request.number_or("alpha", model.alpha);
      model.beta = request.number_or("beta", model.beta);
      model.gamma = request.number_or("gamma", model.gamma);
      cost = model;
    }
    const RecomposeAnswer answer = session.recompose(region, cost);
    if (!answer.ok()) return fail(id, answer.error);
    const mbr::CostModel effective =
        cost ? *cost : session.options().composition.enumeration.cost;
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", true);
    w.kv("region_registers", answer.region_registers);
    w.kv("subgraphs", answer.subgraphs);
    w.kv("candidates", answer.candidates);
    w.kv("ilp_nodes", answer.ilp_nodes);
    w.kv("planned_mbrs", answer.planned_mbrs);
    w.kv("merged_registers", answer.merged_registers);
    w.kv("objective", answer.objective);
    w.key("cost").begin_object();
    w.kv("alpha", effective.alpha);
    w.kv("beta", effective.beta);
    w.kv("gamma", effective.gamma);
    w.end_object();
    w.end_object();
    return os.str();
  }

  if (cmd == "snapshot" || cmd == "rollback") {
    const std::string name = request.string_or("name", "");
    obs::flight::record(cmd == "snapshot"
                            ? obs::flight::EventKind::kSnapshot
                            : obs::flight::EventKind::kRollback,
                        session_name + " " + name, id);
    const Session::SnapshotOutcome outcome =
        cmd == "snapshot" ? session.snapshot(name) : session.rollback(name);
    if (!outcome.ok()) return fail(id, outcome.error);
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", true);
    w.kv("snapshots", outcome.snapshot_count);
    w.kv("topology_version", static_cast<std::int64_t>(
                                 session.design().topology_version()));
    w.end_object();
    return os.str();
  }

  if (cmd == "list_registers") {
    // Ids in id order (deterministic); movable/swappable status so clients
    // can build edit streams without guessing at dont_touch cells.
    const std::int64_t limit = request.int_or("limit", -1);
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", true);
    w.key("registers").begin_array();
    std::int64_t emitted = 0;
    for (netlist::CellId reg : session.design().registers()) {
      if (limit >= 0 && emitted >= limit) break;
      const netlist::Cell& cell = session.design().cell(reg);
      w.begin_object().kv("cell", reg.index).kv("bits", cell.reg->bits);
      w.kv("variant", cell.reg->name).kv("fixed", cell.fixed);
      w.kv("x", cell.position.x).kv("y", cell.position.y).end_object();
      ++emitted;
    }
    w.end_array();
    w.end_object();
    return os.str();
  }

  if (cmd == "check") {
    const bool placement = request.bool_or("placement", false);
    const check::CheckReport report = session.check(placement);
    if (!report.ok()) {
      obs::flight::record(obs::flight::EventKind::kCheckFailure,
                          session_name + " check", id,
                          static_cast<std::int64_t>(report.violations.size()));
      dump_flight("checker failure");
    }
    std::ostringstream os;
    obs::JsonWriter w(os, 0);
    w.begin_object().kv("id", id).kv("ok", report.ok());
    w.key("violations").begin_array();
    for (const check::Violation& v : report.violations) {
      w.begin_object().kv("check", v.check).kv("detail", v.detail);
      w.end_object();
    }
    w.end_array();
    if (!report.ok() && !options_.flight_dump_path.empty())
      w.kv("flight_dump", options_.flight_dump_path);
    w.end_object();
    return os.str();
  }

  return fail(id, "unknown cmd: " + cmd);
}

}  // namespace mbrc::service
