// interactive: the IDE path. A live runtime serves loopback TCP; one client
// thread holds three connections (a controller with binary events, an
// observer with binary events, an observer with JSON events). The
// controller breaks at the source location most instances share and, at
// every stop, reads every local and generator variable of the stop's
// frames with one evaluate-batch, then resumes. A stop counts once all
// three clients have decoded it. The simulation does little work here;
// frame build, dispatch, encode, writer queues, sockets and client decode
// do the rest.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "debugger/client.h"
#include "rpc/event_frame.h"
#include "rpc/protocol.h"
#include "rpc/protocol_v2.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "vpi/native_backend.h"

namespace perfbench {
namespace {

using hgdb::common::BitVector;
using hgdb::debugger::DebugClient;
using hgdb::runtime::Runtime;
using hgdb::vpi::NativeBackend;

constexpr const char* kDesign = "mt-vvadd";
constexpr int kSetupReps = 15;
constexpr uint64_t kWindowStops = 64;
constexpr auto kWait = std::chrono::milliseconds(10000);

/// The breakpoint location: the most rows among locations whose rows carry
/// data-dependent enables (the paper's Listing 1 loop body), so the frame
/// count of a stop follows the design's data.
std::pair<std::string, uint32_t> pick_location(const symbols::SymbolTable& table) {
  std::pair<std::string, uint32_t> best;
  size_t best_rows = 0;
  for (const auto& location : source_locations(table)) {
    const auto rows = table.breakpoints_at(location.first, location.second);
    bool enabled = true;
    for (const auto& row : rows) enabled = enabled && !row.enable.empty();
    if (enabled && rows.size() > best_rows) {
      best_rows = rows.size();
      best = location;
    }
  }
  return best;
}

/// What the benchmark knows about one breakpoint row, from the symbol
/// table, to predict frames and check evaluated values.
struct RowInfo {
  int64_t id = 0;
  std::string instance;
  std::optional<uint32_t> enable_signal;  ///< simulator id of the enable
  struct Var {
    std::string name;      ///< source-level name (scope of this row)
    bool shadowed = false; ///< a generator variable hidden by a local
    std::string absolute;  ///< design signal name; empty for constants
    std::optional<uint32_t> signal;
    std::string constant;  ///< decimal rendering for constants
  };
  std::vector<Var> vars;  ///< locals, then generator variables
};

std::map<int64_t, RowInfo> describe_rows(
    const symbols::SymbolTable& table, const sim::Simulator& simulator,
    const std::pair<std::string, uint32_t>& location, Report& report) {
  std::map<int64_t, RowInfo> rows;
  for (const auto& row : table.breakpoints_at(location.first, location.second)) {
    RowInfo info;
    info.id = row.id;
    info.instance = table.instance(row.instance_id)->name;
    info.enable_signal = simulator.signal_id(info.instance + "." + row.enable);
    report.check(info.enable_signal.has_value(),
                 "enable '" + row.enable + "' is not a design signal");
    auto add = [&](const symbols::ResolvedVariable& v) {
      RowInfo::Var var;
      var.name = v.name;
      if (v.is_rtl) {
        var.absolute = info.instance + "." + v.value;
        var.signal = simulator.signal_id(var.absolute);
        report.check(var.signal.has_value(),
                     "variable '" + var.absolute + "' is not a design signal");
      } else {
        var.constant = BitVector::from_string(v.value).to_string();
      }
      info.vars.push_back(var);
    };
    std::set<std::string> locals;
    for (const auto& v : table.scope_variables(row.id)) {
      add(v);
      locals.insert(v.name);
    }
    for (const auto& v : table.generator_variables(row.instance_id)) {
      add(v);
      info.vars.back().shadowed = locals.count(v.name) != 0;
    }
    rows[row.id] = std::move(info);
  }
  return rows;
}

/// One live debug session: design, runtime behind TCP, three clients.
/// Members are destroyed bottom-up: clients, then the runtime, then the
/// backend and design it points at.
struct Session {
  Design design;
  std::unique_ptr<NativeBackend> backend;
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<DebugClient> controller;
  std::unique_ptr<DebugClient> observer_binary;
  std::unique_ptr<DebugClient> observer_json;

  ~Session() {
    for (auto* client : {&controller, &observer_binary, &observer_json}) {
      if (*client) (*client)->disconnect();
      client->reset();
    }
    if (runtime) runtime->stop_service();
  }
};

std::unique_ptr<DebugClient> connect(uint16_t port, const char* name,
                                     bool binary) {
  auto client = std::make_unique<DebugClient>(
      hgdb::rpc::tcp_connect("127.0.0.1", port));
  if (!client->connect(name, binary) || client->binary_events() != binary) {
    throw std::runtime_error(std::string("client handshake failed: ") + name);
  }
  return client;
}

/// Median round trip of a bare length-framed TCP channel: the transport
/// floor under every stop and request.
double tcp_echo_rtt_us(int round_trips) {
  hgdb::rpc::TcpServer server(0);
  std::thread echo([&] {
    auto channel = server.accept();
    if (!channel) return;
    while (auto message = channel->receive()) channel->send(std::move(*message));
  });
  auto client = hgdb::rpc::tcp_connect("127.0.0.1", server.port());
  Samples rtt(static_cast<size_t>(round_trips));
  for (int i = 0; i < round_trips; ++i) {
    const auto t0 = Clock::now();
    client->send("ping");
    client->receive(kWait);
    rtt.add(us_between(t0, Clock::now()));
  }
  client->close();
  client.reset();
  echo.join();
  server.close();
  return rtt.median();
}

}  // namespace

Report run_interactive(const RunOptions& options) {
  Report report;
  Tracer* tracer = options.tracer;
  Rng rng(options.seed);
  const uint64_t warmup_cycles = 64 + rng.below(4096);

  // Set-up: compile, attach, serve, three connects with handshakes, arm.
  // Repeated; the median of its nominal CPU time is reported. The seeded
  // warm-up simulation of the session that is kept is input generation and
  // is not timed.
  std::unique_ptr<Session> session;
  std::pair<std::string, uint32_t> location;
  std::vector<double> setup_s;
  SpeedProbe setup_probe;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    auto next = std::make_unique<Session>();
    setup_probe.mark();
    const double c0 = cpu_seconds();
    next->design = compile_design(kDesign, tracer);
    const double c1 = cpu_seconds();
    if (rep + 1 == kSetupReps) next->design.simulator->run(warmup_cycles);
    const double c2 = cpu_seconds();
    Scope span(tracer, "op", "setup");
    location = pick_location(*next->design.table);
    next->backend = std::make_unique<NativeBackend>(*next->design.simulator);
    uint16_t port = 0;
    {
      Scope serve(tracer, "runtime", "attach_and_serve");
      next->runtime =
          std::make_unique<Runtime>(*next->backend, *next->design.table);
      next->runtime->attach();
      port = next->runtime->serve_tcp(0);
    }
    {
      Scope connects(tracer, "rpc", "connect_clients");
      next->controller = connect(port, "controller", true);
      next->observer_binary = connect(port, "observer-binary", true);
      next->observer_json = connect(port, "observer-json", false);
    }
    {
      Scope arm(tracer, "rpc", "set_breakpoint");
      const auto ids =
          next->controller->set_breakpoint(location.first, location.second);
      report.check(!ids.empty(), "breakpoint did not arm");
    }
    const double cpu = (c1 - c0) + (cpu_seconds() - c2);
    setup_s.push_back(cpu * setup_probe.scale());
    session = std::move(next);
  }
  if (!report.correct) return report;

  sim::Simulator& simulator = *session->design.simulator;
  const auto rows =
      describe_rows(*session->design.table, simulator, location, report);
  if (!report.correct) return report;

  std::atomic<bool> finish{false};
  std::thread sim_thread([&] {
    while (!finish.load(std::memory_order_acquire)) simulator.tick();
  });

  DebugClient* clients[3] = {session->controller.get(),
                             session->observer_binary.get(),
                             session->observer_json.get()};
  const char* client_names[3] = {"controller", "observer-binary",
                                 "observer-json"};
  Samples stop_us(1u << 16), batch_us(1u << 16), fanout_us(1u << 16);
  Samples build_frame_us(1u << 16), evaluate_us(1u << 16);
  Samples encode_binary_us(1u << 14), encode_json_us(1u << 14);
  Samples decode_binary_us(1u << 14), decode_json_us(1u << 14);
  // The run is cut into windows of kWindowStops stops. Wall-clock rates
  // are medians over windows; the gated CPU figures are per-window means
  // scaled to the nominal machine, then averaged over the middle half of
  // the windows.
  struct Window {
    double busy_s = 0;
    double batch_s = 0;
    double stop_cpu_s = 0;
    double batch_cpu_s = 0;
    uint64_t expressions = 0;
    uint64_t stops = 0;
  } window;
  std::vector<double> stop_rates, expression_rates;
  std::vector<double> stop_cpu_us, batch_cpu_us, stop_batch_rates,
      expression_cpu_rates;
  double stop_cpu_s = 0, batch_cpu_s = 0;
  SpeedProbe probe;
  uint64_t expressions = 0;
  uint64_t frames = 0;
  uint64_t stops = 0;
  uint64_t first_cycle = 0;

  // One stop: wait for it at every client. False when a client lost it.
  std::optional<hgdb::rpc::StopEvent> seen[3];
  auto wait_everywhere = [&](uint64_t op, Clock::time_point& controller_done) {
    for (int c = 0; c < 3; ++c) {
      Scope wait(tracer, c == 0 ? "session" : "rpc", client_names[c], op);
      seen[c] = clients[c]->wait_stop(kWait);
      if (c == 0) controller_done = Clock::now();
      if (!seen[c]) {
        report.check(false, std::string("stop never reached ") + client_names[c]);
        return false;
      }
    }
    return true;
  };
  // Checks the stop every client saw against the symbol table and the
  // paused simulator; it becomes the current stop.
  std::optional<hgdb::rpc::StopEvent> current;
  auto check_stop = [&] {
    const auto& stop = *seen[0];
    report.check(!current || stop.time > current->time,
                 "stop times do not strictly increase");
    bool same = true;
    for (int c = 1; c < 3; ++c) {
      same = same && seen[c]->time == stop.time &&
             seen[c]->frames.size() == stop.frames.size();
      for (size_t f = 0; same && f < stop.frames.size(); ++f) {
        same = seen[c]->frames[f].breakpoint_id == stop.frames[f].breakpoint_id;
      }
    }
    report.check(same, "clients saw different stops");
    // Expected frames: the rows at the location whose enable is set in
    // the paused simulator, one per row.
    std::vector<int64_t> expected, got;
    for (const auto& [id, row] : rows) {
      if (simulator.value(*row.enable_signal).to_uint64() != 0) {
        expected.push_back(id);
      }
    }
    for (const auto& frame : stop.frames) got.push_back(frame.breakpoint_id);
    std::sort(got.begin(), got.end());
    report.check(got == expected,
                 "stop at " + std::to_string(stop.time) + " has " +
                     std::to_string(got.size()) + " frames, expected " +
                     std::to_string(expected.size()));
    current = stop;
  };

  // The first stop is not timed: it only starts the loop.
  Clock::time_point ignored;
  if (!wait_everywhere(0, ignored)) {
    finish = true;
    session->controller->remove_breakpoint(location.first, location.second);
    session->controller->resume();
    sim_thread.join();
    return report;
  }
  check_stop();
  first_cycle = simulator.cycle();
  probe.mark();

  const auto start = Clock::now();
  while (seconds_since(start) < options.seconds) {
    const auto& stop = *current;
    // One evaluate-batch over every local and generator variable of the
    // stop's frames: the first frame's by name in its own scope (locals
    // shadow generator variables of the same name), the other frames' by
    // design name. Expected values are read from the paused
    // simulator.
    std::vector<std::string> exprs;
    std::vector<std::string> want;
    for (size_t f = 0; f < stop.frames.size(); ++f) {
      const RowInfo& row = rows.at(stop.frames[f].breakpoint_id);
      for (const auto& var : row.vars) {
        const bool by_name = f == 0 && !var.shadowed;
        if (!by_name && !var.signal) continue;
        exprs.push_back(by_name ? var.name : var.absolute);
        want.push_back(var.signal ? simulator.value(*var.signal).to_string()
                                  : var.constant);
      }
    }
    const int64_t scope = stop.frames.front().breakpoint_id;

    if (tracer != nullptr) {
      // Direct calls into single layers on the paused runtime.
      for (const auto& frame : stop.frames) {
        Scope span(tracer, "runtime", "build_frame");
        const auto t0 = Clock::now();
        (void)session->runtime->build_frame(frame.breakpoint_id);
        build_frame_us.add(us_between(t0, Clock::now()));
      }
      for (size_t i = 0; i < exprs.size(); i += 16) {
        Scope span(tracer, "runtime", "evaluate");
        const auto t0 = Clock::now();
        (void)session->runtime->evaluate(exprs[i], scope);
        evaluate_us.add(us_between(t0, Clock::now()));
      }
      {
        Scope span(tracer, "rpc", "encode_decode_stop");
        auto t0 = Clock::now();
        const auto body = hgdb::rpc::encode_stop_body(stop);
        const auto frame =
            hgdb::rpc::make_event_frame(hgdb::rpc::FrameKind::Stop, body);
        const std::string message = frame.channel_message();
        auto t1 = Clock::now();
        const auto decoded = hgdb::rpc::decode_event_frame(message);
        auto t2 = Clock::now();
        const std::string text = hgdb::rpc::serialize_event_v2(
            hgdb::rpc::EventV2{"stop", hgdb::rpc::stop_event_payload(stop)});
        auto t3 = Clock::now();
        const auto json = hgdb::common::Json::parse(text);
        const auto parsed =
            hgdb::rpc::stop_event_fields(json.get("payload")->get());
        auto t4 = Clock::now();
        encode_binary_us.add(us_between(t0, t1));
        decode_binary_us.add(us_between(t1, t2));
        encode_json_us.add(us_between(t2, t3));
        decode_json_us.add(us_between(t3, t4));
        report.check(decoded.stop.frames.size() == stop.frames.size() &&
                         parsed.frames.size() == stop.frames.size(),
                     "stop codec round trip lost frames");
      }
    }

    const uint64_t batch_op = tracer != nullptr ? tracer->next_op() : 0;
    std::vector<hgdb::debugger::EvalResult> results;
    const double cb0 = cpu_seconds();
    const auto b0 = Clock::now();
    {
      Scope op(tracer, "op", "batch", batch_op);
      Scope call(tracer, "rpc", "evaluate_batch");
      results = session->controller->evaluate_batch(exprs, scope);
    }
    const auto b1 = Clock::now();
    const double cb1 = cpu_seconds();
    bool values_ok = results.size() == exprs.size();
    for (size_t i = 0; values_ok && i < results.size(); ++i) {
      values_ok = results[i].ok && results[i].value == want[i];
    }
    report.check(values_ok, "evaluate-batch value differs from the simulator at " +
                                std::to_string(stop.time));
    batch_us.add(us_between(b0, b1));
    window.batch_s += std::chrono::duration<double>(b1 - b0).count();
    window.batch_cpu_s += cb1 - cb0;
    window.expressions += exprs.size();
    expressions += exprs.size();

    const uint64_t stop_op = tracer != nullptr ? tracer->next_op() : 0;
    Clock::time_point controller_done;
    const double cs0 = cpu_seconds();
    const auto s0 = Clock::now();
    bool ok = false;
    {
      Scope op(tracer, "op", "stop", stop_op);
      {
        Scope call(tracer, "rpc", "resume");
        session->controller->resume();
      }
      ok = wait_everywhere(stop_op, controller_done);
    }
    const auto s1 = Clock::now();
    const double cs1 = cpu_seconds();
    if (ok) check_stop();
    report.attempted += 1;
    if (!ok) {
      report.failed += 1;
      break;
    }
    ++stops;
    frames += seen[0]->frames.size();
    stop_us.add(us_between(s0, s1));
    fanout_us.add(us_between(controller_done, s1));
    window.busy_s += std::chrono::duration<double>(s1 - b0).count();
    window.stop_cpu_s += cs1 - cs0;
    if (++window.stops == kWindowStops) {
      const double nominal = probe.scale();
      const auto n = static_cast<double>(window.stops);
      const auto e = static_cast<double>(window.expressions);
      stop_rates.push_back(n / window.busy_s);
      expression_rates.push_back(e / window.batch_s);
      stop_cpu_us.push_back(window.stop_cpu_s * 1e6 / n * nominal);
      batch_cpu_us.push_back(window.batch_cpu_s * 1e6 / n * nominal);
      stop_batch_rates.push_back(
          n / ((window.stop_cpu_s + window.batch_cpu_s) * nominal));
      expression_cpu_rates.push_back(e / (window.batch_cpu_s * nominal));
      stop_cpu_s += window.stop_cpu_s;
      batch_cpu_s += window.batch_cpu_s;
      window = Window{};
    }
  }
  const uint64_t cycles = simulator.cycle() - first_cycle;

  finish = true;
  session->controller->remove_breakpoint(location.first, location.second);
  session->controller->resume();
  sim_thread.join();

  report.e2e("setup_s", median_of(setup_s), "s");
  report.e2e("rate_per_cpu_s", interquartile_mean(stop_batch_rates), "1/s");
  report.e2e("rate2_per_cpu_s", interquartile_mean(expression_cpu_rates),
             "1/s");
  report.e2e("op_cpu_us", interquartile_mean(stop_cpu_us), "us");
  report.e2e("op2_cpu_us", interquartile_mean(batch_cpu_us), "us");
  const double windowed = static_cast<double>(stop_cpu_us.size() * kWindowStops);
  char cpu_line[256];
  std::snprintf(cpu_line, sizeof(cpu_line),
                "wall clock: %.1f stops/s, %.0f batch expressions/s; raw CPU: "
                "%.0f us per stop, %.0f us per batch; speed probe median %.0f "
                "us (nominal %.0f)",
                median_of(stop_rates), median_of(expression_rates),
                windowed > 0 ? stop_cpu_s * 1e6 / windowed : 0.0,
                windowed > 0 ? batch_cpu_s * 1e6 / windowed : 0.0,
                probe.median_us(), kNominalReferenceUs);
  report.note(cpu_line);
  report.note_latency("stop (resume sent to decoded at all clients)", stop_us);
  report.note_latency("evaluate-batch round trip", batch_us);
  char line[256];
  std::snprintf(line, sizeof(line),
                "%llu stops at %s:%u, %.2f frames and %.1f expressions per "
                "stop, %.3f cycles per stop",
                static_cast<unsigned long long>(stops), location.first.c_str(),
                location.second,
                stops ? static_cast<double>(frames) / static_cast<double>(stops)
                      : 0.0,
                stops ? static_cast<double>(expressions) /
                            static_cast<double>(stops)
                      : 0.0,
                stops ? static_cast<double>(cycles) / static_cast<double>(stops)
                      : 0.0);
  report.note(line);

  if (tracer != nullptr) {
    report.layer("rpc.tcp_echo_rtt_us", tcp_echo_rtt_us(2000), "us");
    report.layer("runtime.build_frame_us", build_frame_us.median(), "us");
    report.layer("runtime.evaluate_us", evaluate_us.median(), "us");
    report.layer("rpc.encode_stop_binary_us", encode_binary_us.median(), "us");
    report.layer("rpc.decode_stop_binary_us", decode_binary_us.median(), "us");
    report.layer("rpc.encode_stop_json_us", encode_json_us.median(), "us");
    report.layer("rpc.decode_stop_json_us", decode_json_us.median(), "us");
    report.layer("session.fanout_lag_us", fanout_us.median(), "us");
    report.layer("sim.cycles_per_stop",
                 stops ? static_cast<double>(cycles) / static_cast<double>(stops)
                       : 0.0,
                 "count");
  }
  return report;
}

}  // namespace perfbench
