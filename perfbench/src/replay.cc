// replay: debugging over a captured trace. The benchmark dumps a VCD from
// a seeded live run, sampling the design's generator variables at every
// rising edge and counting the cycles on which the benchmark's conditions
// hold. Then, in rounds:
//   1. convert the VCD to a sharded .wvx index at min(4, nproc) jobs;
//   2. continue across the whole dump in a runtime over that index, with
//      rare-firing conditional breakpoints armed;
//   3. one TCP client performs seeded random jumps, each followed by a
//      step-back, and checks the values it is shown.
// The waveform layer (parse, codec, block cache, storage) and the trace
// layer do most of the work; random jumps mostly miss the block cache,
// step-backs mostly hit it.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "bench.h"
#include "debugger/client.h"
#include "rpc/tcp.h"
#include "runtime/runtime.h"
#include "sim/vcd_writer.h"
#include "trace/replay.h"
#include "vpi/replay_backend.h"
#include "waveform/indexed_waveform.h"
#include "waveform/sharded_writer.h"
#include "waveform/vcd_stream_parser.h"
#include "waveform/wvx_verify.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using hgdb::debugger::DebugClient;
using hgdb::runtime::Runtime;
using hgdb::vpi::ReplayBackend;
using hgdb::waveform::IndexedWaveform;

constexpr const char* kDesign = "towers";
constexpr uint64_t kDumpCycles = 50000;
constexpr uint64_t kJumpsPerRound = 256;
constexpr uint64_t kConditionModulus = 509;
constexpr size_t kConditions = 2;
constexpr size_t kMinHits = 60;  ///< per condition and pass over the dump
constexpr size_t kMaxHits = 140;
constexpr int kSetupReps = 15;
constexpr auto kWait = std::chrono::milliseconds(10000);

/// A generator variable the benchmark samples during the live run.
struct Sampled {
  std::string name;         ///< source-level name (frame key)
  std::string design_name;  ///< hierarchical signal name in the dump
  uint32_t signal = 0;
};

/// The live run's record: rising-edge times and, per edge, the sampled
/// values.
struct LiveRecord {
  std::vector<uint64_t> edges;
  std::vector<Sampled> sampled;
  std::vector<uint64_t> values;  ///< edges.size() x sampled.size()
  uint64_t value(size_t edge, size_t var) const {
    return values[edge * sampled.size() + var];
  }
};

struct Condition {
  std::string text;
  size_t var = 0;  ///< index into LiveRecord::sampled
  uint64_t residue = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Every file of a converted index (manifest and shards), by name.
std::map<std::string, std::string> index_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = read_file(entry.path().string());
  }
  return files;
}

/// Converts the VCD; returns the wall seconds and sets cpu_s to the process
/// CPU seconds the conversion took (its worker threads included).
double convert(const std::string& vcd, const std::string& dir, uint32_t jobs,
               Tracer* tracer, double* cpu_s = nullptr) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  hgdb::waveform::ShardedConvertOptions options;
  options.jobs = jobs;
  Scope span(tracer, "waveform", jobs == 1 ? "convert_jobs1" : "convert");
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  hgdb::waveform::convert_vcd_to_sharded_index(vcd, dir + "/dump.wvx", options);
  const double wall = seconds_since(t0);
  if (cpu_s != nullptr) *cpu_s = cpu_seconds() - c0;
  return wall;
}

/// A VCD sink that keeps nothing: the parser's own speed.
struct DiscardSink final : hgdb::waveform::VcdEventSink {
  void on_change(size_t, uint64_t, const hgdb::common::BitVector&) override {}
};

/// Checks a stop's frames against the live samples at its edge.
bool frames_match(const hgdb::rpc::StopEvent& stop, const LiveRecord& live,
                  size_t edge) {
  if (stop.frames.empty()) return false;
  for (const auto& frame : stop.frames) {
    for (size_t v = 0; v < live.sampled.size(); ++v) {
      const auto value = frame.generator.get_string(live.sampled[v].name);
      if (value != std::to_string(live.value(edge, v))) return false;
    }
  }
  return true;
}

}  // namespace

Report run_replay(const RunOptions& options) {
  Report report;
  Tracer* tracer = options.tracer;
  Rng rng(options.seed);
  const uint32_t jobs = std::min<uint32_t>(
      4, std::max<uint32_t>(1, std::thread::hardware_concurrency()));
  const std::string vcd = options.work_dir + "/live.vcd";

  // -- input: a seeded live run dumped to VCD ---------------------------------
  LiveRecord live;
  std::vector<Condition> conditions;
  std::pair<std::string, uint32_t> cond_location;
  {
    Design design = compile_design(kDesign, nullptr);
    sim::Simulator& simulator = *design.simulator;
    simulator.run(rng.below(8192));  // the seed picks the dumped window
    const auto& table = *design.table;
    const int64_t top = table.instances().front().id;
    for (const auto& v : table.generator_variables(top)) {
      if (!v.is_rtl || v.name.find('.') != std::string::npos) continue;
      const std::string name = design.top + "." + v.value;
      const auto id = simulator.signal_id(name);
      if (!id || simulator.value(*id).width() > 64) continue;
      live.sampled.push_back(Sampled{v.name, name, *id});
    }
    // The conditions sit at the first location whose rows are always
    // enabled, so every cycle on which a condition holds is a stop.
    for (const auto& location : source_locations(table)) {
      bool always = true;
      for (const auto& row : table.breakpoints_at(location.first,
                                                  location.second)) {
        always = always && row.enable.empty();
      }
      if (always) {
        cond_location = location;
        break;
      }
    }
    {
      hgdb::sim::VcdWriter writer(simulator, vcd);
      writer.attach();
      simulator.add_clock_callback([&](hgdb::sim::Edge edge, uint64_t time) {
        if (edge != hgdb::sim::Edge::Rising) return;
        live.edges.push_back(time);
        for (const auto& s : live.sampled) {
          live.values.push_back(simulator.value(s.signal).to_uint64());
        }
      });
      simulator.run(kDumpCycles);
    }
    // Pick condition variables among those that change on most edges.
    std::vector<size_t> busy;
    for (size_t v = 0; v < live.sampled.size(); ++v) {
      size_t changes = 0;
      for (size_t e = 1; e < live.edges.size(); ++e) {
        changes += live.value(e, v) != live.value(e - 1, v);
      }
      if (changes * 2 > live.edges.size()) busy.push_back(v);
    }
    report.check(!busy.empty() && !live.sampled.empty() &&
                     !cond_location.first.empty(),
                 "towers has no busy generator variable or no plain location");
    if (!report.correct) return report;
    // Each condition holds on a residue taken from a seeded edge, and is
    // kept only if it fires a similar number of times whatever the seed.
    for (int attempt = 0; conditions.size() < kConditions; ++attempt) {
      report.check(attempt < 10000, "no condition fires at a usable rate");
      if (!report.correct) return report;
      Condition cond;
      cond.var = busy[rng.below(busy.size())];
      cond.residue =
          live.value(rng.below(live.edges.size()), cond.var) % kConditionModulus;
      size_t hits = 0;
      for (size_t e = 0; e < live.edges.size(); ++e) {
        hits += live.value(e, cond.var) % kConditionModulus == cond.residue;
      }
      if (hits < kMinHits || hits > kMaxHits) continue;
      cond.text = live.sampled[cond.var].name + " % " +
                  std::to_string(kConditionModulus) + " == " +
                  std::to_string(cond.residue);
      conditions.push_back(cond);
    }
  }
  // Expected continue stops: edges where any condition holds.
  std::vector<uint64_t> expected_stops;
  for (size_t e = 0; e < live.edges.size(); ++e) {
    bool hit = false;
    for (const auto& cond : conditions) {
      hit = hit || live.value(e, cond.var) % kConditionModulus == cond.residue;
    }
    if (hit) expected_stops.push_back(live.edges[e]);
  }
  const double vcd_mb = static_cast<double>(fs::file_size(vcd)) / 1e6;
  const uint64_t cycles = live.edges.size();

  // -- reference conversion at one job, checked once --------------------------
  const std::string ref_dir = options.work_dir + "/jobs1";
  const std::string dir = options.work_dir + "/jobs" + std::to_string(jobs);
  const double jobs1_s = convert(vcd, ref_dir, 1, tracer);
  const auto reference_files = index_files(ref_dir);
  {
    const auto verified = hgdb::waveform::verify_index(ref_dir + "/dump.wvx");
    report.check(verified.ok, "verify_index failed on the one-job index: " +
                                  verified.error);
  }
  convert(vcd, dir, jobs, nullptr);
  if (options.perturb == "shard") {
    // Flip one byte in the middle of the largest shard.
    std::string victim;
    uintmax_t largest = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.file_size() > largest) {
        largest = entry.file_size();
        victim = entry.path().string();
      }
    }
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(largest / 2));
    f.put('\x5a');
  }
  {
    const auto verified = hgdb::waveform::verify_index(dir + "/dump.wvx");
    report.check(verified.ok,
                 "verify_index failed on the converted index: " + verified.error);
    report.check(index_files(dir) == reference_files,
                 "shard bytes differ between 1 and " + std::to_string(jobs) +
                     " jobs");
  }
  const std::string index = dir + "/dump.wvx";

  // -- set-up a user waits through: compile, open the index, attach, arm,
  //    serve and connect. Repeated; the median of its nominal CPU time is
  //    reported.
  struct Session {
    Design design;
    std::unique_ptr<ReplayBackend> backend;
    std::shared_ptr<IndexedWaveform> waveform;
    std::unique_ptr<Runtime> runtime;
    std::unique_ptr<DebugClient> client;
    ~Session() {
      if (client) client->disconnect();
      client.reset();
      if (runtime) runtime->stop_service();
    }
  };
  std::unique_ptr<Session> session;
  std::vector<double> setup_s, open_ms;
  SpeedProbe setup_probe;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    session.reset();
    auto next = std::make_unique<Session>();
    setup_probe.mark();
    Scope span(tracer, "op", "setup");
    const double c0 = cpu_seconds();
    next->design = compile_design(kDesign, tracer);
    const auto t1 = Clock::now();
    {
      Scope open(tracer, "waveform", "open");
      next->waveform = std::make_shared<IndexedWaveform>(index);
    }
    const auto t2 = Clock::now();
    uint16_t port = 0;
    {
      Scope serve(tracer, "runtime", "attach_and_serve");
      next->backend = std::make_unique<ReplayBackend>(
          hgdb::trace::ReplayEngine(next->waveform));
      next->runtime =
          std::make_unique<Runtime>(*next->backend, *next->design.table);
      next->runtime->attach();
      port = next->runtime->serve_tcp(0);
    }
    {
      Scope connect(tracer, "rpc", "connect_client");
      next->client = std::make_unique<DebugClient>(
          hgdb::rpc::tcp_connect("127.0.0.1", port));
      report.check(next->client->connect("replay-client", true),
                   "replay client handshake failed");
    }
    setup_s.push_back((cpu_seconds() - c0) * setup_probe.scale());
    open_ms.push_back(us_between(t1, t2) / 1e3);
    session = std::move(next);
  }
  if (!report.correct) return report;

  // -- rounds -------------------------------------------------------------------
  Samples jump_us(1u << 16), step_us(1u << 16);
  Samples seek_us(1u << 16), random_us(1u << 16), sequential_us(1u << 16);
  std::vector<double> convert_s, continue_rate, parse_mb_s;
  // Gated CPU figures: one per round and phase, scaled to the nominal
  // machine by probes right before and after the phase.
  std::vector<double> convert_cpu_s, continue_cpu_rate, jump_cpu_us, step_cpu_us;
  double convert_raw_cpu_s = 0, continue_raw_cpu_s = 0;
  SpeedProbe probe;
  double eval_ns = 0;
  double eval_edges = 0;
  uint64_t jump_misses = 0, step_hits = 0, jumps = 0;
  const auto start = Clock::now();
  uint64_t rounds = 0;
  while (rounds == 0 || seconds_since(start) < options.seconds) {
    ++rounds;
    // 1. convert, checked byte for byte against the one-job reference.
    {
      const uint64_t op = tracer != nullptr ? tracer->next_op() : 0;
      double cpu = 0;
      probe.mark();
      {
        Scope span(tracer, "op", "convert", op);
        convert_s.push_back(convert(vcd, dir, jobs, tracer, &cpu));
      }
      convert_cpu_s.push_back(cpu * probe.scale());
      convert_raw_cpu_s += cpu;
    }
    report.attempted += 1;
    report.check(index_files(dir) == reference_files,
                 "shard bytes differ between 1 and " + std::to_string(jobs) +
                     " jobs");

    // 2. continue across the dump with the conditions armed.
    {
      auto waveform = std::make_shared<IndexedWaveform>(index);
      ReplayBackend backend{hgdb::trace::ReplayEngine(waveform)};
      Runtime runtime(backend, *session->design.table);
      runtime.attach();
      for (const auto& cond : conditions) {
        runtime.add_breakpoint(cond_location.first, cond_location.second,
                               cond.text);
      }
      std::vector<uint64_t> stops;
      bool frames_ok = true;
      runtime.set_stop_handler([&](const hgdb::rpc::StopEvent& event) {
        stops.push_back(event.time);
        const auto it = std::lower_bound(live.edges.begin(), live.edges.end(),
                                         event.time);
        frames_ok = frames_ok && it != live.edges.end() && *it == event.time &&
                    frames_match(event, live,
                                 static_cast<size_t>(it - live.edges.begin()));
        return Runtime::Command::Continue;
      });
      const uint64_t op = tracer != nullptr ? tracer->next_op() : 0;
      probe.mark();
      double cpu = 0;
      {
        Scope span(tracer, "op", "continue", op);
        const double c0 = cpu_seconds();
        const auto t0 = Clock::now();
        {
          Scope run(tracer, "trace", "run_forward");
          backend.run_forward();
        }
        continue_rate.push_back(static_cast<double>(cycles) /
                                seconds_since(t0));
        cpu = cpu_seconds() - c0;
      }
      continue_cpu_rate.push_back(static_cast<double>(cycles) /
                                  (cpu * probe.scale()));
      continue_raw_cpu_s += cpu;
      const auto stats = runtime.stats();
      eval_ns += static_cast<double>(stats.eval_ns);
      eval_edges += static_cast<double>(stats.clock_edges);
      report.attempted += 1;
      report.check(stops == expected_stops,
                   "continue stopped " + std::to_string(stops.size()) +
                       " times, the live run predicts " +
                       std::to_string(expected_stops.size()));
      report.check(frames_ok, "a continue stop shows values the live run did not have");
    }

    // 3. random jumps, each followed by a step-back, over TCP.
    {
      DebugClient& client = *session->client;
      client.pause();  // lands at the first edge the replay visits
      std::thread replay([&] { session->backend->run_forward(); });
      auto first = client.wait_stop(kWait);
      report.check(first.has_value(), "replay never stopped after pause");
      std::vector<double> round_jump_cpu_us, round_step_cpu_us;
      probe.mark();
      for (uint64_t j = 0; first && j < kJumpsPerRound; ++j) {
        const size_t edge = 1 + rng.below(cycles - 1);
        const uint64_t op = tracer != nullptr ? tracer->next_op() : 0;
        const auto misses0 = session->waveform->cache_stats().misses;
        std::optional<hgdb::rpc::StopEvent> landed;
        const double c0 = cpu_seconds();
        const auto t0 = Clock::now();
        {
          Scope span(tracer, "op", "jump", op);
          {
            Scope call(tracer, "rpc", "jump");
            client.jump(live.edges[edge] - 1);
          }
          Scope wait(tracer, "session", "wait_stop");
          landed = client.wait_stop(kWait);
        }
        const auto t1 = Clock::now();
        const double c1 = cpu_seconds();
        const auto stats1 = session->waveform->cache_stats();
        report.attempted += 1;
        if (!landed) {
          report.failed += 1;
          break;
        }
        jump_us.add(us_between(t0, t1));
        round_jump_cpu_us.push_back((c1 - c0) * 1e6);
        jump_misses += stats1.misses - misses0;
        report.check(landed->time == live.edges[edge] &&
                         frames_match(*landed, live, edge),
                     "jump to edge " + std::to_string(edge) +
                         " shows the wrong time or values");

        const bool skip = options.perturb == "step-back" && j == 0;
        std::optional<hgdb::rpc::StopEvent> back;
        const double c2 = cpu_seconds();
        const auto t2 = Clock::now();
        {
          Scope span(tracer, "op", "step_back", op);
          if (!skip) {
            Scope call(tracer, "rpc", "step_back");
            client.step_back();
          }
          Scope wait(tracer, "session", "wait_stop");
          back = skip ? landed : client.wait_stop(kWait);
        }
        const auto t3 = Clock::now();
        const double c3 = cpu_seconds();
        report.attempted += 1;
        if (!back) {
          report.failed += 1;
          break;
        }
        step_us.add(us_between(t2, t3));
        round_step_cpu_us.push_back((c3 - c2) * 1e6);
        step_hits += session->waveform->cache_stats().hits - stats1.hits;
        ++jumps;
        report.check(back->time == live.edges[edge - 1] &&
                         frames_match(*back, live, edge - 1),
                     "step-back from edge " + std::to_string(edge) +
                         " did not land one clock period earlier");
      }
      const double nominal = probe.scale();
      if (!round_step_cpu_us.empty()) {
        jump_cpu_us.push_back(median_of(round_jump_cpu_us) * nominal);
        step_cpu_us.push_back(median_of(round_step_cpu_us) * nominal);
      }
      client.resume();
      replay.join();
      session->backend->engine().set_time(0);
    }

    // Direct calls into single layers (traced run only).
    if (tracer != nullptr) {
      IndexedWaveform direct(index);
      hgdb::trace::ReplayEngine engine(
          std::make_shared<IndexedWaveform>(index));
      const auto signal =
          engine.signal_index(live.sampled[conditions[0].var].design_name);
      for (int i = 0; signal && i < 64; ++i) {
        const size_t edge = 1 + rng.below(cycles - 1);
        {
          Scope span(tracer, "trace", "seek_cycle");
          const auto t0 = Clock::now();
          engine.seek_cycle(edge);
          (void)engine.value_at(*signal);
          seek_us.add(us_between(t0, Clock::now()));
        }
        Scope span(tracer, "waveform", "value_at");
        auto t0 = Clock::now();
        (void)direct.value_at(*signal, live.edges[edge]);
        auto t1 = Clock::now();
        (void)direct.value_at(*signal, live.edges[edge - 1]);
        auto t2 = Clock::now();
        random_us.add(us_between(t0, t1));
        sequential_us.add(us_between(t1, t2));
      }
      DiscardSink sink;
      Scope span(tracer, "waveform", "parse");
      const auto t0 = Clock::now();
      hgdb::waveform::VcdStreamParser::parse_file(vcd, sink);
      parse_mb_s.push_back(vcd_mb / seconds_since(t0));
    }
  }

  report.e2e("setup_s", median_of(setup_s), "s");
  report.e2e("rate_per_cpu_s", interquartile_mean(continue_cpu_rate), "1/s");
  report.e2e("rate2_per_cpu_s",
             static_cast<double>(cycles) / interquartile_mean(convert_cpu_s),
             "1/s");
  report.e2e("op_cpu_us", interquartile_mean(jump_cpu_us), "us");
  report.e2e("op2_cpu_us", interquartile_mean(step_cpu_us), "us");
  char cpu_line[256];
  std::snprintf(cpu_line, sizeof(cpu_line),
                "raw CPU: convert %.0f, continue %.0f dump cycles per CPU "
                "second; speed probe median %.0f us (nominal %.0f)",
                static_cast<double>(cycles * rounds) / convert_raw_cpu_s,
                static_cast<double>(cycles * rounds) / continue_raw_cpu_s,
                probe.median_us(), kNominalReferenceUs);
  report.note(cpu_line);
  report.note_latency("jump (request to stop decoded)", jump_us);
  report.note_latency("step-back (request to stop decoded)", step_us);
  char line[320];
  std::snprintf(line, sizeof(line),
                "%llu rounds; dump of %llu cycles, %.1f MB VCD; wall clock: "
                "convert at %u jobs %.1f MB/s (median), continue %.0f "
                "cycles/s with %zu stops per pass",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(cycles), vcd_mb, jobs,
                vcd_mb / median_of(convert_s), median_of(continue_rate),
                expected_stops.size());
  report.note(line);

  if (tracer != nullptr) {
    const double per_jump = jumps ? static_cast<double>(jumps) : 1.0;
    report.layer("waveform.open_ms", median_of(open_ms), "ms");
    report.layer("waveform.convert_mb_per_s", vcd_mb / median_of(convert_s),
                 "MB/s");
    report.layer("waveform.convert_jobs1_mb_per_s", vcd_mb / jobs1_s, "MB/s");
    report.layer("waveform.parse_mb_per_s", median_of(parse_mb_s), "MB/s");
    report.layer("runtime.replay_eval_ns_per_edge",
                 eval_edges > 0 ? eval_ns / eval_edges : 0.0, "ns");
    report.layer("trace.seek_us", seek_us.median(), "us");
    report.layer("waveform.value_at_random_us", random_us.median(), "us");
    report.layer("waveform.value_at_sequential_us", sequential_us.median(),
                 "us");
    report.layer("waveform.cache_misses_per_jump",
                 static_cast<double>(jump_misses) / per_jump, "count");
    report.layer("waveform.cache_hits_per_step",
                 static_cast<double>(step_hits) / per_jump, "count");
  }
  return report;
}

}  // namespace perfbench
