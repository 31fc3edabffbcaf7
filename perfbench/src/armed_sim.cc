// armed-sim: what a user pays in simulation speed for attaching hgdb and
// for arming breakpoints (the paper's Fig. 5). Three cells of the same
// multi-instance design run in one process, in interleaved slices of the
// same cycle count, so drift in machine speed hits every cell alike:
//   detached  plain simulation;
//   attached  the runtime attached, nothing armed (Fig. 5's configuration);
//   armed     a conditional breakpoint at every source location.
// The armed conditions can never be true. Half of the locations read a
// signal that changes every cycle (the compiled-eval path), half a signal
// that never changes (the dirty-skip path). One extra control condition
// fires on cycles the benchmark predicts from the detached cell, which
// doubles as the armed cell's detached twin.
#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "runtime/runtime.h"
#include "vpi/native_backend.h"

namespace perfbench {
namespace {

using hgdb::runtime::Runtime;
using hgdb::vpi::NativeBackend;

constexpr const char* kDesign = "mt-vvadd";
constexpr uint64_t kSliceCycles = 500;
constexpr uint64_t kProbeCycles = 64;
constexpr uint64_t kControlModulus = 251;
constexpr int kSetupReps = 15;

/// Signals a condition can read, split by how often they change.
struct SignalPools {
  std::vector<const hgdb::netlist::Signal*> hot;    ///< changed every cycle
  std::vector<const hgdb::netlist::Signal*> quiet;  ///< never changed
};

SignalPools probe_signals(sim::Simulator& probe) {
  const auto& signals = probe.netlist().signals();
  std::vector<hgdb::common::BitVector> last;
  std::vector<uint64_t> changes(signals.size(), 0);
  for (const auto& s : signals) last.push_back(probe.value(s.id));
  for (uint64_t c = 0; c < kProbeCycles; ++c) {
    probe.tick();
    for (size_t i = 0; i < signals.size(); ++i) {
      const auto& now = probe.value(signals[i].id);
      if (!(now == last[i])) {
        ++changes[i];
        last[i] = now;
      }
    }
  }
  SignalPools pools;
  for (size_t i = 0; i < signals.size(); ++i) {
    const auto& s = signals[i];
    if (s.name.empty() || s.is_clock || s.width > 32) continue;
    if (changes[i] == kProbeCycles) pools.hot.push_back(&s);
    if (changes[i] == 0) pools.quiet.push_back(&s);
  }
  return pools;
}

std::string never_true(const hgdb::netlist::Signal& s) {
  const uint64_t max = s.width >= 64 ? ~0ull : (1ull << s.width) - 1;
  return s.name + " > " + std::to_string(max);
}

/// The arm plan: one never-true condition per location plus the control.
struct ArmPlan {
  std::vector<std::pair<std::pair<std::string, uint32_t>, std::string>> arms;
  std::pair<std::string, uint32_t> control_location;
  std::string control_condition;
  std::string control_signal;
  uint64_t control_residue = 0;
  size_t control_rows = 0;
  size_t hot_arms = 0;
};

ArmPlan make_plan(const symbols::SymbolTable& table, const SignalPools& pools,
                  Rng& rng) {
  ArmPlan plan;
  const auto locations = source_locations(table);
  // Exactly half the locations read a hot signal whatever the seed; the
  // seed decides which locations and which signals.
  std::vector<size_t> order(locations.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  std::vector<bool> hot(locations.size(), false);
  for (size_t i = 0; i < order.size() / 2; ++i) hot[order[i]] = true;
  for (size_t i = 0; i < locations.size(); ++i) {
    const auto& pool = hot[i] ? pools.hot : pools.quiet;
    plan.arms.emplace_back(locations[i],
                           never_true(*pool[rng.below(pool.size())]));
    plan.hot_arms += hot[i] ? 1 : 0;
  }
  // The control arm sits on a location whose rows are always enabled, so
  // every predicted cycle stops with one frame per row.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < locations.size(); ++i) {
    const auto rows = table.breakpoints_at(locations[i].first,
                                           locations[i].second);
    bool always = true;
    for (const auto& row : rows) always = always && row.enable.empty();
    if (always) candidates.push_back(i);
  }
  const size_t pick = candidates[rng.below(candidates.size())];
  plan.control_location = locations[pick];
  plan.control_rows = table
                          .breakpoints_at(plan.control_location.first,
                                          plan.control_location.second)
                          .size();
  std::vector<const hgdb::netlist::Signal*> wide;
  for (const auto* s : pools.hot) {
    if (s->width >= 16) wide.push_back(s);
  }
  plan.control_signal = wide[rng.below(wide.size())]->name;
  plan.control_residue = rng.below(kControlModulus);
  plan.control_condition = plan.control_signal + " % " +
                           std::to_string(kControlModulus) +
                           " == " + std::to_string(plan.control_residue);
  return plan;
}

/// One simulated configuration. Declaration order matters: the runtime
/// must be destroyed before the backend and simulator it points at.
struct Cell {
  const char* name = "";
  Design design;
  std::unique_ptr<NativeBackend> backend;
  std::unique_ptr<Runtime> runtime;
  Samples tick_us;
  double seconds = 0;
  double cpu_s = 0;
  uint64_t cycles = 0;
  std::vector<double> slice_rates;  ///< wall cycles per second, per slice
  std::vector<double> nominal_us;   ///< nominal CPU us per cycle, per slice
};

}  // namespace

Report run_armed_sim(const RunOptions& options) {
  Report report;
  Tracer* tracer = options.tracer;
  Rng rng(options.seed);

  // Inputs: which signals change is a property of the design, read off a
  // probe simulation; the seed then draws the arm plan from them.
  Design probe_design = compile_design(kDesign, nullptr);
  const SignalPools pools = probe_signals(*probe_design.simulator);
  report.check(!pools.hot.empty() && !pools.quiet.empty(),
               "probe found no hot or no quiet signals");
  if (!report.correct) return report;
  const ArmPlan plan = make_plan(*probe_design.table, pools, rng);

  // Set-up a user waits through: compile, symbol table, attach, arm every
  // location. Repeated; the median of its nominal CPU time is reported.
  Cell detached, attached, armed;
  detached.name = "detached";
  attached.name = "attached";
  armed.name = "armed";
  std::vector<double> setup_s, compile_ms, arm_ms;
  SpeedProbe setup_probe;
  std::vector<uint64_t> control_stops;  // tick index of each control stop
  uint64_t armed_ticks = 0;
  std::vector<hgdb::rpc::StopEvent> bad_stops;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    armed.runtime.reset();
    armed.backend.reset();
    setup_probe.mark();
    Scope span(tracer, "op", "setup");
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    armed.design = compile_design(kDesign, tracer);
    const auto t1 = Clock::now();
    armed.backend = std::make_unique<NativeBackend>(*armed.design.simulator);
    {
      Scope arm_span(tracer, "runtime", "attach_and_arm");
      armed.runtime =
          std::make_unique<Runtime>(*armed.backend, *armed.design.table);
      armed.runtime->attach();
      for (const auto& [location, condition] : plan.arms) {
        armed.runtime->add_breakpoint(location.first, location.second,
                                      condition);
      }
      armed.runtime->add_breakpoint(plan.control_location.first,
                                    plan.control_location.second,
                                    plan.control_condition);
    }
    const auto t2 = Clock::now();
    setup_s.push_back((cpu_seconds() - c0) * setup_probe.scale());
    compile_ms.push_back(us_between(t0, t1) / 1e3);
    arm_ms.push_back(us_between(t1, t2) / 1e3);
  }
  armed.runtime->set_stop_handler([&](const hgdb::rpc::StopEvent& event) {
    bool ok = !event.frames.empty();
    for (const auto& frame : event.frames) {
      ok = ok && frame.filename == plan.control_location.first &&
           frame.line == plan.control_location.second &&
           frame.matched_conditions.size() == 1 &&
           frame.matched_conditions[0] == plan.control_condition;
    }
    ok = ok && event.frames.size() == plan.control_rows;
    if (!ok && bad_stops.size() < 4) bad_stops.push_back(event);
    control_stops.push_back(armed_ticks + 1);
    return Runtime::Command::Continue;
  });

  detached.design = compile_design(kDesign, nullptr);
  attached.design = compile_design(kDesign, nullptr);
  attached.backend = std::make_unique<NativeBackend>(*attached.design.simulator);
  attached.runtime =
      std::make_unique<Runtime>(*attached.backend, *attached.design.table);
  attached.runtime->attach();

  const auto control_id =
      detached.design.simulator->signal_id(plan.control_signal);
  report.check(control_id.has_value(), "control signal missing");
  if (!report.correct) return report;
  std::vector<uint64_t> predicted;
  uint64_t detached_ticks = 0;

  // Measurement: rounds of one slice per cell; the cell order rotates so
  // no cell always runs first after another cell warmed the caches.
  Cell* cells[3] = {&detached, &attached, &armed};
  std::vector<double> attached_delta_ns, armed_delta_ns, armed_extra_us;
  SpeedProbe probe;
  probe.mark();
  const auto start = Clock::now();
  uint64_t rounds = 0;
  while (seconds_since(start) < options.seconds) {
    double slice_ns[3] = {0, 0, 0};
    double slice_cpu_us[3] = {0, 0, 0};
    for (int k = 0; k < 3; ++k) {
      const int which = static_cast<int>((rounds + k) % 3);
      Cell& cell = *cells[which];
      sim::Simulator& simulator = *cell.design.simulator;
      Scope span(tracer, which == 0 ? "sim" : "runtime", cell.name);
      const double cpu_start = cpu_seconds();
      const auto slice_start = Clock::now();
      auto before = slice_start;
      for (uint64_t c = 0; c < kSliceCycles; ++c) {
        simulator.tick();
        const auto after = Clock::now();
        cell.tick_us.add(us_between(before, after));
        before = after;
        if (which == 0) {
          ++detached_ticks;
          const uint64_t v = simulator.value(*control_id).to_uint64();
          if (v % kControlModulus == plan.control_residue) {
            predicted.push_back(detached_ticks);
          }
        } else if (which == 2) {
          ++armed_ticks;
        }
      }
      const double elapsed = seconds_since(slice_start);
      const double cpu = cpu_seconds() - cpu_start;
      cell.seconds += elapsed;
      cell.cpu_s += cpu;
      cell.cycles += kSliceCycles;
      cell.slice_rates.push_back(static_cast<double>(kSliceCycles) / elapsed);
      slice_ns[which] = elapsed * 1e9 / static_cast<double>(kSliceCycles);
      slice_cpu_us[which] = cpu * 1e6 / static_cast<double>(kSliceCycles);
    }
    const double nominal = probe.scale();
    for (int which = 0; which < 3; ++which) {
      cells[which]->nominal_us.push_back(slice_cpu_us[which] * nominal);
    }
    attached_delta_ns.push_back(slice_ns[1] - slice_ns[0]);
    armed_delta_ns.push_back(slice_ns[2] - slice_ns[0]);
    armed_extra_us.push_back((slice_cpu_us[2] - slice_cpu_us[0]) * nominal);
    ++rounds;
    // hgdb must not perturb the design: all three cells are at the same
    // cycle after every round and must hold the same checksum.
    const std::string checksum_name = detached.design.top + ".checksum";
    const auto reference = detached.design.simulator->value(checksum_name);
    auto armed_value = armed.design.simulator->value(checksum_name);
    if (options.perturb == "checksum" && rounds == 1) {
      armed_value = hgdb::common::BitVector(armed_value.width(),
                                           armed_value.to_uint64() + 1);
    }
    const bool same =
        attached.design.simulator->value(checksum_name) == reference &&
        armed_value == reference;
    report.check(same, "checksum differs between cells after round " +
                           std::to_string(rounds));
    report.attempted += 3;
  }

  report.check(bad_stops.empty(),
               "a stop other than the control condition's was delivered");
  report.check(control_stops == predicted,
               "control condition fired on " +
                   std::to_string(control_stops.size()) +
                   " cycles, predicted " + std::to_string(predicted.size()));

  // The gated figures are nominal CPU time per cycle, interquartile means
  // over rounds. Wall-clock and raw CPU rates are printed beside them.
  const double armed_rate = median_of(armed.slice_rates);
  const double attached_rate = median_of(attached.slice_rates);
  const double detached_rate = median_of(detached.slice_rates);
  report.e2e("setup_s", median_of(setup_s), "s");
  report.e2e("rate_per_cpu_s", 1e6 / interquartile_mean(armed.nominal_us),
             "1/s");
  report.e2e("rate2_per_cpu_s", 1e6 / interquartile_mean(attached.nominal_us),
             "1/s");
  report.e2e("op_cpu_us", interquartile_mean(detached.nominal_us), "us");
  report.e2e("op2_cpu_us", interquartile_mean(armed_extra_us), "us");
  char cpu_line[256];
  std::snprintf(cpu_line, sizeof(cpu_line),
                "raw CPU: detached %.0f, attached %.0f, armed %.0f cycles per "
                "CPU second; speed probe median %.0f us (nominal %.0f)",
                static_cast<double>(detached.cycles) / detached.cpu_s,
                static_cast<double>(attached.cycles) / attached.cpu_s,
                static_cast<double>(armed.cycles) / armed.cpu_s,
                probe.median_us(), kNominalReferenceUs);
  report.note(cpu_line);
  report.note_latency("armed cycle", armed.tick_us);
  report.note_latency("attached cycle", attached.tick_us);
  report.note_latency("detached cycle", detached.tick_us);

  char line[256];
  std::snprintf(line, sizeof(line),
                "%llu rounds of %llu cycles per cell; wall clock: detached "
                "%.0f, attached %.0f (%+.2f%%), armed %.0f cycles/s; %zu arms "
                "(%zu hot), %zu control stops",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(kSliceCycles), detached_rate,
                attached_rate, (detached_rate / attached_rate - 1) * 100,
                armed_rate, plan.arms.size(), plan.hot_arms,
                control_stops.size());
  report.note(line);

  const auto stats = armed.runtime->stats();
  const double edges = static_cast<double>(std::max<uint64_t>(1, stats.clock_edges));
  report.layer("frontend.compile_ms", median_of(compile_ms), "ms");
  report.layer("runtime.arm_ms", median_of(arm_ms), "ms");
  report.layer("sim.ns_per_cycle", detached.seconds * 1e9 /
                                       static_cast<double>(detached.cycles),
               "ns");
  report.layer("runtime.attached_edge_ns", median_of(attached_delta_ns), "ns");
  report.layer("runtime.armed_edge_ns", median_of(armed_delta_ns), "ns");
  report.layer("runtime.eval_ns_per_edge",
               static_cast<double>(stats.eval_ns) / edges, "ns");
  report.layer("runtime.conditions_evaluated_per_edge",
               static_cast<double>(stats.conditions_evaluated) / edges, "count");
  report.layer("runtime.dirty_skips_per_edge",
               static_cast<double>(stats.dirty_skips) / edges, "count");
  report.layer("runtime.batch_signals_per_edge",
               static_cast<double>(stats.batch_signals) / edges, "count");
  return report;
}

}  // namespace perfbench
