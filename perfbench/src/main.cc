// End-to-end benchmark of the hgdb reproduction.
//
//   perfbench --workload armed-sim|interactive|replay --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//             [--perturb checksum|step-back|shard]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 is the separate traced run: every workload runs twice
// in this process, untraced then traced, each for a sixth of --seconds;
// the traced passes supply every per-layer metric, a chrome-trace file per
// workload, a per-layer self-time table, and the tracing overhead against
// the untraced pass. --perturb corrupts one output on purpose, to show that
// the checks catch it (the run must then fail). Every run first confines
// the process to one CPU (pin_to_one_cpu in bench.h).
//
// The last line of standard output is the result as one JSON object.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  Report (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"armed-sim", run_armed_sim},
    {"interactive", run_interactive},
    {"replay", run_replay},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "armed-sim|interactive|replay --seed N --seconds S --trace "
               "0|1 [--work-dir DIR] [--trace-dir DIR] [--perturb KIND]\n",
               why);
  std::exit(2);
}

void print_notes(const char* workload, const Report& report) {
  for (const auto& line : report.notes) {
    std::printf("# %s: %s\n", workload, line.c_str());
  }
  for (const auto& line : report.errors) {
    std::printf("# %s: CHECK FAILED: %s\n", workload, line.c_str());
  }
}

void print_metrics(const char* workload, const char* kind,
                   const std::map<std::string, Report::Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("# %s %s %-40s %14.4f %s\n", workload, kind, name.c_str(),
                metric.value, metric.unit.c_str());
  }
}

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::map<std::string, Report::Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + fmt(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// The traced run: untraced and traced pass of every workload.
bool traced_run(const RunOptions& base, const std::string& trace_dir,
                uint64_t& attempted, uint64_t& failed,
                std::map<std::string, Report::Metric>& per_layer) {
  bool correct = true;
  std::filesystem::create_directories(trace_dir);
  for (const auto& workload : kWorkloads) {
    RunOptions pass = base;
    pass.seconds = base.seconds / 6;
    const Report plain = workload.run(pass);
    Tracer tracer;
    pass.tracer = &tracer;
    const Report traced = workload.run(pass);
    print_notes(workload.name, traced);
    correct = correct && plain.correct && traced.correct;
    attempted += plain.attempted + traced.attempted;
    failed += plain.failed + traced.failed;
    for (const auto& [name, metric] : traced.per_layer) {
      per_layer[name] = metric;
    }
    for (const auto& [name, metric] : traced.end_to_end) {
      const auto it = plain.end_to_end.find(name);
      if (it == plain.end_to_end.end() || it->second.value == 0) continue;
      std::printf("# %s tracing overhead %-18s untraced %12.4f traced %12.4f "
                  "(%+.2f%%)\n",
                  workload.name, name.c_str(), it->second.value, metric.value,
                  (metric.value / it->second.value - 1) * 100);
    }
    for (const auto& [layer, time] : tracer.self_times()) {
      std::printf("# %s layer %-10s self %12.1f us over %llu spans\n",
                  workload.name, layer.c_str(), time.self_us,
                  static_cast<unsigned long long>(time.spans));
    }
    for (const auto& [op, gap] : tracer.unattributed()) {
      std::printf("# %s op %-14s median %10.2f us, unattributed %8.2f us "
                  "(%.1f%%) over %llu ops\n",
                  workload.name, op.c_str(), gap.median_total_us,
                  gap.median_unattributed_us,
                  gap.median_total_us > 0
                      ? 100 * gap.median_unattributed_us / gap.median_total_us
                      : 0.0,
                  static_cast<unsigned long long>(gap.ops));
    }
    const std::string path = trace_dir + "/" + workload.name + "-seed" +
                             std::to_string(base.seed) + ".json";
    if (tracer.write_chrome_trace(path)) {
      std::printf("# %s chrome trace: %s (%zu spans)\n", workload.name,
                  path.c_str(), tracer.size());
    } else {
      std::printf("# %s could not write %s\n", workload.name, path.c_str());
      correct = false;
    }
  }
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  std::string trace_dir = ".bench_build/perfbench-traces";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace") {
      trace = value == "1" ? 1 : value == "0" ? 0 : -1;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--trace-dir") {
      trace_dir = value;
    } else if (arg == "--perturb") {
      options.perturb = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const auto& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || trace < 0) {
    usage("--seed, --seconds and --trace are required");
  }
  if (options.work_dir.empty()) {
    options.work_dir =
        ".bench_build/perfbench-work." + std::to_string(::getpid());
  }
  std::filesystem::create_directories(options.work_dir);
  // Before any thread starts, so that every thread of the run inherits it.
  const int cpu = pin_to_one_cpu();
  std::printf("# confined to CPU %d\n", cpu);

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Report::Metric> metrics;
  try {
    if (trace == 0) {
      Report report = workload->run(options);
      report.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
      print_notes(workload->name, report);
      print_metrics(workload->name, "end-to-end", report.end_to_end);
      print_metrics(workload->name, "per-layer (untraced)", report.per_layer);
      correct = report.correct;
      attempted = report.attempted;
      failed = report.failed;
      metrics = report.end_to_end;
    } else {
      correct = traced_run(options, trace_dir, attempted, failed, metrics);
      print_metrics("all", "per-layer", metrics);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    std::filesystem::remove_all(options.work_dir);
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);
  correct = correct && attempted > 0;
  print_result(correct, attempted, failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
