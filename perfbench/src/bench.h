// Shared pieces of the end-to-end benchmark: timing, sample statistics,
// the span recorder used by traced runs, the per-run report, and the
// compiled-design fixture every workload starts from.
#ifndef HGDB_PERFBENCH_BENCH_H
#define HGDB_PERFBENCH_BENCH_H

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "frontend/compile.h"
#include "sim/simulator.h"
#include "symbols/symbol_table.h"

namespace perfbench {

namespace frontend = hgdb::frontend;
namespace sim = hgdb::sim;
namespace symbols = hgdb::symbols;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of the whole process (every thread), in seconds. It does not
/// advance while the process waits or while the host runs other guests on
/// this machine's virtual CPUs (steal time), so per-operation CPU time
/// moves with the program's work and much less with the host's load than
/// wall time does.
inline double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// --seed so one seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t bound) { return next() % bound; }

 private:
  uint64_t state_;
};

/// Latency samples in a buffer allocated and touched up front, so the
/// process's peak RSS does not depend on how many samples a run collects.
/// Samples past the capacity are counted but not kept.
class Samples {
 public:
  explicit Samples(size_t capacity = 1u << 18) : values_(capacity, 0.0f) {}
  void add(double value) {
    if (kept_ < values_.size()) values_[kept_++] = static_cast<float>(value);
    ++count_;
  }
  [[nodiscard]] uint64_t count() const { return count_; }
  /// Linear-interpolated quantile of the kept samples (q in [0, 1]).
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double median() { return quantile(0.5); }
  /// The highest of p50/p90/p99/p99.9 with at least ten samples above it
  /// (0 when even p50 has fewer).
  [[nodiscard]] double supported_percentile() const;

 private:
  std::vector<float> values_;
  size_t kept_ = 0;
  uint64_t count_ = 0;
  bool sorted_ = false;
};

double median_of(std::vector<double> values);

/// Mean of the middle half of the values (the interquartile mean). A
/// figure that flips between two levels from round to round moves it in
/// proportion to how often it flips, where it would move a median all at
/// once; the outer quarters keep single stalls out of it.
double interquartile_mean(std::vector<double> values);

/// One recorded span: a call into a layer, timed from the benchmark side.
struct Span {
  std::string name;
  std::string layer;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  ///< index of the enclosing span on the same thread
  uint64_t op = 0;      ///< operation id shared by one stop, batch or jump
  uint32_t tid = 0;
};

/// In-memory span recorder for traced runs. Spans nest per thread; the
/// chrome-trace file is written once, when the run ends.
class Tracer {
 public:
  int64_t open(const char* layer, const char* name, uint64_t op);
  void close(int64_t index);
  uint64_t next_op() { return ++ops_; }
  /// Writes chrome://tracing / Perfetto JSON.
  bool write_chrome_trace(const std::string& path) const;
  /// Per layer: summed self time (span minus its children) and count.
  struct LayerTime {
    double self_us = 0;
    uint64_t spans = 0;
  };
  [[nodiscard]] std::map<std::string, LayerTime> self_times() const;
  /// Per root-span name: median of the part of the root's duration that
  /// no child span covers, and the median root duration.
  struct Gap {
    double median_unattributed_us = 0;
    double median_total_us = 0;
    uint64_t ops = 0;
  };
  [[nodiscard]] std::map<std::string, Gap> unattributed() const;
  [[nodiscard]] size_t size() const { return spans_.size(); }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<uint32_t, std::vector<int64_t>> stacks_;  ///< open spans per thread
  uint64_t ops_ = 0;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span; a no-op when the run is untraced (tracer == nullptr).
class Scope {
 public:
  Scope(Tracer* tracer, const char* layer, const char* name, uint64_t op = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(layer, name, op) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// What one workload run hands back to main: metrics by name, operation
/// counts, and whether every check held.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  /// Human-readable lines (sample counts, supported percentiles).
  std::vector<std::string> notes;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// Records a failed check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes.push_back(line); }
  /// Notes a latency's sample count and its highest supported percentile.
  void note_latency(const std::string& name, Samples& samples);
};

/// Options every workload receives.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  Tracer* tracer = nullptr;     ///< non-null in the traced run
  std::string work_dir;         ///< scratch directory inside the checkout
  std::string perturb;          ///< deliberate output corruption (self-test)
};

/// A compiled Fig. 5 design: the symbol table and a simulator ready to run.
struct Design {
  std::unique_ptr<symbols::MemorySymbolTable> table;
  std::unique_ptr<sim::Simulator> simulator;
  std::string top;
};
/// Compiles the named workload in debug mode (every statement keeps a
/// breakpoint, the configuration a user debugs in).
Design compile_design(const std::string& workload, Tracer* tracer);

/// Every distinct (file, line) with at least one breakpoint row, in
/// scheduling order.
std::vector<std::pair<std::string, uint32_t>> source_locations(
    const symbols::SymbolTable& table);

/// Process CPU microseconds for one fixed piece of work that does not use
/// the program under test: a probe of the machine's momentary speed. It
/// does the kinds of work the benchmark's operations do: computation
/// (sorting 32768 seeded keys) and hand-offs between two threads through
/// the kernel (450 one-byte round trips over a pair of pipes, then 300
/// over a loopback TCP connection). Call it only while the program's own
/// threads are idle.
double reference_cpu_us();

/// The reference work's CPU time on the nominal machine every end-to-end
/// CPU figure is scaled to (about its median on the 4-vCPU Xeon virtual
/// machine the reference figures in README.md come from).
constexpr double kNominalReferenceUs = 6000;

/// Scales CPU times to the nominal machine. The speed of a shared virtual
/// CPU drifts by tens of per cent within seconds (its host core's other
/// load, cache contention); the reference work, run right before and right
/// after a measured stretch, tracks that drift and takes it out.
class SpeedProbe {
 public:
  /// Probes now; call right before a measured stretch.
  void mark() { before_ = reference_cpu_us(); }
  /// Probes again and returns the factor that turns a CPU time measured
  /// since mark() into nominal CPU time. The probe also marks the start of
  /// the next stretch.
  double scale() {
    const double after = reference_cpu_us();
    const double factor = 2 * kNominalReferenceUs / (before_ + after);
    before_ = after;
    probes_.push_back(after);
    return factor;
  }
  /// Median reference CPU time over the run, microseconds.
  [[nodiscard]] double median_us() const { return median_of(probes_); }

 private:
  double before_ = 0;
  std::vector<double> probes_;
};

/// Confines this process to one CPU, the last it may use, and returns its
/// number (-1 if it could not). Call before any thread starts: every later
/// thread inherits it. On one CPU, hand-offs between the program's threads
/// are local wake-ups instead of cross-CPU ones whose cost depends on where
/// the host runs the other virtual CPUs, and the speed probe runs on the
/// CPU it speaks for.
int pin_to_one_cpu();

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Formats a double with full precision for the JSON result line.
std::string fmt(double value);

Report run_armed_sim(const RunOptions& options);
Report run_interactive(const RunOptions& options);
Report run_replay(const RunOptions& options);

}  // namespace perfbench

#endif  // HGDB_PERFBENCH_BENCH_H
