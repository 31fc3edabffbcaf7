#include "bench.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "workloads/workloads.h"

namespace perfbench {

double Samples::quantile(double q) {
  if (kept_ == 0) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.begin() + static_cast<long>(kept_));
    sorted_ = true;
  }
  const double position = q * static_cast<double>(kept_ - 1);
  const auto low = static_cast<size_t>(position);
  const size_t high = std::min(low + 1, kept_ - 1);
  const double frac = position - static_cast<double>(low);
  return values_[low] + (values_[high] - values_[low]) * frac;
}

double Samples::supported_percentile() const {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    const double beyond = static_cast<double>(kept_) * (1.0 - p / 100.0);
    if (beyond >= 10.0) best = p;
  }
  return best;
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t low = n / 4;
  const size_t high = n - n / 4;
  double sum = 0;
  for (size_t i = low; i < high; ++i) sum += values[i];
  return sum / static_cast<double>(high - low);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

namespace {
/// Small sequential id of the calling thread (chrome-trace `tid`).
uint32_t thread_tag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = ++next;
  return tag;
}
}  // namespace

int64_t Tracer::open(const char* layer, const char* name, uint64_t op) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  const uint32_t tid = thread_tag();
  std::lock_guard lock(mutex_);
  auto& stack = stacks_[tid];
  Span span;
  span.name = name;
  span.layer = layer;
  span.start_ns = now;
  span.tid = tid;
  span.parent = stack.empty() ? -1 : stack.back();
  // Children inherit the operation id of the span that caused them.
  span.op = op != 0 || span.parent < 0 ? op : spans_[span.parent].op;
  spans_.push_back(std::move(span));
  const auto index = static_cast<int64_t>(spans_.size() - 1);
  stack.push_back(index);
  return index;
}

void Tracer::close(int64_t index) {
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count();
  std::lock_guard lock(mutex_);
  spans_[index].end_ns = now;
  auto& stack = stacks_[spans_[index].tid];
  if (!stack.empty() && stack.back() == index) stack.pop_back();
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"op\":%llu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.op),
                  static_cast<long long>(s.parent));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

namespace {
/// Per span: summed duration of its direct children.
std::vector<int64_t> child_time(const std::vector<Span>& spans) {
  std::vector<int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  return covered;
}
}  // namespace

std::map<std::string, Tracer::LayerTime> Tracer::self_times() const {
  std::lock_guard lock(mutex_);
  const auto covered = child_time(spans_);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& entry = out[s.layer];
    entry.self_us +=
        static_cast<double>(s.end_ns - s.start_ns - covered[i]) / 1e3;
    ++entry.spans;
  }
  return out;
}

std::map<std::string, Tracer::Gap> Tracer::unattributed() const {
  std::lock_guard lock(mutex_);
  const auto covered = child_time(spans_);
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.layer != "op") continue;
    auto& [gaps, totals] = by_name[s.name];
    gaps.push_back(static_cast<double>(s.end_ns - s.start_ns - covered[i]) /
                   1e3);
    totals.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  std::map<std::string, Gap> out;
  for (auto& [name, pair] : by_name) {
    Gap gap;
    gap.ops = pair.first.size();
    gap.median_unattributed_us = median_of(pair.first);
    gap.median_total_us = median_of(pair.second);
    out[name] = gap;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

void Report::note_latency(const std::string& name, Samples& samples) {
  char line[256];
  std::snprintf(line, sizeof(line),
                "%s: %llu samples, p50 %.2f us, p99 %.2f us, highest "
                "supported percentile p%g",
                name.c_str(), static_cast<unsigned long long>(samples.count()),
                samples.quantile(0.5), samples.quantile(0.99),
                samples.supported_percentile());
  note(line);
}

// ---------------------------------------------------------------------------
// Design fixture
// ---------------------------------------------------------------------------

Design compile_design(const std::string& workload, Tracer* tracer) {
  Scope span(tracer, "frontend", "compile");
  frontend::CompileOptions options;
  options.debug_mode = true;
  auto compiled =
      frontend::compile(hgdb::workloads::workload(workload).build(), options);
  Design design;
  design.top = hgdb::workloads::workload(workload).top;
  design.table =
      std::make_unique<symbols::MemorySymbolTable>(std::move(compiled.symbols));
  design.simulator =
      std::make_unique<sim::Simulator>(std::move(compiled.netlist));
  return design;
}

std::vector<std::pair<std::string, uint32_t>> source_locations(
    const symbols::SymbolTable& table) {
  std::vector<std::pair<std::string, uint32_t>> out;
  std::set<std::pair<std::string, uint32_t>> seen;
  for (const auto& row : table.all_breakpoints()) {
    if (seen.emplace(row.filename, row.line_num).second) {
      out.emplace_back(row.filename, row.line_num);
    }
  }
  return out;
}

namespace {

/// A connected loopback TCP pair, made on first use and kept for the run
/// (a new connection per probe would pile up TIME_WAIT sockets).
struct LoopbackPair {
  int a = -1;
  int b = -1;
  LoopbackPair() {
    const int listener = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof(addr);
    auto* raw = reinterpret_cast<sockaddr*>(&addr);
    const bool listening = listener >= 0 && bind(listener, raw, length) == 0 &&
                           listen(listener, 1) == 0 &&
                           getsockname(listener, raw, &length) == 0;
    if (listening) {
      a = socket(AF_INET, SOCK_STREAM, 0);
      if (a >= 0 && connect(a, raw, length) == 0) {
        b = accept(listener, nullptr, nullptr);
      }
    }
    if (listener >= 0) close(listener);
    if (b < 0) throw std::runtime_error("speed probe: loopback connect failed");
    const int one = 1;
    for (int fd : {a, b}) {
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~LoopbackPair() {
    for (int fd : {a, b}) {
      if (fd >= 0) close(fd);
    }
  }
  LoopbackPair(const LoopbackPair&) = delete;
  LoopbackPair& operator=(const LoopbackPair&) = delete;
};

/// One byte there and back, `count` times; false on any short transfer.
bool bounce(int out, int in, int count) {
  char byte = 'x';
  for (int i = 0; i < count; ++i) {
    if (write(out, &byte, 1) != 1 || read(in, &byte, 1) != 1) return false;
  }
  return true;
}

/// The far end of bounce(): reads a byte, sends it back.
bool echo(int in, int out, int count) {
  char byte = 0;
  for (int i = 0; i < count; ++i) {
    if (read(in, &byte, 1) != 1 || write(out, &byte, 1) != 1) return false;
  }
  return true;
}

}  // namespace

double reference_cpu_us() {
  constexpr size_t kKeys = 1u << 15;
  constexpr int kPipeTrips = 450;
  constexpr int kTcpTrips = 300;
  static std::vector<uint32_t> keys(kKeys);
  static LoopbackPair tcp;
  static volatile uint64_t sink = 0;
  int there[2], back[2];
  if (pipe(there) != 0) throw std::runtime_error("speed probe: pipe failed");
  if (pipe(back) != 0) {
    close(there[0]);
    close(there[1]);
    throw std::runtime_error("speed probe: pipe failed");
  }
  const double start = cpu_seconds();
  Rng rng(0x5eed);
  for (auto& key : keys) key = static_cast<uint32_t>(rng.next());
  std::sort(keys.begin(), keys.end());
  uint64_t sum = 0;
  for (size_t i = 0; i < kKeys; i += 97) sum += keys[i];
  std::thread peer([&] {
    if (echo(there[0], back[1], kPipeTrips)) echo(tcp.b, tcp.b, kTcpTrips);
  });
  const bool ok = bounce(there[1], back[0], kPipeTrips) &&
                  bounce(tcp.a, tcp.a, kTcpTrips);
  if (!ok) {
    // Wake the peer wherever it waits, so that it can be joined.
    close(there[1]);
    there[1] = -1;
    shutdown(tcp.a, SHUT_RDWR);
  }
  peer.join();
  const double us = (cpu_seconds() - start) * 1e6;
  for (int fd : {there[0], there[1], back[0], back[1]}) {
    if (fd >= 0) close(fd);
  }
  if (!ok) throw std::runtime_error("speed probe: round trip failed");
  sink = sink + sum;
  return us;
}

int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
