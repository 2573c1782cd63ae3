// Shared plumbing of the perfbench program: host clocks, the span log of the
// traced run, seeded input generation and the raw result every workload
// fills. Statistics (medians, quartiles, percentiles) are computed by
// perfbench/run.py from the raw samples this program prints, so there is
// exactly one implementation of them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <time.h>

#include "runtime/world.hpp"
#include "unr/unr.hpp"

namespace perfbench {

/// Host monotonic clock in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds elapsed since `t0_ns`.
inline double since_s(std::int64_t t0_ns) {
  return static_cast<double>(host_ns() - t0_ns) * 1e-9;
}

/// CPU time of this process (user + system, all threads) in nanoseconds.
/// Unlike wall time it leaves out time the process waited for a CPU:
/// behind other processes, and, on a virtual machine with steal-time
/// accounting, while the hypervisor ran another guest on the vCPU.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// CPU seconds used since `t0_ns` (a cpu_ns() reading).
inline double cpu_since_s(std::int64_t t0_ns) {
  return static_cast<double>(cpu_ns() - t0_ns) * 1e-9;
}

/// Wall and CPU time of one timed region, started at construction.
struct Stopwatch {
  std::int64_t wall0 = host_ns();
  std::int64_t cpu0 = cpu_ns();
};

/// splitmix64: the benchmark's own input generator. Inputs depend only on
/// the seed and this function, never on the program's RNG, so a change to
/// the program cannot change what the benchmark feeds it.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : s_(mix64(seed)) {}
  std::uint64_t next() { return mix64(s_++); }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Log-uniform integer in [lo, hi].
  std::uint64_t log_uniform(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t s_;
};

/// One host-time span of the traced run: a call the benchmark made into a
/// layer's public API. `parent` is the enclosing span (0 = none); spans of
/// one service request share `req`.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  const char* name = "";
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log, written out once at the end of the run. One log per
/// OS thread (not thread-safe); ids come from a process-wide counter so the
/// logs of several threads merge without renumbering.
class SpanLog {
 public:
  /// Start a span now; returns its index in this log (for close()).
  std::size_t open(const char* name, std::uint32_t parent, std::uint64_t req = 0) {
    spans_.push_back(Span{next_id(), parent, name, req, host_ns(), 0});
    return spans_.size() - 1;
  }
  void close(std::size_t index) { spans_[index].end_ns = host_ns(); }
  std::uint32_t id_at(std::size_t index) const { return spans_[index].id; }
  /// Record an already-timed span.
  void add(const char* name, std::uint32_t parent, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t req = 0) {
    spans_.push_back(Span{next_id(), parent, name, req, start_ns, end_ns});
  }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static std::uint32_t next_id() {
    static std::atomic<std::uint32_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<Span> spans_;
};

/// Scoped span on an optional log: a no-op when `log` is null (untraced
/// repetitions), so the untraced path pays one branch.
class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, std::uint32_t parent, std::uint64_t req = 0)
      : log_(log), index_(log ? log->open(name, parent, req) : 0) {}
  ~SpanScope() {
    if (log_) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  /// Id to pass as a child's parent (0 when untraced).
  std::uint32_t id() const { return log_ ? log_->id_at(index_) : 0; }

 private:
  SpanLog* log_;
  std::size_t index_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

/// Everything one workload run reports. Samples are raw per-repetition (or
/// per-request) values; run.py turns them into medians and percentiles.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;  ///< per-layer scalars
  /// Simulations of the last untraced repetition, one JSON object each with
  /// "events", "virtual_ns" and "metrics" (the run's "unr-metrics-v1"
  /// registry dump); run.py sums the layer counters over them.
  std::vector<std::string> runs;
  SpanLog spans;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 10) failures.push_back(what);
  }
};

struct Rep {
  int index = 0;
  bool warmup = false;  ///< first repetition: checked, but its time is not recorded
  bool traced = false;  ///< records spans; its times go to run_traced_s / run_traced_cpu_s
};

/// Record one repetition's wall and CPU seconds (nothing for the warm-up):
/// run_s / run_cpu_s, or run_traced_s / run_traced_cpu_s for a traced one.
inline void record_run(Result& out, const Rep& r, double wall_s, double cpu_s) {
  if (r.warmup) return;
  out.samples[r.traced ? "run_traced_s" : "run_s"].push_back(wall_s);
  out.samples[r.traced ? "run_traced_cpu_s" : "run_cpu_s"].push_back(cpu_s);
}

/// Repetition loop: keep going until `seconds` of wall time have passed and
/// enough repetitions ran. Repetition 0 warms caches, pools and the
/// allocator and is not timed. A traced run then alternates untraced and
/// traced repetitions as U T T U U T T U ..., so drift falls on both sides.
class RepClock {
 public:
  RepClock(double seconds, bool trace)
      : t0_(host_ns()), seconds_(seconds), trace_(trace), min_reps_(trace ? 5 : 3) {}
  bool more() const { return reps_ < min_reps_ || since_s(t0_) < seconds_; }
  Rep next() {
    Rep r;
    r.index = reps_++;
    r.warmup = r.index == 0;
    const int k = (r.index - 1) % 4;
    r.traced = trace_ && !r.warmup && (k == 1 || k == 2);
    return r;
  }

 private:
  std::int64_t t0_;
  double seconds_;
  bool trace_;
  int min_reps_;
  int reps_ = 0;
};

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mib();

/// Extra set-ups each repetition times and discards, on top of the one it
/// uses, so the set-up median rests on many samples spread over the run
/// rather than on a burst taken at one moment.
inline constexpr int kSetupsPerRep = 4;

struct WorldSetup {
  std::unique_ptr<unr::runtime::World> world;
  std::unique_ptr<unr::unrlib::Unr> lib;
  double seconds = 0;  ///< CPU seconds of World + Unr construction
};
/// Construct a World and its Unr, recording the sim.world_setup_s and
/// unr.setup_s samples in CPU seconds (and spans, when `log` is set).
WorldSetup build_world(const unr::runtime::World::Config& wc, Result& out, SpanLog* log,
                       std::uint32_t parent);

/// The "runs" entry for a World this benchmark owns: kernel totals, pool
/// sizes and the registry dump.
std::string world_run_json(unr::runtime::World& world);

void run_powerllel_16n(const Args& args, Result& out);
void run_allreduce_256n(const Args& args, Result& out);
void run_rma_storm(const Args& args, Result& out);
void run_service_mix(const Args& args, Result& out);

}  // namespace perfbench
