// allreduce_256n: the scenario pack's ai_ring_allreduce on 256 nodes x 1
// rank, built by Pattern::make and run through check::run_workload. Host
// time splits between the reference oracle (run_workload checks every
// element in line) and ~1.2M kernel events at 256 fiber actors.
#include <string>

#include "bench.hpp"
#include "check/oracle.hpp"
#include "check/runner.hpp"
#include "scenarios/traffic.hpp"
#include "unr/unr.hpp"

namespace perfbench {
namespace {

using namespace unr;

scenarios::TrafficParams params(std::uint64_t seed) {
  scenarios::TrafficParams p;
  p.seed = seed;
  p.nodes = 256;
  p.ranks_per_node = 1;
  p.size = 2048;  // doubles per rank
  p.rounds = 1;
  return p;
}

/// CPU seconds of the oracle work run_workload performs for this spec:
/// per ring-allreduce round, every rank draws its n contributions and then
/// checks all n reduced elements against allreduce_expected.
double replay_oracle_s(const check::WorkloadSpec& spec) {
  const check::Oracle oracle(spec);
  double sink = 0;
  const std::int64_t t0 = cpu_ns();
  for (std::size_t ri = 0; ri < spec.rounds.size(); ++ri) {
    const check::RoundSpec& round = spec.rounds[ri];
    if (round.kind != check::RoundSpec::Kind::kAllreduceRing) continue;
    for (int rank = 0; rank < spec.nranks(); ++rank) {
      for (std::size_t j = 0; j < round.size; ++j) sink += oracle.allreduce_contrib(ri, rank, j);
      for (std::size_t j = 0; j < round.size; ++j) sink += oracle.allreduce_expected(ri, j);
    }
  }
  const double s = cpu_since_s(t0);
  volatile double keep = sink;
  (void)keep;
  return s;
}

/// The set-up: build and validate the spec, then construct a World + Unr
/// at the spec's topology. run_workload builds its own World inside (so
/// run_cpu_s pays that construction as well); the one timed here is discarded
/// and stands for it, so World set-up cost shows in setup_s.
check::WorkloadSpec set_up(const scenarios::Pattern& pat, std::uint64_t seed, Result& out,
                           SpanLog* log, std::uint32_t parent) {
  const std::int64_t t0 = cpu_ns();
  check::WorkloadSpec spec;
  std::string invalid;
  {
    SpanScope s(log, "scenarios.Pattern::make", parent);
    spec = pat.make(params(seed));
  }
  {
    SpanScope s(log, "check.validate", parent);
    invalid = check::validate(spec);
  }
  out.samples["scenarios.build_s"].push_back(cpu_since_s(t0));
  out.check(invalid.empty(), "generated spec is invalid: " + invalid);

  runtime::World::Config wc;
  wc.nodes = spec.nodes;
  wc.ranks_per_node = spec.ranks_per_node;
  wc.profile = system_profile(spec.profile);
  wc.profile.iface = spec.iface;
  wc.profile.nics_per_node = spec.nics;
  wc.seed = spec.seed;
  wc.shards = 1;
  build_world(wc, out, log, parent);
  out.samples["setup_s"].push_back(cpu_since_s(t0));
  return spec;
}

}  // namespace

void run_allreduce_256n(const Args& args, Result& out) {
  const scenarios::Pattern* pat = scenarios::find_pattern("ai_ring_allreduce");
  out.check(pat != nullptr, "ai_ring_allreduce is not in the scenario registry");
  if (pat == nullptr) return;
  check::WorkloadSpec spec;
  check::RunResult first;
  RepClock clock(args.seconds, args.trace);
  while (clock.more()) {
    const Rep r = clock.next();
    const int rep = r.index;
    const bool traced = r.traced;
    SpanLog* log = traced ? &out.spans : nullptr;
    SpanScope rep_span(log, "bench.rep", 0);
    for (int i = 0; i < kSetupsPerRep; ++i) set_up(*pat, args.seed, out, nullptr, 0);
    spec = set_up(*pat, args.seed, out, log, rep_span.id());

    check::RunOptions opt;
    opt.shards = 1;
    std::string metrics;
    opt.metrics_out = &metrics;
    const Stopwatch sw;
    check::RunResult res;
    {
      SpanScope s(log, "check.run_workload", rep_span.id());
      res = check::run_workload(spec, opt);
    }
    record_run(out, r, since_s(sw.wall0), cpu_since_s(sw.cpu0));

    const std::string tag = "rep " + std::to_string(rep) + ": ";
    out.check(res.ok, tag + "run_workload reported " + std::to_string(res.violations.size()) +
                          " violations" +
                          (res.violations.empty() ? "" : " (first: " + res.violations[0] + ")"));
    if (rep == 0) first = res;
    out.check(res.digest == first.digest && res.events == first.events &&
                  res.end_time == first.end_time,
              tag + "digest, event count or virtual time differs from rep 0");
    if (!traced) {
      out.values["check.violations"] = static_cast<double>(res.violations.size());
      out.runs = {"{\"events\":" + std::to_string(res.events) + ",\"virtual_ns\":" +
                  std::to_string(res.end_time) + ",\"metrics\":" + metrics + "}"};
    }
  }

  if (args.trace) {
    // The oracle work run_workload does in line, replayed through the
    // public Oracle.
    const std::int64_t t0 = host_ns();
    out.values["check.oracle_s"] = replay_oracle_s(spec);
    out.spans.add("check.oracle_replay", 0, t0, host_ns());
  }
}

}  // namespace perfbench
