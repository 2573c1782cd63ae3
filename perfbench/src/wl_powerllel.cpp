// powerllel_16n: one PowerLLEL Fig. 7 point (the fig7_scaling_16n shape) on
// the UNR backend. Almost all host time is the solver's numerics, so this is
// the workload where a powerllel kernel gain shows and where a simulator,
// fabric or oracle change must leave run_cpu_s flat.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench.hpp"
#include "powerllel/fft.hpp"
#include "powerllel/ns_kernels.hpp"
#include "powerllel/solver.hpp"
#include "powerllel/tridiag.hpp"
#include "unr/unr.hpp"

namespace perfbench {
namespace {

using namespace unr;
using namespace unr::powerllel;

constexpr int kNodes = 16;
constexpr int kRanksPerNode = 2;
constexpr int kPr = 8, kPc = 4;
constexpr std::size_t kNx = 128, kNy = 128, kNz = 64;
constexpr int kSteps = 4;
/// max |div u| after the projection; the solver reaches ~1e-12 on this grid.
constexpr double kDivTolerance = 1e-8;

/// The seed picks the initial flow: amplitudes and phases of the same
/// wall-bounded shear + cross-flow family the Fig. 7 benches use.
struct Flow {
  double au, av, phase;
};

Flow flow_of(std::uint64_t seed) {
  InputRng rng(seed ^ 0x706f7765726c6c65ull);
  return {0.5 + rng.uniform(), 0.05 + 0.1 * rng.uniform(), 6.283185307179586 * rng.uniform()};
}

SolverConfig solver_config(CommBackend backend, unrlib::Unr* unr, int threads) {
  SolverConfig sc;
  sc.decomp.nx = kNx;
  sc.decomp.ny = kNy;
  sc.decomp.nz = kNz;
  sc.decomp.pr = kPr;
  sc.decomp.pc = kPc;
  sc.lz = 2.0;
  sc.bc = ZBc::kNoSlip;
  sc.backend = backend;
  sc.unr = unr;
  sc.threads = threads;
  return sc;
}

runtime::World::Config world_config(std::uint64_t seed) {
  runtime::World::Config wc;
  wc.nodes = kNodes;
  wc.ranks_per_node = kRanksPerNode;
  wc.profile = make_th_xy();
  wc.deterministic_routing = true;
  wc.seed = seed;
  wc.shards = 1;
  return wc;
}

void init_flow(Solver& s, const Flow& f) {
  s.init_velocity(
      [&](double x, double, double z) { return f.au * std::sin(x + f.phase) * z * (2 - z); },
      [&](double x, double y, double) { return f.av * std::cos(x + y + f.phase); },
      [](double, double, double) { return 0.0; });
}

struct Outcome {
  double divergence = 0, energy = 0;
  std::int64_t last_step_done_ns = 0;      ///< wall time the last rank finished stepping
  std::int64_t last_step_done_cpu_ns = 0;  ///< process CPU time at that moment
};

/// Run the whole point on `world`; rank 0 reports the checks. Spans (when
/// `log` is set) cover each rank's Solver::step calls.
Outcome run_point(runtime::World& world, CommBackend backend, unrlib::Unr* unr,
                  const Flow& flow, SpanLog* log, std::uint32_t parent) {
  const int threads = std::max(1, (world.config().profile.cores_per_node - 2) / 2);
  Outcome out;
  world.run([&](runtime::Rank& r) {
    Solver s(r, solver_config(backend, unr, threads));
    init_flow(s, flow);
    for (int i = 0; i < kSteps; ++i) {
      SpanScope span(log, "powerllel.Solver::step", parent, static_cast<std::uint64_t>(r.id()));
      s.step();
    }
    out.last_step_done_ns = std::max(out.last_step_done_ns, host_ns());
    out.last_step_done_cpu_ns = std::max(out.last_step_done_cpu_ns, cpu_ns());
    const double div = s.global_max_divergence();
    const double ke = s.global_kinetic_energy();
    if (r.id() == 0) {
      out.divergence = div;
      out.energy = ke;
    }
  });
  return out;
}

/// CPU seconds of one rank's numerics for one step, replayed through the
/// public kernels on the per-rank shape with the solver's per-step call
/// counts: two momentum RHS evaluations, one divergence, forward+inverse
/// x-FFTs, forward+inverse y-FFTs per z plane, three local Thomas passes per
/// z line, one projection. Median of several replays.
double replay_rank_step_s(const Flow& flow) {
  Decomp d;
  d.nx = kNx;
  d.ny = kNy;
  d.nz = kNz;
  d.pr = kPr;
  d.pc = kPc;
  d.self = 0;
  d.validate();
  const double dx = 6.283185307179586 / kNx, dy = 6.283185307179586 / kNy, dz = 2.0 / kNz;
  Field u(d.nx, d.nyl(), d.nzl()), v(d.nx, d.nyl(), d.nzl()), w(d.nx, d.nyl(), d.nzl());
  Field fu(d.nx, d.nyl(), d.nzl()), fv(d.nx, d.nyl(), d.nzl()), fw(d.nx, d.nyl(), d.nzl());
  Field p(d.nx, d.nyl(), d.nzl());
  for (std::size_t i = 0; i < u.raw_size(); ++i) {
    const double x = static_cast<double>(i % kNx) * dx;
    u.raw()[i] = flow.au * std::sin(x + flow.phase);
    v.raw()[i] = flow.av * std::cos(x + flow.phase);
    w.raw()[i] = 0.01 * std::sin(2 * x);
    p.raw()[i] = 0.1 * std::cos(x);
  }
  const std::size_t nloc = d.nx * d.nyl() * d.nzl();
  const std::size_t nlines = d.nxl() * d.ny, m = d.nzl();
  std::vector<double> div(nloc);
  std::vector<Complex> cx(nloc), cy(nloc), cz(nlines * m);
  std::vector<double> b(m, -2.5), rv(m), ru(m);
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::size_t i = 0; i < nloc; ++i) cx[i] = cy[i] = Complex(div[i % nloc] + 1.0, 0.0);
    for (std::size_t i = 0; i < cz.size(); ++i)
      cz[i] = Complex(1.0 + static_cast<double>(i % 7), 0.0);
    const std::int64_t t0 = cpu_ns();
    for (int stage = 0; stage < 2; ++stage)
      momentum_rhs(d, dx, dy, dz, 0.01, u, v, w, fu, fv, fw, Region::kAll);
    divergence(d, dx, dy, dz, u, v, w, div);
    fft_batch(cx.data(), d.nx, d.nyl() * d.nzl(), false);
    for (std::size_t k = 0; k < d.nzl(); ++k)
      fft_strided(cy.data() + d.nxl() * d.ny * k, d.ny, d.nxl(), d.nxl(), 1, false);
    for (std::size_t l = 0; l < nlines; ++l) {
      thomas_inplace(1.0, b, 1.0, {cz.data() + l * m, m});
      rv.assign(m, 0.0);
      ru.assign(m, 0.0);
      rv[0] = ru[m - 1] = 1.0;
      thomas_inplace_real(1.0, b, 1.0, rv);
      thomas_inplace_real(1.0, b, 1.0, ru);
    }
    for (std::size_t k = 0; k < d.nzl(); ++k)
      fft_strided(cy.data() + d.nxl() * d.ny * k, d.ny, d.nxl(), d.nxl(), 1, true);
    fft_batch(cx.data(), d.nx, d.nyl() * d.nzl(), true);
    project_velocity(d, dx, dy, dz, 1e-3, p, u, v, w);
    times.push_back(cpu_since_s(t0));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

void run_powerllel_16n(const Args& args, Result& out) {
  const Flow flow = flow_of(args.seed);

  // Reference: the same point over the two-sided MPI backend. Both backends
  // share every numeric kernel and move the same bytes, so the UNR runs
  // must reproduce its kinetic energy bit for bit.
  double ref_energy = 0;
  {
    runtime::World world(world_config(args.seed));
    ref_energy = run_point(world, CommBackend::kMpi, nullptr, flow, nullptr, 0).energy;
  }
  out.check(std::isfinite(ref_energy) && ref_energy > 0,
            "reference kinetic energy is not a positive finite number");

  std::uint64_t events0 = 0;
  Time vtime0 = 0;
  RepClock clock(args.seconds, args.trace);
  while (clock.more()) {
    const Rep r = clock.next();
    const int rep = r.index;
    const bool traced = r.traced;
    SpanLog* log = traced ? &out.spans : nullptr;
    SpanScope rep_span(log, "bench.rep", 0);

    for (int i = 0; i < kSetupsPerRep; ++i)
      out.samples["setup_s"].push_back(build_world(world_config(args.seed), out, nullptr, 0).seconds);
    WorldSetup ws = build_world(world_config(args.seed), out, log, rep_span.id());
    out.samples["setup_s"].push_back(ws.seconds);
    runtime::World* world = ws.world.get();

    const Stopwatch sw;
    Outcome o;
    {
      SpanScope s(log, "sim.World::run", rep_span.id());
      o = run_point(*world, CommBackend::kUnr, ws.lib.get(), flow, log, s.id());
    }
    record_run(out, r, static_cast<double>(o.last_step_done_ns - sw.wall0) * 1e-9,
               static_cast<double>(o.last_step_done_cpu_ns - sw.cpu0) * 1e-9);

    const std::string tag = "rep " + std::to_string(rep) + ": ";
    out.check(o.divergence < kDivTolerance,
              tag + "max |div u| " + std::to_string(o.divergence) + " above tolerance");
    out.check(o.energy == ref_energy,
              tag + "kinetic energy differs from the MPI-backend reference");
    const std::uint64_t events = world->kernel().event_count();
    if (rep == 0) {
      events0 = events;
      vtime0 = world->elapsed();
    }
    out.check(events == events0 && world->elapsed() == vtime0,
              tag + "event count or virtual time differs from rep 0");
    if (!traced) out.runs = {world_run_json(*world)};
  }

  if (args.trace) {
    const std::int64_t t0 = host_ns();
    const double per_rank_step = replay_rank_step_s(flow);
    out.spans.add("powerllel.kernel_replay", 0, t0, host_ns());
    out.values["powerllel.kernel_s"] = per_rank_step * kNodes * kRanksPerNode * kSteps;
  }
}

}  // namespace perfbench
