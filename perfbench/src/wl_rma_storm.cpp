// rma_storm: the benchmark's own rank bodies on 64 nodes x 2 ranks of TH-XY
// (two NICs per node) with 1% of deliveries dropped. Every epoch each rank
// issues a seeded mix of notified PUTs and GETs from 8 B to 256 KiB (those
// above the 64 KiB split threshold split across both NICs) in windows of
// bounded outstanding ops, plus two-sided isend/irecv pairs on both sides of
// the eager/rendezvous threshold. No oracle and no numerics: host time here
// is simulator time (kernel dispatch, fiber switches, fabric, UNR engine,
// runtime comm). Transfers stop at 256 KiB so that payload copies, which
// depend on memory bandwidth the host's other tenants share, do not
// outweigh that simulator time.
#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench.hpp"
#include "unr/unr.hpp"

namespace perfbench {
namespace {

using namespace unr;
using unrlib::Blk;
using unrlib::SigId;

constexpr int kNodes = 64;
constexpr int kRanksPerNode = 2;
constexpr int kRanks = kNodes * kRanksPerNode;
constexpr int kEpochs = 12;
constexpr int kPuts = 4;    ///< notified PUTs per rank per epoch (all to one peer)
constexpr int kGets = 4;    ///< GETs per rank per epoch (all from one peer)
constexpr int kWindow = 4;  ///< outstanding one-sided ops per rank
constexpr int kSends = 4;   ///< two-sided messages per rank per epoch
static_assert((kPuts + kGets) % kWindow == 0, "windows must tile the epoch");
constexpr std::size_t kMinRma = 8, kMaxRma = 256u << 10;
constexpr std::size_t kMinMsg = 512, kMaxMsg = 64u << 10;  ///< eager threshold is 8 KiB
constexpr std::size_t kLandBytes = 512u << 10;  ///< PUT landing area = GET landing area
constexpr std::size_t kRecvBytes = 256u << 10;
constexpr std::size_t kExposeBytes = 1u << 20;  ///< window each rank exposes for GETs
constexpr std::size_t kShiftStride = 8191;      ///< per-rank shift of the exposed bytes
constexpr double kDropRate = 0.01;
constexpr Time kWaitTimeout = 1 * kSec;

struct RmaOp {
  bool is_put = true;
  int peer = 0;
  std::size_t size = 0;
  std::size_t src_off = 0;  ///< in the data owner's exposed window
  std::size_t dst_off = 0;  ///< PUT: in the peer's landing area; GET: in mine
};

struct Msg {
  int peer = 0;
  std::size_t size = 0;
  std::size_t src_off = 0;  ///< in the sender's exposed window
  std::size_t dst_off = 0;  ///< in the receiver's receive buffer
};

struct RankEpoch {
  std::vector<RmaOp> ops;  ///< seeded order of PUTs and GETs
  std::vector<Msg> sends;
  int put_src = 0;   ///< who PUTs into my landing area this epoch
  int send_src = 0;  ///< who sends me two-sided messages this epoch
};

/// The seeded traffic plan: pure input, generated once per run.
struct Plan {
  std::vector<RankEpoch> at;  ///< [epoch * kRanks + rank]
  RankEpoch& operator()(int e, int r) { return at[static_cast<std::size_t>(e * kRanks + r)]; }
  const RankEpoch& operator()(int e, int r) const {
    return at[static_cast<std::size_t>(e * kRanks + r)];
  }
};

/// A random single-cycle permutation (no rank maps to itself).
std::vector<int> cycle_perm(InputRng& rng) {
  std::vector<int> order(kRanks);
  for (int i = 0; i < kRanks; ++i) order[static_cast<std::size_t>(i)] = i;
  for (int i = kRanks - 1; i > 0; --i)
    std::swap(order[static_cast<std::size_t>(i)],
              order[rng.below(static_cast<std::uint64_t>(i) + 1)]);
  std::vector<int> next(kRanks);
  for (int i = 0; i < kRanks; ++i)
    next[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] =
        order[static_cast<std::size_t>((i + 1) % kRanks)];
  return next;
}

/// Sizes for `n` transfers packed into `capacity` bytes: log-uniform draws,
/// clamped so every later transfer still gets at least `lo` bytes.
std::vector<std::size_t> packed_sizes(InputRng& rng, int n, std::size_t lo, std::size_t hi,
                                      std::size_t capacity) {
  std::vector<std::size_t> sizes;
  std::size_t used = 0;
  for (int i = 0; i < n; ++i) {
    const std::size_t room = capacity - used - lo * static_cast<std::size_t>(n - 1 - i);
    const std::size_t s = std::min<std::size_t>(rng.log_uniform(lo, hi), room);
    sizes.push_back(s);
    used += s;
  }
  return sizes;
}

/// Transfer sizes come from a fixed stream, so every seed moves the same
/// bytes in the same operations and run_cpu_s compares across seeds; the seed
/// decides which rank carries which sizes, the partners, the op order, the
/// source offsets and the payload bytes.
Plan make_plan(std::uint64_t seed) {
  InputRng sizes(0x73697a6573ull);
  InputRng rng(seed ^ 0x726d6173746f726dull);
  Plan plan;
  plan.at.resize(static_cast<std::size_t>(kEpochs * kRanks));
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<std::vector<std::size_t>> puts, gets, sends;
    for (int r = 0; r < kRanks; ++r) {
      puts.push_back(packed_sizes(sizes, kPuts, kMinRma, kMaxRma, kLandBytes));
      gets.push_back(packed_sizes(sizes, kGets, kMinRma, kMaxRma, kLandBytes));
      sends.push_back(packed_sizes(sizes, kSends, kMinMsg, kMaxMsg, kRecvBytes));
    }
    const std::vector<int> carrier = cycle_perm(rng);
    const std::vector<int> put_dst = cycle_perm(rng);
    const std::vector<int> get_src = cycle_perm(rng);
    const std::vector<int> send_dst = cycle_perm(rng);
    for (int r = 0; r < kRanks; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      const auto ci = static_cast<std::size_t>(carrier[ri]);
      RankEpoch& re = plan(e, r);
      std::size_t off = 0;
      for (const std::size_t sz : puts[ci]) {
        re.ops.push_back({true, put_dst[ri], sz, rng.below(kExposeBytes - sz + 1), off});
        off += sz;
      }
      off = 0;
      for (const std::size_t sz : gets[ci]) {
        re.ops.push_back({false, get_src[ri], sz, rng.below(kExposeBytes - sz + 1), off});
        off += sz;
      }
      for (std::size_t i = re.ops.size() - 1; i > 0; --i)
        std::swap(re.ops[i], re.ops[rng.below(i + 1)]);
      off = 0;
      for (const std::size_t sz : sends[ci]) {
        re.sends.push_back({send_dst[ri], sz, rng.below(kExposeBytes - sz + 1), off});
        off += sz;
      }
      plan(e, put_dst[ri]).put_src = r;
      plan(e, send_dst[ri]).send_src = r;
    }
  }
  return plan;
}

/// Host memory the rank bodies work on, allocated and touched once per run
/// so repetitions do not pay first-touch page faults.
struct Buffers {
  std::vector<std::byte> pattern;  ///< seeded bytes; rank q exposes [shift(q), +kExposeBytes)
  std::vector<std::vector<std::byte>> land_put, land_get, recv;

  explicit Buffers(std::uint64_t seed)
      : pattern(kExposeBytes + kShiftStride * kRanks),
        land_put(kRanks, std::vector<std::byte>(kLandBytes)),
        land_get(kRanks, std::vector<std::byte>(kLandBytes)),
        recv(kRanks, std::vector<std::byte>(kRecvBytes)) {
    InputRng rng(seed ^ 0x7061796c6f6164ull);
    for (std::size_t i = 0; i < pattern.size(); i += 8) {
      const std::uint64_t v = rng.next();
      std::memcpy(pattern.data() + i, &v, std::min<std::size_t>(8, pattern.size() - i));
    }
  }
  static std::size_t shift(int rank) { return static_cast<std::size_t>(rank) * kShiftStride; }
  /// Rank `owner`'s exposed byte at `off` — what any transfer sourced there carries.
  const std::byte* expected(int owner, std::size_t off) const {
    return pattern.data() + shift(owner) + off;
  }
};

struct Exposed {
  Blk window;   ///< the exposed pattern bytes (GET source, no signal)
  Blk landing;  ///< the PUT landing area, bound to the arrival signal
};

/// Time spent comparing bytes inside the rank bodies, excluded from the
/// repetition's run_s and run_cpu_s.
struct Tally {
  std::int64_t verify_ns = 0;
  std::int64_t verify_cpu_ns = 0;
};

void rank_body(runtime::Rank& r, unrlib::Unr& lib, const Plan& plan, Buffers& buf,
               Result& out, Tally& tally, SpanLog* log, std::uint32_t parent, int rep) {
  const int self = r.id();
  const auto si = static_cast<std::size_t>(self);
  const unrlib::MemHandle mh_pat = lib.mem_reg(
      self, buf.pattern.data() + Buffers::shift(self), kExposeBytes);
  const unrlib::MemHandle mh_put = lib.mem_reg(self, buf.land_put[si].data(), kLandBytes);
  const unrlib::MemHandle mh_get = lib.mem_reg(self, buf.land_get[si].data(), kLandBytes);
  const SigId arrivals = lib.sig_init(self, kPuts);
  const SigId window = lib.sig_init(self, kWindow);
  const Exposed mine{lib.blk_init(self, mh_pat, 0, kExposeBytes),
                     lib.blk_init(self, mh_put, 0, kLandBytes, arrivals)};
  std::vector<Exposed> all(kRanks);
  r.allgather(&mine, all.data(), sizeof(Exposed));
  // Local sides bound to the window signal: PUT source completion and GET
  // landing both count one event on it.
  const Blk src_local = lib.blk_init(self, mh_pat, 0, kExposeBytes, window);
  const Blk get_local = lib.blk_init(self, mh_get, 0, kLandBytes, window);
  const std::string tag0 = "rep " + std::to_string(rep) + " rank " + std::to_string(self);

  auto drained = [&](SigId sig, const char* what, int e) {
    const bool ok = lib.sig_wait_for(self, sig, kWaitTimeout) && lib.sig_counter(self, sig) == 0;
    // The message is built only on failure: this runs inside the timed region.
    out.check(ok, ok ? std::string()
                     : tag0 + " epoch " + std::to_string(e) + ": " + what +
                           " signal did not drain to 0");
  };

  for (int e = 0; e < kEpochs; ++e) {
    const RankEpoch& my = plan(e, self);
    std::vector<runtime::RequestPtr> reqs;
    const std::vector<Msg>& incoming = plan(e, my.send_src).sends;
    for (std::size_t i = 0; i < incoming.size(); ++i)
      reqs.push_back(r.irecv(my.send_src, e * 16 + static_cast<int>(i),
                             buf.recv[si].data() + incoming[i].dst_off, incoming[i].size));

    for (std::size_t g = 0; g < my.ops.size(); g += kWindow) {
      for (std::size_t i = g; i < g + kWindow; ++i) {
        const RmaOp& op = my.ops[i];
        const Exposed& peer = all[static_cast<std::size_t>(op.peer)];
        if (op.is_put) {
          const Blk local = src_local.sub(op.src_off, op.size);
          const Blk remote = peer.landing.sub(op.dst_off, op.size);
          SpanScope s(log, "unr.Unr::put", parent);
          lib.put(self, local, remote);
        } else {
          const Blk local = get_local.sub(op.dst_off, op.size);
          const Blk remote = peer.window.sub(op.src_off, op.size);
          SpanScope s(log, "unr.Unr::get", parent);
          lib.get(self, local, remote);
        }
      }
      drained(window, "window", e);
      lib.sig_reset(self, window);
    }
    for (std::size_t i = 0; i < my.sends.size(); ++i) {
      const Msg& m = my.sends[i];
      SpanScope s(log, "runtime.Comm::isend", parent);
      reqs.push_back(r.isend(m.peer, e * 16 + static_cast<int>(i),
                             buf.expected(self, m.src_off), m.size));
    }
    r.wait_all(reqs);
    drained(arrivals, "arrival", e);

    const Stopwatch verify;
    const std::string tag = tag0 + " epoch " + std::to_string(e);
    for (const RmaOp& op : plan(e, my.put_src).ops) {
      if (!op.is_put) continue;
      out.check(std::memcmp(buf.land_put[si].data() + op.dst_off,
                            buf.expected(my.put_src, op.src_off), op.size) == 0,
                tag + ": PUT payload from rank " + std::to_string(my.put_src) + " differs");
    }
    for (const RmaOp& op : my.ops) {
      if (op.is_put) continue;
      out.check(std::memcmp(buf.land_get[si].data() + op.dst_off,
                            buf.expected(op.peer, op.src_off), op.size) == 0,
                tag + ": GET payload from rank " + std::to_string(op.peer) + " differs");
    }
    for (const Msg& m : incoming)
      out.check(std::memcmp(buf.recv[si].data() + m.dst_off,
                            buf.expected(my.send_src, m.src_off), m.size) == 0,
                tag + ": message from rank " + std::to_string(my.send_src) + " differs");
    tally.verify_ns += host_ns() - verify.wall0;
    tally.verify_cpu_ns += cpu_ns() - verify.cpu0;

    lib.sig_reset(self, arrivals);
    r.barrier();  // landing areas are reused next epoch
  }
  const int node = r.node_id();
  out.check(lib.sig_at(node, arrivals).warnings() == 0 && lib.sig_at(node, window).warnings() == 0,
            tag0 + ": signal raised a synchronization or overflow warning");
  lib.mem_dereg(self, mh_pat);
  lib.mem_dereg(self, mh_put);
  lib.mem_dereg(self, mh_get);
}

runtime::World::Config world_config(std::uint64_t seed) {
  runtime::World::Config wc;
  wc.nodes = kNodes;
  wc.ranks_per_node = kRanksPerNode;
  wc.profile = make_th_xy();
  wc.seed = seed;
  wc.faults.drop_rate = kDropRate;
  wc.shards = 1;
  return wc;
}

}  // namespace

void run_rma_storm(const Args& args, Result& out) {
  const Plan plan = make_plan(args.seed);
  Buffers buf(args.seed);

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
    unrlib::Unr* lib = ws.lib.get();

    Tally tally;
    const Stopwatch sw;
    try {
      SpanScope s(log, "sim.World::run", rep_span.id());
      const std::uint32_t parent = s.id();
      world->run([&](runtime::Rank& r) {
        rank_body(r, *lib, plan, buf, out, tally, log, parent, rep);
      });
    } catch (const std::exception& ex) {
      out.check(false, "rep " + std::to_string(rep) + ": World::run threw: " + ex.what());
    }
    record_run(out, r, static_cast<double>(host_ns() - sw.wall0 - tally.verify_ns) * 1e-9,
               static_cast<double>(cpu_ns() - sw.cpu0 - tally.verify_cpu_ns) * 1e-9);

    const std::uint64_t events = world->kernel().event_count();
    if (rep == 0) {
      events0 = events;
      vtime0 = world->elapsed();
    }
    out.check(events == events0 && world->elapsed() == vtime0,
              "rep " + std::to_string(rep) + ": event count or virtual time differs from rep 0");
    if (!traced) out.runs = {world_run_json(*world)};
  }
}

}  // namespace perfbench
