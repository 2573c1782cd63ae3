// service_mix: an in-process svc::Server on loopback driven by two client
// sessions in a closed loop (each sends its next request only after the
// previous result frame arrived). Each session alternates submitting a new
// small shards=1 registry RunSpec (a cache miss, which simulates) with
// re-submitting one of its own earlier specs (a cache hit, served from the
// result cache). Sessions never share specs, so every request's cache
// disposition is known in advance.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "svc/frame.hpp"
#include "svc/json.hpp"
#include "svc/run.hpp"
#include "svc/runspec.hpp"
#include "svc/server.hpp"

namespace perfbench {
namespace {

using namespace unr;

constexpr int kSessions = 2;
constexpr int kMissesPerSession = 30;  ///< per repetition; as many hits follow

/// A small registry RunSpec of the given shape; `rng` picks its knobs.
/// PUT streams stay under ~1.6 MB in flight, so no single spec sets the
/// process's peak memory.
svc::RunSpec make_spec(InputRng& rng, int shape) {
  svc::RunSpec s;
  s.shards = 1;
  switch (shape) {
    case 0:
      s.scenario = "pingpong";
      s.params["size"] = rng.log_uniform(64, 64u << 10);
      s.params["iters"] = 20 + rng.below(81);
      break;
    case 1:
      s.scenario = "put_stream";
      s.params["size"] = rng.log_uniform(64, 8u << 10);
      s.params["iters"] = 50 + rng.below(151);
      break;
    case 2:
      s.scenario = "allreduce";
      s.nodes = 4;
      s.params["count"] = rng.log_uniform(32, 512);
      s.params["iters"] = 2 + rng.below(7);
      break;
    case 3:
      s.scenario = "sync_faa_tree";
      s.nodes = 4;
      s.ranks_per_node = 2;
      s.params["count"] = 4;
      s.params["depth"] = 2;
      s.params["rounds"] = 2;
      break;
    default:
      s.scenario = "ai_ring_allreduce";
      s.nodes = 4;
      s.ranks_per_node = 2;
      s.params["size"] = rng.log_uniform(128, 1024);
      s.params["rounds"] = 1;
      break;
  }
  return s;
}

struct Request {
  std::size_t spec = 0;  ///< index into the session's spec list
  bool hit = false;      ///< expected cache disposition
};

/// One session's closed-loop script: miss, hit, miss, hit, ... where each
/// hit re-submits a seeded choice among the session's earlier specs.
struct Script {
  std::vector<std::string> specs;  ///< canonical RunSpec texts
  std::vector<Request> requests;
};

/// The spec shapes and knobs come from a fixed stream per session, so every
/// seed simulates the same amount of work; the seed decides the order of
/// the specs, their simulation seeds and which earlier spec each hit
/// re-submits. Sessions never share a spec.
Script make_script(std::uint64_t seed, int session) {
  InputRng shapes(0x73657276ull + static_cast<std::uint64_t>(session));
  std::vector<svc::RunSpec> pool;
  for (int i = 0; i < kMissesPerSession; ++i) pool.push_back(make_spec(shapes, i % 5));
  InputRng rng(seed ^ (0x73657276ull << 8) ^ static_cast<std::uint64_t>(session));
  for (std::size_t i = pool.size() - 1; i > 0; --i) std::swap(pool[i], pool[rng.below(i + 1)]);
  Script sc;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    // Distinct per (session, position), so no two specs of a run coincide.
    pool[i].seed = 1 + i +
                   kMissesPerSession * (static_cast<std::uint64_t>(session) +
                                        kSessions * rng.below(100000));
    sc.specs.push_back(svc::to_text(pool[i]));
    sc.requests.push_back({i, false});
    sc.requests.push_back({rng.below(i + 1), true});
  }
  return sc;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// The raw bytes of the "body" value of a result frame: what the server
/// cached, compared byte for byte between a miss and its hits.
std::string body_bytes(const std::string& frame) {
  const std::size_t i = frame.find("\"body\":");
  if (i == std::string::npos || frame.empty() || frame.back() != '}') return "";
  return frame.substr(i + 7, frame.size() - i - 8);
}

/// What one session observed during one repetition.
struct SessionLog {
  std::vector<double> latency_ms;      ///< per request, in script order
  std::vector<std::string> frames;     ///< result (or error) frame per request
  std::vector<std::string> errors;     ///< transport / protocol failures
  SpanLog spans;
};

void run_session(int fd, const Script& sc, std::uint64_t req_base, bool traced,
                 std::uint32_t parent, SessionLog& log) {
  SpanLog* sl = traced ? &log.spans : nullptr;
  for (std::size_t i = 0; i < sc.requests.size(); ++i) {
    const Request& rq = sc.requests[i];
    const std::string submit = "{\"op\":\"submit\",\"spec\":\"" +
                               svc::json_escape(sc.specs[rq.spec]) + "\"}";
    const std::uint64_t req = req_base + i;
    const std::int64_t t0 = host_ns();
    SpanScope span(sl, rq.hit ? "svc.request(hit)" : "svc.request(miss)", parent, req);
    svc::FrameStatus st;
    {
      SpanScope s(sl, "svc.write_frame(submit)", span.id(), req);
      st = svc::write_frame(fd, submit);
    }
    std::string frame;
    while (st == svc::FrameStatus::kOk) {
      SpanScope s(sl, "svc.read_frame", span.id(), req);
      st = svc::read_frame(fd, frame);
      if (st != svc::FrameStatus::kOk) break;
      if (frame.find("\"type\":\"result\"") != std::string::npos ||
          frame.find("\"type\":\"error\"") != std::string::npos)
        break;
    }
    log.latency_ms.push_back(since_s(t0) * 1e3);
    if (st != svc::FrameStatus::kOk) {
      log.errors.push_back(std::string("request ") + std::to_string(i) + ": " +
                           svc::frame_status_name(st));
      log.frames.emplace_back();
      return;
    }
    log.frames.push_back(std::move(frame));
  }
  svc::write_frame(fd, "{\"op\":\"bye\"}");
  std::string bye;
  svc::read_frame(fd, bye);
}

/// A started server with one connected socket per session.
struct Service {
  std::vector<Script> scripts;
  std::unique_ptr<svc::Server> server;
  std::vector<int> fds;
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
  ~Service() {
    for (const int fd : fds)
      if (fd >= 0) ::close(fd);
  }
};

/// The set-up the benchmark times: build the session scripts (spec texts),
/// start the server, connect every session. False (with a recorded
/// failure) when the server cannot start or a session cannot connect.
bool start_service(std::uint64_t seed, Result& out, SpanLog* log, std::uint32_t parent,
                   Service& sv) {
  const std::int64_t t0 = cpu_ns();
  {
    SpanScope s(log, "svc.to_text(specs)", parent);
    for (int i = 0; i < kSessions; ++i) sv.scripts.push_back(make_script(seed, i));
  }
  svc::Server::Config cfg;
  cfg.cache_entries = 4096;  // no evictions: every re-submission must hit
  sv.server = std::make_unique<svc::Server>(cfg);
  std::string err;
  bool started;
  {
    SpanScope s(log, "svc.Server::start", parent);
    started = sv.server->start(&err);
  }
  out.check(started, "server failed to start: " + err);
  if (!started) return false;
  for (int i = 0; i < kSessions; ++i) sv.fds.push_back(connect_loopback(sv.server->port()));
  out.samples["setup_s"].push_back(cpu_since_s(t0));
  bool ok = true;
  for (const int fd : sv.fds) {
    out.check(fd >= 0, "cannot connect to the server");
    ok = ok && fd >= 0;
  }
  return ok;
}

}  // namespace

void run_service_mix(const Args& args, Result& out) {
  // Rep 0's miss bodies: every later repetition must reproduce them exactly.
  std::vector<std::vector<std::string>> ref_body(kSessions);
  // Untraced miss latencies per (session, spec), for the overhead split.
  std::map<std::pair<int, std::size_t>, std::vector<double>> miss_ms_by_spec;

  RepClock clock(args.seconds, args.trace);
  while (clock.more()) {
    const Rep r = clock.next();
    const int rep = r.index;
    const bool traced = r.traced;
    SpanLog* log = traced ? &out.spans : nullptr;
    SpanScope rep_span(log, "bench.rep", 0);

    for (int i = 0; i < kSetupsPerRep; ++i) {
      Service extra;
      if (!start_service(args.seed, out, nullptr, 0, extra)) return;
    }
    Service sv;
    if (!start_service(args.seed, out, log, rep_span.id(), sv)) return;

    std::vector<SessionLog> logs(kSessions);
    const Stopwatch sw;
    {
      SpanScope s(log, "svc.closed_loop", rep_span.id());
      std::vector<std::thread> threads;
      for (int i = 0; i < kSessions; ++i)
        threads.emplace_back(run_session, sv.fds[static_cast<std::size_t>(i)],
                             std::cref(sv.scripts[static_cast<std::size_t>(i)]),
                             (static_cast<std::uint64_t>(rep) << 20) |
                                 (static_cast<std::uint64_t>(i) << 16),
                             traced, s.id(), std::ref(logs[static_cast<std::size_t>(i)]));
      for (std::thread& t : threads) t.join();
    }
    record_run(out, r, since_s(sw.wall0), cpu_since_s(sw.cpu0));
    const svc::Server::Stats st = sv.server->stats();
    sv.server->stop();

    // Verification, outside the timed region.
    const std::string tag = "rep " + std::to_string(rep);
    if (!traced) out.runs.clear();
    for (int i = 0; i < kSessions; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      const Script& sc = sv.scripts[ii];
      SessionLog& sl = logs[ii];
      out.spans.append(sl.spans);
      for (const std::string& e : sl.errors)
        out.check(false, tag + " session " + std::to_string(i) + ": " + e);
      for (std::size_t k = sl.frames.size(); k < sc.requests.size(); ++k)
        out.check(false, tag + " session " + std::to_string(i) + " request " +
                             std::to_string(k) + ": never sent");
      std::vector<std::string> miss_body(sc.specs.size());
      for (std::size_t k = 0; k < sl.frames.size(); ++k) {
        const Request& rq = sc.requests[k];
        const std::string where =
            tag + " session " + std::to_string(i) + " request " + std::to_string(k);
        svc::Json j;
        std::string perr;
        const bool parsed = svc::Json::parse(sl.frames[k], j, &perr);
        const svc::Json* body = parsed ? j.find("body") : nullptr;
        const svc::Json* ok = body ? body->find("ok") : nullptr;
        out.check(parsed && j.str("type") == "result" && ok && ok->boolean,
                  where + ": no successful result frame");
        out.check(j.str("cache") == (rq.hit ? "hit" : "miss"),
                  where + ": cache disposition is not " + (rq.hit ? "hit" : "miss"));
        const std::string bytes = body_bytes(sl.frames[k]);
        if (rq.hit) {
          out.check(bytes == miss_body[rq.spec], where + ": hit body differs from its miss body");
        } else {
          miss_body[rq.spec] = bytes;
        }
        if (!traced && !r.warmup) {
          out.samples[rq.hit ? "hit_ms" : "miss_ms"].push_back(sl.latency_ms[k]);
          if (!rq.hit) miss_ms_by_spec[{i, rq.spec}].push_back(sl.latency_ms[k]);
        }
      }
      if (rep == 0) ref_body[ii] = miss_body;
      // Each miss body carries its run's events, virtual time and registry.
      if (!traced) out.runs.insert(out.runs.end(), miss_body.begin(), miss_body.end());
      for (std::size_t k = 0; k < miss_body.size(); ++k)
        out.check(miss_body[k] == ref_body[ii][k],
                  tag + " session " + std::to_string(i) + " spec " + std::to_string(k) +
                      ": body differs from rep 0");
    }
    if (!traced) {
      out.values["svc.cache.hits"] = static_cast<double>(st.cache_hits);
      out.values["svc.cache.misses"] = static_cast<double>(st.cache_misses);
      out.values["svc.bytes_in"] = static_cast<double>(st.bytes_in);
      out.values["svc.bytes_out"] = static_cast<double>(st.bytes_out);
    }
  }

  if (args.trace) {
    // The simulation share of a miss: run each miss spec in-process through
    // run_runspec directly, then attribute the rest of its latency to
    // framing, JSON, cache and scheduling.
    for (int i = 0; i < kSessions; ++i) {
      const Script sc = make_script(args.seed, i);
      for (std::size_t k = 0; k < sc.specs.size(); ++k) {
        const std::string where = "session " + std::to_string(i) + " spec " + std::to_string(k);
        svc::RunSpec spec;
        std::string err;
        const bool parsed = svc::from_text(sc.specs[k], spec, &err);
        out.check(parsed, where + ": spec text does not parse: " + err);
        if (!parsed) continue;
        const std::int64_t t0 = host_ns();
        const svc::RunOutcome o = svc::run_runspec(spec);
        const std::int64_t t1 = host_ns();
        out.spans.add("svc.run_runspec", 0, t0, t1);
        const double direct_s = static_cast<double>(t1 - t0) * 1e-9;
        out.samples["svc.run_runspec_s"].push_back(direct_s);
        out.check(o.ok, where + ": run_runspec failed");
        for (const double ms : miss_ms_by_spec[{i, k}])
          out.samples["svc.miss_overhead_ms"].push_back(ms - direct_s * 1e3);
      }
    }
  }
}

}  // namespace perfbench
