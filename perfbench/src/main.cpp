// perfbench: runs one workload of the benchmark of record and prints its raw
// measurements as one JSON object on stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// perfbench/run.py builds and invokes this program (one process per
// workload run, so peak RSS is the workload's own) and derives the reported
// metrics from the raw samples. With --trace 1 the run alternates untraced
// and traced repetitions and writes the traced spans to PATH as CSV.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

std::uint64_t InputRng::log_uniform(std::uint64_t lo, std::uint64_t hi) {
  const double l = std::log(static_cast<double>(lo));
  const double h = std::log(static_cast<double>(hi) + 1.0);
  const auto v = static_cast<std::uint64_t>(std::exp(l + (h - l) * uniform()));
  return v < lo ? lo : (v > hi ? hi : v);
}

double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1.0;
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : kib / 1024.0;
}

WorldSetup build_world(const unr::runtime::World::Config& wc, Result& out, SpanLog* log,
                       std::uint32_t parent) {
  WorldSetup ws;
  const std::int64_t t0 = cpu_ns();
  {
    SpanScope s(log, "sim.World()", parent);
    ws.world = std::make_unique<unr::runtime::World>(wc);
  }
  const std::int64_t t1 = cpu_ns();
  {
    SpanScope s(log, "unr.Unr()", parent);
    ws.lib = std::make_unique<unr::unrlib::Unr>(*ws.world);
  }
  const std::int64_t t2 = cpu_ns();
  out.samples["sim.world_setup_s"].push_back(static_cast<double>(t1 - t0) * 1e-9);
  out.samples["unr.setup_s"].push_back(static_cast<double>(t2 - t1) * 1e-9);
  ws.seconds = static_cast<double>(t2 - t0) * 1e-9;
  return ws;
}

std::string world_run_json(unr::runtime::World& world) {
  const unr::sim::Kernel::PoolDebug pd = world.kernel().pool_debug();
  std::ostringstream o;
  o << "{\"events\":" << world.kernel().event_count() << ",\"virtual_ns\":" << world.elapsed()
    << ",\"event_nodes\":" << pd.total << ",\"fiber_stacks\":" << pd.stacks_total
    << ",\"metrics\":";
  world.kernel().telemetry().registry().write_json(o);
  o << "}";
  return o.str();
}

namespace {

std::string json_string(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_spans(const std::string& path, const SpanLog& log) {
  std::ofstream f(path);
  f << "id,parent,req,name,start_ns,end_ns\n";
  for (const Span& s : log.spans())
    f << s.id << ',' << s.parent << ',' << s.req << ',' << s.name << ','
      << s.start_ns << ',' << s.end_ns << '\n';
  if (!f) std::cerr << "perfbench: cannot write spans to " << path << "\n";
}

void print_result(const Args& args, const Result& r) {
  std::ostringstream o;
  o << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    o << (i ? "," : "") << json_string(r.failures[i]);
  o << "],\"peak_rss_mib\":" << json_number(peak_rss_mib()) << ",\"samples\":{";
  bool first = true;
  for (const auto& [name, vals] : r.samples) {
    o << (first ? "" : ",") << json_string(name) << ":[";
    first = false;
    for (std::size_t i = 0; i < vals.size(); ++i)
      o << (i ? "," : "") << json_number(vals[i]);
    o << "]";
  }
  o << "},\"values\":{";
  first = true;
  for (const auto& [name, v] : r.values) {
    o << (first ? "" : ",") << json_string(name) << ":" << json_number(v);
    first = false;
  }
  o << "},\"runs\":[";
  for (std::size_t i = 0; i < r.runs.size(); ++i) o << (i ? "," : "") << r.runs[i];
  o << "]}\n";
  std::cout << o.str() << std::flush;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") args.workload = v;
      else if (a == "--seed") args.seed = std::stoull(v);
      else if (a == "--seconds") args.seconds = std::stod(v);
      else if (a == "--trace") args.trace = v == "1";
      else if (a == "--spans") args.spans_path = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  Result r;
  if (args.workload == "powerllel_16n") run_powerllel_16n(args, r);
  else if (args.workload == "allreduce_256n") run_allreduce_256n(args, r);
  else if (args.workload == "rma_storm") run_rma_storm(args, r);
  else if (args.workload == "service_mix") run_service_mix(args, r);
  else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return usage();
  }
  if (args.trace && !args.spans_path.empty()) write_spans(args.spans_path, r.spans);
  print_result(args, r);
  return 0;
}
