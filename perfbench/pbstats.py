"""Statistics, metric derivation and BENCHMARK.json validation for perfbench.

The perfbench program prints raw samples (per-repetition times, per-request
latencies, registry dumps); everything that turns samples into reported
numbers lives here, so it has one implementation and its own tests
(perfbench/test_perfbench.py).
"""

import csv
import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Percentiles a latency may be reported at, in permille.
PERCENTILE_LADDER = (500, 900, 990, 999)


# --- statistics ---------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, p):
    """Linear interpolation between closest ranks; p in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = p / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, permille):
    """How many of n samples lie beyond the given percentile."""
    return n * (1000 - permille) // 1000


def tail_percentile(n):
    """Highest ladder percentile (as a float, e.g. 99.0) with at least ten
    samples beyond it, or None when even the median has fewer."""
    best = None
    for pm in PERCENTILE_LADDER:
        if samples_beyond(n, pm) >= 10:
            best = pm / 10.0
    return best


# --- BENCHMARK.json -----------------------------------------------------------

TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def validate_benchmark(doc, raw_size=0):
    """Return a list of problems with a BENCHMARK.json document ([] = valid)."""
    errs = []
    if raw_size > 64 * 1024:
        errs.append("file larger than 64 KiB")
    if not isinstance(doc, dict) or set(doc) != TOP_KEYS:
        return errs + ["top-level keys must be exactly %s" % sorted(TOP_KEYS)]

    cmd = doc["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(c, str) and 0 < len(c) <= 200 for c in cmd)):
        errs.append("command must be 1-32 strings of at most 200 characters")
    else:
        for c in cmd:
            if c.startswith("/") or ".." in c.split("/"):
                errs.append("command names a path outside the checkout: %s" % c)

    paths = doc["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and not p.startswith("/") and
                ".." not in p.split("/") for p in paths)):
        errs.append("paths must be 1-16 relative paths of at most 200 [A-Za-z0-9_./-]")

    rs = doc["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")

    names = []
    wl = doc["workloads"]
    if not (isinstance(wl, list) and 2 <= len(wl) <= 8):
        errs.append("workloads must list 2 to 8 entries")
        wl = []
    for w in wl:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errs.append("workload entries have exactly name and why")
            continue
        names.append(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            errs.append("why of %s must be one line of at most 200 characters" % w["name"])

    def metrics(key, lo, hi, keys):
        ms = doc[key]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            errs.append("%s must list %d to %d metrics" % (key, lo, hi))
            return []
        for m in ms:
            if not isinstance(m, dict) or set(m) != keys:
                errs.append("%s entries have exactly %s" % (key, sorted(keys)))
                continue
            names.append(m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                errs.append("bad unit %r on %s" % (m["unit"], m["name"]))
            if m["better"] not in ("lower", "higher"):
                errs.append("better of %s must be lower or higher" % m["name"])
        return ms

    e2e = metrics("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    metrics("per_layer", 1, 128, {"name", "unit", "better"})
    for m in e2e:
        b = m.get("bound")
        if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
            errs.append("bound of %s must be in (0, 0.25]" % m.get("name"))
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errs.append("end_to_end must hold setup_s in s, better lower")
    elif any(m.get("bound", 0) > setup[0]["bound"] for m in e2e):
        errs.append("setup_s must carry the largest bound")

    for n in names:
        if not (isinstance(n, str) and NAME_RE.match(n)):
            errs.append("bad name %r" % (n,))
    dup = {n for n in names if isinstance(n, str) and names.count(n) > 1}
    if dup:
        errs.append("names used more than once: %s" % sorted(dup))
    return errs


def load_benchmark(path):
    with open(path, "rb") as f:
        raw = f.read()
    doc = json.loads(raw)
    errs = validate_benchmark(doc, len(raw))
    if errs:
        raise ValueError("%s: %s" % (path, "; ".join(errs)))
    return doc


# --- metric derivation --------------------------------------------------------

def _med(samples, key):
    vals = samples.get(key) or []
    return median(vals) if vals else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def registry_totals(runs):
    """Sum counters and gauges by name over every run's registry dump, and
    collect each histogram's per-label p50 under the histogram's name."""
    totals, p50s = {}, {}
    for run in runs:
        reg = run.get("metrics") or {}
        for m in reg.get("metrics", []):
            if m["type"] == "histogram":
                p50s.setdefault(m["name"], []).append(m["p50"])
            else:
                totals[m["name"]] = totals.get(m["name"], 0) + m["value"]
    return totals, p50s


def read_spans(path):
    """Span rows of a traced run: dicts with id, parent, req, name, start, end."""
    with open(path, newline="") as f:
        return [{"id": int(r["id"]), "parent": int(r["parent"]), "req": int(r["req"]),
                 "name": r["name"], "start": int(r["start_ns"]), "end": int(r["end_ns"])}
                for r in csv.DictReader(f)]


def span_durations(spans):
    """Span name -> list of durations in ns."""
    out = {}
    for s in spans:
        out.setdefault(s["name"], []).append(s["end"] - s["start"])
    return out


def self_times(spans):
    """Layer (span-name prefix before the first '.') -> total self time in ns:
    each span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0) + (s["end"] - s["start"] - covered)
    return out


def end_to_end_values(raw):
    s = raw["samples"]
    return {
        "setup_s": _med(s, "setup_s"),
        "run_cpu_s": _med(s, "run_cpu_s"),
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def per_layer_values(raw, spans):
    """Every per-layer metric for one traced run. Metrics of a layer the
    workload does not call read 0."""
    s, v = raw["samples"], raw["values"]
    runs = raw.get("runs", [])
    reg, p50s = registry_totals(runs)
    dur = span_durations(spans)
    run_cpu_s = _med(s, "run_cpu_s")
    run_wall_s = _med(s, "run_s")

    def r(name):
        return reg.get(name, 0)

    def span_median(name):
        return median(dur[name]) if name in dur else 0.0

    sim_events = sum(x.get("events", 0) for x in runs)
    first_try = r("fabric.puts") + r("fabric.gets") + r("fabric.ams")
    attempts = first_try + r("fabric.resilience.retransmits") + r("fabric.cq_retries")
    hits, misses = v.get("svc.cache.hits", 0), v.get("svc.cache.misses", 0)
    hit_ms, miss_ms = s.get("hit_ms", []), s.get("miss_ms", [])
    out = {
        "sim.events": sim_events,
        "sim.events_per_run_s": _ratio(sim_events, run_cpu_s),
        "sim.virtual_ns": sum(x.get("virtual_ns", 0) for x in runs),
        "sim.event_nodes": sum(x.get("event_nodes", 0) for x in runs),
        "sim.fiber_stacks": sum(x.get("fiber_stacks", 0) for x in runs),
        "sim.world_setup_s": _med(s, "sim.world_setup_s"),
        "fabric.puts": r("fabric.puts"),
        "fabric.gets": r("fabric.gets"),
        "fabric.ams": r("fabric.ams"),
        "fabric.put_bytes": r("fabric.put_bytes"),
        "fabric.get_bytes": r("fabric.get_bytes"),
        "fabric.resilience.retransmits": r("fabric.resilience.retransmits"),
        "fabric.cq_retries": r("fabric.cq_retries"),
        "fabric.useful_ratio": _ratio(first_try, attempts),
        "unr.puts": r("unr.puts"),
        "unr.gets": r("unr.gets"),
        "unr.fragments": r("unr.fragments"),
        "unr.companions": r("unr.companions"),
        "unr.engine.drains": r("unr.engine.drains"),
        "unr.engine.cqes": r("unr.engine.cqes"),
        "unr.engine.sw_tasks": r("unr.engine.sw_tasks"),
        "unr.cqes_per_drain": _ratio(r("unr.engine.cqes"), r("unr.engine.drains")),
        "unr.put_issue_ns": span_median("unr.Unr::put"),
        "unr.get_issue_ns": span_median("unr.Unr::get"),
        "unr.setup_s": _med(s, "unr.setup_s"),
        "comm.eager_sends": r("comm.eager_sends"),
        "comm.rts_sends": r("comm.rts_sends"),
        "comm.cts_sends": r("comm.cts_sends"),
        "comm.unexpected_msgs": r("comm.unexpected_msgs"),
        "runtime.isend_issue_ns": span_median("runtime.Comm::isend"),
        "powerllel.kernel_s": v.get("powerllel.kernel_s", 0.0),
        "powerllel.kernel_share": _ratio(v.get("powerllel.kernel_s", 0.0), run_cpu_s),
        "solver.step_ns": median(p50s["solver.step_ns"]) if "solver.step_ns" in p50s else 0,
        "check.oracle_s": v.get("check.oracle_s", 0.0),
        "check.oracle_share": _ratio(v.get("check.oracle_s", 0.0), run_cpu_s),
        "check.violations": v.get("check.violations", 0),
        "scenarios.build_s": _med(s, "scenarios.build_s"),
        "svc.run_runspec_s": _med(s, "svc.run_runspec_s"),
        "svc.miss_overhead_ms": _med(s, "svc.miss_overhead_ms"),
        "svc.cache.hits": hits,
        "svc.cache.misses": misses,
        "svc.hit_ratio": _ratio(hits, hits + misses),
        "svc.bytes_in": v.get("svc.bytes_in", 0),
        "svc.bytes_out": v.get("svc.bytes_out", 0),
        "svc.hit_p50_ms": percentile(hit_ms, 50) if hit_ms else 0.0,
        "svc.hit_p90_ms": percentile(hit_ms, 90) if hit_ms else 0.0,
        "svc.miss_p50_ms": percentile(miss_ms, 50) if miss_ms else 0.0,
        "svc.miss_p90_ms": percentile(miss_ms, 90) if miss_ms else 0.0,
        "svc.hit_samples": len(hit_ms),
        "svc.miss_samples": len(miss_ms),
        "obs.trace_overhead_ratio":
            _ratio(_med(s, "run_traced_cpu_s"), run_cpu_s) - 1 if run_cpu_s else 0.0,
        "host.run_wall_s": run_wall_s,
        "host.cpu_over_wall": _ratio(run_cpu_s, run_wall_s),
    }
    return out
