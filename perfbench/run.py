#!/usr/bin/env python3
"""The repository's benchmark of record (see BENCHMARK.json at the root).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 --repeat R

Builds perfbench/ (and with it the library sources under src/) into
.bench_build/perfbench, runs one workload in its own process and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones; the traced run also
writes its host-time spans to .bench_build/traces/. A human-readable report
goes to stderr.

--repeat R runs the workload R times with seeds N, N+1, ... and prints the
median and quartiles of every metric, with its spread (inter-quartile
distance over the median) against a third of its bound: the procedure the
bounds in BENCHMARK.json were set by.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pbstats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
CHILD_TIMEOUT_S = 170

# Agreement tolerance when comparing measured shares with ROADMAP's gprof
# figures (oracle ~0.62 of allreduce_256n, numerics ~0.97 of fig7).
GPROF = {"allreduce_256n": ("check.oracle_share", 0.62),
         "powerllel_16n": ("powerllel.kernel_share", 0.97)}
GPROF_TOLERANCE = 0.15


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the perfbench program; compiler output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            return None
    return BUILD / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """Run the perfbench program once; returns (raw result, spans or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    spans_path = None
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        spans_path = TRACES / ("%s-seed%d.csv" % (workload, seed))
        cmd += ["--spans", str(spans_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    raw = json.loads(proc.stdout)
    return raw, (pbstats.read_spans(spans_path) if spans_path else None)


def metrics_of(bench, raw, spans, trace):
    values = (pbstats.per_layer_values(raw, spans) if trace
              else pbstats.end_to_end_values(raw))
    table = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}


def report(workload, raw, spans, metrics, trace):
    att, fail = raw["attempted"], raw["failed"]
    log("%s seed %d: %d checks, %d failed, fail_ratio %.6f"
        % (workload, raw["seed"], att, fail, fail / att if att else 1.0))
    for f in raw["failures"]:
        log("  FAIL %s" % f)
    s = raw["samples"]
    log("  run_cpu_s over %d repetitions, setup_s over %d set-ups"
        % (len(s.get("run_cpu_s", [])), len(s.get("setup_s", []))))
    for name, m in metrics.items():
        log("  %-32s %16.6g %s" % (name, m["value"], m["unit"]))
    for key in ("hit_ms", "miss_ms"):
        vals = s.get(key)
        if vals:
            p = pbstats.tail_percentile(len(vals))
            tail = "p%g %.3f ms" % (p, pbstats.percentile(vals, p)) if p else "no tail"
            log("  %s: %d samples, p50 %.3f ms, highest reportable %s"
                % (key, len(vals), pbstats.percentile(vals, 50), tail))
    if not trace:
        return
    run_cpu_s = pbstats.median(s["run_cpu_s"])
    if workload in GPROF:
        name, ref = GPROF[workload]
        share = metrics[name]["value"]
        base = "check.oracle_s" if "oracle" in name else "powerllel.kernel_s"
        verdict = "agrees" if abs(share - ref) <= GPROF_TOLERANCE else "does not agree"
        log("  %s = %.3f (%s %.4f s over run_cpu_s %.4f s, median of %d untraced reps); "
            "ROADMAP gprof ~%.2f: %s (tolerance %.2f)"
            % (name, share, base, metrics[base]["value"], run_cpu_s, len(s["run_cpu_s"]),
               ref, verdict, GPROF_TOLERANCE))
    log("  spans of the traced reps (name: count, median, total):")
    for name, d in sorted(pbstats.span_durations(spans).items()):
        log("    %-28s %7d %12.0f ns %10.4f s" % (name, len(d), pbstats.median(d), sum(d) * 1e-9))
    # A rank parked inside a call (the simulator models post overheads by
    # switching fibers) keeps its span open while other ranks run, so spans of
    # different ranks overlap and layer totals can exceed wall time.
    log("  self time by layer (span minus its children; rank spans overlap): " + ", ".join(
        "%s %.3f s" % kv for kv in sorted(
            ((k, v * 1e-9) for k, v in pbstats.self_times(spans).items()), key=lambda kv: -kv[1])))


def repeat(bench, binary, args):
    rows = {}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for i in range(args.repeat):
        raw, spans = run_once(binary, args.workload, args.seed + i, args.seconds, args.trace)
        metrics = metrics_of(bench, raw, spans, args.trace)
        log("seed %d: %d checks, %d failed; %s" % (
            args.seed + i, raw["attempted"], raw["failed"],
            " ".join("%s=%.6g" % (k, m["value"]) for k, m in metrics.items())))
        for name, m in metrics.items():
            rows.setdefault(name, []).append(m["value"])
    summary, steady = {}, True
    log("%s over %d runs (seeds %d..%d):" % (args.workload, args.repeat, args.seed,
                                               args.seed + args.repeat - 1))
    for name, vals in rows.items():
        q1, med, q3 = pbstats.quartiles(vals)
        sp = pbstats.spread(vals)
        bound = bounds.get(name)
        ok = bound is None or name == "setup_s" or sp < bound / 3
        steady = steady and ok
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": sp, "bound": bound}
        log("  %-32s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
            % (name, med, q1, q3, sp,
               "" if bound is None else "  bound/3 %.4f %s" % (bound / 3, "ok" if ok else "WIDE")))
    print(json.dumps({"workload": args.workload, "trace": args.trace, "runs": args.repeat,
                      "first_seed": args.seed, "steady": steady, "metrics": summary}))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the build or workload process it is waiting on before we exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    bench_path = ROOT / "BENCHMARK.json"
    try:
        bench = pbstats.load_benchmark(bench_path)
    except (OSError, ValueError) as e:
        log("cannot load %s: %s" % (bench_path, e))
        return 2
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        log("unknown workload %r" % args.workload)
        return 2
    t0 = time.monotonic()
    binary = build()
    if binary is None:
        log("build failed")
        return 2
    log("build ready in %.1f s" % (time.monotonic() - t0))
    if args.repeat:
        return repeat(bench, binary, args)
    try:
        raw, spans = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log("workload %s did not complete: %s" % (args.workload, e))
        return 3
    metrics = metrics_of(bench, raw, spans, args.trace)
    report(args.workload, raw, spans, metrics, args.trace)
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
