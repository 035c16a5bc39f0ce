"""saitostrata benchmark: one workload, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/.  Each pass starts a fresh interpreter (benchmark/one_pass.py), so
no cache or worker pool carries over between passes.

--trace 0 runs as many passes (at least one) as end nearest to S seconds
and reports medians of the end-to-end metrics.  Times measured during a
pass are divided by the machine's slowdown during it (probe.py), so they
read as at a fixed nominal machine speed; the raw values are in the pass
records.  Set-up is also timed in extra set-up-only interpreters, so
that setup_s is a median of SETUP_SAMPLES values; it is raw, because the
probe cannot run before set-up ends.

--trace 1 runs an untraced pass with the default pool size (for the
pool's parallel efficiency), an untraced pass with the traced settings
(one worker, so every call lands in the traced process), then the traced
pass, and reports the per-layer metrics and the tracing overhead.

Progress and provenance go to stdout before the result; the last line is
the JSON result.  Spans and full pass records go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from tracer import TRACED, span_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7
PASS_TIMEOUT_S = 170
USES_POOL = ("verify-e7", "main-theorem")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(threads):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "affinity_cpus": threads,
            "cpu_model": cpu_model(), "loadavg_at_start": os.getloadavg()}


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["SAITO_STRATA_THREADS"] = str(threads)
    return env


def spawn(args, threads):
    """Run one pass process; return its JSON record."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "one_pass.py"), *args[:2], repr(t0),
           *args[2:]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(threads), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"pass {args} timed out after {PASS_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise SystemExit(f"pass {args} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, threads):
    passes, setups = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        rec = spawn([workload, str(seed)], threads)
        passes.append(rec)
        setups.append(rec["setup_s"])
        took = time.monotonic() - t
        print(f"pass {len(passes)}: wall {rec['wall_s']:.3f}s "
              f"setup {rec['setup_s']:.3f}s", flush=True)
        # stop at the pass count that ends nearest to `seconds`
        if time.monotonic() - start + took / 2 > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn([workload, str(seed), "--setup-only"],
                            threads)["setup_s"])
    # times at nominal machine speed: each divided by the probe's slowdown
    # over the pass (over the request, for latencies)
    latencies_ms = [1000 * x / s for p in passes
                    for x, s in zip(p["latencies_s"], p["request_slowdowns"])]
    wall = [p["wall_s"] / p["slowdown"] for p in passes]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(wall), "s"),
        "items_per_s": (statistics.median(p["items"] / w
                                          for p, w in zip(passes, wall)),
                        "1/s"),
        "cpu_s": (statistics.median(p["cpu_s"] / p["slowdown"]
                                    for p in passes), "s"),
        "request_p50_ms": (percentile(latencies_ms, 0.50), "ms"),
        "request_p95_ms": (percentile(latencies_ms, 0.95), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MiB"),
    }
    info = {"passes": len(passes), "setup_samples": len(setups),
            "latency_samples": len(latencies_ms),
            "beyond_p95": sum(x > metrics["request_p95_ms"][0]
                              for x in latencies_ms),
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
            "slowdown": statistics.median(p["slowdown"] for p in passes)}
    return metrics, passes, info


def per_layer(workload, seed, threads):
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.npz"
    pool = spawn([workload, str(seed)], threads) \
        if workload in USES_POOL else None
    base = spawn([workload, str(seed)], 1)
    traced = spawn([workload, str(seed), "--trace", str(trace_path)], 1)
    ref = pool or base
    workers = threads if workload in USES_POOL else 1
    per_name, counts = traced["per_name"], traced["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer, _, attr in TRACED:
        name = span_name(layer, attr)
        calls, self_s = per_name[name]
        metrics[f"{name}.calls"] = (calls, "count")
        if name != "algebra.try_divide":
            metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["algebra.MultiPoly.mul.terms_out"] = (
        counts.get("algebra.MultiPoly.mul.terms_out", 0), "count")
    metrics["algebra.divide_exact.terms_in"] = (
        counts.get("algebra.divide_exact.terms_in", 0), "count")
    metrics["algebra.try_divide.hit_ratio"] = (
        ratio(counts.get("algebra.try_divide.hits", 0),
              per_name["algebra.try_divide"][0]), "ratio")
    hyperplanes = counts.get("strata.restricted_arrangement.hyperplanes", 0)
    metrics["strata.restricted_arrangement.hyperplanes"] = (hyperplanes,
                                                            "count")
    metrics["strata.span_calls_per_hyperplane"] = (
        ratio(traced["span_calls_in_arrangement"], hyperplanes), "ratio")
    metrics["cli.verify.parallel_efficiency"] = (
        ratio(ref["cpu_s"], ref["wall_s"] * workers), "ratio")
    metrics["cli.repeat_group_share"] = (
        traced.get("repeat_group_share", 0.0), "ratio")
    metrics["trace.overhead_ratio"] = (
        ratio(traced["wall_s"] / traced["slowdown"],
              base["wall_s"] / base["slowdown"]) - 1, "ratio")
    passes = [p for p in (pool, base, traced) if p is not None]
    info = {"untraced_wall_s": base["wall_s"], "traced_wall_s":
            traced["wall_s"], "spans_file": str(trace_path.relative_to(ROOT))}
    return metrics, passes, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "saitostrata" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a "
              f"saitostrata source checkout", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    prov = provenance(threads)
    print("provenance " + json.dumps(prov, sort_keys=True), flush=True)
    # compile the package once so no timed interpreter pays for it
    subprocess.run([sys.executable, "-c", "import saitostrata.cli"],
                   env=child_env(threads), cwd=ROOT, check=True, timeout=120)

    if args.trace:
        metrics, passes, info = per_layer(args.workload, args.seed, threads)
    else:
        metrics, passes, info = end_to_end(args.workload, args.seed,
                                           args.seconds, threads)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:20]:
        print("FAILED " + line, flush=True)
    info.update(failed_share=len(failures) / max(attempted, 1))
    print("summary " + json.dumps(info, sort_keys=True), flush=True)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": prov, "info": info,
              "passes": passes}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
