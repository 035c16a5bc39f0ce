"""One pass of one workload, in a fresh interpreter; started by run.py.

    python3 benchmark/one_pass.py WORKLOAD SEED T0 [--setup-only]
        [--trace PATH]

T0 is the parent's time.monotonic() just before it started this process
(the clock is shared by all processes on Linux), so setup_s includes
interpreter start.  Prints one JSON line: set-up and pass timings, CPU,
peak RSS, per-request latencies, the machine's slowdown during the pass
and each request (probe.py), and the checks made on the outputs.  Times
in the record are raw; run.py normalizes them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from probe import SpeedProbe  # noqa: E402

# functions each workload is meant to exercise; a traced pass that
# records no call to one of them fails a check
EXERCISED = {
    "verify-e7": ("roots.build_root_system", "roots.span_subsystem",
                  "strata.make_stratum", "strata.restricted_arrangement",
                  "strata.q_polynomial", "cli.cmd_verify"),
    "main-theorem": ("saitosym.flat_coordinates", "saitosym.convolution_matrix",
                     "saitosym.express_in_invariants",
                     "saitosym.restricted_saito_det",
                     "saitosym.identity_field_checks",
                     "algebra.MultiPoly.mul", "algebra.MultiPoly.pow",
                     "algebra.MultiPoly.substitute", "algebra.poly_det",
                     "algebra.divide_exact", "algebra.factor_linear",
                     "algebra.try_divide", "exactla.solve", "exactla.rank",
                     "exactla.nullspace", "cli.cmd_verify"),
    "two-route": ("saitosym.general_formula_det", "saitosym.frame_constant",
                  "saitosym.identity_field_checks",
                  "saitosym.restricted_saito_det", "algebra.poly_det",
                  "algebra.divide_exact"),
    "cli-mix": ("roots.build_root_system", "roots.reduce_to_fundamental",
                "lgclassical.closed_form_det_A",
                "lgclassical.closed_form_det_BD",
                "lgclassical.residue_metric_at",
                "lgclassical.frobenius_check_at", "cli.cmd_predict",
                "cli.cmd_det", "cli.cmd_classical", "cli.cmd_tables"),
}


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=W.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("t0", type=float)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", help="write spans to this path")
    args = ap.parse_args(argv)

    state = W.setup(args.workload)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    reqs = W.requests_for(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(f"{args.workload}-seed{args.seed}-traced")
        tracer.install()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    with SpeedProbe() as probe:
        t = time.perf_counter()
        if args.workload == "two-route":
            results, timed = W.run_two_route(state, tracer)
        else:
            results = timed = W.run_requests(reqs, tracer)
        wall_s = time.perf_counter() - t
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.uninstall()

    from checks import Checker
    checker = Checker()
    if args.workload == "two-route":
        for res in results:
            checker.two_route(res)
    else:
        for req, res in zip(reqs, results):
            checker.cli(req, res)

    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(child1) - _cpu(child0),
        "peak_rss_mb": max(self1.ru_maxrss, child1.ru_maxrss) / 1024,
        "items": W.items_checked(args.workload, results),
        "latencies_s": [r["latency_s"] for r in timed],
        "slowdown": probe.slowdown(),
        "request_slowdowns": [probe.slowdown(r["start"],
                                             r["start"] + r["latency_s"])
                              for r in timed],
        "probe_samples": len(probe.durations),
    }
    if args.workload == "cli-mix":
        record["repeat_group_share"] = W.repeat_group_share(reqs)
    if tracer is not None:
        per_name = tracer.per_name()
        for name in EXERCISED[args.workload]:
            calls = per_name[name][0]
            checker.record(f"trace: {name} is called on {args.workload}",
                           [] if calls else ["no call recorded"])
        record["per_name"] = per_name
        record["counts"] = dict(tracer.counts)
        record["span_calls_in_arrangement"] = tracer.calls_under(
            "roots.span_subsystem", "strata.restricted_arrangement")
        tracer.save(args.trace, {"workload": args.workload,
                                 "seed": args.seed})
    record["attempted"] = checker.attempted
    record["failures"] = checker.failures
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
