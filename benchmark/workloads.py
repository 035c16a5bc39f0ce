"""The four benchmark workloads: inputs, set-up and the timed pass.

Every function that touches the library imports it lazily, so that the
pass process can time interpreter start and import as part of set-up.
Outputs are returned raw; checking them is `checks.py`'s job and happens
after the timed pass.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback
from itertools import combinations, product

WORKLOADS = ("verify-e7", "main-theorem", "two-route", "cli-mix")

# Groups with a symbolic backend; F4 is left out for time (README.md).
MAIN_THEOREM_GROUPS = ("A2", "A3", "B2", "B3", "D3", "D4")
# (label, rank, largest codimension checked); D4 codim 3 is left out.
TWO_ROUTE_BASES = (("A", 3, 2), ("B", 3, 2), ("D", 4, 2))
DET_GROUPS = ("A2", "A3", "B2", "B3", "D3")
DET_BACKENDS = ("symbolic", "minor")
# cli-mix sends fixed counts of each kind of request, so that its cost
# hardly depends on the seed: per group and backend for det, per type for
# classical, per group for predict.  E8 gets the most predict requests so
# that the p95 latency falls inside the E8 requests, not at the edge
# between them and the tables.
DET_PER_BACKEND = 6
CLASSICAL_PER_TYPE = 40
PREDICT_COUNTS = {"A2": 9, "A3": 9, "A4": 9, "B2": 9, "B3": 9, "B4": 9,
                  "D4": 9, "D5": 9, "E6": 9, "F4": 9, "E7": 10, "E8": 14}
CLI_MIX_REQUESTS = (6 + 3 * CLASSICAL_PER_TYPE
                    + len(DET_GROUPS) * len(DET_BACKENDS) * DET_PER_BACKEND
                    + sum(PREDICT_COUNTS.values()))


def strata_of(rank):
    """Every proper nonempty simple-wall index set of a rank-`rank` group."""
    return [I for size in range(1, rank)
            for I in combinations(range(1, rank + 1), size)]


def group_rank(group):
    return int(group[1:])


def stratum_key(group, I):
    return f"{group} {','.join(str(i) for i in I)}"


def classical_configs():
    """The classical configurations cli-mix samples from: the ranges of
    acceptance criterion 4 (type A with n <= 6, types B/D with N <= 7)."""
    out = []
    for d in (1, 2, 3):
        for mults in product((1, 2, 3), repeat=d + 1):
            if sum(mults) <= 7:
                out.append(("A", mults, None))
    for kind in ("B", "D"):
        for d in (1, 2, 3):
            for mults in product((1, 2, 3), repeat=d):
                for m in range(-1, 4):
                    if 0 < m + sum(mults) <= 7:
                        out.append((kind, mults, m))
    return out


def classical_key(kind, mults, m):
    key = f"{kind} {','.join(str(x) for x in mults)}"
    return key if m is None else f"{key} m={m}"


def classical_argv(kind, mults, m):
    argv = ["classical", "--type", kind, "--mult",
            ",".join(str(x) for x in mults)]
    if m is not None:
        argv.append(f"--m={m}")
    return argv


# ---------------------------------------------------------------------------
# requests

def request(argv, kind, key, group, **extra):
    """One CLI invocation with what its check needs to know."""
    return dict(argv=argv, kind=kind, key=key, group=group, **extra)


def verify_request(group):
    return request(["verify", "--group", group], "verify", group, group)


def predict_request(group, I):
    return request(["predict", "--group", group,
                    "--simple", ",".join(str(i) for i in I)],
                   "predict", stratum_key(group, I), group)


def det_request(group, I, backend):
    return request(["det", "--group", group,
                    "--simple", ",".join(str(i) for i in I),
                    "--backend", backend],
                   "det", f"{stratum_key(group, I)} {backend}", group)


def tables_request(which):
    return request(["tables", "--which", str(which)], "tables", str(which),
                   "E8" if which in (1, 2, 4, 5) else "E7")


def _weyl_image(cartan, word, i):
    """w(alpha_i) in simple-root coordinates, w applied right to left."""
    v = [0] * len(cartan)
    v[i - 1] = 1
    for j in reversed(word):
        j -= 1
        v[j] -= sum(v[k] * cartan[k][j] for k in range(len(v)))
    return v


def _stratum(rng, rank, k):
    """A random stratum of codimension 1 + k mod (rank - 1), so that every
    seed sends the same number of strata of each codimension."""
    return tuple(sorted(rng.sample(range(1, rank + 1), 1 + k % (rank - 1))))


def cli_mix_requests(seed):
    """The seeded cli-mix request list, in the order it is sent.

    40% `classical --at`, 20% `det` (A2-D3, both backends), each of
    `tables --which 1..6` once, and `predict` on A2-E8 for the rest, a
    third of them naming the stratum by a Weyl image of its simple roots.
    The seed picks strata, points, Weyl words and the order."""
    from saitostrata.lgclassical import (StratumConfigA, StratumConfigBD,
                                         random_generic_point)
    from saitostrata.roots import parse_group

    rng = random.Random(seed)
    reqs = [tables_request(w) for w in range(1, 7)]

    configs = classical_configs()
    for kind in ("A", "B", "D"):
        of_kind = [c for c in configs if c[0] == kind]
        for _ in range(CLASSICAL_PER_TYPE):
            _, mults, m = rng.choice(of_kind)
            cfg = StratumConfigA(mults) if kind == "A" \
                else StratumConfigBD(m, mults, kind=kind)
            point = [str(x) for x in random_generic_point(cfg, rng)]
            key = classical_key(kind, mults, m)
            reqs.append(request(classical_argv(kind, mults, m)
                                + ["--at=" + ",".join(point)],
                                "classical", key, key, point=point))

    for group in DET_GROUPS:
        for backend in DET_BACKENDS:
            for k in range(DET_PER_BACKEND):
                reqs.append(det_request(
                    group, _stratum(rng, group_rank(group), k), backend))

    for group, count in PREDICT_COUNTS.items():
        rank = group_rank(group)
        cartan = parse_group(group).cartan
        for k in range(count):
            I = _stratum(rng, rank, k)
            if k % 3 != 2:
                reqs.append(predict_request(group, I))
                continue
            word = [rng.randint(1, rank)
                    for _ in range(rng.randint(1, 2 * rank))]
            roots = ";".join(",".join(str(c) for c in
                                      _weyl_image(cartan, word, i))
                             for i in I)
            # the reduced stratum is only known from the answer, so the
            # check looks its digest up under the reported indices (key
            # None) and compares its W-invariants with the source's
            reqs.append(request(["predict", "--group", group,
                                 "--roots=" + roots],
                                "predict", None, group,
                                source=stratum_key(group, I)))
    rng.shuffle(reqs)
    return reqs


def repeat_group_share(reqs):
    """Share of requests whose group (for `classical`, configuration)
    already appeared earlier in the list."""
    seen, repeats = set(), 0
    for r in reqs:
        repeats += r["group"] in seen
        seen.add(r["group"])
    return repeats / len(reqs)


def run_cli(argv):
    """One in-process CLI call; returns (status, stdout, stderr, traceback)."""
    from saitostrata.cli import main
    out, err = io.StringIO(), io.StringIO()
    status, tb = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:      # argparse rejected the argv
        status = exc.code
    except Exception:              # noqa: BLE001 - a traceback is a failed check
        tb = traceback.format_exc()
    return status, out.getvalue(), err.getvalue(), tb


# ---------------------------------------------------------------------------
# set-up and timed pass

def setup(workload):
    """Work done before the timed pass; two-route gets its flat bases here."""
    import saitostrata.cli  # noqa: F401 - import is part of set-up
    if workload != "two-route":
        return None
    from saitostrata import build_root_system, flat_coordinates
    return [(flat_coordinates(build_root_system(label, rank)), max_codim)
            for label, rank, max_codim in TWO_ROUTE_BASES]


def requests_for(workload, seed):
    """The CLI requests of a workload; two-route makes none."""
    if workload == "verify-e7":
        return [verify_request("E7")]
    if workload == "main-theorem":
        return [verify_request(g) for g in MAIN_THEOREM_GROUPS]
    if workload == "cli-mix":
        return cli_mix_requests(seed)
    return []


def run_requests(reqs, tracer=None):
    """Send the requests one after another (a closed loop, one client)."""
    results = []
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        status, out, err, tb = run_cli(req["argv"])
        results.append(dict(status=status, stdout=out, stderr=err,
                            traceback=tb, start=t0,
                            latency_s=time.perf_counter() - t0))
    return results


def run_two_route(bases, tracer=None):
    """The library-level two-route check on every selected stratum, then
    the identity-field checks of each basis.  One group is one request:
    returns the results to check and the (start, latency) of each group."""
    from saitostrata import make_stratum
    from saitostrata.saitosym import (frame_constant, general_formula_det,
                                      identity_field_checks,
                                      restricted_saito_det)
    results, timed = [], []
    for basis, max_codim in bases:
        R = basis.R
        group = f"{R.label}{R.rank}"
        if tracer is not None:
            tracer.request = len(timed)
        t0 = time.perf_counter()
        for I in strata_of(R.rank):
            if len(I) > max_codim:
                continue
            D = make_stratum(R, I)
            fd = restricted_saito_det(basis, D)
            equal = general_formula_det(basis, D) * frame_constant(basis, D) \
                == fd.expand()
            results.append(dict(kind="equality", key=stratum_key(group, I),
                                equal=equal, det=fd))
        results.append(dict(kind="identity", key=group,
                            items=identity_field_checks(basis)))
        timed.append(dict(start=t0, latency_s=time.perf_counter() - t0))
    return results, timed


def items_checked(workload, results):
    """Strata checked (cli-mix: requests answered) in one pass."""
    if workload == "verify-e7":
        return len(strata_of(7))
    if workload == "main-theorem":
        return sum(len(strata_of(group_rank(g))) for g in MAIN_THEOREM_GROUPS)
    if workload == "two-route":
        return sum(r["kind"] == "equality" for r in results)
    return len(results)
