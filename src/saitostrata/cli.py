"""Command-line front end: predict, det, classical, tables, verify.

Every subcommand emits a JSON report (or a plain-text rendering with
``--format text``) that validates against the schema shipped in
``data/cli_schema.json``.  Exit status: 0 on success, 1 when a
verification or table diff fails (the report carries a machine-readable
failure list), 2 on invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import signal
import sys
import time
from fractions import Fraction
from importlib import resources
from itertools import combinations
from json.encoder import encode_basestring_ascii
from math import gcd, log10

from .algebra import IncompleteFactorization, factor_linear
from .lgclassical import (StratumConfigA, StratumConfigBD, DegeneratePoint,
                          closed_form_det_A, closed_form_det_BD, kappa_A,
                          kappa_powers, residue_metric_at, frobenius_check_at)
from .roots import build_root_system, parse_group, reduce_to_fundamental
from .strata import (InvariantViolation, make_stratum, predict_determinant,
                     q_polynomial, stratum_json_dict)
from . import saitosym

_DATA = resources.files("saitostrata") / "data"

_TABLE_KEYS = {1: ("det", "e8_dim3"), 2: ("det", "e8_dim2"),
               3: ("det", "e7_dim2"), 4: ("sub", "e8_dim3"),
               5: ("sub", "e8_dim2"), 6: ("sub", "e7_dim2")}
_TABLE_GROUPS = {"e8_dim3": ("E", 8), "e8_dim2": ("E", 8),
                 "e7_dim2": ("E", 7)}


class InputError(ValueError):
    """Invalid request; mapped to exit status 2."""


# the residuals of `classical --at`, and the bound a point must meet on
# each: past it, the floating-point oracle has not resolved the point
RESIDUALS = ("gram_euler", "determinant", "idempotency")
RESIDUAL_BOUND = 1e-8


def worker_count():
    """The most processes `verify` spreads its strata over, the calling
    one included: SAITO_STRATA_THREADS, default the CPUs this process may
    run on; 1 where the platform cannot fork."""
    raw = os.environ.get("SAITO_STRATA_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            val = len(os.sched_getaffinity(0))
        else:
            val = os.cpu_count() or 1
    else:
        try:
            val = int(raw)
        except ValueError:
            raise InputError(f"SAITO_STRATA_THREADS must be an integer, "
                             f"got {raw!r}")
        if val < 1:
            raise InputError("SAITO_STRATA_THREADS must be >= 1")
    return val if hasattr(os, "fork") else 1


# `_fork_map` forks once the items left would take this process longer
# than this alone.  On a 2-core machine with Python 3.11, a fork map of a
# trivial function over two processes took 2.0-2.6 ms against 0.01 ms in
# one (fork 0.4 ms, the child's first reply 1.1 ms, waitpid 0.7 ms), and
# two busy processes each ran up to 1.3x slower than one: two processes
# win past about 6 ms of work.  The mean of the first items overrates the
# rest, as `verify` takes the costly codimension-1 strata first (after
# its first stratum B3 reads 6-7 ms for strata that take 4-5 ms), hence
# 10 ms
_FORK_BREAK_EVEN_S = 0.010


def _fork_map(fn, items, nproc):
    """``[fn(x) for x in items]`` over at most `nproc` processes.  This
    process computes the items in order and times them.  After each one,
    if at least two are left and the mean time so far times the number
    left passes `_FORK_BREAK_EVEN_S`, the rest is shared
    (`_share_queue`); so nproc = 1 forks nothing, and neither does work
    that costs less than a fork."""
    items = list(items)
    out = [None] * len(items)
    start = time.perf_counter()
    for i, x in enumerate(items):
        out[i] = fn(x)
        left = len(items) - i - 1
        spent = time.perf_counter() - start
        if nproc > 1 and left > 1 \
                and spent / (i + 1) * left > _FORK_BREAK_EVEN_S:
            return _share_queue(fn, items, out, i + 1, nproc)
    return out


def _queue(fd):
    """The indices in the queue pipe fd, one 4-byte record per read, until
    the pipe is empty and its write end closed."""
    while record := os.read(fd, 4):
        yield int.from_bytes(record, "little")


def _share_queue(fn, items, out, first, nproc):
    """Fill ``out[first:]`` with fn of `items` over this process and up to
    nproc - 1 forked children.  The indices left are written into one
    pipe before the first fork, and every process reads one at a time
    until the pipe is empty, so no process idles while another has a
    queue of its own.  A child sends its (index, result) pairs back
    pickled through a pipe.  Children inherit `fn` and `items`, so nothing
    is pickled on the way in.  An exception raised in a child is re-raised
    here, and a child that exits without sending raises RuntimeError.  No
    child outlives the call.  A child has only the forking thread, so `fn`
    must not need another."""
    records = b"".join(i.to_bytes(4, "little")
                       for i in range(first, len(items)))
    # a pipe buffers at least one 4 KiB page, so this one write never
    # blocks: room for 1,024 indices, where `verify` has at most 254 strata
    if len(records) > 4096:
        raise ValueError(f"{len(items) - first} items left: more than one "
                         f"queue write holds")
    queue, wq = os.pipe()
    try:
        os.write(wq, records)
    finally:
        os.close(wq)
    children = []                       # (pid, w, read end), unreaped
    try:
        for w in range(1, min(nproc, len(items) - first)):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    try:
                        data = pickle.dumps(
                            (True, [(i, fn(items[i])) for i in _queue(queue)]))
                    except BaseException as exc:
                        data = pickle.dumps((False, exc))
                    with os.fdopen(wfd, "wb") as pipe:
                        pipe.write(data)
                    status = 0
                finally:
                    # never return into the caller, never flush its buffers
                    os._exit(status)
            # before the next fork, so that no later child holds this pipe
            # open and the child's exit ends it
            os.close(wfd)
            children.append((pid, w, os.fdopen(r, "rb")))
        for i in _queue(queue):
            out[i] = fn(items[i])
        while children:
            pid, w, pipe = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not data:
                raise RuntimeError(f"worker {w} of {nproc} exited without a "
                                   f"result (exit code "
                                   f"{os.waitstatus_to_exitcode(status)})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            for i, result in value:
                out[i] = result
        return out
    finally:
        os.close(queue)
        for pid, _, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# parsing helpers

def _parse_ints(text, what):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InputError(f"{what} must be a comma-separated integer list, "
                         f"got {text!r}")


def _parse_fracs(text, what):
    try:
        return [Fraction(x) for x in text.split(",") if x.strip() != ""]
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{what} must be a comma-separated list of "
                         f"rationals, got {text!r}")


# ---------------------------------------------------------------------------
# groups, kept for the life of the process

class _Group:
    """A root system and, from the first symbolic request on it, its flat
    basis."""

    __slots__ = ("R", "basis")

    def __init__(self, R):
        self.R = R
        self.basis = None


# Every `det`, `predict`, `tables` and `verify` request on a group reads the
# same root system and flat basis, so this process builds each once and
# keeps it here, keyed by `_group_key`.  It grows by one entry per distinct
# group the process is asked about and is never trimmed or shared with
# another process.  A failed build is never stored: the next request tries
# again.  The library functions themselves stay uncached.
_GROUPS = {}


def _group_key(name):
    """The memo key of a group label, read as `parse_group` reads it:
    (letter, rank), with C_n folded into B_n, whose root system it is.
    None when the label does not parse, which `parse_group` refuses."""
    name = name.strip().upper().replace("_", "")
    try:
        return ("B" if name[0] == "C" else name[0], int(name[1:]))
    except (IndexError, ValueError):
        return None


def _memo(key, build):
    """The entry under key; on a miss, `build()` makes its root system,
    and a build that raises stores nothing."""
    entry = _GROUPS.get(key)
    if entry is None:
        entry = _GROUPS[key] = _Group(build())
    return entry


def _group(args):
    """The memo entry of --group, its root system built on first use."""
    try:
        return _memo(_group_key(args.group), lambda: parse_group(args.group))
    except (ValueError, KeyError) as exc:
        raise InputError(f"unknown group {args.group!r}: {exc}")


def _flat_basis(entry):
    """The flat basis of a memo entry, solved on first use.
    `basic_invariants`' refusal of a group (E6, E7, E8) is bad input; a
    `DegenerateBasis`, or any failure inside `flat_coordinates`, is a
    defect and propagates."""
    if entry.basis is None:
        try:
            base = saitosym.basic_invariants(entry.R)
        except saitosym.DegenerateBasis:
            raise
        except ValueError as exc:      # the refusal of E6, E7 and E8
            raise InputError(str(exc))
        entry.basis = saitosym.flat_coordinates(entry.R, base)
    return entry.basis


def _stratum_indices(R, args):
    """The simple-wall index set, from --simple or from a root list."""
    word = None
    if getattr(args, "roots", None):
        vectors = []
        for chunk in args.roots.split(";"):
            vectors.append(_parse_fracs(chunk, "--roots entry"))
        if args.ambient:
            S = [R.coefficients(v) for v in vectors]
            if None in S:
                raise InputError("S must consist of roots")
        else:
            if any(len(cs) != R.rank for cs in vectors):
                raise InputError("each --roots vector needs one "
                                 "coefficient per simple root")
            S = vectors
        try:
            word, I = reduce_to_fundamental(R, S)
        except ValueError as exc:
            raise InputError(str(exc))
        return sorted(I), word
    if not getattr(args, "simple", None):
        raise InputError("need --simple or --roots")
    I = sorted(set(_parse_ints(args.simple, "--simple")))
    if not I or any(i < 1 or i > R.rank for i in I) or len(I) >= R.rank:
        raise InputError(f"--simple must be a nonempty proper subset "
                         f"of 1..{R.rank}")
    return I, word


def _factor_list(factors):
    """[{form, exponent}] for a mapping LinearForm -> exponent."""
    return [{"form": list(form), "exponent": int(e)}
            for form, e in sorted(factors.items())]


# ---------------------------------------------------------------------------
# subcommands

def cmd_predict(args):
    R = _group(args).R
    I, word = _stratum_indices(R, args)
    D = make_stratum(R, I)
    fd = predict_determinant(D)
    report = {
        "subcommand": "predict",
        "stratum": stratum_json_dict(D),
        "degree": fd.degree(),
        "coefficient": "unknown",
    }
    if word is not None:
        report["reduction_word"] = word
    if args.dump_roots:
        report["roots"] = R.to_json_dict()
    return report, 0


def cmd_det(args):
    group = _group(args)
    R = group.R
    I, _ = _stratum_indices(R, args)
    D = make_stratum(R, I)
    report = {
        "subcommand": "det",
        "stratum": stratum_json_dict(D),
        "backend": args.backend,
    }
    if args.invariants is not None:
        if (R.label, R.rank) != ("D", 3):
            raise InputError("--invariants selects the two-parameter D3 "
                             "family and needs --group D3")
        ab = _parse_fracs(args.invariants, "--invariants")
        if len(ab) != 2:
            raise InputError("--invariants needs two rationals a,b")
        invariants = _exact_strs(ab, "--invariants")
        try:
            basis = saitosym.quartic_family_d3(*ab)
        except saitosym.DegenerateBasis as exc:
            raise InputError(str(exc))
        report["invariants"] = invariants
    else:
        basis = _flat_basis(group)
        report["normalized_pairing"] = basis.normalized
    try:
        if args.backend == "minor":
            det = saitosym.general_formula_det(basis, D) \
                * saitosym.frame_constant(basis, D)
            fd = factor_linear(det, [hp.form for hp in D.arrangement])
        else:
            fd = saitosym.restricted_saito_det(basis, D)
    except IncompleteFactorization as exc:
        return _incomplete(report, exc), 0
    report["complete"] = True
    report["coefficient"] = _exact_strs([fd.coefficient],
                                        "--invariants")[0]
    report["factors"] = _factor_list(fd.factors)
    if args.dump_roots:
        report["roots"] = R.to_json_dict()
    return report, 0


def _exact_strs(values, source):
    """The exact values of a report as strings.  A value too long for
    Python's int-to-str digit limit comes from the option `source`, and is
    bad input."""
    try:
        return [str(Fraction(x)) for x in values]
    except ValueError as exc:
        raise InputError(f"{source} gives values too long to print: {exc}")


def _incomplete(report, exc: IncompleteFactorization):
    report["complete"] = False
    report["partial_factors"] = _factor_list(exc.partial or {})
    if exc.cofactor is not None:
        terms = exc.cofactor.sorted_terms()
        report["cofactor"] = [
            [list(e), c]
            for (e, _), c in zip(terms, _exact_strs((c for _, c in terms),
                                                    "--invariants"))]
    return report


def _coprime_powers(powers):
    """The pairs (q, E) with prod q^E = prod b^e over the pairs (b, e) of
    powers, E != 0 and the q pairwise coprime, so that the E > 0 give the
    reduced numerator and the E < 0 the reduced denominator.  The bases
    are split by gcds until they are coprime, and nothing is factored."""
    base, todo = [], [b for b, _ in powers]
    while todo:
        y = todo.pop()
        if y == 1:
            continue
        for i, q in enumerate(base):
            g = gcd(y, q)
            if g > 1:
                del base[i]
                todo += [q // g, g, y // g]
                break
        else:
            base.append(y)
    out = []
    for q in base:
        E = 0
        for b, e in powers:
            while b % q == 0:
                b //= q
                E += e
        if E:
            out.append((q, E))
    return out


def _refuse_long_kappa(cfg, source):
    """Refuse, with the text `_exact_strs` gives after computing it, a
    kappa whose reduced numerator or denominator certainly has more digits
    than Python converts to a string, before kappa or the closed form is
    computed.  The digits come from kappa = sign prod b^e
    (`kappa_powers`): a side of prod b^e has fewer than sum e log10 b + 1.
    When the unreduced sides print, so do the reduced ones; else the
    reduced sides are read off `_coprime_powers`.  A margin of one digit
    covers rounding, and what falls inside it is computed as before."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return

    def longest(powers):
        return max(sum(e * log10(b) for b, e in powers if e > 0),
                   sum(-e * log10(b) for b, e in powers if e < 0))
    _, powers = kappa_powers(cfg)
    if longest(powers) < limit - 1:
        return
    if longest(_coprime_powers(powers)) > limit + 1:
        # 10^limit has limit + 1 digits: the refusal, with its own text
        _exact_strs([10 ** limit], source)


def cmd_classical(args):
    mults = _parse_ints(args.mult, "--mult")
    source = "--mult" if args.type == "A" else "--mult or --m"
    try:
        if args.type == "A":
            if args.m is not None:
                raise InputError("--m applies only to types B and D")
            cfg = StratumConfigA(mults)
            _refuse_long_kappa(cfg, source)
            fd = closed_form_det_A(cfg)
            kap = kappa_A(cfg)
        else:
            m = 0 if args.m is None else args.m
            cfg = StratumConfigBD(m, mults, kind=args.type)
            if cfg.m + min(cfg.mults) >= 0:     # else the closed form refuses
                _refuse_long_kappa(cfg, source)
            fd = closed_form_det_BD(cfg)
            kap = fd.coefficient                # kappa itself on B/D
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(str(exc))
    report = {
        "subcommand": "classical",
        "type": args.type,
        "mults": mults,
        "kappa": _exact_strs([kap], source)[0],
        "factors": _factor_list(fd.factors),
    }
    if args.type != "A":
        report["m"] = cfg.m
    if args.at is not None:
        xi = _parse_fracs(args.at, "--at")
        if len(xi) != cfg.d:
            raise InputError(f"--at needs {cfg.d} coordinates")
        try:
            _, det = residue_metric_at(cfg, xi)
            res = frobenius_check_at(cfg, xi)
        except DegeneratePoint as exc:
            raise InputError(f"--at is not a generic point: {exc}")
        for k in RESIDUALS:
            if res[k] > RESIDUAL_BOUND:
                raise InputError(f"--at is not a generic point: residual "
                                 f"{k} {res[k]:.1e} > {RESIDUAL_BOUND:g}")
        report["at"] = _exact_strs(xi, "--at")
        report["closed_form_det"] = _exact_strs([fd.evaluate(xi)], "--at")[0]
        det = complex(det)
        report["oracle_det"] = [det.real, det.imag]
        report["residuals"] = {k: res[k] for k in RESIDUALS}
    return report, 0


def _load_table(which):
    if which not in _TABLE_KEYS:
        raise InputError("--which must be 1..6")
    kind, key = _TABLE_KEYS[which]
    fname = ("golden_det_tables.json" if kind == "det"
             else "golden_subsystem_tables.json")
    golden = json.loads((_DATA / fname).read_text())
    return kind, key, golden[key]


def _sorted_types(type_string):
    return sorted(type_string.split("x"))


def cmd_tables(args):
    kind, key, golden = _load_table(args.which)
    label, rank = _TABLE_GROUPS[key]
    R = _memo((label, rank), lambda: build_root_system(label, rank)).R
    rows, diff = [], []
    for entry in golden:
        D = make_stratum(R, entry["simple_indices"])
        if kind == "det":
            fd = predict_determinant(D)
            got = sorted(fd.factors.items())
            want = sorted((tuple(f["form"]), f["exponent"])
                          for f in entry["factors"])
            row = {"r_d_type": entry["r_d_type"],
                   "simple_indices": entry["simple_indices"],
                   "exponents": sorted(e for _, e in got),
                   "match": got == want}
            if got != want:
                diff.append({"r_d_type": entry["r_d_type"],
                             "simple_indices": entry["simple_indices"],
                             "expected": [[list(f), e] for f, e in want],
                             "got": [[list(f), e] for f, e in got]})
        else:
            by_form = {hp.form: hp for hp in D.arrangement}
            mism, missing = [], []
            covered = set()
            for cls in entry["rows"]:
                for form in cls["forms"]:
                    hp = by_form.get(tuple(form))
                    if hp is None:
                        missing.append(form)
                        continue
                    covered.add(tuple(form))
                    got_cls = {
                        "size": sum(c.size for c in hp.rd_beta),
                        "type": sorted(c.type_label for c in hp.rd_beta),
                        "component0": hp.component0.type_label,
                        "h": hp.component0.coxeter_number,
                    }
                    want_cls = {
                        "size": cls["size"],
                        "type": _sorted_types(cls["type"]),
                        "component0": cls["component0"],
                        "h": cls["h"],
                    }
                    if got_cls != want_cls:
                        mism.append({"form": form, "expected": want_cls,
                                     "got": got_cls})
            extra = sorted(f for f in by_form if f not in covered)
            row = {"r_d_type": entry["r_d_type"],
                   "simple_indices": entry["simple_indices"],
                   "classes": len(entry["rows"]),
                   "match": not (mism or missing or extra)}
            if mism or missing or extra:
                diff.append({"r_d_type": entry["r_d_type"],
                             "simple_indices": entry["simple_indices"],
                             "mismatches": mism,
                             "missing_forms": missing,
                             "unlisted_forms": [list(f) for f in extra]})
        rows.append(row)
    report = {"subcommand": "tables", "which": args.which,
              "rows": rows, "diff": diff}
    return report, (1 if diff else 0)


# --- verify ----------------------------------------------------------------

# `verify` runs the symbolic route by default up to this rank; B5 costs most
# there, in one process: 1.6-2.4 s for its flat basis and 10-14 s over its
# strata, nearly all of it in the five codimension-1 determinants
_SYMBOLIC_MAX_RANK = 5


def _verify_stratum(R, basis, I):
    """Every check on stratum I of R, which is built once; runs in the
    calling process or in a forked child of `_fork_map`.  With a flat
    basis this includes the restricted Saito determinant against the
    prediction."""
    out = []

    def add(check, passed, detail=""):
        out.append({"stratum": list(I), "check": check,
                    "passed": bool(passed), "detail": detail})

    try:
        D = make_stratum(R, I)
        add("arrangement_class_consistency", True,
            f"{len(D.arrangement)} projective classes")
    except InvariantViolation as exc:
        add("arrangement_class_consistency", False, str(exc))
        return out
    try:
        fd = predict_determinant(D)
        add("determinant_degree", True, f"degree {fd.degree()}")
    except InvariantViolation as exc:
        add("determinant_degree", False, str(exc))
        return out
    if len(I) == 1:
        h = R.coxeter_number
        expect = len(R.positive_roots) - h + 1
        add("mirror_arrangement_count", len(D.arrangement) == expect,
            f"|A_D| = {len(D.arrangement)}, |A| - h + 1 = {expect}")
    for seed in (None, 1, 2, 3):
        check = ("q_polynomial_default" if seed is None
                 else f"q_polynomial_random_{seed}")
        try:
            rng = None if seed is None else random.Random(seed)
            add(check, q_polynomial(D, rng=rng).factors == fd.factors)
        except Exception as exc:  # noqa: BLE001 - report, never abort
            add(check, False, repr(exc))
    if basis is not None:
        try:
            sym = saitosym.restricted_saito_det(basis, D)
            add("restricted_det_matches_prediction",
                sym.factors == fd.factors)
        except IncompleteFactorization as exc:
            add("restricted_det_matches_prediction", False, str(exc))
    return out


def cmd_verify(args):
    group = _group(args)
    R = group.R
    n = R.rank
    strata = [I for size in range(1, n)
              for I in combinations(range(1, n + 1), size)]
    checks = []
    nproc = max(1, min(worker_count(), len(strata)))
    basis = None
    if R.rank <= _SYMBOLIC_MAX_RANK and not args.skip_symbolic:
        basis = _flat_basis(group)
        checks.append({"stratum": [], "check": "flat_pairing_normalized",
                       "passed": True,
                       "detail": f"normalized={basis.normalized}"})
    for res in _fork_map(lambda I: _verify_stratum(R, basis, I), strata,
                         nproc):
        checks.extend(res)
    if basis is not None:
        checks.extend({"stratum": [], **item}
                      for item in saitosym.identity_field_checks(basis))

    checks.sort(key=lambda c: (len(c["stratum"]), c["stratum"], c["check"]))
    failures = [c for c in checks if not c["passed"]]
    report = {"subcommand": "verify", "group": f"{R.label}{R.rank}",
              "passed": not failures, "checks": checks,
              "failures": failures}
    if args.dump_roots:
        report["roots"] = R.to_json_dict()
    return report, (1 if failures else 0)


# ---------------------------------------------------------------------------
# output

def _render_text(report):
    lines = [f"subcommand: {report['subcommand']}"]
    sub = report["subcommand"]
    if sub in ("predict", "det"):
        st = report["stratum"]
        lines.append(f"stratum: {st['group']} I={st['simple_indices']} "
                     f"dim={st['dim']}")
        if sub == "predict":
            facs = [(f["form"], f["exponent"]) for f in st["factors"]]
        elif report["complete"]:
            lines.append(f"coefficient: {report['coefficient']}")
            facs = [(f["form"], f["exponent"]) for f in report["factors"]]
        else:
            lines.append("factorization incomplete over the arrangement")
            facs = [(f["form"], f["exponent"])
                    for f in report["partial_factors"]]
        for form, e in facs:
            lines.append(f"  ({' '.join(str(c) for c in form)})^{e}")
    elif sub == "classical":
        lines.append(f"kappa: {report['kappa']}")
        for f in report["factors"]:
            lines.append(f"  ({' '.join(str(c) for c in f['form'])})"
                         f"^{f['exponent']}")
        if "oracle_det" in report:
            lines.append(f"closed form at point: {report['closed_form_det']}")
            lines.append(f"oracle det: {report['oracle_det']}")
    elif sub == "tables":
        for row in report["rows"]:
            lines.append(f"  {row['r_d_type']:12s} "
                         f"{'ok' if row['match'] else 'DIFF'}")
        lines.append(f"diff entries: {len(report['diff'])}")
    elif sub == "verify":
        for c in report["checks"]:
            mark = "ok " if c["passed"] else "FAIL"
            where = ",".join(str(i) for i in c["stratum"]) or "-"
            lines.append(f"  [{mark}] {c['check']} @ {where}")
        lines.append(f"passed: {report['passed']}")
    return "\n".join(lines) + "\n"


_INF = float("inf")


def _float_json(x):
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the JSON text of each scalar type, looked up by exact type
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            float: _float_json, bool: lambda b: "true" if b else "false",
            type(None): lambda _: "null"}


def _report_json(obj, indent="\n"):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, built
    without the encoder: with an indent, json.dumps runs its pure-Python
    generator encoder, since the C one cannot indent.  Scalars are of the
    exact types str, int, float, bool and None; containers are dicts with
    str keys, lists and tuples.  Anything else, a non-str key included,
    raises TypeError."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = indent + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _report_json(v, inner)
            for k, v in sorted(obj.items())]) + indent + "}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        try:      # one join when every item is a scalar
            items = [_SCALARS[type(x)](x) for x in obj]
        except KeyError:
            items = [_report_json(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} "
                    f"is not JSON serializable")


def _emit(report, args):
    """Write the report to --output or stdout: with --format json the
    bytes of ``json.dumps(report, sort_keys=True, indent=2)`` and a
    newline, written by `_report_json`; else `_render_text`."""
    if args.format == "json":
        text = _report_json(report) + "\n"
    else:
        text = _render_text(report)
    if args.output:
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            raise InputError(f"cannot write --output: {exc}")
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="saitostrata",
        description="Determinants of restricted Saito metrics on "
                    "discriminant strata of finite Coxeter groups.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, group=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--output", help="write the report to a file")
        if group:
            p.add_argument("--group", required=True,
                           help="group label, e.g. A3, B3, D4, F4, E8")
            p.add_argument("--dump-roots", action="store_true",
                           help="include the exact root-system data")

    p = sub.add_parser("predict", help="combinatorial determinant predictor")
    common(p)
    p.add_argument("--simple", help="simple wall indices, e.g. 4,5,6,7,8")
    p.add_argument("--roots",
                   help="semicolon-separated root list; each root as "
                        "comma-separated simple-basis coefficients")
    p.add_argument("--ambient", action="store_true",
                   help="interpret --roots vectors as raw ambient "
                        "coordinates instead of simple-basis coefficients")

    p = sub.add_parser("det", help="exact symbolic determinant")
    common(p)
    p.add_argument("--simple", required=True)
    p.add_argument("--backend", choices=("symbolic", "minor"),
                   default="symbolic")
    p.add_argument("--invariants", metavar="a,b",
                   help="use the two-parameter D3 invariant family")

    p = sub.add_parser("classical",
                       help="closed-form determinants for A/B/D strata")
    common(p, group=False)
    p.add_argument("--type", choices=("A", "B", "D"), required=True)
    p.add_argument("--mult", required=True,
                   help="multiplicities m0,m1,... (A) or m1,... (B/D)")
    p.add_argument("--m", type=int, help="B/D power exponent (default 0)")
    p.add_argument("--at", help="evaluation point xi1,xi2,... triggering "
                                "the numeric oracle cross-check")

    p = sub.add_parser("tables", help="reproduce and diff the golden tables")
    common(p, group=False)
    p.add_argument("--which", type=int, required=True,
                   help="1-3: determinant exponents; 4-6: subsystem data")

    p = sub.add_parser("verify", help="run the property suite for a group")
    common(p)
    p.add_argument("--skip-symbolic", action="store_true",
                   help="combinatorial checks only")
    return parser


_PARSER = None     # built by the first `main` call, then reused


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up at each call, so a rebinding of `cmd_*` takes effect
    command = globals()[f"cmd_{args.subcommand}"]
    try:
        # refuse an --output that cannot take the report before the command
        # runs, and open nothing until it has succeeded
        if args.output and (os.path.isdir(args.output) or not os.access(
                os.path.dirname(args.output) or ".", os.W_OK)):
            raise InputError(f"cannot write --output: {args.output!r} is a "
                             f"directory or its directory is not writable")
        report, status = command(args)
        _emit(report, args)
    except InputError as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
