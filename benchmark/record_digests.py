"""Record the expected-output digests the benchmark checks against.

    python3 benchmark/record_digests.py

Writes benchmark/digests.json from the package in src/.  It covers every
input a workload can send: all verify, tables and det requests, every
predict stratum of the cli-mix groups, every classical configuration, and
the two-route determinants.  Run it only at a commit whose outputs are
known to be right, and say so when the file changes: a digest recorded
from wrong output makes the benchmark accept wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from checks import (DIGESTS, classical_exact_fields, digest,  # noqa: E402
                    factored_json, predict_digest_body, predict_signature)


def _report(req):
    status, out, err, tb = W.run_cli(req["argv"])
    if status != 0 or err or tb:
        raise SystemExit(f"{' '.join(req['argv'])}: status {status}\n{err}{tb}")
    return json.loads(out)


def main():
    from saitostrata import build_root_system, flat_coordinates, make_stratum
    from saitostrata.lgclassical import (StratumConfigA, StratumConfigBD,
                                         closed_form_det_A,
                                         closed_form_det_BD)
    from saitostrata.saitosym import identity_field_checks, restricted_saito_det

    out = {"verify": {}, "tables": {}, "det": {}, "predict": {},
           "classical": {}, "two_route": {}, "identity": {}}
    for group in ("E7",) + W.MAIN_THEOREM_GROUPS:
        req = W.verify_request(group)
        out["verify"][req["key"]] = digest(_report(req))
    for which in range(1, 7):
        req = W.tables_request(which)
        out["tables"][req["key"]] = digest(_report(req))
    for group in W.DET_GROUPS:
        for I in W.strata_of(W.group_rank(group)):
            for backend in W.DET_BACKENDS:
                req = W.det_request(group, I, backend)
                out["det"][req["key"]] = digest(_report(req))
    for group in W.PREDICT_COUNTS:
        for I in W.strata_of(W.group_rank(group)):
            req = W.predict_request(group, I)
            report = _report(req)
            out["predict"][req["key"]] = [
                digest(predict_digest_body(report)),
                predict_signature(report)]
        print(f"predict {group} done", file=sys.stderr)
    for kind, mults, m in W.classical_configs():
        report = _report(W.request(W.classical_argv(kind, mults, m),
                                   "classical", None, None))
        cfg = StratumConfigA(mults) if kind == "A" \
            else StratumConfigBD(m, mults, kind=kind)
        fd = closed_form_det_A(cfg) if kind == "A" else closed_form_det_BD(cfg)
        out["classical"][W.classical_key(kind, mults, m)] = [
            digest(classical_exact_fields(report)), str(fd.coefficient)]
    for label, rank, max_codim in W.TWO_ROUTE_BASES:
        basis = flat_coordinates(build_root_system(label, rank))
        group = f"{label}{rank}"
        for I in W.strata_of(rank):
            if len(I) <= max_codim:
                fd = restricted_saito_det(basis, make_stratum(basis.R, I))
                out["two_route"][W.stratum_key(group, I)] = \
                    digest(factored_json(fd))
        out["identity"][group] = digest(identity_field_checks(basis))
    DIGESTS.write_text(dumps_one_entry_per_line(out))
    print(f"wrote {DIGESTS}", file=sys.stderr)


def dumps_one_entry_per_line(tables):
    """JSON text with one line per digest entry, so diffs stay readable."""
    blocks = []
    for table, entries in sorted(tables.items()):
        rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                          for k, v in sorted(entries.items()))
        blocks.append(f" {json.dumps(table)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    main()
