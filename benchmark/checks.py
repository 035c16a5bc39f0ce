"""Output checks: every answer the benchmark times is checked here, after
the timed pass.

A check fails on a non-zero exit, a traceback, output on stderr, a report
that is not valid JSON or not valid against the CLI schema, a digest that
differs from the one recorded in `digests.json`, a failed item inside a
`verify` report (such as a prediction mismatch), an oracle value off the
closed form by more than REL_TOL, or an unequal two-route pair.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from workloads import stratum_key

DIGESTS = Path(__file__).with_name("digests.json")
SCHEMA = Path(__file__).resolve().parent.parent / "src" / "saitostrata" \
    / "data" / "cli_schema.json"
REL_TOL = 1e-8
# fields of a `classical --at` report that depend on the point or are
# floats; the rest is digested per configuration
CLASSICAL_POINT_FIELDS = ("at", "closed_form_det", "oracle_det", "residuals")


def digest(obj):
    """sha256 of the canonical JSON form of `obj`."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def predict_signature(report):
    """W-invariants of a predicted stratum: dim, R_D type, exponents."""
    st = report["stratum"]
    return [st["dim"], sorted(c["type"] for c in st["r_d_components"]),
            sorted(f["exponent"] for f in st["factors"])]


def predict_digest_body(report):
    """The predict report without the reduction word, which depends on the
    root list the stratum was named by."""
    return {k: v for k, v in report.items() if k != "reduction_word"}


def classical_exact_fields(report):
    return {k: v for k, v in report.items()
            if k not in CLASSICAL_POINT_FIELDS}


def factored_json(fd):
    """A FactoredDeterminant as JSON: coefficient and sorted factors."""
    return {"coefficient": str(fd.coefficient),
            "factors": sorted([[str(c) for c in form.coeffs], int(e)]
                              for form, e in fd.factors.items())}


def _product_of_factors(factors, point):
    total = Fraction(1)
    for f in factors:
        value = sum(Fraction(c) * x for c, x in zip(f["form"], point))
        total *= value ** f["exponent"]
    return total


class Checker:
    """Counts checks and keeps the reason for each one that fails."""

    def __init__(self, digests=None):
        import jsonschema
        self.digests = digests if digests is not None \
            else json.loads(DIGESTS.read_text())
        self.validator = jsonschema.Draft202012Validator(
            json.loads(SCHEMA.read_text()))
        self.attempted = 0
        self.failures = []

    def record(self, label, reasons):
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")

    @property
    def failed(self):
        return len(self.failures)

    def _expect(self, table, key, got, reasons):
        want = self.digests.get(table, {}).get(key)
        if want is None:
            reasons.append(f"no recorded digest for {table} {key!r}")
        elif want != got:
            reasons.append(f"{table} digest mismatch for {key!r}")

    # -- CLI reports ------------------------------------------------------
    def cli(self, req, res):
        """Check one CLI answer; a verify report adds one check per item."""
        label = " ".join(req["argv"])
        reasons = []
        if res["traceback"]:
            reasons.append("traceback: "
                           + res["traceback"].strip().splitlines()[-1])
        if res["status"] != 0:
            reasons.append(f"exit status {res['status']}")
        if res["stderr"]:
            reasons.append("stderr: " + res["stderr"].strip()[:200])
        report = None
        if not reasons:
            try:
                report = json.loads(res["stdout"])
            except ValueError:
                reasons.append("stdout is not JSON")
        if report is not None:
            errors = list(self.validator.iter_errors(report))
            if errors:
                reasons.append(f"schema: {errors[0].message[:200]}")
            elif req["kind"] in ("verify", "tables", "det"):
                self._expect(req["kind"], req["key"], digest(report), reasons)
            else:
                getattr(self, "_" + req["kind"])(req, report, reasons)
        self.record(label, reasons)
        if report is not None and req["kind"] == "verify":
            for item in report.get("checks", []):
                where = ",".join(str(i) for i in item["stratum"]) or "-"
                self.record(f"{label} {item['check']} @ {where}",
                            [] if item["passed"] else
                            [item.get("detail") or "failed"])

    def _predict(self, req, report, reasons):
        st = report["stratum"]
        key = req["key"] or stratum_key(st["group"], st["simple_indices"])
        entry = self.digests.get("predict", {}).get(key)
        if entry is None:
            reasons.append(f"no recorded digest for predict {key!r}")
            return
        if entry[0] != digest(predict_digest_body(report)):
            reasons.append(f"predict digest mismatch for {key!r}")
        if req.get("source"):
            source = self.digests["predict"].get(req["source"])
            if source is None or source[1] != predict_signature(report):
                reasons.append(f"reduced stratum {key!r} does not match the "
                               f"W-invariants of {req['source']!r}")

    def _classical(self, req, report, reasons):
        entry = self.digests.get("classical", {}).get(req["key"])
        if entry is None:
            reasons.append(f"no recorded digest for classical {req['key']!r}")
            return
        want_digest, coefficient = entry
        if want_digest != digest(classical_exact_fields(report)):
            reasons.append(f"classical digest mismatch for {req['key']!r}")
        if report.get("at") != req["point"]:
            reasons.append("reported point differs from the requested one")
            return
        point = [Fraction(x) for x in req["point"]]
        want = Fraction(coefficient) * _product_of_factors(report["factors"],
                                                           point)
        if Fraction(report["closed_form_det"]) != want:
            reasons.append("closed_form_det differs from the recorded "
                           "closed form at the point")
        re, im = report["oracle_det"]
        scale = max(1.0, abs(float(want)))
        if abs(re - float(want)) > REL_TOL * scale \
                or abs(im) > REL_TOL * max(1.0, abs(re)):
            reasons.append(f"oracle det {re}+{im}j off the closed form "
                           f"{float(want)}")

    # -- library results (two-route) --------------------------------------
    def two_route(self, res):
        key = res["key"]
        if res["kind"] == "equality":
            reasons = [] if res["equal"] else ["the two routes differ"]
            self._expect("two_route", key, digest(factored_json(res["det"])),
                         reasons)
            self.record(f"two-route {key}", reasons)
            return
        reasons = []
        self._expect("identity", key, digest(res["items"]), reasons)
        self.record(f"identity_field_checks {key}", reasons)
        for item in res["items"]:
            self.record(f"identity_field_checks {key} {item['check']}",
                        [] if item["passed"] else
                        [item.get("detail") or "failed"])
