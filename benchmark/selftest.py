"""Self-test of the benchmark harness (not of the package).

    python3 benchmark/selftest.py

Checks that the cli-mix generator is a function of its seed, that every
request it generates is valid input answered with exit status 0 and
passes its output check, and that a corrupted expected digest is counted
as a failed check without stopping the run.  Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402
from checks import Checker  # noqa: E402


def expect(cond, what):
    if not cond:
        print(f"FAIL: {what}")
        raise SystemExit(1)
    print(f"ok: {what}")


def main():
    a, b, c = (W.cli_mix_requests(s) for s in (1, 1, 2))
    expect(a == b, "the same seed gives the same cli-mix requests")
    expect([r["argv"] for r in a] != [r["argv"] for r in c],
           "a different seed gives different cli-mix requests")
    expect(len(a) == W.CLI_MIX_REQUESTS,
           f"cli-mix has {W.CLI_MIX_REQUESTS} requests")
    kinds = {k: sum(r["kind"] == k for r in a)
             for k in ("classical", "predict", "det", "tables")}
    expect(kinds == {"classical": 120, "predict": 114, "det": 60,
                     "tables": 6}, f"cli-mix request mix {kinds}")
    expect(any(r.get("source") for r in a),
           "cli-mix names some strata by a root list")

    results = W.run_requests(a)
    checker = Checker()
    for req, res in zip(a, results):
        checker.cli(req, res)
    expect(all(r["status"] == 0 for r in results),
           "every generated request exits with status 0")
    expect(checker.attempted == len(a) and checker.failed == 0,
           f"every generated request passes its output check "
           f"({checker.failures[:3]})")

    digests = copy.deepcopy(checker.digests)
    req = W.tables_request(3)
    digests["tables"][req["key"]] = "0" * 64
    res = W.run_requests([req])[0]
    corrupted = Checker(digests)
    corrupted.cli(req, res)
    expect(corrupted.attempted == 1 and corrupted.failed == 1,
           "a corrupted expected digest counts as one failed check")

    req = W.verify_request("A2")
    res = W.run_requests([req])[0]
    res["stdout"] = res["stdout"].replace('"passed": true', '"passed": false')
    broken = Checker()
    broken.cli(req, res)
    expect(broken.failed >= 2 and broken.attempted > 2,
           "a failed verify item and the digest mismatch both count")


if __name__ == "__main__":
    main()
