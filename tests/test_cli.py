"""Command-line interface: reports, schema conformance, determinism, and
exit codes."""

import contextlib
import io
import json
import os
import hashlib
import random
import signal
import subprocess
import sys
import time
from argparse import Namespace
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from saitostrata import cli, lgclassical, roots, saitosym, strata
from saitostrata.cli import main, worker_count
from saitostrata.roots import parse_group

SCHEMA = json.loads((Path(cli.__file__).parent / "data" / "cli_schema.json")
                    .read_text())


class _StratumFault(Exception):
    """Raised by a stubbed `verify` stratum check."""


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def assert_input_error(capsys, *argv):
    """Exit 2 with one JSON error line on stderr, no traceback and
    nothing on stdout."""
    capsys.readouterr()
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def run_json(capsys, *argv):
    status, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return status, report


class TestPredict:
    def test_e8_a5_row(self, capsys):
        status, rep = run_json(capsys, "predict", "--group", "E8",
                               "--simple", "4,5,6,7,8")
        assert status == 0
        factors = rep["stratum"]["factors"]
        assert len(factors) == 13
        assert sorted(f["exponent"] for f in factors) == \
            [2, 2, 2, 7, 7, 7, 7, 7, 7, 10, 10, 10, 12]
        assert rep["degree"] == 30 * 3

    def test_root_list_input(self, capsys):
        # the stratum of the highest root reduces to a simple wall
        status, rep = run_json(capsys, "predict", "--group", "A3",
                               "--roots", "1,1,1")
        assert status == 0
        assert len(rep["stratum"]["simple_indices"]) == 1
        assert "reduction_word" in rep

    def test_dump_roots(self, capsys):
        status, rep = run_json(capsys, "predict", "--group", "B3",
                               "--simple", "1", "--dump-roots")
        assert status == 0
        assert rep["roots"]["coxeter_number"] == 6
        assert len(rep["roots"]["positive_roots"]) == 9


class TestDet:
    def test_backends_agree(self, capsys):
        _, sym = run_json(capsys, "det", "--group", "A3",
                          "--simple", "1,2", "--backend", "symbolic")
        _, minor = run_json(capsys, "det", "--group", "A3",
                            "--simple", "1,2", "--backend", "minor")
        assert sym["complete"] and minor["complete"]
        assert sym["factors"] == minor["factors"]
        assert sym["coefficient"] == minor["coefficient"]

    def test_exponents_match_prediction(self, capsys):
        _, rep = run_json(capsys, "det", "--group", "B2", "--simple", "2")
        got = sorted(f["exponent"] for f in rep["factors"])
        want = sorted(f["exponent"] for f in rep["stratum"]["factors"])
        assert got == want

    def test_quartic_family_incomplete(self, capsys):
        status, rep = run_json(capsys, "det", "--group", "D3",
                               "--simple", "1", "--invariants", "3,5")
        assert status == 0
        assert rep["complete"] is False
        assert rep["partial_factors"]
        assert rep["cofactor"]

    def test_invariants_require_d3(self, capsys):
        status = main(["det", "--group", "A3", "--simple", "1",
                       "--invariants", "1,2"])
        assert status == 2

    def test_rank_four_served(self, capsys):
        _, sym = run_json(capsys, "det", "--group", "A4",
                          "--simple", "1,3", "--backend", "symbolic")
        _, minor = run_json(capsys, "det", "--group", "A4",
                            "--simple", "1,3", "--backend", "minor")
        assert sym["complete"] and minor["complete"]
        assert sym["factors"] == minor["factors"]
        assert sym["coefficient"] == minor["coefficient"] == "144/625"
        assert sorted(f["exponent"] for f in sym["factors"]) == \
            sorted(f["exponent"] for f in sym["stratum"]["factors"])

    def test_simple_checked_before_any_basis(self, capsys, monkeypatch):
        def forbidden(R):
            raise AssertionError("basis built before --simple was checked")

        monkeypatch.setattr(saitosym, "basic_invariants", forbidden)
        for group in ("B5", "E6"):
            assert_input_error(capsys, "det", "--group", group,
                               "--simple", "9")

    @pytest.mark.parametrize("target,error", [
        ("basic_invariants", saitosym.DegenerateBasis),
        ("flat_coordinates", saitosym.DegenerateBasis),
        ("flat_coordinates", saitosym.SolverFailure),
        ("flat_coordinates", ValueError)],
        ids=["basic-degenerate", "flat-degenerate", "flat-solver",
             "flat-valueerror"])
    def test_basis_defects_are_not_input_errors(self, monkeypatch, target,
                                                error):
        # only basic_invariants' refusal of a group maps to exit 2; a
        # failing basis build for a served group is a defect and crashes
        def broken(*args):
            raise error("defect")

        monkeypatch.setattr(saitosym, target, broken)
        # an empty memo, so that the broken builder is reached
        monkeypatch.setattr(cli, "_GROUPS", {})
        with pytest.raises(error, match="defect"):
            main(["det", "--group", "A3", "--simple", "1"])


class TestClassical:
    def test_kappa_example(self, capsys):
        status, rep = run_json(capsys, "classical", "--type", "A",
                               "--mult", "2,1,1")
        assert status == 0
        assert rep["kappa"] == "-1/32"

    def test_oracle_cross_check(self, capsys):
        _, rep = run_json(capsys, "classical", "--type", "B",
                          "--mult", "2,1", "--m", "1", "--at", "3,1/2")
        want = float(Fraction(rep["closed_form_det"]))
        got = rep["oracle_det"][0]
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        assert all(v <= 1e-8 for v in rep["residuals"].values())

    def test_unresolved_point_is_rejected(self, capsys):
        # the oracle runs on this point without error, but its determinant
        # is 0.2 % off the exact one
        capsys.readouterr()
        assert main(FAR_OUT_POINTS[7]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "--at is not a generic point: residual determinant "
                     "1.8e-03 > 1e-08"}

    @pytest.mark.parametrize("argv,source", [
        (["--type", "A", "--mult", "1400,1"], "--mult"),
        (["--type", "D", "--mult", "2000", "--m", "2"], "--mult or --m")])
    def test_kappa_past_the_digit_limit_is_bad_input(self, capsys, argv,
                                                     source):
        capsys.readouterr()
        assert main(["classical"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"].startswith(
            f"{source} gives values too long to print: ")

    @pytest.mark.parametrize("argv,source", [
        (["--type", "A", "--mult", "100000,1"], "--mult"),
        (["--type", "B", "--mult", "1", "--m", "100000"], "--mult or --m")])
    def test_kappa_past_the_digit_limit_is_refused_before_it_is_computed(
            self, capsys, monkeypatch, argv, source):
        # with the text of the refusal after computing it; kappa and the
        # closed form would take seconds here
        def never(cfg):
            raise AssertionError("computed")

        for name in ("kappa_A", "closed_form_det_A", "closed_form_det_BD"):
            monkeypatch.setattr(cli, name, never)
        try:
            str(10 ** sys.get_int_max_str_digits())
        except ValueError as exc:
            text = f"{source} gives values too long to print: {exc}"
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["classical"] + argv) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": text}

    def test_kappa_just_under_the_digit_limit_prints(self, capsys):
        # kappa = 7000 / 2^13999 = 875 / 2^13996, 4214 digits in its
        # denominator; its unreduced sides pass the 4300-digit limit, so
        # it is computed, not refused
        status, rep = run_json(capsys, "classical", "--type", "A",
                               "--mult", "7000,7000")
        assert status == 0
        num, den = rep["kappa"].split("/")
        assert abs(int(num)) == 875 and int(den) == 2 ** 13996
        assert len(den) == 4214 < sys.get_int_max_str_digits()

    def test_input_validation(self, capsys):
        assert main(["classical", "--type", "A", "--mult", "2,1",
                     "--m", "1"]) == 2
        assert main(["classical", "--type", "B", "--mult", "1,1",
                     "--m", "-2"]) == 2
        assert main(["classical", "--type", "A", "--mult", "2,1,1",
                     "--at", "1"]) == 2
        # points where the oracle degenerates
        assert_input_error(capsys, "classical", "--type", "A",
                           "--mult", "1,1", "--at", "0")
        assert_input_error(capsys, "classical", "--type", "B",
                           "--mult", "1,1", "--at", "1,1")
        # points beyond what the floating-point oracle resolves
        for argv in FAR_OUT_POINTS:
            assert_input_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ["--type", "A", "--mult", "2,1,1", "--at=1,-3/2"],
        ["--type", "B", "--mult", "2,1", "--m=1", "--at=3,1/2"],
        ["--type", "D", "--mult", "1,2,1", "--m=0", "--at=1,-2,5/3"]])
    def test_one_transport_per_request(self, capsys, monkeypatch, argv):
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(lgclassical, "critical_data",
                            counted("critical_data",
                                    lgclassical.critical_data))
        for name in ("residue_metric_at", "frobenius_check_at"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        status, rep = run_json(capsys, "classical", *argv)
        assert status == 0
        assert all(v <= 1e-8 for v in rep["residuals"].values())
        assert sorted(calls) == ["critical_data", "frobenius_check_at",
                                 "residue_metric_at"]


class TestStandardLibraryOnly:
    # numpy is a test dependency: the package must import and answer
    # without it, and must not load it when it is there
    ARGVS = (["classical", "--type", "B", "--mult", "2,1", "--m", "1",
              "--at", "3,1/2"],
             ["det", "--group", "B3", "--simple", "2"],
             ["verify", "--group", "B3"])

    @staticmethod
    def _python(code):
        src = os.path.dirname(os.path.dirname(strata.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_runs_with_numpy_unimportable(self):
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "from saitostrata.cli import main\n"
                f"sys.exit(max(main(argv) for argv in {self.ARGVS!r}))\n")
        proc = self._python(code)
        assert (proc.returncode, proc.stderr) == (0, "")
        decoder = json.JSONDecoder()
        reports, text = [], proc.stdout.strip()
        while text:
            report, end = decoder.raw_decode(text)
            reports.append(report)
            text = text[end:].lstrip()
        assert [r["subcommand"] for r in reports] == \
            ["classical", "det", "verify"]
        assert reports[0]["closed_form_det"] == "-31255875/8192"
        assert reports[1]["complete"] is True
        assert reports[2]["passed"] is True

    def test_import_loads_no_numpy(self):
        proc = self._python("import sys\n"
                            "import saitostrata, saitostrata.cli\n"
                            "print('numpy' in sys.modules)\n")
        assert (proc.returncode, proc.stdout) == (0, "False\n")


# --at points where the numeric oracle overflows, divides by zero, turns
# non-finite, loses its critical points to conditioning, or meets a
# singular transport, one
# whose exact determinant has a denominator past Python's 4,300-digit
# int-to-str limit, one whose determinant residual (1.8e-3) is past
# `cli.RESIDUAL_BOUND`, det --invariants pairs past the same limit, and
# classical multiplicities whose kappa is past it
FAR_OUT_POINTS = (
    ["classical", "--type", "A", "--mult", "1,1", "--at", "1e400"],
    ["classical", "--type", "A", "--mult", "1,1", "--at", "1e300"],
    ["classical", "--type", "A", "--mult", "1,3,3,5", "--at=0,2e50,3"],
    ["classical", "--type", "A", "--mult", "1,1,1,1", "--at=0,2e50,3"],
    ["classical", "--type", "A", "--mult", "2,2,1,1",
     "--at=99997,-199999999999999999998,-200000000000000000003"],
    ["classical", "--type", "D", "--mult", "1", "--m=3", "--at=2e50"],
    ["classical", "--type", "A", "--mult", "3,3,3,3", "--at=1e-300,1,2"],
    ["classical", "--type", "A", "--mult", "1,1,3",
     "--at=100000000000000000002,2000000000000003"],
    ["det", "--group", "D3", "--simple", "1", "--invariants", "1e-5000,1"],
    ["det", "--group", "D3", "--simple", "1", "--invariants", "1,1e-5000"],
    ["classical", "--type", "A", "--mult", "1400,1"],
    ["classical", "--type", "D", "--mult", "2000", "--m", "2"],
)


class TestTables:
    @pytest.mark.parametrize("which", [1, 4])
    def test_zero_diff(self, capsys, which):
        status, rep = run_json(capsys, "tables", "--which", str(which))
        assert status == 0
        assert rep["diff"] == []
        assert all(row["match"] for row in rep["rows"])

    def test_byte_identical_across_runs(self, capsys):
        _, out1 = run(capsys, "tables", "--which", "3")
        _, out2 = run(capsys, "tables", "--which", "3")
        assert out1 == out2

    def test_bad_index(self, capsys):
        assert main(["tables", "--which", "7"]) == 2


class TestVerify:
    def test_a2_full_suite_passes(self, capsys):
        status, rep = run_json(capsys, "verify", "--group", "A2")
        assert status == 0
        assert rep["passed"] is True
        assert rep["failures"] == []
        names = {c["check"] for c in rep["checks"]}
        assert "q_polynomial_default" in names
        assert "restricted_det_matches_prediction" in names
        assert "mirror_arrangement_count" in names

    def test_aggregation_independent_of_worker_count(self, capsys,
                                                     monkeypatch):
        # forked after the first stratum: B3 has 6 strata, 5 left for up to
        # 4 processes; B2 has 2, so 5 workers are more than it has strata
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        for group, counts in (("B3", "1234"), ("B2", "15")):
            for flags in (["--skip-symbolic"], []):
                outs = set()
                for threads in counts:
                    monkeypatch.setenv("SAITO_STRATA_THREADS", threads)
                    outs.add(run(capsys, "verify", "--group", group,
                                 *flags))
                assert len(outs) == 1

    def test_fork_map_keeps_order_over_one_queue(self, monkeypatch):
        # forced to fork after the first item; before its first item from
        # the queue this process waits until a child has computed one
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        parent = os.getpid()
        r, w = os.pipe()
        waited = []

        def fn(x):
            if os.getpid() != parent:
                os.write(w, b"x")
            elif x and not waited:
                waited.append(os.read(r, 1))
            return x * x, os.getpid()

        try:
            got = cli._fork_map(fn, range(7), 3)
        finally:
            os.close(r)
            os.close(w)
        assert [sq for sq, _ in got] == [x * x for x in range(7)]
        pids = [pid for _, pid in got]
        assert pids[0] == parent and set(pids[1:]) - {parent}
        assert len(set(pids)) <= 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fork_map_never_forks_for_one_item_left(self, monkeypatch):
        # however slow the items, the last one is computed here
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        monkeypatch.setattr(os, "fork", None)
        assert cli._fork_map(lambda x: -x, range(2), 2) == [0, -1]

    def test_fork_map_refuses_a_queue_one_write_cannot_hold(self,
                                                             monkeypatch):
        # refused before any fork: os.fork is not callable here
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        monkeypatch.setattr(os, "fork", None)
        with pytest.raises(ValueError, match="1025 items left"):
            cli._fork_map(lambda x: x, range(1026), 2)

    @pytest.mark.parametrize("group,flags,threads,forks", [
        ("B3", [], "2", 0),
        ("E7", ["--skip-symbolic"], "2", 1),
        ("E7", ["--skip-symbolic"], "1", 0),
    ], ids=["B3", "E7", "E7-one-process"])
    def test_verify_forks_once_the_strata_left_outweigh_a_fork(
            self, capsys, monkeypatch, group, flags, threads, forks):
        # B3's strata together take less time than a fork; E7 forks one
        # child after its first stratum, unless one process is asked for.
        # A first run in one process builds the group and its caches, so
        # that the count reads the strata alone
        real = os.fork
        calls = []

        def counted():
            calls.append(group)
            return real()

        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        run(capsys, "verify", "--group", group, *flags)
        monkeypatch.setattr(os, "fork", counted)
        monkeypatch.setenv("SAITO_STRATA_THREADS", threads)
        status, _ = run(capsys, "verify", "--group", group, *flags)
        assert status == 0 and len(calls) == forks

    @pytest.mark.parametrize("where,expected,match", [
        ("child", _StratumFault, None),
        ("parent", _StratumFault, None),
        ("child-exits", RuntimeError, "exit code 3"),
    ], ids=["child", "parent", "child-exits"])
    def test_failed_stratum_raises_and_leaves_no_child(
            self, monkeypatch, where, expected, match):
        # with 2 workers forced to fork after B3's first stratum (1,), the
        # child fails on the first stratum it takes, or this process on
        # its first from the queue, which it takes only once the child has
        # taken one; in "parent" the child then waits to be killed
        real = cli._verify_stratum
        parent = os.getpid()
        r, w = os.pipe()
        waited = []

        def failing(R, basis, I):
            if os.getpid() != parent:
                os.write(w, b"x")
                if where == "child-exits":
                    os._exit(3)
                if where == "child":
                    raise _StratumFault(I)
                signal.pause()
            elif I != (1,) and not waited:
                waited.append(os.read(r, 1))
                if where == "parent":
                    raise _StratumFault(I)
            return real(R, basis, I)

        monkeypatch.setattr(cli, "_verify_stratum", failing)
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        monkeypatch.setenv("SAITO_STRATA_THREADS", "2")
        try:
            with pytest.raises(expected, match=match):
                main(["verify", "--group", "B3", "--skip-symbolic"])
        finally:
            os.close(r)
            os.close(w)
        assert waited
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_each_stratum_restricts_once(self, capsys, monkeypatch):
        # A_D once per stratum in the per-stratum checks (6 strata), plus
        # once per codimension-1 stratum in identity_field_checks (3)
        calls = []
        real = strata.restricted_arrangement

        def counted(D):
            calls.append(D)
            return real(D)

        monkeypatch.setattr(strata, "restricted_arrangement", counted)
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        status, _ = run(capsys, "verify", "--group", "B3")
        assert status == 0
        assert len(calls) == 9

    def test_wrong_exponent_fails_its_stratum_only(self, capsys,
                                                   monkeypatch):
        # on B3 (2,) the prediction is (0,1)^4 (1,0)^3 (1,1)^2 (1,2)^3;
        # swapping the exponents of (0,1) and (1,1) keeps the degree, so
        # only the comparisons with the other routes can see it
        real = cli.predict_determinant

        def swapped(D):
            fd = real(D)
            if D.I == {2}:
                f = fd.factors
                f[(0, 1)], f[(1, 1)] = f[(1, 1)], f[(0, 1)]
            return fd

        monkeypatch.setattr(cli, "predict_determinant", swapped)
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        monkeypatch.setenv("SAITO_STRATA_THREADS", "2")
        status, rep = run_json(capsys, "verify", "--group", "B3")
        assert status == 1 and rep["passed"] is False
        assert {(tuple(c["stratum"]), c["check"])
                for c in rep["failures"]} == {
            ((2,), check) for check in (
                "q_polynomial_default", "q_polynomial_random_1",
                "q_polynomial_random_2", "q_polynomial_random_3",
                "restricted_det_matches_prediction")}

    def test_symbolic_route_up_to_rank_five(self, capsys):
        status, rep = run_json(capsys, "verify", "--group", "A4")
        assert status == 0 and rep["passed"] is True
        dets = [c for c in rep["checks"]
                if c["check"] == "restricted_det_matches_prediction"]
        assert len(dets) == 14 and all(c["passed"] for c in dets)
        assert {"stratum": [], "check": "flat_pairing_normalized",
                "passed": True, "detail": "normalized=True"} in rep["checks"]

    def test_no_symbolic_route_above_rank_five(self, capsys):
        status, out = run(capsys, "verify", "--group", "A6")
        assert status == 0
        names = {c["check"] for c in json.loads(out)["checks"]}
        assert "restricted_det_matches_prediction" not in names
        assert "flat_pairing_normalized" not in names
        assert run(capsys, "verify", "--group", "A6",
                   "--skip-symbolic") == (status, out)

    def test_rank_one_has_no_strata(self, capsys):
        status, rep = run_json(capsys, "verify", "--group", "A1")
        assert status == 0
        assert rep["passed"] is True
        assert all(c["stratum"] == [] for c in rep["checks"])

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SAITO_STRATA_THREADS", "5")
        assert worker_count() == 5
        monkeypatch.delenv("SAITO_STRATA_THREADS")
        assert worker_count() >= 1
        monkeypatch.setenv("SAITO_STRATA_THREADS", "zero")
        assert main(["verify", "--group", "A2"]) == 2
        # without fork one process does the work, but bad input still fails
        monkeypatch.delattr(os, "fork")
        assert main(["verify", "--group", "A2"]) == 2
        monkeypatch.setenv("SAITO_STRATA_THREADS", "5")
        assert worker_count() == 1

    def test_worker_count_follows_affinity(self, monkeypatch):
        monkeypatch.delenv("SAITO_STRATA_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: {0, 2, 5}, raising=False)
        assert worker_count() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert worker_count() == 7


class TestPlumbing:
    def test_unknown_group_is_exit_2(self, capsys):
        assert main(["predict", "--group", "Z9", "--simple", "1"]) == 2
        assert main(["predict", "--group", "A3", "--simple", "0,9"]) == 2
        assert main(["det", "--group", "E8", "--simple", "1"]) == 2
        assert_input_error(capsys, "det", "--group", "E6", "--simple", "1")
        assert_input_error(capsys, "det", "--group", "D3", "--simple", "1",
                           "--invariants", "3")
        assert_input_error(capsys, "predict", "--group", "A3",
                           "--roots", "1/0,1,1")

    def test_non_roots_are_exit_2(self, capsys):
        for argv in (["--roots", "1,0,1"],
                     ["--roots", "1/2,0,0"],
                     ["--ambient", "--roots", "1,0,0,0"],
                     ["--ambient", "--roots", "1,-1,0"]):
            assert main(["predict", "--group", "A3"] + argv) == 2
            err = json.loads(capsys.readouterr().err)
            assert err == {"error": "S must consist of roots"}

    def test_text_format(self, capsys):
        status, out = run(capsys, "det", "--group", "B2", "--simple", "1",
                          "--format", "text")
        assert status == 0
        assert "coefficient:" in out

    def test_parser_reused_across_calls(self, capsys):
        # one process, several subcommands through the one cached parser,
        # each output against that of a fresh interpreter
        argvs = (["classical", "--type", "B", "--mult", "2,1", "--m", "1",
                  "--at", "3,1/2"],
                 ["predict", "--group", "A3", "--simple", "2"],
                 ["classical", "--type", "A", "--mult", "2,1,1",
                  "--format", "text"])
        src = os.path.dirname(os.path.dirname(strata.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-m", "saitostrata.cli", *argv], env=env,
                capture_output=True, text=True, timeout=120)
            fresh.append((proc.returncode, proc.stdout))
        for argv, want in zip(argvs + argvs, fresh + fresh):
            assert run(capsys, *argv) == want

    def test_command_looked_up_at_each_call(self, capsys, monkeypatch):
        argv = ["classical", "--type", "A", "--mult", "2,1"]
        assert run(capsys, *argv)[0] == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_classical",
                            lambda args: (seen.append(args.mult)
                                          or {"patched": True}, 0))
        status, out = run(capsys, *argv)
        assert (status, json.loads(out), seen) == (0, {"patched": True},
                                                   ["2,1"])

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        status = main(["predict", "--group", "A3", "--simple", "2",
                       "--output", str(path)])
        assert status == 0
        report = json.loads(path.read_text())
        jsonschema.validate(report, SCHEMA)

    def test_unwritable_output_is_an_input_error(self, capsys, tmp_path):
        # exit 1 means only a failed check or table diff
        path = tmp_path / "missing" / "report.json"
        assert_input_error(capsys, "predict", "--group", "A3", "--simple",
                           "1", "--output", str(path))
        assert not path.parent.exists()

    @pytest.mark.parametrize("where", ["missing/report.json", "."])
    def test_unwritable_output_fails_before_the_command(self, capsys,
                                                        monkeypatch,
                                                        tmp_path, where):
        # a missing directory, or a directory as the target, is refused
        # before verify runs its checks
        seen = []
        monkeypatch.setattr(cli, "cmd_verify",
                            lambda args: (seen.append(args), ({}, 0))[1])
        assert_input_error(capsys, "verify", "--group", "D5", "--output",
                           str(tmp_path / where))
        assert seen == [] and not (tmp_path / "missing").exists()

    def test_failed_command_leaves_output_file_alone(self, capsys, tmp_path):
        # a = 0 makes the D3 family degenerate: exit 2, and the file that
        # --output names keeps its bytes
        path = tmp_path / "report.json"
        path.write_bytes(b"earlier report\n")
        assert_input_error(capsys, "det", "--group", "D3", "--simple", "1",
                           "--invariants", "0,1", "--output", str(path))
        assert path.read_bytes() == b"earlier report\n"

    def test_fast_is_no_option(self):
        status, out = _run_argv(["predict", "--group", "A3", "--simple",
                                 "1", "--fast"])
        assert (status, out) == (2, "")


# one request per kind of report, and per optional part of one
WRITER_ARGV = [
    ["predict", "--group", "E8", "--simple", "4,5,6,7,8", "--dump-roots"],
    ["predict", "--group", "F4", "--simple", "2", "--dump-roots"],
    ["predict", "--group", "A3", "--roots", "1,1,1;0,1,0"],
    ["det", "--group", "B3", "--simple", "2", "--backend", "symbolic"],
    ["det", "--group", "B3", "--simple", "1,3", "--backend", "minor",
     "--dump-roots"],
    ["det", "--group", "D3", "--simple", "1", "--invariants", "3,5"],
    ["classical", "--type", "A", "--mult", "2,1,1"],
    ["classical", "--type", "B", "--mult", "2,1", "--m", "1", "--at", "3,1/2"],
    ["classical", "--type", "D", "--mult", "1,2", "--at", "2,3"],
    *(["tables", "--which", str(w)] for w in range(1, 7)),
    ["verify", "--group", "A2"],
    ["verify", "--group", "B3"],
    ["verify", "--group", "E8", "--skip-symbolic"],
]

# random JSON trees: the scalars of every type, with all of Unicode in the
# strings and keys, ints past 64 bits, and floats with their specials
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 200, 2 ** 200),
    st.floats(), st.text())
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=20)


class TestReportWriter:
    @pytest.mark.parametrize("argv", WRITER_ARGV,
                             ids=lambda argv: " ".join(argv))
    def test_stdout_is_the_json_dumps_text(self, capsys, argv):
        status, out = run(capsys, *argv)
        assert status == 0
        report = json.loads(out)
        if "--at" in argv:
            assert all(type(x) is float for x in report["oracle_det"])
        if "--invariants" in argv:
            assert report["cofactor"]
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(tree=_JSON_TREES)
    @example(tree={"é\x00\n \U0001F600": [], "": {}, "a": ()})
    @example(tree=[0.0, -0.0, 1e-300, -1e300, float("inf"), float("-inf"),
                   float("nan"), 5e-324, 2 ** 63, -2 ** 200])
    @example(tree={"b": [[], {}, (1, "x", None, True, False)], "a": [{}]})
    @example(tree="\x7f\x1f\"\\/")
    def test_matches_json_dumps(self, tree):
        assert cli._report_json(tree) == \
            json.dumps(tree, sort_keys=True, indent=2)

    @pytest.mark.parametrize("obj", [
        Fraction(1, 2), [1, Fraction(1, 2)], {"a": Fraction(1, 2)},
        {"a": {1, 2}}, {(1, 2): 0}], ids=repr)
    def test_what_json_dumps_refuses_raises_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            cli._report_json(obj)

    def test_non_str_key_raises_type_error(self):
        # json.dumps would print the int key as a string; a report has none
        with pytest.raises(TypeError):
            cli._report_json({1: "a"})


# sha256 over the flat bases of A1, A2, A3, B2, B3, D3, D4 and F4, and over
# those of A4, B4, D5 and A5: per group the terms of `polys`, then of
# `polys_in_invariants`, then the pairing (`_update_flat_digest`)
FLAT_BASIS_DIGEST = \
    "7aed416d6f371a14ee29fdcf4f8bd7144ba531fd789d599f30585becc00dc3a8"
LARGER_FLAT_BASIS_DIGEST = \
    "5e864164f12c978942480989dc48584f4f7246270d0a5ae38a3535fd5ddb809f"


def _update_flat_digest(digest, basis):
    for polys in (basis.polys, basis.polys_in_invariants):
        digest.update(repr([list(p.terms.items()) for p in polys]).encode())
    digest.update(repr(basis.pairing).encode())


class TestGroupMemo:
    """`cli` keeps each root system and flat basis for the life of the
    process; every report must read as if they had been built afresh."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """An empty memo, and a count of the builder calls."""
        monkeypatch.setattr(cli, "_GROUPS", {})
        calls = Counter()
        for module, name in ((roots, "build_root_system"),
                             (cli, "build_root_system"),
                             (saitosym, "basic_invariants"),
                             (saitosym, "flat_coordinates")):
            def counted(*args, _real=getattr(module, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_build_per_group_per_process(self, capsys, monkeypatch,
                                             calls):
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        for group, simple, backend in (("A3", "1", "symbolic"),
                                       ("a3", "1,2", "minor"),
                                       ("A_3", "2", "minor"),
                                       (" A3", "3", "symbolic"),
                                       ("A3", "2,3", "symbolic")):
            assert run(capsys, "det", "--group", group, "--simple", simple,
                       "--backend", backend)[0] == 0
        assert run(capsys, "verify", "--group", "A3")[0] == 0
        assert calls == {"build_root_system": 1, "basic_invariants": 1,
                         "flat_coordinates": 1}
        # C_n is B_n: one root system for both spellings, the same report
        outs = {run(capsys, "predict", "--group", group, "--simple", "2")
                for group in ("B3", "c3", "C_3")}
        assert len(outs) == 1 and calls["build_root_system"] == 2
        # `tables` shares E7 with `predict`
        for argv in (("predict", "--group", "E7", "--simple", "1"),
                     ("tables", "--which", "3")):
            assert run(capsys, *argv)[0] == 0
        assert calls["build_root_system"] == 3
        assert sorted(cli._GROUPS) == [("A", 3), ("B", 3), ("E", 7)]

    def test_failures_are_never_stored(self, capsys, calls):
        for _ in range(3):
            assert_input_error(capsys, "det", "--group", "E6",
                               "--simple", "1")
        # the refusal runs again on every request, and no basis is kept
        assert calls["basic_invariants"] == 3
        assert calls["flat_coordinates"] == 0
        assert cli._GROUPS[("E", 6)].basis is None
        for group in INVALID_GROUPS:
            assert_input_error(capsys, "predict", "--group", group,
                               "--simple", "1")
        assert list(cli._GROUPS) == [("E", 6)]

    def test_failed_basis_is_built_again(self, capsys, monkeypatch, calls):
        counted = saitosym.flat_coordinates
        failures = [saitosym.DegenerateBasis("defect")]

        def flaky(*args):
            if failures:
                raise failures.pop()
            return counted(*args)

        monkeypatch.setattr(saitosym, "flat_coordinates", flaky)
        argv = ["det", "--group", "A2", "--simple", "1"]
        with pytest.raises(saitosym.DegenerateBasis, match="defect"):
            main(argv)
        assert cli._GROUPS[("A", 2)].basis is None
        assert run(capsys, *argv)[0] == 0
        assert calls["flat_coordinates"] == 1
        assert cli._GROUPS[("A", 2)].basis is not None

    @pytest.mark.parametrize("group", ["A2", "A3", "B2", "B3", "D3", "D4"])
    def test_cold_and_warm_give_same_bytes(self, capsys, monkeypatch,
                                           group):
        # every stratum up to codimension 2, on both backends
        monkeypatch.setattr(cli, "_GROUPS", {})
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        rank = int(group[1:])
        dets = [("det", "--group", group, "--simple", _csv(I),
                 "--backend", backend)
                for k in range(1, min(rank, 3))
                for I in combinations(range(1, rank + 1), k)
                for backend in ("symbolic", "minor")]
        verify = ("verify", "--group", group)
        cold = {}
        for argv in dets + [verify]:
            cli._GROUPS.clear()
            cold[argv] = run(capsys, *argv)
        # warmed by verify, by the D3 quartic family, which is not kept,
        # and by the other strata; forked workers inherit the warm basis
        cli._GROUPS.clear()
        assert run(capsys, *verify) == cold[verify]
        if group == "D3":
            run(capsys, "det", "--group", "D3", "--simple", "1",
                "--invariants", "1,2")
        for argv in dets[::-1]:
            assert run(capsys, *argv) == cold[argv]
        monkeypatch.setattr(cli, "_FORK_BREAK_EVEN_S", 0)
        monkeypatch.setenv("SAITO_STRATA_THREADS", "2")
        assert run(capsys, *verify) == cold[verify]

    def test_flat_basis_digest_is_pinned(self, capsys, calls):
        digest = hashlib.sha256()
        for group in ("A1", "A2", "A3", "B2", "B3", "D3", "D4", "F4"):
            entry = cli._group(Namespace(group=group))
            basis = cli._flat_basis(entry)
            if group[1] != "1" and group != "F4":
                for backend in ("symbolic", "minor"):
                    assert run(capsys, "det", "--group", group, "--simple",
                               "1", "--backend", backend)[0] == 0
            assert cli._flat_basis(entry) is basis
            _update_flat_digest(digest, basis)
        assert digest.hexdigest() == FLAT_BASIS_DIGEST
        assert calls["flat_coordinates"] == 8

    def test_larger_flat_basis_digest_is_pinned(self, calls):
        # the groups of rank 4 and 5 that the first pin leaves out
        digest = hashlib.sha256()
        for group in ("A4", "B4", "D5", "A5"):
            _update_flat_digest(
                digest, cli._flat_basis(cli._group(Namespace(group=group))))
        assert digest.hexdigest() == LARGER_FLAT_BASIS_DIGEST
        assert calls["flat_coordinates"] == 4


# a broken `strata._join` that makes every class member its own piece,
# touching no component of R_D
SPLIT_COMPONENTS = """
from saitostrata import strata
strata._join = lambda R, members, masks: [(0, [b]) for b in members]
"""


class TestInvariantViolation:
    ARGV = ["verify", "--group", "A2", "--skip-symbolic"]

    def _assert_class_failure(self, status, report):
        assert status == 1
        jsonschema.validate(report, SCHEMA)
        assert report["passed"] is False
        assert {f["check"] for f in report["failures"]} == \
            {"arrangement_class_consistency"}

    def test_class_consistency_failure_is_reported(self, capsys,
                                                   monkeypatch):
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        # registers the original for restoring; the exec then breaks it
        monkeypatch.setattr(strata, "_join", strata._join)
        exec(SPLIT_COMPONENTS, {})
        status, out = run(capsys, *self.ARGV)
        self._assert_class_failure(status, json.loads(out))

    def test_symbolic_checks_report_it_too(self, capsys, monkeypatch):
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        monkeypatch.setattr(strata, "_join", strata._join)
        exec(SPLIT_COMPONENTS, {})
        argv = [a for a in self.ARGV if a != "--skip-symbolic"]
        status, out = run(capsys, *argv)
        report = json.loads(out)
        assert status == 1
        jsonschema.validate(report, SCHEMA)
        assert "arrangement_class_consistency" in \
            {f["check"] for f in report["failures"]}

    def test_reported_under_optimize(self):
        # the check must not be an assert that `python -O` strips
        code = (SPLIT_COMPONENTS + "import sys\n"
                "from saitostrata.cli import main\n"
                f"sys.exit(main({self.ARGV!r}))\n")
        src = os.path.dirname(os.path.dirname(strata.__file__))
        env = dict(os.environ, SAITO_STRATA_THREADS="1", PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr
        self._assert_class_failure(proc.returncode, json.loads(proc.stdout))


class TestQPolynomialChecks:
    def test_each_choice_is_reported_under_its_own_name(self, capsys,
                                                        monkeypatch):
        # the seed-2 choice raises: it alone fails, with the exception's
        # repr, and the default and the other choices are each reported
        # once
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        real, seed2 = cli.q_polynomial, random.Random(2).getstate()

        def q_polynomial(D, rng=None):
            if rng is not None and rng.getstate() == seed2:
                raise strata.NegativeFinalExponent("injected")
            return real(D, rng=rng)

        monkeypatch.setattr(cli, "q_polynomial", q_polynomial)
        status, report = run_json(capsys, "verify", "--group", "A3",
                                  "--skip-symbolic")
        assert status == 1
        strata_seen = {tuple(c["stratum"]) for c in report["checks"]}
        assert len(strata_seen) == 6
        for I in strata_seen:
            q = [(c["check"], c["passed"], c["detail"])
                 for c in report["checks"] if tuple(c["stratum"]) == I
                 and c["check"].startswith("q_polynomial")]
            assert q == [
                ("q_polynomial_default", True, ""),
                ("q_polynomial_random_1", True, ""),
                ("q_polynomial_random_2", False,
                 "NegativeFinalExponent('injected')"),
                ("q_polynomial_random_3", True, "")]
        assert {f["check"] for f in report["failures"]} == \
            {"q_polynomial_random_2"}


# ---------------------------------------------------------------------------
# the exit contract over generated command lines

def _csv(xs):
    return ",".join(str(x) for x in xs)


INVALID_GROUPS = ("", " ", "Z9", "A0", "B1", "D2", "E5", "E9", "F3", "G2",
                  "H3", "A", "3A", "A-1", "A1.5")
_rational = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 3))


def _rank(group):
    """The rank a label names; invalid labels get index lists too."""
    return int(group[1:]) if group[1:].isdigit() else 3


@st.composite
def _mostly(draw, valid, anything):
    """Usually a draw from `valid` (if there is one), else from
    `anything`, so that most command lines get past input validation."""
    if valid is not None and draw(st.integers(0, 3)) < 3:
        return draw(valid)
    return draw(anything)


def _proper_subsets(rank):
    if rank < 2:
        return None
    return st.sets(st.integers(1, rank), min_size=1,
                   max_size=rank - 1).map(sorted)


def _simple(rank):
    return _mostly(_proper_subsets(rank),
                   st.lists(st.integers(-1, 9), max_size=5)).map(
        lambda xs: ["--simple=" + _csv(xs)])


@st.composite
def _roots(draw, group):
    """--roots, in simple-root or ambient coordinates: a Weyl image of
    simple roots of a stratum, or arbitrary vectors."""
    ambient = draw(st.booleans())
    try:
        R = parse_group(group)
    except (ValueError, KeyError):
        R = None
    valid = None
    if R is not None and R.rank > 1:
        as_given = R.vector if ambient else tuple
        valid = st.tuples(_proper_subsets(R.rank),
                          st.lists(st.integers(1, R.rank), max_size=8)).map(
            lambda t: [as_given(R.apply_word(t[1], R.simple[i - 1]))
                       for i in t[0]])
    vectors = draw(_mostly(valid, st.lists(
        st.lists(st.integers(-2, 2), min_size=1, max_size=7),
        min_size=1, max_size=3)))
    return ["--roots=" + ";".join(_csv(v) for v in vectors)] \
        + (["--ambient"] if ambient else [])


def _verify():
    return st.tuples(st.sampled_from(["A1", "A2", "A4", "B2", "D3"]),
                     st.lists(st.sampled_from(["--dump-roots",
                                               "--skip-symbolic"]),
                              unique=True)).map(
        lambda t: ["verify", "--group", t[0], *t[1]])


@st.composite
def _det(draw):
    group = draw(st.sampled_from(["A1", "A2", "A3", "A4", "B2", "B3", "D3",
                                  "E6"]))
    argv = ["det", "--group", group, *draw(_simple(_rank(group))),
            "--backend", draw(st.sampled_from(["symbolic", "minor"]))]
    if group == "D3" and draw(st.booleans()):
        argv.append("--invariants=" + _csv(draw(st.lists(_rational,
                                                         max_size=3))))
    return argv


@st.composite
def _predict(draw):
    group = draw(_mostly(
        st.sampled_from(["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3",
                         "D3", "D4", "D5", "E6", "F4"]),
        st.sampled_from(INVALID_GROUPS)))
    where = draw(st.one_of(_simple(_rank(group)), _roots(group)))
    flags = draw(st.sampled_from([[], ["--dump-roots"]]))
    return ["predict", "--group", group, *where, *flags]


def _tables():
    which = st.one_of(st.integers(-3, 20).filter(lambda w: not 1 <= w <= 6)
                      .map(str), st.sampled_from(["", "x", "1.5"]))
    return which.map(lambda w: ["tables", "--which=" + w])


@st.composite
def _classical(draw):
    kind = draw(st.sampled_from("ABD"))
    mults = draw(_mostly(
        st.lists(st.integers(1, 3), min_size=1 + (kind == "A"), max_size=4),
        st.lists(st.integers(-1, 3), max_size=4)))
    argv = ["classical", "--type", kind, "--mult=" + _csv(mults)]
    if kind != "A" or draw(st.integers(0, 9)) == 0:
        argv.append(f"--m={draw(st.integers(-3, 3))}")
    if draw(st.booleans()):
        d = max(len(mults) - (kind == "A"), 0)
        size = draw(_mostly(st.just(d), st.integers(0, 4)))
        argv.append("--at=" + _csv(draw(st.lists(_rational, min_size=size,
                                                 max_size=size))))
    return argv


def _reject_constant(name):
    raise ValueError(f"{name} in a report")


def _run_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:      # argparse rejected the argv
            status = exc.code
    return status, out.getvalue()


class TestExitContract:
    @settings(derandomize=True, max_examples=100, deadline=None,
              database=None)
    @given(argv=st.one_of(_verify(), _det(), _predict(), _tables(),
                          _classical()))
    @example(argv=["verify", "--group", "A1"])
    @example(argv=FAR_OUT_POINTS[0])
    @example(argv=FAR_OUT_POINTS[1])
    @example(argv=FAR_OUT_POINTS[2])
    @example(argv=FAR_OUT_POINTS[3])
    @example(argv=FAR_OUT_POINTS[4])
    @example(argv=FAR_OUT_POINTS[5])
    @example(argv=FAR_OUT_POINTS[6])
    @example(argv=FAR_OUT_POINTS[7])
    @example(argv=FAR_OUT_POINTS[8])
    @example(argv=FAR_OUT_POINTS[9])
    @example(argv=FAR_OUT_POINTS[10])
    @example(argv=FAR_OUT_POINTS[11])
    def test_status_and_report(self, argv):
        with mock.patch.dict(os.environ, {"SAITO_STRATA_THREADS": "1"}):
            status, out = _run_argv(argv)
        assert status in (0, 1, 2)
        if status == 2:
            assert out == ""
            return
        report = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(report, SCHEMA)
        if status == 1:
            assert report.get("failures") or report.get("diff")
