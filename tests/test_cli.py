"""Command-line interface: reports, schema conformance, determinism, and
exit codes."""

import json
import os
from fractions import Fraction

import jsonschema
import pytest

from saitostrata.cli import main, load_schema, worker_count

SCHEMA = load_schema()


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return status, report


class TestPredict:
    def test_e8_a5_row(self, capsys):
        status, rep = run_json(capsys, "predict", "--group", "E8",
                               "--simple", "4,5,6,7,8", "--fast")
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

    def test_input_validation(self, capsys):
        assert main(["classical", "--type", "A", "--mult", "2,1",
                     "--m", "1"]) == 2
        assert main(["classical", "--type", "B", "--mult", "1,1",
                     "--m", "-2"]) == 2
        assert main(["classical", "--type", "A", "--mult", "2,1,1",
                     "--at", "1"]) == 2


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
        monkeypatch.setenv("SAITO_STRATA_THREADS", "1")
        _, out1 = run(capsys, "verify", "--group", "B3", "--skip-symbolic")
        monkeypatch.setenv("SAITO_STRATA_THREADS", "3")
        _, out2 = run(capsys, "verify", "--group", "B3", "--skip-symbolic")
        assert out1 == out2

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("SAITO_STRATA_THREADS", "5")
        assert worker_count() == 5
        monkeypatch.delenv("SAITO_STRATA_THREADS")
        assert worker_count() >= 1
        monkeypatch.setenv("SAITO_STRATA_THREADS", "zero")
        assert main(["verify", "--group", "A2"]) == 2

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

    def test_text_format(self, capsys):
        status, out = run(capsys, "det", "--group", "B2", "--simple", "1",
                          "--format", "text")
        assert status == 0
        assert "coefficient:" in out

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        status = main(["predict", "--group", "A3", "--simple", "2",
                       "--output", str(path)])
        assert status == 0
        report = json.loads(path.read_text())
        jsonschema.validate(report, SCHEMA)
