import csv
import json
import math

import pytest

from digitlab import arcs as arcs_mod
from digitlab import cli
from digitlab import fourier as fourier_mod


def run(argv):
    return cli.main(argv)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


class TestCount:
    def test_json_report(self, tmp_path):
        out = tmp_path / "count.json"
        code = run(["count", "--q", "10", "--exclude", "7", "--k", "3",
                    "--weight", "mangoldt", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["members"] == 729
        assert payload["kappa"] == {"num": 5, "den": 6, "value": 5 / 6}
        assert payload["deviation"] < 0.25

    def test_poly_weight(self, tmp_path):
        out = tmp_path / "count.json"
        code = run(["count", "--q", "10", "--exclude", "7", "--k", "2",
                    "--weight", "poly", "--poly-coeffs", "0,0,1",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["direct"] == 10.0

    def test_k_zero(self, tmp_path):
        out = tmp_path / "count.json"
        code = run(["count", "--q", "10", "--exclude", "7", "--k", "0",
                    "--weight", "mangoldt", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["direct"] == 0.0
        assert payload["members"] == 1

    @pytest.mark.parametrize("command", ["count", "arcs"])
    def test_zero_main_term_is_strict_json(self, command, capsys):
        # both units mod 6 excluded: kappa = 0, so the main term is 0
        code = run([command, "--q", "6", "--exclude", "1,5", "--k", "3"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["main_term"] == 0.0
        assert payload["deviation"] is None
        assert "main term is 0" in payload["deviation_reason"]

    def test_nonzero_main_term_has_no_reason(self, capsys):
        code = run(["count", "--q", "10", "--exclude", "7", "--k", "3"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert 0 < payload["deviation"] < 0.25
        assert "deviation_reason" not in payload

    def test_missing_excluded_is_config_error(self, capsys):
        code = run(["count", "--q", "10", "--k", "3",
                    "--weight", "mangoldt"])
        assert code == 2
        assert "excluded" in capsys.readouterr().err

    def test_cap_exceeded(self, tmp_path):
        code = run(["count", "--q", "10", "--exclude", "7", "--k", "9",
                    "--weight", "poly", "--poly-coeffs", "0,0,1",
                    "--cap", "1000000"])
        assert code == 3


class TestScan:
    def test_csv_shape_and_invariants(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run(["scan", "--q", "10", "--exclude", "7", "--k", "2",
                    "--weight", "mangoldt", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 100
        assert rows[0]["a"] == "0"
        assert float(rows[0]["fhat_abs"]) == 81.0
        # Parseval: mean of |fhat|^2 over the grid = number of members
        mean_sq = sum(float(r["fhat_abs"]) ** 2 for r in rows) / 100
        assert mean_sq == pytest.approx(81.0, rel=1e-9)
        # conjugate symmetry of the modulus: |fhat(a)| == |fhat(Q-a)|
        for a in range(1, 100):
            assert float(rows[a]["fhat_abs"]) == pytest.approx(
                float(rows[100 - a]["fhat_abs"]), rel=1e-12)

    def test_cap_exceeded(self):
        code = run(["scan", "--q", "10", "--exclude", "7", "--k", "9",
                    "--weight", "mangoldt"])
        assert code == 3


class TestArcs:
    def test_report_conserves_total(self, tmp_path):
        out = tmp_path / "arcs.json"
        code = run(["arcs", "--q", "10", "--exclude", "7", "--k", "3",
                    "--weight", "mangoldt", "--a-major", "1.0",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        per = payload["per_class"]
        total_re = sum(per[c]["sum"]["re"] for c in per)
        assert total_re == pytest.approx(payload["total"], rel=1e-12)
        assert sum(per[c]["count"] for c in per) == 1000
        assert payload["deviation"] < 0.25

    def test_inexact_beta_bound_is_config_error(self, capsys):
        # Q * D0 = 1000 * 2^53 leaves float64's exact range
        code = run(["arcs", "--q", "10", "--exclude", "7", "--k", "3",
                    "--d0", "9007199254740992"])
        assert code == 2
        assert "2^53" in capsys.readouterr().err

    def test_scan_classes_match_ledger(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        flags = ["--q", "10", "--exclude", "7", "--k", "3",
                 "--weight", "mangoldt", "--a-major", "1.0"]
        assert run(["scan", *flags, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert run(["arcs", *flags]) == 0
        per = strict_json(capsys.readouterr().out)["per_class"]
        for cls, entry in per.items():
            assert sum(r["arc_class"] == cls for r in rows) == entry["count"]


class TestConstants:
    def test_report(self, tmp_path):
        out = tmp_path / "constants.json"
        code = run(["constants", "--q", "10", "--exclude", "7", "--k", "3",
                    "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["Cq_analytic"] == pytest.approx(1 + 3 / math.log(10))
        assert 0 < payload["alpha"] < 1

    def test_k_zero(self, capsys):
        code = run(["constants", "--q", "10", "--exclude", "7", "--k", "0"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["Cq_empirical"] == 1 / (10 * math.log(10))


class TestCapAboveGridCap:
    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_rejected_as_config_error(self, command, capsys):
        code = run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    "--cap", str(fourier_mod.GRID_CAP + 1)])
        assert code == 2
        assert "cap" in capsys.readouterr().err


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        out = tmp_path / "verify.json"
        code = run(["verify", "all", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert len(payload["checks"]) >= 20
        assert all(c["passed"] for c in payload["checks"])

    def test_class_count_check_can_fail(self, monkeypatch):
        real = arcs_mod._classification

        def off_by_one(Q, D0, A_major):
            codes = real(Q, D0, A_major)
            codes[1] = 2 - codes[1]
            return codes

        monkeypatch.setattr(arcs_mod, "_classification", off_by_one)
        checks = {c["check"]: c["passed"] for c in cli._suite_arcs(1)}
        for q in (6, 10):
            assert not checks[
                f"ledger class counts vs scalar classify (q={q}, k=3)"]
            assert checks[f"ledger conservation (q={q}, k=3)"]

    def test_grid_oracle_check_can_fail(self, monkeypatch):
        real = fourier_mod.grid_values

        def conjugated(*args, **kwargs):
            return real(*args, **kwargs).conj()

        monkeypatch.setattr(fourier_mod, "grid_values", conjugated)
        checks = {c["check"]: c["passed"] for c in cli._suite_fourier(1)}
        assert not checks["grid vs product formula (q=10, k=4, 40 random a, "
                          "theta0 0 and 0.1234)"]
        assert checks["Parseval q=10 k=4"]
        assert checks["conjugate symmetry"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "all", "--out", str(a)]) == 0
        assert run(["verify", "all", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite(self, capsys):
        code = run(["verify", "bogus"])
        assert code == 2


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("q=10\nexclude=7\nk=3\nweight=mangoldt\n")
        out1 = tmp_path / "o1.json"
        assert run(["count", "--config", str(cfgfile),
                    "--out", str(out1)]) == 0
        assert json.loads(out1.read_text())["members"] == 729
        out2 = tmp_path / "o2.json"
        assert run(["count", "--config", str(cfgfile), "--k", "2",
                    "--out", str(out2)]) == 0
        assert json.loads(out2.read_text())["members"] == 81

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("q=ten\nexclude=7\nk=3\nweight=mangoldt\n")
        code = run(["count", "--config", str(cfgfile)])
        assert code == 2
