import csv
import importlib.util
import inspect
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from digitlab import arcs as arcs_mod
from digitlab import cli
from digitlab import digits as digits_mod
from digitlab import expsums as expsums_mod
from digitlab import fourier as fourier_mod
from digitlab import verify
from digitlab.digits import DigitSet
from digitlab.errors import DomainError
from digitlab.expsums import IntPolynomial, build_mangoldt

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "reports", Path(__file__).parents[1] / "tools" / "reports.py")
REPORTS_TOOL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(REPORTS_TOOL)


def run(argv):
    return cli.main(argv)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def refuse(name):
    """A stage that fails the test if it is called."""
    def stage(*args, **kwargs):
        raise AssertionError(f"{name} ran")
    return stage


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

    @pytest.mark.parametrize("weight", ["mangoldt", "poly"])
    def test_k_zero_count_matches_arcs(self, weight, capsys):
        flags = ["--q", "10", "--exclude", "7", "--k", "0",
                 "--weight", weight]
        reports = []
        for command in ("count", "arcs"):
            assert run([command, *flags]) == 0
            reports.append(strict_json(capsys.readouterr().out))
        count, arcs = reports
        assert count["direct"] == arcs["direct"] == arcs["total"]
        assert count["main_term"] == arcs["main_term"] > 0

    @pytest.mark.parametrize("command", ["count", "arcs"])
    def test_zero_main_term_is_strict_json(self, command, capsys):
        # both units mod 6 excluded: kappa = 0, so the main term is 0
        code = run([command, "--q", "6", "--exclude", "1,5", "--k", "3"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["main_term"] == 0.0
        assert payload["deviation"] is None
        assert "main term is 0" in payload["deviation_reason"]

    @pytest.mark.parametrize("coeffs", [
        f"0,0,{10 ** 400}",  # lead ** (1/2) is past the float range
        f"0,{10 ** 308}",    # main term inf, deviation nan
    ], ids=["lead-1e400", "lead-1e308"])
    @pytest.mark.parametrize("command", ["count", "arcs"])
    def test_non_finite_main_term_exits_2(self, command, coeffs, capsys,
                                          monkeypatch):
        # the main term is checked before any pipeline stage allocates
        monkeypatch.setattr(arcs_mod, "pipeline_stages",
                            refuse("pipeline_stages"))
        code = run([command, "--q", "10", "--exclude", "7", "--k", "3",
                    "--weight", "poly", f"--poly-coeffs={coeffs}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("domain error: main term is not a finite float: "
                       "the lead coefficient is too large\n")

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


class TestOneComparison:
    """``count`` and ``arcs`` print the one theorem comparison."""

    KEYS = ("members", "direct", "main_term", "deviation", "deviation_reason",
            "kappa", "singular_series_J", "singular_series")

    @pytest.mark.parametrize("flags", [
        ["--q", "10", "--exclude", "7", "--k", "3"],
        ["--q", "10", "--exclude", "7", "--k", "3", "--weight", "poly"],
        ["--q", "10", "--exclude", "7", "--k", "0"],
        ["--q", "10", "--exclude", "7", "--k", "0", "--weight", "poly"],
        # kappa = 0: the deviation is null, with its reason
        ["--q", "6", "--exclude", "1,5", "--k", "3"],
    ], ids=["mangoldt", "n^2", "mangoldt-k0", "n^2-k0", "kappa-0"])
    def test_same_fields(self, flags, capsys):
        fields = []
        for command in ("count", "arcs"):
            assert run([command, *flags]) == 0
            payload = strict_json(capsys.readouterr().out)
            assert set(self.KEYS) - {"deviation_reason"} <= set(payload)
            fields.append([payload.get(key) for key in self.KEYS])
        assert fields[0] == fields[1]

    def test_poly_main_term_from_the_report(self):
        # (7442/6561) * 10^(4/2) * 6561/10^4 = 74.42
        rep = strict_json((DATA / "arcs_q10_k4_poly.json").read_text())
        ss = Fraction(rep["singular_series"]["num"],
                      rep["singular_series"]["den"])
        assert (rep["singular_series_J"], rep["members"]) == (4, 9 ** 4)
        assert rep["main_term"] == pytest.approx(
            float(ss) * 10 ** (4 / 2) * rep["members"] / 10 ** 4, rel=1e-15)


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


def scan_oracle(q, excluded, k, weight, A_major=3.0):
    """The scan CSV from the half stages (a <= Q//2) built by hand,
    mirrored per row (a > Q//2 reads conj fhat and the s_abs and code of
    Q - a), and one csv.writer row (scalar abs of fhat, repr of each
    float) per point."""
    ds = DigitSet(q, excluded)
    Q = q ** k
    fhat = fourier_mod.half_grid_values(fourier_mod.FourierContext(ds, k))
    if weight == "mangoldt":
        w = build_mangoldt(max(Q - 1, 1))
    else:
        w = IntPolynomial((0, 0, 1))
    s_abs = fourier_mod.half_weight_moduli(
        arcs_mod._weight_vector(w, q, k), Q)
    codes = arcs_mod._classification(Q, max(1, math.isqrt(Q)), A_major)
    names = arcs_mod.ARC_CLASSES
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "fhat_re", "fhat_im", "fhat_abs",
                     "arc_class", "s_abs"])
    for a in range(Q):
        b = min(a, Q - a)
        f = complex(fhat[b]) if a == b else complex(fhat[b]).conjugate()
        writer.writerow([
            a,
            repr(f.real),
            repr(f.imag),
            repr(abs(f)),
            names[codes[b]],
            repr(float(s_abs[b])),
        ])
    return buf.getvalue()


class TestScanWriter:
    """The block-wise writer against the per-row csv.writer loop."""

    # 11^3 // 2 + 1 = 666 = 18 * 37: the last lower block is full.  Blocks
    # of 1 and 2 rows start at 0 and at mirror_paired(Q).start = 1, the
    # edges of the reversed slice of mirror rows.
    @pytest.mark.parametrize("block", [1, 2, 37, cli.CSV_BLOCK])
    @pytest.mark.parametrize("weight", ["mangoldt", "poly"])
    @pytest.mark.parametrize("q, excluded, k", [
        (7, (3,), 4), (10, (3, 7), 4), (11, (5,), 3), (10, (7,), 1),
        (7, (3,), 1), (10, (7,), 0)])
    def test_byte_identical(self, q, excluded, k, weight, block, tmp_path,
                            capsys, monkeypatch):
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        expected = scan_oracle(q, excluded, k, weight)
        flags = ["scan", "--q", str(q), "--k", str(k), "--weight", weight,
                 "--exclude", ",".join(map(str, excluded))]
        out = tmp_path / "scan.csv"
        assert run([*flags, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        assert run(flags) == 0
        assert capsys.readouterr().out == expected
        assert expected.count("\n") == q ** k + 1

    @pytest.mark.parametrize("block", [2, cli.CSV_BLOCK])
    def test_signed_zero_and_nan_imaginary_parts(self, block, tmp_path,
                                                 monkeypatch):
        # no small config has fhat.imag exactly +-0.0 at 0 < a < Q/2
        monkeypatch.setattr(cli, "CSV_BLOCK", block)
        Q = 7
        fhat = np.array([4.0, complex(1.5, 0.0), complex(-2.0, -0.0),
                         complex(0.25, math.nan)])
        s_abs = np.array([abs(s) for s in (3.0, 1 + 1j, complex(0.0, -0.0),
                                            -2j)])
        codes = np.array([0, 1, 2, 0], dtype=np.int8)
        st = arcs_mod.PipelineStages(Q=Q, fhat=fhat, s_abs=s_abs,
                                     codes=codes)
        names = arcs_mod.ARC_CLASSES
        expected = ["a,fhat_re,fhat_im,fhat_abs,arc_class,s_abs\n"]
        for a in range(Q):
            b = min(a, Q - a)
            f = complex(fhat[b]) if a == b else complex(fhat[b]).conjugate()
            expected.append(f"{a},{f.real!r},{f.imag!r},{abs(f)!r},"
                            f"{names[codes[b]]},{float(s_abs[b])!r}\n")
        with open(tmp_path / "spill", "w+b") as spill:
            got = "".join(cli._scan_csv_blocks(st, spill))
        assert got == "".join(expected)
        assert ",-0.0," in got and ",0.0," in got and ",nan," in got

    @pytest.mark.parametrize("q, excluded, k", [(7, (3,), 4), (10, (7,), 3)])
    def test_one_repr_per_stored_value(self, q, excluded, k, tmp_path,
                                       monkeypatch):
        # four float columns of the rows a <= Q//2, none for a mirror row
        calls = []

        def counted(x):
            calls.append(x)
            return repr(x)

        monkeypatch.setattr(cli, "CSV_BLOCK", 37)
        st = arcs_mod.pipeline_stages(DigitSet(q, excluded), k,
                                      build_mangoldt(q ** k - 1))
        monkeypatch.setattr(cli, "repr", counted, raising=False)
        with open(tmp_path / "spill", "w+b") as spill:
            got = "".join(cli._scan_csv_blocks(st, spill))
        monkeypatch.undo()
        assert len(calls) == 4 * (q ** k // 2 + 1)
        assert got == scan_oracle(q, excluded, k, "mangoldt")

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # about 0.76 MB at 2^10 rows; a writer that holds the mirror half
        # (4.7 MB of rows) in memory, or formats 2^14 rows per string,
        # tops 6 MB
        st = arcs_mod.pipeline_stages(DigitSet(10, (7,)), 5,
                                      build_mangoldt(10 ** 5 - 1))
        with open(tmp_path / "spill", "w+b") as spill:
            blocks = cli._scan_csv_blocks(st, spill)
            tracemalloc.start()
            try:
                rows = sum(block.count("\n") for block in blocks)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert rows == 10 ** 5 + 1
        assert peak <= 1000 * cli.CSV_BLOCK


def float_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


class TestNegatedRepr:
    """The mirror rows' fhat_im: repr(-x) from the string repr(x)."""

    @settings(max_examples=500, deadline=None)
    @given(hs.floats() | hs.integers(0, 2 ** 64 - 1).map(float_from_bits))
    @example(0.0)
    @example(-0.0)
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    @example(-math.nan)
    @example(float_from_bits(0x7FF0_0000_0000_0001))  # signalling nan
    @example(float_from_bits(0xFFF8_DEAD_BEEF_0001))  # negative, payload
    @example(5e-324)
    @example(-5e-324)
    @example(-2.2250738585072009e-308)  # largest subnormal, negated
    def test_equals_repr_of_the_negation(self, x):
        assert cli._negated_reprs([repr(x)]) == [repr(-x)]


class TestClosedStdout:
    @pytest.mark.parametrize("flags, lines", [
        # 10^4 rows, far past a pipe's buffer: a write meets the closed pipe
        (["scan", "--q", "10", "--exclude", "7", "--k", "4"], 1),
        # a report within the stdout buffer: the flush meets it
        (["constants", "--q", "5", "--exclude", "2", "--k", "2"], 0),
    ])
    def test_exits_141_without_a_traceback(self, flags, lines, tmp_path,
                                           capsys):
        argv = [sys.executable, "-m", "digitlab.cli", *flags]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env) as child:
            for _ in range(lines):
                child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert err == b""  # no traceback
        assert code == 141
        # --out is a file, which no reader closes
        assert run(flags) == 0
        out = tmp_path / "report"
        done = subprocess.run([*argv, "--out", str(out)], env=env,
                              capture_output=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert out.read_text() == capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full, whose every write fails")
class TestFailedWrite:
    """A write that fails (a full disk) is a config error: exit 2 and one
    stderr line, no traceback, where a traceback once exited 1."""

    COUNT = ["count", "--q", "10", "--exclude", "7", "--k", "3"]
    SCAN = ["scan", "--q", "10", "--exclude", "7", "--k", "3"]

    @pytest.mark.parametrize("flags, to_stdout, target", [
        (COUNT + ["--out", "/dev/full"], False, "out"),
        (COUNT, True, "stdout"),
        (SCAN + ["--out", "/dev/full"], False, "out"),
    ], ids=["count-out", "count-stdout", "scan-out"])
    def test_exits_2_without_a_traceback(self, flags, to_stdout, target):
        argv = [sys.executable, "-m", "digitlab.cli", *flags]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                argv, env=env, timeout=60, stderr=subprocess.PIPE,
                stdout=full if to_stdout else subprocess.DEVNULL)
        assert done.returncode == 2
        assert done.stderr == (f"config error: {target}: [Errno 28] No "
                               "space left on device\n").encode()

    def test_failed_spill_write_names_the_spill_file(self, tmp_path,
                                                     monkeypatch, capsys):
        class FullFile(io.BytesIO):
            def write(self, data):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile",
                            lambda *args, **kwargs: FullFile())
        assert run([*self.SCAN, "--out", str(tmp_path / "scan.csv")]) == 2
        assert capsys.readouterr().err == (
            "config error: scan: spill file: [Errno 28] No space left on "
            "device\n")


class TestScanFailureLeavesOut:
    @pytest.mark.parametrize("flags, code", [
        (["--k", "9"], 3),
        (["--k", "3", "--d0", "0"], 2),
        # fails in classification, the last stage before writing
        (["--k", "3", "--d0", str(2 ** 53)], 2),
    ])
    def test_sentinel_unchanged(self, flags, code, tmp_path):
        out = tmp_path / "scan.csv"
        out.write_text("sentinel\n")
        assert run(["scan", "--q", "10", "--exclude", "7", *flags,
                    "--out", str(out)]) == code
        assert out.read_text() == "sentinel\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_no_spill_file(self, tmp_path, monkeypatch, capsys):
        def refuse_spill(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(tempfile, "TemporaryFile", refuse_spill)
        out = tmp_path / "scan.csv"
        out.write_text("sentinel\n")
        assert run(["scan", "--q", "10", "--exclude", "7", "--k", "3",
                    "--out", str(out)]) == 2
        assert out.read_text() == "sentinel\n"
        assert list(tmp_path.iterdir()) == [out]
        err = capsys.readouterr().err
        assert err.startswith("config error: scan: cannot create a spill")
        assert repr(tempfile.gettempdir()) in err


# Spawns its argv with stdout to /dev/null and prints the exit code and the
# ru_maxrss (KiB) that os.wait4 reports for it.  A child's peak starts from
# the peak of the process it was spawned from, so the measured child must
# come from this small interpreter, not from the test's own (numpy and
# pytest loaded, far above the child's peak).
PEAK_LAUNCHER = (
    "import os, sys\n"
    "out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],\n"
    "                     os.environ, file_actions=out)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def child_peak_mb(*argv):
    """Peak RSS in MB of ``python argv...`` on the package's source."""
    src = Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", PEAK_LAUNCHER, *argv],
                          check=True, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    code, kib = map(int, done.stdout.split())
    assert code == 0, argv
    return kib * 1024 / 1e6


class TestArcs:
    def test_peak_rss_above_import(self):
        # arcs at Q = 10^6 rose 36.5 MB above a bare import of the CLI
        # while it held the Q-point weight vector, its real FFT and the
        # half grid, and 19.7 MB with the engine's fused pass (medians of
        # 5 runs); the bound lies between the two
        base = child_peak_mb("-c", "import digitlab.cli")
        peak = child_peak_mb("-m", "digitlab.cli", "arcs", "--q", "10",
                             "--exclude", "7", "--k", "6", "--a-major", "2.0")
        assert peak - base <= 26.0

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

    def test_empirical_constant_up_to_the_cap(self, capsys):
        # Q = 10^7 is within the default cap
        code = run(["constants", "--q", "10", "--exclude", "7", "--k", "7"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert 0 < payload["Cq_empirical"] <= payload["Cq_analytic"]
        assert payload["k"] == 7
        assert "Cq_empirical_reason" not in payload

    @pytest.mark.parametrize("q", ["10", "31"])
    def test_empirical_constant_above_the_cap(self, q, capsys):
        code = run(["constants", "--q", q, "--exclude", "7", "--k", "4",
                    "--cap", "1000"])
        assert code == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["Cq_empirical"] is None
        # the skip leaves the configured k in the report
        assert payload["k"] == 4
        assert "exceeds cap 1000" in payload["Cq_empirical_reason"]

    @pytest.mark.parametrize("command, loads", [("constants", False),
                                                ("count", True)])
    def test_run_imports_only_its_modules(self, command, loads):
        # each command imports what it runs: constants needs neither arcs
        # nor expsums, and count, which needs both, shows the probe sees
        # them
        src = Path(cli.__file__).parents[1]
        probe = ("import sys\n"
                 "from digitlab import cli\n"
                 f"code = cli.main([{command!r}, '--q', '10', '--exclude', "
                 "'7', '--k', '3'])\n"
                 "print(code, *sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        code, *loaded = done.stdout.splitlines()[-1].split()
        assert code == "0"
        assert "digitlab.fourier" in loaded
        assert ("digitlab.arcs" in loaded) is loads
        assert ("digitlab.expsums" in loaded) is loads


class TestCapAtTheBoundary:
    """``--cap`` is checked once, in the CLI, before any stage runs."""

    @pytest.mark.parametrize("weight", ["mangoldt", "poly"])
    @pytest.mark.parametrize("command", ["count", "scan", "arcs"])
    def test_cap_checked_before_the_sieve(self, command, weight,
                                          monkeypatch):
        monkeypatch.setattr(expsums_mod, "build_mangoldt",
                            refuse("build_mangoldt"))
        for name in ("half_grid_values", "direct_count"):
            monkeypatch.setattr(arcs_mod, name, refuse(name))
        code = run([command, "--q", "10", "--exclude", "7", "--k", "7",
                    "--weight", weight, "--cap", "1000000"])
        assert code == 3

    def test_no_library_function_takes_a_cap(self):
        for module in (arcs_mod, fourier_mod, digits_mod, expsums_mod):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                assert "cap" not in inspect.signature(fn).parameters, name


class TestCapAboveGridCap:
    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_rejected_as_config_error(self, command, capsys):
        code = run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    "--cap", str(fourier_mod.GRID_CAP + 1)])
        assert code == 2
        assert "cap" in capsys.readouterr().err


class TestPolyScanCap:
    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_long_scan_exits_3(self, command, monkeypatch, capsys):
        # n - 2000 < 36 for 2036 values of n
        monkeypatch.setattr(expsums_mod, "POLY_SCAN_CAP", 1000)
        code = run([command, "--q", "6", "--exclude", "5", "--k", "2",
                    "--weight", "poly", "--poly-coeffs=-2000,1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "resource cap: polynomial scan exceeds cap of 1000 values\n")

    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_scan_past_ssize_t_exits_3(self, command, capsys):
        # P increases only from n = 5 * 10**21 + 2, past a C ssize_t
        code = run([command, "--q", "10", "--exclude", "7", "--k", "3",
                    "--weight", "poly",
                    "--poly-coeffs=0,-10000000000000000000000,1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "resource cap: polynomial scan exceeds cap of 100000000 values\n")


class TestCapBelowOne:
    @pytest.mark.parametrize("cap", ["0", "-5"])
    @pytest.mark.parametrize("command", ["count", "arcs", "scan", "constants"])
    def test_rejected_as_config_error(self, command, cap, capsys):
        code = run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    f"--cap={cap}"])
        assert code == 2
        assert "cap: must lie in [1, " in capsys.readouterr().err


class TestNonFiniteAMajor:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["arcs", "scan", "count"])
    def test_flag_rejected_as_config_error(self, command, value, capsys):
        code = run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    "--a-major", value])
        assert code == 2
        captured = capsys.readouterr()
        assert "a-major: must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["arcs", "scan", "count"])
    def test_config_file_rejected_as_config_error(self, command, value,
                                                  tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"q=10\nexclude=7\nk=2\na_major={value}\n")
        assert run([command, "--config", str(cfgfile)]) == 2
        assert "a-major" in capsys.readouterr().err


class TestAMajorOverflow:
    """(log Q)^A must be a float: the threshold is printed as strict JSON."""

    @pytest.mark.parametrize("k, limit", [(3, "367.2597971253467"),
                                          (6, "270.3118662908308")])
    @pytest.mark.parametrize("command", ["arcs", "scan"])
    def test_rejected_with_the_largest_a(self, command, k, limit, capsys,
                                         monkeypatch):
        monkeypatch.setattr(arcs_mod, "pipeline_stages",
                            refuse("pipeline_stages"))
        code = run([command, "--q", "10", "--exclude", "7", "--k", str(k),
                    "--a-major", "400"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"config error: a-major: (log Q)^A overflows at Q = 10^{k}; "
            f"the largest A accepted is {limit}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["arcs", "scan"])
    def test_the_largest_a_runs(self, command, tmp_path):
        limit = cli.max_a_major(math.log(10 ** 3))
        assert arcs_mod.arc_threshold(10 ** 3, limit) < math.inf
        with pytest.raises(DomainError, match="A = "):
            arcs_mod.arc_threshold(10 ** 3, math.nextafter(limit, math.inf))
        out = tmp_path / "out"
        argv = [command, "--q", "10", "--exclude", "7", "--k", "3",
                "--a-major", repr(limit), "--out", str(out)]
        assert run(argv) == 0
        assert run([*argv[:-2], "--a-major",
                    repr(math.nextafter(limit, math.inf))]) == 2


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [
        ["count", "--q", "10", "--exclude", "7", "--k", "2"],
        ["arcs", "--q", "10", "--exclude", "7", "--k", "2"],
        ["scan", "--q", "10", "--exclude", "7", "--k", "2"],
        ["constants", "--q", "10", "--exclude", "7", "--k", "2"],
        ["verify", "constants"],
        ["verify", "all"],
    ], ids=["count", "arcs", "scan", "constants", "verify", "verify-all"])
    def test_missing_directory_is_config_error(self, argv, tmp_path, capsys,
                                               monkeypatch):
        # checked before any stage runs
        monkeypatch.setattr(expsums_mod, "build_mangoldt",
                            refuse("build_mangoldt"))
        for name in ("pipeline_stages", "circle_pipeline",
                     "theorem_comparison"):
            monkeypatch.setattr(arcs_mod, name, refuse(name))
        monkeypatch.setattr(fourier_mod, "empirical_Cq",
                            refuse("empirical_Cq"))
        monkeypatch.setattr(verify, "report", refuse("verify.report"))
        out = tmp_path / "missing" / "x.json"
        assert run([*argv, "--out", str(out)]) == 2
        assert "out: directory " in capsys.readouterr().err
        assert not out.parent.exists()

    def test_bare_file_name_is_the_working_directory(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["constants", "--q", "10", "--exclude", "7", "--k", "1",
                    "--out", "x.json"]) == 0
        assert strict_json((tmp_path / "x.json").read_text())["k"] == 1


class TestBaseCap:
    """``digits.BASE_CAP`` is checked before any O(q) table is built."""

    @pytest.mark.parametrize("command", ["count", "arcs", "scan",
                                         "constants"])
    def test_exit_3_before_allowed_is_built(self, command, monkeypatch,
                                            capsys):
        monkeypatch.setattr(DigitSet, "allowed",
                            property(refuse("DigitSet.allowed")))
        monkeypatch.setattr(fourier_mod, "_digit_vectors",
                            refuse("_digit_vectors"))
        q = digits_mod.BASE_CAP + 1
        assert run([command, "--q", str(q), "--exclude", "7",
                    "--k", "1"]) == 3
        assert f"base q={q} exceeds cap" in capsys.readouterr().err

    def test_cap_itself_is_accepted(self, monkeypatch):
        monkeypatch.setattr(DigitSet, "allowed",
                            property(refuse("DigitSet.allowed")))
        assert DigitSet(digits_mod.BASE_CAP, (7,)).q == digits_mod.BASE_CAP


class TestGoldenReports:
    """The committed reports, from the commands of ``tools/reports.py``,
    which also writes them for the byte gate between two commits.  Each
    is gated on byte identity, so a change to one must update its file."""

    GOLDEN = REPORTS_TOOL.GOLDEN

    @pytest.mark.parametrize("argv, name", GOLDEN,
                             ids=[name for _, name in GOLDEN])
    def test_matches_committed_report(self, argv, name, tmp_path):
        out = tmp_path / name
        assert run([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_one_command_per_committed_report(self):
        assert sorted(name for _, name in self.GOLDEN) == sorted(
            p.name for p in DATA.iterdir())


class TestOneReportPerDigitSet:
    """``config.excluded`` echoes the digit set: sorted, without repeats."""

    @pytest.mark.parametrize("spelling, canonical", [
        ("7,7", "7"), ("7,3", "3,7"), ("3,7,3,7", "3,7")])
    @pytest.mark.parametrize("command", ["count", "arcs", "constants"])
    def test_byte_identical_reports(self, command, spelling, canonical,
                                    capsys):
        reports = []
        for exclude in (spelling, canonical):
            assert run([command, "--q", "10", "--exclude", exclude,
                        "--k", "2"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["excluded"] == [
            int(d) for d in canonical.split(",")]


class TestD0BelowOne:
    @pytest.mark.parametrize("d0", ["0", "-1"])
    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_rejected_as_config_error(self, command, d0, capsys):
        code = run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    "--d0", d0])
        assert code == 2
        assert "d0: must be positive" in capsys.readouterr().err


class TestExactBetaBeforeTheWeight:
    """``arcs`` and ``scan`` run the pipeline's argument check
    (``arcs._grid``) after the cap and before the weight is built."""

    ARGV = ["--q", "10", "--exclude", "7", "--k", "8", "--d0", "100000000",
            "--a-major", "2.0"]

    @pytest.mark.parametrize("command", ["arcs", "scan"])
    def test_q_d0_past_2_53(self, command, monkeypatch, capsys):
        monkeypatch.setattr(expsums_mod, "build_mangoldt",
                            refuse("build_mangoldt"))
        monkeypatch.setattr(arcs_mod, "theorem_comparison",
                            refuse("theorem_comparison"))
        assert run([command, *self.ARGV]) == 2
        assert capsys.readouterr().err == (
            "domain error: Q*D0 = 10000000000000000 not below 2^53: "
            "beta would not be exact\n")
        # the cap is checked first
        assert run([command, *self.ARGV, "--cap", "1000"]) == 3
        assert capsys.readouterr().err == (
            "resource cap: q^k = 10^8 exceeds cap 1000\n")


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
        checks = {c["check"]: c["passed"] for c in verify.SUITES["arcs"](1)}
        for q in (6, 10):
            for at in ("", ", A=1.0"):
                assert not checks[f"ledger class counts vs scalar classify "
                                  f"(q={q}, k=3, mangoldt{at})"]

    def test_grid_oracle_check_can_fail(self, monkeypatch):
        real = fourier_mod.half_grid_values

        def conjugated(*args, **kwargs):
            return real(*args, **kwargs).conj()

        monkeypatch.setattr(fourier_mod, "half_grid_values", conjugated)
        checks = {c["check"]: c["passed"]
                  for c in verify.SUITES["fourier"](1)}
        assert not checks["half grid vs product formula (q=10, k=4, "
                          "every a <= Q/2)"]
        # |F| is unchanged, so Parseval cannot see it
        assert checks["Parseval q=10 k=4"]
        assert [name for name, ok in checks.items() if not ok] == [
            "half grid vs product formula (q=10, k=4, every a <= Q/2)"]

    def test_shift_check_can_fail(self, monkeypatch):
        # an L1 sum that drops theta0 breaks only the shifted comparison;
        # the bound holds at theta0 = 0 as well
        real = fourier_mod.l1_grid_sum
        monkeypatch.setattr(fourier_mod, "l1_grid_sum",
                            lambda ctx, theta0=0.0: real(ctx, 0.0))
        checks = {c["check"]: c["passed"]
                  for c in verify.SUITES["fourier"](1)}
        assert [name for name, ok in checks.items() if not ok] == [
            "L1 sum vs product formula (q=5, k=3, theta 1/3)"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["verify", "all", "--out", str(a)]) == 0
        assert run(["verify", "all", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_suite(self, capsys):
        code = run(["verify", "bogus"])
        assert code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_parser_names_every_suite(self):
        assert cli.VERIFY_SUITES == tuple(verify.SUITES)

    def test_cli_import_leaves_the_catalogue_out(self):
        # only ``verify`` needs verify.py; a fresh interpreter shows that
        # importing the CLI does not load it
        src = Path(cli.__file__).parents[1]
        probe = "import sys, digitlab.cli; print(*sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)})
        loaded = done.stdout.split()
        assert "digitlab.cli" in loaded
        assert "digitlab.verify" not in loaded


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

    @pytest.mark.parametrize("line", ["format=json", "seed=1", "d-0=5"])
    def test_unknown_key_is_config_error(self, line, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"q=10\nexclude=7\nk=3\n{line}\n")
        code = run(["count", "--config", str(cfgfile)])
        assert code == 2
        key = line.split("=")[0]
        assert f"config: unknown key {key!r}" in capsys.readouterr().err


# The nine config keys, listed here and not read from ``cli.CONFIG_KEYS``,
# so that a key dropped from the table fails: a valid text, the field and
# value the report echoes for it, a malformed text and its stderr line.
CONFIG_TEXTS = [
    ("q", "11", "q", 11, "ab", "config error: q: 'ab'"),
    ("exclude", "7,3", "excluded", [3, 7], "7,x",
     "config error: excluded: '7,x'"),
    ("k", "1", "k", 1, "two", "config error: k: 'two'"),
    ("weight", "poly", "weight", "poly", "foo",
     "config error: weight: must be 'mangoldt' or 'poly'"),
    ("poly_coeffs", "1,0,1", "poly_coeffs", [1, 0, 1], "0,x",
     "config error: poly_coeffs: '0,x'"),
    ("d0", "5", "D0", 5, "1.5", "config error: D0: '1.5'"),
    ("a_major", "2.5", "A_major", 2.5, "big",
     "config error: A_major: 'big'"),
    ("cap", "5000", "cap", 5000, "1e4", "config error: cap: '1e4'"),
    ("out", "report.json", None, None, "missing/x.json",
     "config error: out: directory 'missing' does not exist"),
]


class TestOneParse:
    """A value given by flag or by ``--config`` line goes through one
    parse, to the same report or the same error."""

    BASE = {"q": "10", "exclude": "7", "k": "2", "weight": "poly",
            "poly_coeffs": "0,0,1"}

    def run_both(self, key, text, tmp_path, capsys):
        """(exit, stdout, stderr) with ``key`` given by flag, then by file;
        the other keys come as flags.  A report written to ``--out`` is
        read back as its stdout."""
        results = []
        others = [f for k, v in self.BASE.items() if k != key
                  for f in ("--" + k.replace("_", "-"), v)]
        flag = ["--" + key.replace("_", "-"), text]
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"{key}={text}\n")
        for extra in (flag, ["--config", str(cfgfile)]):
            code = run(["count", *others, *extra])
            out, err = capsys.readouterr()
            if key == "out" and code == 0:
                out = Path(text).read_text()
                os.remove(text)
            results.append((code, out, err))
        return results

    @pytest.mark.parametrize("key, text, field, value, bad, message",
                             CONFIG_TEXTS, ids=[c[0] for c in CONFIG_TEXTS])
    def test_flag_and_file_give_one_report(self, key, text, field, value,
                                           bad, message, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        by_flag, by_file = self.run_both(key, text, tmp_path, capsys)
        assert by_flag == by_file
        code, out, err = by_flag
        assert (code, err) == (0, "")
        if field is not None:
            assert strict_json(out)["config"][field] == value

    @pytest.mark.parametrize("key, text, field, value, bad, message",
                             CONFIG_TEXTS, ids=[c[0] for c in CONFIG_TEXTS])
    def test_flag_and_file_give_one_error(self, key, text, field, value,
                                          bad, message, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        by_flag, by_file = self.run_both(key, bad, tmp_path, capsys)
        assert by_flag == by_file == (2, "", message + "\n")


class TestHugeQ:
    """Q = 10^5000 has more digits than int-to-str converts; messages name
    it by q and k."""

    ARGS = ["--q", "10", "--exclude", "7", "--k"]

    # 10^(10^7) alone takes about 20 s to build; no check builds q^k
    HUGE_K = ("5000", "10000000")

    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_over_the_cap(self, command, capsys):
        for k in self.HUGE_K:
            start = time.perf_counter()
            assert run([command, *self.ARGS, k]) == 3
            assert time.perf_counter() - start < 2.0
            assert capsys.readouterr().err == (
                f"resource cap: q^k = 10^{k} exceeds cap 100000000\n")

    def test_constants_skips_the_grid(self, capsys):
        for k in self.HUGE_K:
            start = time.perf_counter()
            assert run(["constants", *self.ARGS, k]) == 0
            assert time.perf_counter() - start < 2.0
            payload = strict_json(capsys.readouterr().out)
            assert payload["Cq_empirical"] is None
            assert payload["Cq_empirical_reason"] == (
                f"q^k = 10^{k} exceeds cap 100000000, so the L1 grid sum "
                "is skipped")


class TestPolyCoeffsNeedPolyWeight:
    @pytest.mark.parametrize("weight", [[], ["--weight", "mangoldt"]])
    @pytest.mark.parametrize("command", ["count", "scan", "arcs", "constants"])
    def test_rejected_with_mangoldt(self, command, weight, capsys):
        assert run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    *weight, "--poly-coeffs", "0,0,1"]) == 2
        assert "poly-coeffs" in capsys.readouterr().err

    def test_rejected_from_a_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("q=10\nexclude=7\nk=2\npoly_coeffs=0,1\n")
        assert run(["count", "--config", str(cfgfile)]) == 2
        # a flag that makes the weight poly takes the file's polynomial
        assert run(["count", "--config", str(cfgfile), "--weight", "poly",
                    "--out", str(tmp_path / "o.json")]) == 0


class TestPolyDegree:
    """The polynomial's own rule is the one check of its degree, ahead of
    the cap."""

    @pytest.mark.parametrize("k", ["2", "9"])  # 10^9 is past the cap
    @pytest.mark.parametrize("coeffs", ["7", "5,0"])
    @pytest.mark.parametrize("command", ["count", "arcs", "scan"])
    def test_one_error_by_flag_or_file(self, command, coeffs, k, tmp_path,
                                       capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"poly_coeffs={coeffs}\n")
        flags = [command, "--q", "10", "--exclude", "7", "--k", k,
                 "--weight", "poly"]
        for source in (["--poly-coeffs", coeffs], ["--config", str(cfgfile)]):
            assert run([*flags, *source]) == 2
            assert capsys.readouterr() == (
                "", "domain error: polynomial must have degree >= 1\n")


class TestRemovedFlags:
    @pytest.mark.parametrize("flag", [["--format", "json"], ["--seed", "1"]])
    @pytest.mark.parametrize("command", ["count", "scan", "arcs", "constants"])
    def test_rejected(self, command, flag):
        assert run([command, "--q", "10", "--exclude", "7", "--k", "2",
                    *flag]) == 2
