"""Each shared check family of the verify catalogue can fail."""

import numpy as np
import pytest

from digitlab import arcs as arcs_mod
from digitlab import expsums as exp_mod
from digitlab import fourier as fou_mod
from digitlab import verify
from digitlab.digits import DigitSet
from digitlab.expsums import IntPolynomial, build_mangoldt

DS = DigitSet(10, (7,))
PIPELINE_CASES = [(DS, 2, build_mangoldt(100), "mangoldt"),
                  (DS, 2, IntPolynomial((0, 0, 1)), "n^2")]


def verdicts(checks):
    return [c["passed"] for c in checks]


def test_exponent_targets(monkeypatch):
    assert verdicts(verify.exponent_targets()) == [True] * 3
    monkeypatch.setattr(fou_mod, "alpha", lambda *args: 0.199)
    assert verdicts(verify.exponent_targets()) == [False, True, True]


def test_pipeline_vs_direct(monkeypatch):
    assert verdicts(verify.pipeline_vs_direct(PIPELINE_CASES)) == [True] * 2
    real = arcs_mod.direct_count
    monkeypatch.setattr(arcs_mod, "direct_count",
                        lambda *args: real(*args) * (1 + 2e-6))
    checks = verify.pipeline_vs_direct(PIPELINE_CASES)
    assert verdicts(checks) == [False] * 2
    assert [c["check"] for c in checks] == [
        "pipeline vs direct (q=10, k=2, mangoldt)",
        "pipeline vs direct (q=10, k=2, n^2)"]


def test_ledger_class_counts_sees_minor_arcs(monkeypatch):
    cases = [(DigitSet(6, (3,)), 3, build_mangoldt(216), "mangoldt")]
    assert verdicts(verify.ledger_class_counts(cases)) == [True]
    checks = verify.ledger_class_counts(cases, A_major=1.0)
    assert verdicts(checks) == [True]
    assert checks[0]["check"] == \
        "ledger class counts vs scalar classify (q=6, k=3, A=1.0)"
    assert checks[0]["detail"].endswith(" 74/120/22")
    # swapping the two minor codes is invisible where every point is major
    real = arcs_mod._classification
    swap = np.array([0, 2, 1], dtype=np.int8)
    monkeypatch.setattr(arcs_mod, "_classification",
                        lambda *args: swap[real(*args)])
    assert verdicts(verify.ledger_class_counts(cases)) == [True]
    assert verdicts(verify.ledger_class_counts(cases, A_major=1.0)) == [False]


def test_parseval(monkeypatch):
    cases = [(DS, 3), (DigitSet(6, (5,)), 3)]
    assert verdicts(verify.parseval(cases)) == [True] * 2
    real = fou_mod.grid_values
    monkeypatch.setattr(fou_mod, "grid_values",
                        lambda *args, **kw: real(*args, **kw) * (1 + 1e-9))
    assert verdicts(verify.parseval(cases)) == [False] * 2


def test_lemma_inequality(monkeypatch):
    thetas = [i / 100 for i in range(100)]
    assert verdicts(verify.lemma_inequality(thetas)) == [True]
    monkeypatch.setattr(fou_mod, "distance_to_integer", lambda t: 0.5)
    assert verdicts(verify.lemma_inequality(thetas)) == [False]


def test_digit_factor_bound_holds(monkeypatch):
    sets = [DS, DigitSet(10, (3, 4))]
    thetas = [(i + 0.5) / 100 for i in range(100)]
    assert verdicts(verify.digit_factor_bound_holds(sets, thetas)) == [True]
    real = fou_mod.digit_factor_bound
    monkeypatch.setattr(fou_mod, "digit_factor_bound",
                        lambda ds, t: real(ds, t) / 2 if ds.s == 2
                        else real(ds, t))
    assert verdicts(verify.digit_factor_bound_holds(sets, thetas)) == [False]


@pytest.mark.parametrize("ratio", [0.0, float("inf"), float("nan"), 1e9])
def test_sweep_ratios(ratio, monkeypatch):
    monkeypatch.setattr(exp_mod, "bound_ratio_report", lambda kind, seed: [])
    monkeypatch.setattr(exp_mod, "max_sweep_ratio", lambda rows: ratio)
    assert verdicts(verify.sweep_ratios(1)) == [False] * 3
