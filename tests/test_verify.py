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
    checks = verify.ledger_vs_scalar(cases, (None, 1.0))
    assert verdicts(checks) == [True] * 4
    assert [c["check"] for c in checks] == [
        "ledger class counts vs scalar classify (q=6, k=3, mangoldt)",
        "ledger class sums vs scalar oracle (q=6, k=3, mangoldt)",
        "ledger class counts vs scalar classify (q=6, k=3, mangoldt, A=1.0)",
        "ledger class sums vs scalar oracle (q=6, k=3, mangoldt, A=1.0)"]
    assert checks[2]["detail"].endswith(" 74/120/22")
    # swapping the two minor codes is invisible where every point is major
    real = arcs_mod._classification
    swap = np.array([0, 2, 1], dtype=np.int8)
    monkeypatch.setattr(arcs_mod, "_classification",
                        lambda *args: swap[real(*args)])
    assert verdicts(verify.ledger_vs_scalar(cases)) == [True] * 2
    assert verdicts(verify.ledger_vs_scalar(cases, (1.0,))) == [False] * 2


LEDGER_CASES = [(DigitSet(6, (3,)), 3, build_mangoldt(216), "mangoldt"),
                (DS, 3, build_mangoldt(1000), "mangoldt"),
                (DS, 3, IntPolynomial((0, 0, 1)), "n^2")]


def plant_ledger(monkeypatch, roll=0, paired=fou_mod.mirror_paired):
    """Replace the ledger's class sums by a reduction of the same stages
    whose class masks are rolled by ``roll`` or whose points counted twice
    are ``paired(Q)``; counts and D0 stay those of the real ledger."""
    real = arcs_mod.circle_pipeline

    def pipeline(ds, k, weight, **kw):
        led = real(ds, k, weight, **kw)
        st = arcs_mod.pipeline_stages(ds, k, weight, **kw)
        terms = (st.fhat * st.s_vals).real / st.Q
        terms[paired(st.Q)] *= 2
        for code, cls in enumerate(arcs_mod.ARC_CLASSES):
            led.sums[cls] = complex(
                terms[np.roll(st.codes == code, roll)].sum())
        return led

    monkeypatch.setattr(arcs_mod, "circle_pipeline", pipeline)


def sum_verdicts(A):
    checks = verify.ledger_vs_scalar(LEDGER_CASES, (A,))
    return verdicts(checks[0::2]), verdicts(checks[1::2])


@pytest.mark.parametrize("A", [0.5, 1.0, 3.0])
def test_class_sums_pass_on_the_planted_harness(A, monkeypatch):
    plant_ledger(monkeypatch)
    assert sum_verdicts(A) == ([True] * 3, [True] * 3)


@pytest.mark.parametrize("A", [0.5, 1.0])
def test_class_sums_see_rolled_masks(A, monkeypatch):
    # the counts stay right: only the sum check can see it
    plant_ledger(monkeypatch, roll=1)
    assert sum_verdicts(A) == ([True] * 3, [False] * 3)


@pytest.mark.parametrize("paired, sums", [
    # a = 0 counted twice
    (lambda Q: slice(0, Q - Q // 2), [False] * 3),
    # a = Q/2 counted twice (every Q here is even); for n^2 with
    # n = 0..31 the term is 0, as S(1/2) = #even n - #odd n = 0
    (lambda Q: slice(1, Q // 2 + 1), [False, False, True]),
], ids=["zero", "half"])
@pytest.mark.parametrize("A", [1.0, 3.0])
def test_class_sums_see_a_self_mirror_doubled(paired, sums, A, monkeypatch):
    plant_ledger(monkeypatch, paired=paired)
    assert sum_verdicts(A) == ([True] * 3, sums)


def test_pair_count_vs_looped(monkeypatch):
    cases = [(DS, IntPolynomial((0, 0, 1)), "n^2", J) for J in (1, 2)]
    checks = verify.pair_count_vs_looped(cases)
    assert verdicts(checks) == [True] * 2
    assert [c["check"] for c in checks] == [
        "pair count vs looped contains (n^2, q=10, ex 7, J=1)",
        "pair count vs looped contains (n^2, q=10, ex 7, J=2)"]
    real = arcs_mod.singular_series_pair_count
    monkeypatch.setattr(arcs_mod, "singular_series_pair_count",
                        lambda P, ds, J: real(P, ds, J) + (J == 2))
    assert verdicts(verify.pair_count_vs_looped(cases)) == [True, False]


def test_parseval(monkeypatch):
    cases = [(DS, 3), (DigitSet(6, (5,)), 3)]
    assert verdicts(verify.parseval(cases)) == [True] * 2
    real = fou_mod.half_grid_values
    monkeypatch.setattr(fou_mod, "half_grid_values",
                        lambda *args, **kw: real(*args, **kw) * (1 + 1e-9))
    assert verdicts(verify.parseval(cases)) == [False] * 2


def test_lemma_inequality(monkeypatch):
    thetas = [i / 100 for i in range(100)]
    [check] = verify.lemma_inequality(thetas)
    # equality at t = 0
    assert check["passed"] and check["detail"] == "min margin 0.000e+00"
    monkeypatch.setattr(fou_mod, "distance_to_integer", lambda t: 0.5)
    assert verdicts(verify.lemma_inequality(thetas)) == [False]


def test_digit_factor_bound_holds(monkeypatch):
    sets = [DS, DigitSet(10, (3, 4))]
    thetas = [(i + 0.5) / 100 for i in range(100)]
    [check] = verify.digit_factor_bound_holds(sets, thetas)
    margin = min(fou_mod.digit_factor_bound(ds, t)
                 - abs(fou_mod.digit_factor(ds, t))
                 for ds in sets for t in thetas)
    assert check["passed"] and check["detail"] == f"min margin {margin:.3e}"
    real = fou_mod.digit_factor_bound
    monkeypatch.setattr(fou_mod, "digit_factor_bound",
                        lambda ds, t: real(ds, t) / 2 if ds.s == 2
                        else real(ds, t))
    assert verdicts(verify.digit_factor_bound_holds(sets, thetas)) == [False]
    # a nan anywhere fails the check, not only in first place
    monkeypatch.setattr(fou_mod, "digit_factor_bound",
                        lambda ds, t: float("nan") if t == thetas[50]
                        else real(ds, t))
    assert verdicts(verify.digit_factor_bound_holds(sets, thetas)) == [False]


@pytest.mark.parametrize("ratio", [0.0, float("inf"), float("nan"), 1e9])
def test_sweep_ratios(ratio, monkeypatch):
    monkeypatch.setattr(exp_mod, "bound_ratio_report", lambda kind, seed: [])
    monkeypatch.setattr(exp_mod, "max_sweep_ratio", lambda rows: ratio)
    assert verdicts(verify.sweep_ratios(1)) == [False] * 3
