"""Each shared check family of the verify catalogue can fail."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scalar_oracles as oracle

from digitlab import arcs as arcs_mod
from digitlab import digits as dig_mod
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
    checks = verify.ledger_vs_scalar(cases, ((None, None), (None, 1.0)))
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
    assert verdicts(verify.ledger_vs_scalar(
        cases, ((None, 1.0),))) == [False] * 2


@pytest.mark.parametrize("D0, A, perm", [(2, 1.0, (2, 1, 0)),
                                         (100, 2.0, (1, 0, 2))],
                         ids=["offset-regime", "whole-half"])
def test_each_classification_regime_is_checked(D0, A, perm, monkeypatch):
    # codes swapped only at one D0: only that setting's two checks fail
    real = arcs_mod._classification
    swap = np.array(perm, dtype=np.int8)
    monkeypatch.setattr(
        arcs_mod, "_classification",
        lambda Q, d0, A_major: (swap[real(Q, d0, A_major)] if d0 == D0
                                else real(Q, d0, A_major)))
    rep = verify.report("all", 1)
    at = f"(q=6, k=3, mangoldt, D0={D0}, A={A})"
    assert len(rep["checks"]) == 48
    assert rep["failures"] == [
        f"ledger class counts vs scalar classify {at}",
        f"ledger class sums vs scalar oracle {at}"]


LEDGER_CASES = [(DigitSet(6, (3,)), 3, build_mangoldt(216), "mangoldt"),
                (DS, 3, build_mangoldt(1000), "mangoldt"),
                (DS, 3, IntPolynomial((0, 0, 1)), "n^2"),
                # -1 at n = 1 and 2: the pipeline and the oracle drop it
                (DS, 3, IntPolynomial((1, -3, 1)), "n^2-3n+1")]


def plant_ledger(monkeypatch, roll=0, paired=fou_mod.mirror_paired):
    """Replace the ledger's class sums by a reduction of the same terms
    Re(F*S_w) (``fourier.half_products``) and class codes whose class
    masks are rolled by ``roll`` or whose points counted twice are
    ``paired(Q)``; counts and D0 stay those of the real ledger."""
    real = arcs_mod.circle_pipeline

    def pipeline(ds, k, weight, **kw):
        led = real(ds, k, weight, **kw)
        Q = ds.q ** k
        terms = fou_mod.half_products(
            fou_mod.FourierContext(ds, k),
            arcs_mod._weight_vector(weight, ds.q, k)) / Q
        terms[paired(Q)] *= 2
        codes = arcs_mod._classification(Q, led.D0, led.A_major)
        for code in range(len(arcs_mod.ARC_CLASSES)):
            led.sums[code] = complex(
                terms[np.roll(codes == code, roll)].sum())
        return led

    monkeypatch.setattr(arcs_mod, "circle_pipeline", pipeline)


def sum_verdicts(A):
    checks = verify.ledger_vs_scalar(LEDGER_CASES, ((None, A),))
    return verdicts(checks[0::2]), verdicts(checks[1::2])


@pytest.mark.parametrize("A", [0.5, 1.0, 3.0])
def test_class_sums_pass_on_the_planted_harness(A, monkeypatch):
    plant_ledger(monkeypatch)
    assert sum_verdicts(A) == ([True] * 4, [True] * 4)


@pytest.mark.parametrize("A", [0.5, 1.0])
def test_class_sums_see_rolled_masks(A, monkeypatch):
    # the counts stay right: only the sum check can see it
    plant_ledger(monkeypatch, roll=1)
    assert sum_verdicts(A) == ([True] * 4, [False] * 4)


@pytest.mark.parametrize("paired, sums", [
    # a = 0 counted twice
    (lambda Q: slice(0, Q - Q // 2), [False] * 4),
    # a = Q/2 counted twice (every Q here is even); for n^2 with
    # n = 0..31 the term is 0, as S(1/2) = #even n - #odd n = 0, while
    # n^2 - 3n + 1 is always odd
    (lambda Q: slice(1, Q // 2 + 1), [False, False, True, False]),
], ids=["zero", "half"])
@pytest.mark.parametrize("A", [1.0, 3.0])
def test_class_sums_see_a_self_mirror_doubled(paired, sums, A, monkeypatch):
    plant_ledger(monkeypatch, paired=paired)
    assert sum_verdicts(A) == ([True] * 4, sums)


# verify's two cases, other bases and exclusions at k = 2, 3 and 4, each
# with three weights; then criterion 11's Q = 10^4 with its two weights
SQUARE, CUBIC = IntPolynomial((0, 0, 1)), IntPolynomial((5, -4, 0, 1))
WEIGHTS = {"mangoldt": build_mangoldt, "n^2": lambda Q: SQUARE,
           "n^3-4n+5": lambda Q: CUBIC}
SCALAR_TERMS_CASES = [
    (ds, k, label)
    for ds, k in [(DigitSet(6, (3,)), 3), (DS, 3), (DigitSet(12, (5,)), 2),
                  (DigitSet(10, (0, 7)), 3), (DigitSet(7, (2,)), 4)]
    for label in WEIGHTS
] + [(DS, 4, "mangoldt"), (DS, 4, "n^2")]


@pytest.mark.parametrize(
    "ds, k, label", SCALAR_TERMS_CASES,
    ids=[f"{verify._set_label(ds)}, k={k}, {label}"
         for ds, k, label in SCALAR_TERMS_CASES])
def test_scalar_terms_match_the_per_point_oracle(ds, k, label):
    weight = WEIGHTS[label](ds.q ** k)
    got = verify._scalar_terms(ds, k, weight)
    assert all(type(t) is complex for t in got)
    assert oracle.bits(got) == oracle.bits(oracle.scalar_terms(ds, k, weight))


@pytest.mark.parametrize("case", LEDGER_CASES[:2], ids=["q6", "q10"])
def test_class_sums_see_a_scaled_root_table(case, monkeypatch):
    # the roots of the scalar oracle alone off by a part in 10^6: the
    # ledger is unchanged, so the counts pass and both sums fail
    real_terms, real_unit = verify._scalar_terms, fou_mod.unit

    def planted(*args):
        with monkeypatch.context() as m:
            m.setattr(fou_mod, "unit",
                      lambda r, den: real_unit(r, den) * (1 + 1e-6))
            return real_terms(*args)

    monkeypatch.setattr(verify, "_scalar_terms", planted)
    checks = verify.ledger_vs_scalar([case], ((None, None), (None, 1.0)))
    assert verdicts(checks) == [True, False, True, False]


# The bytes per grid point that _scalar_terms may trace: its root table,
# the q - s gathers summed into the digit sums, and the digit sums and
# terms as Python complex take about 220 per point at q = 10.  A
# (Q x support) array of the weight's roots in place of one gather per a
# would add 16 bytes per point for each point of the support: 1,600 for
# n^2 and 20,000 for Lambda at Q = 10^4.
SCALAR_TERMS_BYTES_PER_POINT = 400


@pytest.mark.parametrize("label", ["mangoldt", "n^2"])
def test_scalar_terms_memory_is_linear_in_Q(label):
    weight = WEIGHTS[label](10 ** 4)
    tracemalloc.start()
    try:
        verify._scalar_terms(DS, 4, weight)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SCALAR_TERMS_BYTES_PER_POINT * 10 ** 4


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



def test_half_grid_check_sees_one_point(monkeypatch):
    # one of the 5,001 points with 1 <= |F| < 2, off by a part in 10^3:
    # the 40-point sample this check replaced missed it at the calibration
    # seed, and Parseval, which moves by under 0.02 of its 6.6e7, cannot
    # see it
    name = "half grid vs product formula (q=10, k=4, every a <= Q/2)"
    real = fou_mod.half_grid_values
    size = np.abs(real(fou_mod.FourierContext(DS, 4)))
    point = int(np.flatnonzero((size >= 1) & (size < 2))[-1])

    def planted(ctx):
        out = real(ctx)
        out[point] *= 1 + 1e-3
        return out

    monkeypatch.setattr(fou_mod, "half_grid_values", planted)
    checks = verify.SUITES["fourier"](exp_mod.CALIBRATION_SEED)
    assert [c["check"] for c in checks if not c["passed"]] == [name]

def test_lemma_inequality(monkeypatch):
    thetas = [i / 100 for i in range(100)]
    [check] = verify.lemma_inequality(thetas)
    # equality at t = 0
    assert check["passed"] and check["detail"] == "min margin 0.000e+00"
    monkeypatch.setattr(fou_mod, "distance_to_integer",
                        lambda t: np.full(np.shape(t), 0.5))
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
    # a nan anywhere fails the check, not only in first place; the family
    # passes the whole array of thetas, so the plant picks one entry
    monkeypatch.setattr(fou_mod, "digit_factor_bound",
                        lambda ds, t: np.where(t == thetas[50], np.nan,
                                               real(ds, t)))
    assert verdicts(verify.digit_factor_bound_holds(sets, thetas)) == [False]


@pytest.mark.parametrize("ratio", [0.0, float("inf"), float("nan"), 1e9])
def test_sweep_ratios(ratio, monkeypatch):
    monkeypatch.setattr(exp_mod, "bound_ratio_report", lambda kind, seed: [])
    monkeypatch.setattr(exp_mod, "max_sweep_ratio", lambda rows: ratio)
    assert verdicts(verify.sweep_ratios(1)) == [False] * 3


def test_product_vs_direct(monkeypatch):
    cases = [(DigitSet(5, (2,)), 3), (DS, 3)]
    [check] = verify.product_vs_direct(cases, 20, random.Random(1))
    assert check["passed"]
    assert check["check"] == "product vs direct (40 random frequencies)"
    # an error of 2e-9 relative to |F|: dividing by (q - s)**k instead of
    # max(|oracle|, 1) would let it through wherever |F| < (q - s)**k / 2
    real = fou_mod.eval_product
    monkeypatch.setattr(fou_mod, "eval_product",
                        lambda ctx, freq: real(ctx, freq) * (1 + 2e-9))
    assert verdicts(verify.product_vs_direct(
        cases, 20, random.Random(1))) == [False]


def test_residue_counts(monkeypatch):
    cases = [(DS, 3), (DigitSet(10, (0, 7)), 3), (DigitSet(12, (5,)), 2)]
    checks = verify.residue_counts(cases)
    assert verdicts(checks) == [True] * 3
    assert checks[1]["detail"] == ("got 192, expected 192; "
                                   "0 at excluded residues")
    real = dig_mod.count_in_ap
    # a member at an excluded residue; the coprime sum is untouched
    monkeypatch.setattr(dig_mod, "count_in_ap",
                        lambda ds, x, k, m, a: real(ds, x, k, m, a)
                        + (a == 0))
    assert verdicts(verify.residue_counts(cases)) == [True, False, True]
    # one member too many at a coprime allowed residue
    monkeypatch.setattr(dig_mod, "count_in_ap",
                        lambda ds, x, k, m, a: real(ds, x, k, m, a)
                        + (a == 1 and ds.q == 12))
    assert verdicts(verify.residue_counts(cases)) == [True, True, False]


def test_residue_totient_is_the_familys_own(monkeypatch):
    # the family's oracle does not read the totient it could check
    monkeypatch.setattr(arcs_mod, "_totient", lambda n: 0)
    assert verdicts(verify.residue_counts([(DS, 3)])) == [True]


def test_digit_factor_decay(monkeypatch):
    sets = [DigitSet(8, (7,)), DigitSet(10, (9,))]
    thetas = [i / 100 for i in range(100)]
    [check] = verify.digit_factor_decay(sets, thetas)
    # equality at t = 0
    assert check["passed"] and check["detail"] == "min margin 0.000e+00"
    real = fou_mod.digit_factor
    monkeypatch.setattr(fou_mod, "digit_factor",
                        lambda ds, t: real(ds, t) * (1 + 1e-9))
    assert verdicts(verify.digit_factor_decay(sets, thetas)) == [False]


L1_CASES = [(DigitSet(5, (2,)), 3), (DS, 3)]


def test_l1_bound(monkeypatch):
    checks = verify.l1_bound(L1_CASES, (0, Fraction(1, 3)))
    assert verdicts(checks) == [True] * 4
    assert [c["check"] for c in checks] == [
        "L1 bound (q=5, k=3, theta 0)", "L1 bound (q=5, k=3, theta 1/3)",
        "L1 bound (q=10, k=3, theta 0)", "L1 bound (q=10, k=3, theta 1/3)"]
    real = fou_mod.l1_grid_sum
    # every root here is below half its bound; the shifted q = 10 sum
    # breaks it when tripled per digit position
    monkeypatch.setattr(fou_mod, "l1_grid_sum",
                        lambda ctx, theta0=0.0: real(ctx, theta0)
                        * (3.0 ** ctx.k if ctx.ds.q == 10 and theta0 else 1))
    assert verdicts(verify.l1_bound(L1_CASES, (0, Fraction(1, 3)))) == [
        True, True, True, False]


@pytest.mark.parametrize("theta", [0, Fraction(1, 3)])
def test_l1_vs_product(theta, monkeypatch):
    assert verdicts(verify.l1_vs_product(L1_CASES, (theta,))) == [True] * 2
    real = fou_mod.l1_grid_sum
    monkeypatch.setattr(fou_mod, "l1_grid_sum",
                        lambda ctx, theta0=0.0: real(ctx, theta0)
                        * (1 + 2e-9))
    assert verdicts(verify.l1_vs_product(L1_CASES, (theta,))) == [False] * 2


def test_l1_vs_product_sees_a_dropped_shift(monkeypatch):
    # ||Q/3|| = 1/3 for Q = 125 and 1000: the shifted grid is no roll of
    # the unshifted one, so an engine that drops theta0 changes the sum
    for ds, k in L1_CASES:
        assert fou_mod.distance_to_integer(ds.q ** k * Fraction(1, 3)) >= 0.25
    real = fou_mod.l1_grid_sum
    monkeypatch.setattr(fou_mod, "l1_grid_sum",
                        lambda ctx, theta0=0.0: real(ctx, 0.0))
    assert verdicts(verify.l1_vs_product(L1_CASES, (Fraction(1, 3),))) == [
        False] * 2


SERIES_CASES = [(DS, IntPolynomial((0, 0, 1)), "n^2", Fraction(10, 9), 4)]


def test_singular_series_levels(monkeypatch):
    checks = verify.singular_series_levels(SERIES_CASES)
    assert verdicts(checks) == [True] * 3
    assert [c["check"] for c in checks] == [
        "singular series S_1(n^2, q=10, ex 7) = 10/9",
        "singular series gaps nonincreasing (n^2, q=10, ex 7, J=1..4)",
        "identity pair counts = (q - s)^J (q=10, ex 7, J=1..4)"]
    real = arcs_mod.singular_series
    # S_1 off by one part in 10^12: only the exact level-1 check sees it
    monkeypatch.setattr(arcs_mod, "singular_series",
                        lambda P, ds, J: real(P, ds, J)
                        + Fraction(J == 1, 10 ** 12))
    assert verdicts(verify.singular_series_levels(SERIES_CASES)) == [
        False, True, True]
    # S_4 pushed past S_3 by more than the gap before it
    monkeypatch.setattr(arcs_mod, "singular_series",
                        lambda P, ds, J: real(P, ds, J)
                        + Fraction(J == 4, 10))
    assert verdicts(verify.singular_series_levels(SERIES_CASES)) == [
        True, False, True]
    monkeypatch.setattr(arcs_mod, "singular_series", real)
    count = arcs_mod.singular_series_pair_count
    monkeypatch.setattr(arcs_mod, "singular_series_pair_count",
                        lambda P, ds, J: count(P, ds, J)
                        + (P.degree == 1 and J == 3))
    assert verdicts(verify.singular_series_levels(SERIES_CASES)) == [
        True, True, False]


def test_main_term_deviation(monkeypatch):
    cases = [(DS, 4, build_mangoldt(10 ** 4), "mangoldt")]
    [check] = verify.main_term_deviation(cases)
    assert check["passed"]
    assert check["check"] == ("main term deviation <= 0.2 "
                              "(q=10, ex 7, k=4, mangoldt)")
    real = arcs_mod.direct_count
    monkeypatch.setattr(arcs_mod, "direct_count",
                        lambda *args: real(*args) * 1.25)
    assert verdicts(verify.main_term_deviation(cases)) == [False]
    monkeypatch.setattr(arcs_mod, "kappa", lambda ds: Fraction(0))
    [check] = verify.main_term_deviation(cases)
    assert not check["passed"] and check["detail"] == "main term is 0"


@pytest.mark.parametrize("seed", [1, exp_mod.CALIBRATION_SEED])
def test_catalogue_matches_scalar_oracles(seed, monkeypatch):
    # the whole catalogue with the numpy measured sides, then with the
    # scalar loops they replaced; the details round, so the sweep rows
    # and every margin array are compared at full precision too
    def run():
        seen = []
        sweep, margin = exp_mod.bound_ratio_report, verify._min_margin
        with monkeypatch.context() as m:
            m.setattr(exp_mod, "bound_ratio_report",
                      lambda kind, s: seen.append(sweep(kind, s)) or seen[-1])
            m.setattr(verify, "_min_margin",
                      lambda ms: seen.append(np.ravel(ms).tolist())
                      or margin(ms))
            return verify.report("all", seed), seen

    fast = run()
    calls = []
    replaced = [(exp_mod, "minsum", oracle.minsum),
                (exp_mod, "expsum", oracle.prime_expsum),
                (verify, "digit_factor_bound_holds",
                 oracle.digit_factor_bound_holds),
                (exp_mod.MangoldtTable, "support_below",
                 oracle.support_below),
                (fou_mod, "enumerate_members", oracle.enumerate_members),
                (verify, "_scalar_terms", oracle.scalar_terms),
                (verify, "lemma_inequality", oracle.lemma_inequality),
                (arcs_mod, "dirichlet_approx", oracle.dirichlet_approx)]
    for owner, name, fn in replaced:
        def counted(*args, fn=fn, name=name):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(owner, name, counted)
    assert run() == fast
    assert set(calls) == {name for _, name, _ in replaced}
