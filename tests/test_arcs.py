import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scalar_oracles as oracle
from scalar_oracles import bits
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import digitlab.arcs as arcs_mod
import digitlab.fourier as fou_mod
from digitlab.arcs import (
    ARC_CLASSES,
    circle_pipeline,
    classify,
    coprime_excluded_count,
    dirichlet_approx,
    direct_count,
    kappa,
    singular_series,
    singular_series_pair_count,
    theorem_comparison,
)
from digitlab.digits import DigitSet, contains, contains_mask, count_in_ap
from digitlab.errors import CapExceededError, DomainError
from digitlab.expsums import (
    IntPolynomial,
    build_mangoldt,
    expsum,
)
from digitlab.fourier import FourierContext, grid_values

SQUARE = IntPolynomial((0, 0, 1))


class TestDirichletApprox:
    def test_exact_third(self):
        r = dirichlet_approx(1, 3, 10)
        assert (r.ell, r.d) == (1, 3)
        assert r.beta == 0.0

    def test_zero_numerator(self):
        r = dirichlet_approx(0, 81, 9)
        assert (r.ell, r.d) == (0, 1)
        assert r.beta == 0.0

    def test_fibonacci_convergent(self):
        r = dirichlet_approx(377, 610, 20)
        assert (r.ell, r.d) == (8, 13)
        assert abs(r.beta) <= 1.0 / (13 * 20)

    def test_postconditions_random(self):
        rng = random.Random(4)
        for _ in range(300):
            Q = rng.randrange(2, 10 ** 6)
            a = rng.randrange(Q)
            D0 = rng.randrange(1, 2000)
            r = dirichlet_approx(a, Q, D0)
            assert 1 <= r.d <= D0
            assert math.gcd(r.ell, r.d) == 1
            assert 0 <= r.ell <= r.d
            exact = Fraction(a, Q) - Fraction(r.ell, r.d)
            assert abs(exact) <= Fraction(1, r.d * D0)
            assert r.beta == pytest.approx(float(exact), abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 10 ** 18), st.integers(0, 10 ** 18),
           st.integers(1, 10 ** 18))
    def test_beta_matches_fraction(self, Q, a, D0):
        # Q*d passes 2**53, where the float product would not be exact
        a %= Q
        assert bits(dirichlet_approx(a, Q, D0).beta) == bits(
            oracle.dirichlet_approx(a, Q, D0).beta)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            dirichlet_approx(1, 0, 5)
        with pytest.raises(DomainError):
            dirichlet_approx(1, 10, 0)


class TestClassify:
    def test_major_small_everything(self):
        r = dirichlet_approx(27, 81, 10)  # exactly 1/3, zero offset
        assert classify(r, 3.0) == 0  # major

    def test_minor_by_denominator(self):
        r = dirichlet_approx(377, 610, 609)
        assert r.d > 20
        assert classify(r, 1.0) == 1  # minor_denominator

    def test_minor_by_offset(self):
        Q = 10 ** 6
        r = dirichlet_approx(500, Q, 3)
        # best approximation with d <= 3 is 0/1, so Q|beta| = 500
        assert r.d == 1
        assert Q * abs(r.beta) == pytest.approx(500.0)
        assert classify(r, 1.0) == 2  # minor_offset

    def test_boundary_is_minor(self, monkeypatch):
        monkeypatch.setattr(arcs_mod, "arc_threshold", lambda Q, A: 5.0)
        r = dirichlet_approx(1, 5, 5)  # d = 5 lands exactly on the threshold
        assert r.d == 5
        assert arcs_mod.classify(r, 1.0) == 1  # minor_denominator


# (Q, A) whose threshold (log Q)**A is NaN, overflows the float power, or
# is infinite
BAD_THRESHOLDS = [(10 ** 3, math.nan), (10 ** 6, 1000.0),
                  (10 ** 3, math.inf)]


class TestThresholdDomain:
    @pytest.mark.parametrize("Q, A", BAD_THRESHOLDS)
    def test_arc_threshold_names_A(self, Q, A):
        with pytest.raises(DomainError, match=f"A = {A!r}"):
            arcs_mod.arc_threshold(Q, A)

    @pytest.mark.parametrize("Q, A", BAD_THRESHOLDS)
    def test_classify_rejects(self, Q, A):
        with pytest.raises(DomainError, match="A = "):
            classify(dirichlet_approx(1, Q, 10), A)

    @pytest.mark.parametrize("Q, A", BAD_THRESHOLDS)
    def test_classification_rejects(self, Q, A):
        # NaN once made every point major: no comparison with it is true
        with pytest.raises(DomainError, match="A = "):
            arcs_mod._classification(Q, math.isqrt(Q), A)

    @pytest.mark.parametrize("A", [math.nan, 1000.0, math.inf])
    def test_circle_pipeline_rejects(self, A):
        table = build_mangoldt(10 ** 3)
        with pytest.raises(DomainError, match="A = "):
            circle_pipeline(DigitSet(10, (7,)), 3, table, A_major=A)

    # (D0, A): a NaN threshold, an overflowing one, an empty D0 and a
    # Q*D0 past 2**53 at Q = 10**3
    @pytest.mark.parametrize("D0, A", [
        (None, math.nan), (None, 1000.0), (0, 1.0),
        (2 ** 53 // 10 ** 3 + 1, 1.0)])
    @pytest.mark.parametrize("pipeline", ["circle_pipeline",
                                          "pipeline_stages"])
    def test_pipelines_check_before_the_transform(self, monkeypatch,
                                                  pipeline, D0, A):
        def refuse(*args):
            raise AssertionError("the weight transform ran")

        table = build_mangoldt(10 ** 3)
        monkeypatch.setattr(arcs_mod, "_weight_vector", refuse)
        with pytest.raises(DomainError):
            getattr(arcs_mod, pipeline)(DigitSet(10, (7,)), 3, table, D0=D0,
                                        A_major=A)


def scalar_classes(Q, D0, A_values):
    """Oracle: one dirichlet_approx and one classify per a < Q."""
    approx = [dirichlet_approx(a, Q, D0) for a in range(Q)]
    return {A: [classify(ap, A) for ap in approx] for A in A_values}


def mirrored(codes, Q):
    """The code of every a < Q from the half a <= Q//2: a > Q//2 takes
    the code of Q - a."""
    return np.concatenate([codes, codes[1:Q - Q // 2][::-1]])


def assert_codes_match(Q, D0, A_values):
    """``classify`` of every a < Q is, as an int, the code that
    ``_classification`` stores at min(a, Q - a)."""
    oracle = scalar_classes(Q, D0, A_values)
    for A in A_values:
        codes = arcs_mod._classification(Q, D0, A)
        assert codes.dtype == np.int8 and codes.shape == (Q // 2 + 1,)
        half = codes.tolist()
        assert all(type(c) is int for c in oracle[A])
        assert [half[min(a, Q - a)] for a in range(Q)] == oracle[A], \
            (Q, D0, A)
        counts = np.bincount(mirrored(codes, Q), minlength=len(ARC_CLASSES))
        assert [int(n) for n in counts] == [
            oracle[A].count(code) for code in range(len(ARC_CLASSES))]


class TestBatchClassification:
    @pytest.mark.parametrize("Q", [2 ** 5 * 3 ** 4, 997, 6 ** 5, 10 ** 4])
    def test_codes_match_scalar_oracle(self, Q):
        for D0 in (1, 7, math.isqrt(Q), Q - 1):
            assert_codes_match(Q, D0, (0.5, 1.0, 2.0, 3.0))

    @pytest.mark.parametrize("Q", [2 ** 5 * 3 ** 4, 997, 2 ** 10])
    def test_approximations_match_scalar_oracle(self, Q):
        a = np.arange(Q, dtype=np.int64)
        for D0 in (1, 7, math.isqrt(Q), Q - 1, Q + 5):
            ell, d, beta = arcs_mod._batch_dirichlet(a, Q, D0)
            want = [dirichlet_approx(x, Q, D0) for x in range(Q)]
            assert ell.tolist() == [r.ell for r in want]
            assert d.tolist() == [r.d for r in want]
            # bit identity, not closeness
            assert beta.tolist() == [r.beta for r in want]

    @pytest.mark.parametrize("Q", [999983, 10 ** 7])
    def test_large_Q_offsets_are_bit_identical(self, Q):
        # Q*d reaches ~1e14, far beyond float32's exact integers
        a = np.array(random.Random(Q).sample(range(Q), 2000),
                     dtype=np.int64)
        for D0 in (math.isqrt(Q), Q - 1, (2 ** 53 - 1) // Q):
            ell, d, beta = arcs_mod._batch_dirichlet(a, Q, D0)
            want = [dirichlet_approx(x, Q, D0) for x in a.tolist()]
            assert list(zip(ell.tolist(), d.tolist(), beta.tolist())) == [
                (r.ell, r.d, r.beta) for r in want]

    def test_boundaries_are_minor(self, monkeypatch):
        # Q = 2**10 makes Q*|beta| exact: with d = 1 and a = 5 it lands
        # on the threshold, and with D0 >= 5 some d does too
        monkeypatch.setattr(arcs_mod, "arc_threshold", lambda Q, A: 5.0)
        for D0 in (1, 5, 7, 32):
            assert_codes_match(2 ** 10, D0, (1.0,))
        codes = arcs_mod._classification(2 ** 10, 1, 1.0)
        assert codes[5] == 2  # minor_offset
        assert codes[4] == 0  # major

    def test_blocks_join_seamlessly(self, monkeypatch):
        monkeypatch.setattr(arcs_mod, "BLOCK", 37)
        assert_codes_match(6 ** 4, 36, (1.0, 2.0))

    @settings(max_examples=40, deadline=None)
    @given(Q=st.integers(1, 3000), D0=st.integers(1, 6000),
           A=st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)))
    def test_random_Q_and_D0(self, Q, D0, A):
        assert_codes_match(Q, D0, (A,))

    @settings(max_examples=40, deadline=None)
    @given(Q=st.integers(2, 3000), D0=st.integers(1, 6000))
    def test_mirror_shares_d_and_negates_beta(self, Q, D0):
        # the identity _classification relies on, checked on the batch path
        # over every 0 < a < Q
        a = np.arange(1, Q, dtype=np.int64)
        ell, d, beta = arcs_mod._batch_dirichlet(a, Q, D0)
        assert d.tolist() == d[::-1].tolist()
        tie = (a == Q - a) & (D0 == 1)
        assert beta[~tie].tolist() == (-beta[::-1])[~tie].tolist()
        assert beta[tie].tolist() == [0.5] * int(tie.sum())

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), Q=st.integers(1, 10 ** 6))
    def test_batch_equals_scalar_at_random_numerators(self, data, Q):
        D0 = data.draw(st.integers(1, (arcs_mod.EXACT_FLOAT_LIMIT - 1) // Q),
                       label="D0")
        nums = data.draw(st.lists(st.integers(0, Q - 1), min_size=1,
                                  max_size=16), label="a")
        ell, d, beta = arcs_mod._batch_dirichlet(
            np.array(nums, dtype=np.int64), Q, D0)
        for a, e, dd, b in zip(nums, ell.tolist(), d.tolist(),
                               beta.tolist()):
            r = dirichlet_approx(a, Q, D0)
            assert (e, dd, b.hex()) == (r.ell, r.d, r.beta.hex())
            # the postcondition, in exact arithmetic
            assert math.gcd(e, dd) == 1 and 1 <= dd <= D0
            assert abs(Fraction(a, Q) - Fraction(e, dd)) <= \
                Fraction(1, dd * D0)

    @pytest.mark.parametrize("Q", [2 ** 5 * 3 ** 4, 6 ** 5, 10 ** 4])
    def test_half_with_d0_one_is_the_tie(self, Q):
        half = Q // 2
        r = dirichlet_approx(half, Q, 1)
        assert (r.ell, r.d, r.beta) == (0, 1, 0.5)
        ell, d, beta = arcs_mod._batch_dirichlet(
            np.array([half], dtype=np.int64), Q, 1)
        assert (int(ell[0]), int(d[0]), float(beta[0])) == (0, 1, 0.5)
        # Q/2 >= thr at A = 1 and Q/2 < thr at A = 4
        # minor_offset at A = 1, major at A = 4
        for A, want in ((1.0, 2), (4.0, 0)):
            codes = arcs_mod._classification(Q, 1, A)
            assert classify(r, A) == want
            assert codes[half] == want
            assert codes.size == half + 1

    def test_largest_exact_D0_accepted(self):
        Q = 10 ** 3
        assert_codes_match(Q, (2 ** 53 - 1) // Q, (1.0,))

    @pytest.mark.parametrize("D0", [2 ** 53 // 10 ** 3 + 1, 2 ** 53, 0, -1])
    def test_inexact_or_empty_D0_rejected(self, D0):
        with pytest.raises(DomainError):
            arcs_mod._classification(10 ** 3, D0, 1.0)


def batch_codes(Q, D0, A):
    """Oracle for the prefilter: ``_batch_dirichlet`` over every a <= Q//2,
    classified."""
    _, d, beta = arcs_mod._batch_dirichlet(
        np.arange(Q // 2 + 1, dtype=np.int64), Q, D0)
    thr = arcs_mod.arc_threshold(Q, A)
    return np.where(d >= thr, 1, np.where(Q * np.abs(beta) >= thr, 2, 0)
                    ).astype(np.int8)


def assert_prefilter_matches(Q, D0, A):
    codes = arcs_mod._classification(Q, D0, A)
    assert codes.dtype == np.int8
    assert codes.tobytes() == batch_codes(Q, D0, A).tobytes(), (Q, D0, A)


@pytest.fixture
def euclid_numerators(monkeypatch):
    """How many numerators ``_batch_dirichlet`` receives, in total."""
    seen = [0]
    real = arcs_mod._batch_dirichlet

    def counting(a, Q, D0):
        seen[0] += a.size
        return real(a, Q, D0)

    monkeypatch.setattr(arcs_mod, "_batch_dirichlet", counting)
    return seen


class TestPrefilter:
    """Codes set from the fractions below the threshold (the superset and
    inner-zone lemmas of ``_classification``), Euclid only on the rest."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), Q=st.integers(1, 2 * 10 ** 5),
           A=st.sampled_from((0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)))
    def test_codes_equal_batch_euclid(self, data, Q, A):
        D0 = data.draw(st.integers(1, 3 * math.isqrt(Q) + 3), label="D0")
        assert_prefilter_matches(Q, D0, A)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), Q=st.integers(1, 10 ** 6))
    def test_inner_zone_lemma(self, data, Q):
        # reduced ell/d with d <= D0 and |a*d - ell*Q|*(D0 + d) < Q: ell/d
        # is the last convergent with d <= D0, and beta is the one float
        # division of exact integers
        D0 = data.draw(st.integers(
            1, min(3 * math.isqrt(Q) + 3, (2 ** 53 - 1) // Q)), label="D0")
        d = data.draw(st.integers(1, D0), label="d")
        ell = data.draw(st.integers(0, d), label="ell")
        if math.gcd(ell, d) != 1:
            return
        R = (Q - 1) // (D0 + d)
        lo = max(0, -((R - ell * Q) // d))
        hi = min(Q - 1, (ell * Q + R) // d)
        if lo > hi:
            return
        inside = {lo, hi} | set(data.draw(st.lists(
            st.integers(lo, hi), max_size=8), label="a"))
        for a in inside:
            delta = a * d - ell * Q
            assert abs(delta) * (D0 + d) < Q
            r = dirichlet_approx(a, Q, D0)
            assert (r.ell, r.d) == (ell, d)
            assert r.beta.hex() == (float(delta) / float(Q * d)).hex()

    @pytest.mark.parametrize("A", [0.3, 1.0, 3.0])
    def test_one_point_grid(self, A):
        # k = 0: Q = 1 and thr = 0, so the one point is minor_denominator
        assert arcs_mod._classification(1, 1, A).tolist() == [1]
        assert_prefilter_matches(1, 1, A)

    @pytest.mark.parametrize("thr", [0.5, 1.0])
    def test_threshold_at_most_one_needs_no_euclid(self, thr, monkeypatch,
                                                   euclid_numerators):
        monkeypatch.setattr(arcs_mod, "arc_threshold", lambda Q, A: thr)
        codes = arcs_mod._classification(10 ** 4, 100, 1.0)
        assert codes.tolist() == [1] * (10 ** 4 // 2 + 1)
        assert euclid_numerators[0] == 0

    @pytest.mark.parametrize("Q", [2, 3, 997, 10 ** 4])
    @pytest.mark.parametrize("D0", [1, 2])
    def test_smallest_D0(self, Q, D0):
        for A in (0.3, 0.5, 1.0, 2.0, 3.0):
            assert_prefilter_matches(Q, D0, A)

    def test_threshold_above_D0_has_no_code_1(self):
        Q, D0 = 10 ** 4, 7
        assert arcs_mod.arc_threshold(Q, 2.0) > D0
        assert_prefilter_matches(Q, D0, 2.0)
        assert 1 not in arcs_mod._classification(Q, D0, 2.0)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), Q=st.integers(16, 4000), A=st.floats(0.5, 4.0))
    def test_threshold_above_D0_regime(self, data, Q, A):
        # D0 < thr, and small enough that a = floor(thr) + 2 has 0/1 as its
        # approximation (a*(D0 + 1) < Q), so the offset a > thr + 1 makes
        # a minor_offset
        thr = arcs_mod.arc_threshold(Q, A)
        a = math.floor(thr) + 2
        assume(2 * a < Q)
        D0 = data.draw(st.integers(1, min(math.ceil(thr) - 1,
                                          (Q - 1) // a - 1)), label="D0")
        assert D0 < thr and a * (D0 + 1) < Q
        codes = arcs_mod._classification(Q, D0, A)
        assert 1 not in codes and codes[a] == 2
        assert_prefilter_matches(Q, D0, A)
        assert_codes_match(Q, D0, (A,))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), Q=st.integers(8, 4000))
    def test_dense_regime(self, data, Q):
        # thr <= D0 with more fractions d < thr than points a <= Q//2:
        # thr above about sqrt(Q), so D0 above it too
        target = data.draw(st.floats(math.sqrt(2 * Q + 4) + 1, 2.0 * Q),
                           label="thr")
        A = math.log(target) / math.log(math.log(Q))
        thr = arcs_mod.arc_threshold(Q, A)
        dmax = math.ceil(thr) - 1
        assume(dmax * (dmax + 1) > 2 * (Q // 2 + 1))
        D0 = data.draw(st.integers(math.ceil(thr), (2 ** 53 - 1) // Q),
                       label="D0")
        assert thr <= D0 and D0 * D0 > Q
        assert_prefilter_matches(Q, D0, A)
        assert_codes_match(Q, D0, (A,))

    @pytest.mark.parametrize("Q", [10 ** 3, 6 ** 5, 10 ** 4])
    def test_largest_exact_D0(self, Q):
        # Q // (D0 + 1) = 0: the neighbourhoods hold only a*d = ell*Q
        for A in (0.5, 1.0, 2.0, 3.0):
            assert_prefilter_matches(Q, (2 ** 53 - 1) // Q, A)

    @pytest.mark.parametrize("D0", [0, 2 ** 53])
    def test_bad_D0_rejected_without_euclid(self, D0, euclid_numerators):
        # at Q = 2 and A = 0.3, thr = 0.69**0.3 < 1: no fraction is listed
        # and no Euclid step runs, yet the D0 checks still apply
        assert arcs_mod.arc_threshold(2, 0.3) < 1
        assert arcs_mod._classification(2, 1, 0.3).tolist() == [1, 1]
        assert euclid_numerators[0] == 0
        with pytest.raises(DomainError):
            arcs_mod._classification(2, D0, 0.3)

    def test_chunks_join_seamlessly(self, monkeypatch):
        # fraction groups and neighbourhood chunks of 37 split every
        # neighbourhood and every run of denominators
        monkeypatch.setattr(arcs_mod, "BLOCK", 37)
        for Q, D0, A in ((6 ** 5, 88, 2.0), (10 ** 4, 7, 0.5),
                         (2 ** 12, 64, 1.5), (10 ** 4, 7, 2.0),
                         (10 ** 4, 10 ** 5, 4.0)):
            assert_prefilter_matches(Q, D0, A)

    # Work-count guard: numerators sent through Euclid (500,001 before the
    # prefilter at this config; see CHANGES.md for the recorded figure).
    def test_euclid_runs_on_a_thin_shell(self, euclid_numerators):
        Q = 10 ** 6
        codes = mirrored(arcs_mod._classification(Q, 1000, 2.0), Q)
        assert np.bincount(codes).tolist() == [217746, 779142, 3112]
        assert euclid_numerators[0] <= 9357

    # Work-count guards for the two regimes that ran Euclid on every
    # a <= Q//2 (Q//2 + 1 numerators) before the offset lemma and the
    # dense visit of 0/1; see CHANGES.md.
    def test_threshold_above_D0_needs_no_euclid(self, euclid_numerators):
        # r = 999 < thr = 2637: only the neighbourhood of 0/1 is visited,
        # and it is all inner zone
        codes = arcs_mod._classification(10 ** 6, 1000, 3.0)
        assert codes.tolist() == [0] * 500_001
        assert euclid_numerators[0] == 0

    def test_threshold_above_D0_visits_small_d(self, euclid_numerators):
        # thr = 132.5 > D0 = 100 and r = 990: d <= 8 is visited
        codes = arcs_mod._classification(10 ** 5, 100, 2.0)
        assert np.bincount(codes, minlength=3).tolist() == [47821, 0, 2180]
        assert euclid_numerators[0] <= 160

    def test_dense_regime_spares_the_inner_zone(self, euclid_numerators):
        # Q//(D0 + 1) = 0: the inner zone of 0/1 is a = 0 alone
        Q = 10 ** 4
        arcs_mod._classification(Q, 10 ** 11, 4.0)
        assert euclid_numerators[0] == Q // 2

    # tracemalloc peaks of the whole-half Euclid before the prefilter were
    # 3.92 MB (Q = 1e6) and 3.02 MB (Q = 1e5); allow 1.25 times that
    @pytest.mark.parametrize("Q, before", [(10 ** 6, 3.92e6),
                                           (10 ** 5, 3.02e6)])
    def test_working_memory_is_chunked(self, Q, before):
        tracemalloc.start()
        try:
            arcs_mod._classification(Q, math.isqrt(Q), 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * before


class TestPipeline:
    @pytest.mark.parametrize("q,excluded,k", [
        (6, (5,), 3), (10, (7,), 3), (8, (0,), 3)])
    def test_mangoldt_pipeline_matches_direct(self, q, excluded, k):
        ds = DigitSet(q, excluded)
        table = build_mangoldt(q ** k)
        total = circle_pipeline(ds, k, table).total
        direct = direct_count(ds, k, table)
        assert total.real == pytest.approx(direct, rel=1e-9)
        assert abs(total.imag) < 1e-6 * max(1.0, direct)

    def test_poly_pipeline_matches_direct(self):
        ds = DigitSet(10, (7,))
        total = circle_pipeline(ds, 3, SQUARE).total
        direct = direct_count(ds, 3, SQUARE)
        assert total.real == pytest.approx(direct, rel=1e-9)

    def test_ledger_conservation_bit_for_bit(self):
        ds = DigitSet(10, (7,))
        table = build_mangoldt(10 ** 3)
        led = circle_pipeline(ds, 3, table, A_major=1.0)
        assert led.total == led.sums[0] + led.sums[1] + led.sums[2]
        assert sum(led.counts) == 10 ** 3

    def test_small_threshold_pushes_mass_minor(self):
        ds = DigitSet(10, (7,))
        table = build_mangoldt(10 ** 3)
        big = circle_pipeline(ds, 3, table, A_major=3.0)
        tiny = circle_pipeline(ds, 3, table, A_major=0.5)
        assert tiny.counts[0] < big.counts[0]  # major
        # regrouping terms never changes the count of frequencies
        assert sum(tiny.counts) == sum(big.counts)
        # nor the grand total
        assert tiny.total == pytest.approx(big.total, rel=1e-12)

    def test_cap(self):
        ds = DigitSet(10, (7,))
        with pytest.raises(CapExceededError):
            circle_pipeline(ds, 9, SQUARE)  # 10**9 points exceed GRID_CAP
        # 10**(10**7) alone takes about 20 s to build; the check never
        # builds it
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            circle_pipeline(ds, 10 ** 7, SQUARE)
        assert time.perf_counter() - start < 2.0

    def test_short_table_rejected(self):
        ds = DigitSet(10, (7,))
        with pytest.raises(DomainError, match="sieve limit 100"):
            circle_pipeline(ds, 3, build_mangoldt(100))
        # q^k = 101 points need n <= 100 only
        ledger = circle_pipeline(DigitSet(101, (7,)), 1, build_mangoldt(100))
        assert ledger.total.real == pytest.approx(
            direct_count(DigitSet(101, (7,)), 1, build_mangoldt(100)))


# (q, excluded, k): odd Q with odd W, even Q with even W, and k = 1
HALF_CASES = [(7, (3,), 3), (10, (7,), 3), (6, (5,), 3), (5, (2,), 1)]


class TestHalfSpectrum:
    """The stages hold a <= Q//2; the ledger weighs their mirror."""

    @pytest.mark.parametrize("q, excluded, k", HALF_CASES)
    @pytest.mark.parametrize("weight", ["mangoldt", "n^2", "n^2-3n+1"])
    def test_half_spectrum_matches_exact_expsums(self, q, excluded, k,
                                                 weight):
        # n^2 - 3n + 1 is -1 at n = 1 and 2; neither side counts it
        Q = q ** k
        w = {"mangoldt": build_mangoldt(Q), "n^2": SQUARE,
             "n^2-3n+1": IntPolynomial((1, -3, 1))}[weight]
        st = arcs_mod.pipeline_stages(DigitSet(q, excluded), k, w)
        assert st.s_abs.shape == st.fhat.shape == st.codes.shape == \
            (Q // 2 + 1,)
        scale = abs(expsum(w, Q, Fraction(0)))
        # ||x| - |y|| <= |x - y|: the tolerance on S_w holds for |S_w|
        for a in range(Q // 2 + 1):
            want = abs(expsum(w, Q, Fraction(-a, Q)))
            assert abs(st.s_abs[a] - want) <= 1e-12 * scale, a

    @pytest.mark.parametrize("q, excluded, k", HALF_CASES)
    @pytest.mark.parametrize("A", [0.5, 1.0, 3.0])
    def test_ledger_matches_full_grid_reduction(self, q, excluded, k, A):
        # the whole-grid reduction: complex terms at every a < Q, with
        # the full code array
        ds, Q = DigitSet(q, excluded), q ** k
        table = build_mangoldt(Q)
        led = circle_pipeline(ds, k, table, A_major=A)
        terms = (grid_values(FourierContext(ds, k))
                 * np.fft.fft(oracle.weight_vector(table, Q)) / Q)
        codes = mirrored(arcs_mod._classification(Q, led.D0, A), Q)
        assert led.total.imag == 0.0
        for code in range(len(ARC_CLASSES)):
            picked = terms[codes == code]
            assert led.counts[code] == picked.size
            assert led.sums[code].imag == 0.0
            assert abs(led.sums[code].real - picked.sum().real) <= \
                1e-12 * np.abs(picked).sum()

    # 66 B/point with the whole-grid stages, then 32.9 and 25.1 with the
    # half stages; 32.95 and 15.95 with the fused pass, which holds the
    # weight's column spectrum and the real terms only.  At 10^5 the
    # classification's fixed working arrays (about 3 MB) set the peak.
    # Each ceiling is the measured peak plus 10%, rounded up.
    @pytest.mark.parametrize("Q, per_point", [(10 ** 5, 37), (10 ** 6, 18)])
    def test_bytes_per_point(self, Q, per_point):
        ds = DigitSet(10, (7,))
        table = build_mangoldt(Q)
        k = round(math.log10(Q))
        tracemalloc.start()
        try:
            circle_pipeline(ds, k, table, A_major=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_point * Q

    # 31.0 and 18.8 B/point (after a first call) while the stages held
    # the complex S_w, 27.0 and 14.8 with its moduli.  Each ceiling is the
    # measured peak plus 10%, rounded up.
    @pytest.mark.parametrize("Q, per_point", [(10 ** 5, 30), (10 ** 6, 17)])
    def test_stage_bytes_per_point(self, Q, per_point):
        table = build_mangoldt(Q)
        k = round(math.log10(Q))
        tracemalloc.start()
        try:
            arcs_mod.pipeline_stages(DigitSet(10, (7,)), k, table,
                                     A_major=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= per_point * Q

    def test_stage_peaks_do_not_overlap(self):
        # the weight vector is freed before the half grid exists: the peak
        # was 1.49 times the bytes of the three stage arrays while the
        # grid came first, 1.20 with the weight spectrum first, 1.18 with
        # its moduli
        ds, k = DigitSet(10, (7,)), 6
        table = build_mangoldt(10 ** k)
        tracemalloc.start()
        try:
            st = arcs_mod.pipeline_stages(ds, k, table, A_major=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = st.fhat.nbytes + st.s_abs.nbytes + st.codes.nbytes
        assert peak <= 1.35 * held


# IEEE double unit roundoff
U = 2.0 ** -53


def fft_tolerance(Q, w):
    """The largest difference allowed between the engine's spectrum of the
    real vector w on [0, Q) and an oracle's, from the error bounds of
    both sides.

    Higham (2002), Thm 24.2: an FFT of length N whose twiddles err by at
    most mu has ||y^ - y||_2 <= log2(N)*eta/(1 - log2(N)*eta) * ||y||_2,
    eta = mu + gamma_4*(sqrt(2) + mu).  With mu <= 2u that is, to first
    order, below 8u*log2(Q)*||S||_2, and ||S||_2 = sqrt(Q)*||w||_2
    (Parseval).  The theorem is stated for radix 2; the mixed radices
    here measure below 1e-16*||S||_2.  Two FFTs (the engine and rfft)
    differ by at most 16u*log2(Q)*sqrt(Q)*||w||_2 in the 2-norm.  The
    literal DFT errs at each point by at most 5u*sum|w| <=
    5u*sqrt(Q)*||w||_2 (``literal_spectrum``), and 8u*L + 5u <=
    16u*max(L, 1) covers it too.
    """
    return (16 * U * max(math.log2(Q), 1.0) * math.sqrt(Q)
            * math.sqrt(float(np.sum(w * w))))


def literal_spectrum(w, Q):
    """S_w(-a/Q) = sum_n w(n) e(-a*n/Q) for a <= Q//2, one literal O(Q^2)
    sum per point: each term w(n)*e() at the exact residue a*n mod Q is
    within 4u*|w(n)|, and math.fsum rounds each sum once."""
    n = np.flatnonzero(w)
    a = np.arange(Q // 2 + 1)[:, None]
    terms = w[n] * np.exp(-2j * np.pi * ((a * n) % Q / Q))
    return np.array([complex(math.fsum(row.real), math.fsum(row.imag))
                     for row in terms])


SPECTRUM_WEIGHTS = {"mangoldt": lambda Q: build_mangoldt(max(Q - 1, 1)),
                    "n^2-3n+1": lambda Q: IntPolynomial((1, -3, 1))}


def engine_spectrum(weight, q, k):
    """S_w(-a/Q) for a <= Q//2 from the engine's blocks T = conj S_w of
    the weight's column spectrum, the blocks ``half_products`` consumes,
    laid out by ``_half_grid`` and conjugated."""
    return fou_mod._half_grid(
        q ** k, [(arcs_mod._weight_vector(weight, q, k), None)],
        lambda t: np.conjugate(t, out=t), np.complex128)


class TestWeightSpectrum:
    """The engine's S_w against the Q-point real FFT and the literal DFT."""

    @pytest.mark.parametrize("weight", sorted(SPECTRUM_WEIGHTS))
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("q", [2, 3, 6, 7, 10, 11, 31])
    def test_matches_real_fft_and_literal_dft(self, q, k, weight):
        Q = q ** k
        w_fn = SPECTRUM_WEIGHTS[weight](Q)
        w = oracle.weight_vector(w_fn, Q)
        got = engine_spectrum(w_fn, q, k)
        assert got.shape == (Q // 2 + 1,) and got.dtype == np.complex128
        tol = fft_tolerance(Q, w)
        want = np.fft.rfft(w)
        assert float(np.sqrt(np.sum(np.abs(got - want) ** 2))) <= tol
        if Q <= 1000:
            assert np.abs(got - literal_spectrum(w, Q)).max() <= tol

    def test_tolerance_sees_a_wrong_spectrum(self):
        # the conjugate (the wrong sign of the phase) and one row's weight
        # moved to its neighbour both exceed the bound
        Q = 10 ** 3
        w = oracle.weight_vector(build_mangoldt(Q - 1), Q)
        got = engine_spectrum(build_mangoldt(Q - 1), 10, 3)
        tol = fft_tolerance(Q, w)
        assert np.abs(got.conj() - literal_spectrum(w, Q)).max() > tol
        assert np.abs(got - literal_spectrum(np.roll(w, 1), Q)).max() > tol

    @pytest.mark.parametrize("q, k", [(q, k) for q, _, k in HALF_CASES])
    @pytest.mark.parametrize("weight", sorted(SPECTRUM_WEIGHTS))
    def test_moduli_are_the_hypot_of_the_spectrum(self, q, k, weight):
        # scan's |S_w| is the hypot of the engine's S_w, bit for bit
        w_fn = SPECTRUM_WEIGHTS[weight](q ** k)
        s_vals = engine_spectrum(w_fn, q, k)
        got = fou_mod.half_weight_moduli(
            arcs_mod._weight_vector(w_fn, q, k), q ** k)
        assert got.dtype == np.float64
        assert bits(got) == bits(np.hypot(s_vals.real, s_vals.imag))

    @pytest.mark.parametrize("q, excluded, k", HALF_CASES + [(10, (7,), 0)])
    def test_fused_grid_blocks_are_the_half_grid(self, monkeypatch, q,
                                                  excluded, k):
        # the F blocks of circle_pipeline's one pass are those that
        # half_grid_values lays out, bit for bit
        ctx = FourierContext(DigitSet(q, excluded), k)
        seen = {1: [], 2: []}
        real = fou_mod._four_step

        def recording(Q, half, sources):
            for cols, blocks, twice in real(Q, half, sources):
                seen[len(sources)].append(
                    (cols, blocks[0].tobytes(), twice))
                yield cols, blocks, twice

        monkeypatch.setattr(fou_mod, "_four_step", recording)
        circle_pipeline(ctx.ds, k, build_mangoldt(max(ctx.Q - 1, 1)))
        fou_mod.half_grid_values(ctx)
        assert seen[1] and seen[2] == seen[1]

    def test_pipeline_holds_neither_stage(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("circle_pipeline built a stage array")

        ds = DigitSet(10, (7,))
        table = build_mangoldt(10 ** 4)
        want = circle_pipeline(ds, 4, table, A_major=1.0)
        for name in ("half_grid_values", "half_weight_moduli",
                     "pipeline_stages"):
            monkeypatch.setattr(arcs_mod, name, refuse)
        got = circle_pipeline(ds, 4, table, A_major=1.0)
        assert got.sums == want.sums and got.counts == want.counts

    @pytest.mark.parametrize("q, excluded, k", HALF_CASES + [(10, (7,), 0)])
    @pytest.mark.parametrize("A", [0.5, 1.0, 3.0])
    def test_class_counts_are_exact(self, q, excluded, k, A):
        # the counts of one scalar classify per a < Q, whatever the weight
        ds, Q = DigitSet(q, excluded), q ** k
        D0 = max(1, math.isqrt(Q))
        codes = scalar_classes(Q, D0, [A])[A]
        want = [codes.count(code) for code in range(len(ARC_CLASSES))]
        for weight in (build_mangoldt(max(Q - 1, 1)), SQUARE):
            assert circle_pipeline(ds, k, weight, A_major=A).counts == want


class TestDirectCount:
    def test_mangoldt_k1(self):
        ds = DigitSet(10, (7,))
        table = build_mangoldt(10)
        # single-digit members: prime powers in {0,...,9} \ {7}
        expect = 3 * math.log(2) + 2 * math.log(3) + math.log(5)
        assert direct_count(ds, 1, table) == pytest.approx(expect)

    def test_poly_square_count(self):
        ds = DigitSet(10, (7,))
        # squares below 100: 0,1,4,9,16,25,36,49,64,81 -- none has a 7
        assert direct_count(ds, 2, SQUARE) == 10

    def test_short_table_rejected(self):
        ds = DigitSet(10, (7,))
        with pytest.raises(DomainError):
            direct_count(ds, 3, build_mangoldt(100))

    def test_unknown_weight(self):
        with pytest.raises(DomainError):
            direct_count(DigitSet(10, (7,)), 2, "squarefree")

    def test_cap(self):
        # the message names Q by q and k, as a str of 10**5000 would fail
        # past 4,300 digits
        for k in (9, 5000, 10 ** 7):
            start = time.perf_counter()
            with pytest.raises(CapExceededError,
                               match=rf"^grid of q\^k = 10\^{k} points "
                                     r"exceeds cap 100000000$"):
                direct_count(DigitSet(10, (7,)), k, build_mangoldt(100))
            # the check never builds q**k
            assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("block", [1, arcs_mod.ROW_BLOCK])
    def test_weight_vector_is_the_literal_count(self, monkeypatch, block):
        # prime powers below 30 with their primes; n^2 - 4n + 5 takes
        # 5, 2, 1, 2, 5, 10, 17, 26 at n = 0..7
        powers = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3, 11: 11, 13: 13,
                  16: 2, 17: 17, 19: 19, 23: 23, 25: 5, 27: 3, 29: 29}
        mangoldt = [math.log(powers[n]) if n in powers else 0.0
                    for n in range(30)]
        counts = {1: 1.0, 2: 2.0, 5: 2.0, 10: 1.0, 17: 1.0, 26: 1.0}
        poly = [counts.get(n, 0.0) for n in range(30)]
        monkeypatch.setattr(arcs_mod, "ROW_BLOCK", block)
        seen = []

        def record(rows, out):
            seen.append(rows.copy())
            return fou_mod.column_spectrum(rows, out)

        monkeypatch.setattr(arcs_mod, "column_spectrum", record)
        for weight, want in ((build_mangoldt(29), mangoldt),
                             (IntPolynomial((5, -4, 1)), poly)):
            assert bits(oracle.weight_vector(weight, 30)) == bits(want)
            # at k = 1 each row is the one point w(r), and the conjugate
            # of its length-1 real FFT is w(r) - 0j
            spectrum = arcs_mod._weight_vector(weight, 30, 1)
            assert spectrum.shape == (30, 1)
            assert bits(spectrum[:, 0]) == bits(
                [complex(x, -0.0) for x in want])
            # at q = 3, k = 3 the rows the package transforms are the
            # decimated rows w(3j + r), j < 9, bit for bit
            seen.clear()
            arcs_mod._weight_vector(weight, 3, 3)
            rows = np.concatenate(seen)
            assert rows.shape == (3, 9)
            assert [bits(row) for row in rows] == [
                bits(want[r:27:3]) for r in range(3)]

    @pytest.mark.parametrize("block", [1, 7, arcs_mod.ROW_BLOCK])
    @pytest.mark.parametrize("q, k", [(3, 3), (6, 3), (10, 4), (7, 1)])
    def test_weight_rows_are_the_decimated_vector(self, monkeypatch, block,
                                                  q, k):
        # row r of the (q, W) view is w(q*j + r): the spectrum is the
        # conjugated real FFT of those rows, one row or several per step
        monkeypatch.setattr(arcs_mod, "ROW_BLOCK", block)
        Q, W = q ** k, q ** (k - 1)
        for weight in (build_mangoldt(Q), IntPolynomial((1, -3, 1))):
            rows = oracle.weight_vector(weight, Q).reshape(W, q).T
            want = np.stack([np.fft.rfft(row).conj() for row in rows])
            got = arcs_mod._weight_vector(weight, q, k)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_second_call_on_one_table_same_bits(self):
        # the table's logs are cached, so no reader may write into them
        table, ds = build_mangoldt(10 ** 4), DigitSet(10, (7,))
        for call in (lambda: expsum(table, 10 ** 4, Fraction(3, 7)),
                     lambda: arcs_mod._weight_vector(table, 10, 4),
                     lambda: direct_count(ds, 4, table)):
            assert bits(call()) == bits(call())


class TestKappa:
    def test_coprime_exclusion(self):
        assert kappa(DigitSet(10, (7,))) == Fraction(5, 6)

    def test_noncoprime_exclusion(self):
        assert kappa(DigitSet(10, (0,))) == Fraction(10, 9)
        assert kappa(DigitSet(10, (5,))) == Fraction(10, 9)

    def test_two_exclusions(self):
        assert kappa(DigitSet(10, (3, 7))) == Fraction(5, 9)

    def test_sprime_counts(self):
        assert coprime_excluded_count(DigitSet(10, (7,))) == 1
        assert coprime_excluded_count(DigitSet(10, (0,))) == 0
        assert coprime_excluded_count(DigitSet(10, (3, 7))) == 2

    def test_residue_reconstruction(self):
        # summing the AP counts over allowed residues coprime to the base
        # gives (phi(q) - s') * (q - s)^(k-1)
        for excluded in [(7,), (0,), (3, 7)]:
            ds = DigitSet(10, excluded)
            k = 3
            phi, s = 4, len(excluded)
            sprime = coprime_excluded_count(ds)
            total = 0
            for r in range(10):
                if math.gcd(r, 10) == 1 and r not in excluded:
                    total += count_in_ap(ds, 10 ** k, k, 10, r)
            assert total == (phi - sprime) * (10 - s) ** (k - 1)


class TestSingularSeries:
    def test_square_level_one(self):
        assert singular_series(SQUARE, DigitSet(10, (7,)), 1) \
            == Fraction(10, 9)

    def test_identity_poly_raw_counts(self):
        ds = DigitSet(10, (7,))
        P = IntPolynomial((0, 1))
        for J in (1, 2, 3):
            assert singular_series_pair_count(P, ds, J) == 9 ** J
            assert singular_series(P, ds, J) == 1

    def test_levels_stabilise(self):
        ds = DigitSet(10, (7,))
        vals = [float(singular_series(SQUARE, ds, J)) for J in (1, 2, 3, 4)]
        gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))

    def test_cap(self):
        # q**J = 10**8 exceeds PAIR_COUNT_CAP
        with pytest.raises(CapExceededError,
                           match=r"^pair counting over q\^J = 10\^8 "
                                 r"exceeds cap 10000000$"):
            singular_series_pair_count(SQUARE, DigitSet(10, (7,)), 8)
        for J in (5000, 10 ** 7):
            start = time.perf_counter()
            with pytest.raises(CapExceededError, match=rf"q\^J = 10\^{J} "):
                singular_series_pair_count(SQUARE, DigitSet(10, (7,)), J)
            # the check never builds q**J
            assert time.perf_counter() - start < 2.0


def looped_pair_count(P, ds, J):
    """Oracle: the literal per-n loop over contains."""
    QJ = ds.q ** J
    return sum(1 for n in range(QJ) if contains(ds, P(n) % QJ, J))


class TestBlockedPairCount:
    POLYS = [
        IntPolynomial((0, 0, 1)),
        IntPolynomial((0, 1)),
        IntPolynomial((-7, 3)),
        IntPolynomial((5, -4, 0, 1)),  # cubic, negative coefficient
        IntPolynomial((-1, -2, -3, 2)),
        IntPolynomial((10 ** 9 + 7, 0, 13)),  # coefficient above q**J
        IntPolynomial((-2 ** 62, 7, 2 ** 61 + 1)),  # int64 only once reduced
    ]

    @pytest.mark.parametrize("q,excluded,levels", [
        (3, (0,), (1, 2, 4, 6)),
        (5, (2,), (1, 3, 5)),
        (7, (1, 2), (1, 2, 3)),
        (10, (7,), (1, 2, 3)),
        (10, (0, 5), (1, 2, 3)),
        (12, (3, 9, 11), (1, 2)),
    ])
    def test_matches_looped_oracle(self, q, excluded, levels):
        ds = DigitSet(q, excluded)
        for P in self.POLYS:
            for J in levels:
                want = looped_pair_count(P, ds, J)
                assert singular_series_pair_count(P, ds, J) == want
                assert singular_series(P, ds, J) == Fraction(
                    want, (q - len(excluded)) ** J)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_property_matches_looped_oracle(self, data):
        q = data.draw(st.integers(3, 12), label="q")
        excluded = data.draw(st.sets(st.integers(0, q - 1), min_size=1,
                                     max_size=q - 2), label="excluded")
        try:
            ds = DigitSet(q, tuple(excluded))
        except DomainError:
            assume(False)
        coeff = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                          st.integers(-4, 4).map(lambda j: j * q),
                          st.sampled_from([-2 ** 62, 2 ** 61 + 1]))
        lead = st.one_of(st.integers(1, 10 ** 6),
                         st.integers(1, 4).map(lambda j: j * q))
        degree = data.draw(st.integers(1, 4), label="degree")
        P = IntPolynomial(tuple(data.draw(
            st.lists(coeff, min_size=degree, max_size=degree),
            label="coeffs")) + (data.draw(lead, label="lead"),))
        J = data.draw(st.integers(1, 4).filter(lambda j: q ** j <= 2 * 10 ** 4),
                      label="J")
        assert singular_series_pair_count(P, ds, J) == \
            looped_pair_count(P, ds, J)

    @pytest.mark.parametrize("q,excluded,coeffs,slopes", [
        # 4n^3 at q = 12: P' = 12n^2, so u = 0 and g = q at every r
        (12, (3, 9, 11), (0, 0, 0, 4), {12}),
        (12, (0,), (5, 0, 0, 4), {12}),
        # 6n + 1 at q = 12: g = 6 at every r, and 0 and 6 are excluded
        (12, (0, 6), (1, 6), {6}),
        # n^2 at q = 10: g = 2 or 10; 2n^2 + 5n: 4n + 5 is odd, g in {1, 5}
        (10, (0, 5), (0, 0, 1), {2, 10}),
        (10, (3, 4), (0, 5, 2), {1, 5}),
        # 3n^2 + n at q = 9: 6n + 1 is a unit, g = 1
        (9, (2, 5, 8), (0, 1, 3), {1}),
    ])
    def test_slope_gcd_cases(self, q, excluded, coeffs, slopes):
        ds = DigitSet(q, excluded)
        P = IntPolynomial(coeffs)
        def slope(r):
            return sum(i * c * r ** (i - 1) for i, c in enumerate(coeffs)
                       if i)

        assert {math.gcd(slope(r), q) for r in range(q)} == slopes
        for J in (1, 2, 3):
            assert singular_series_pair_count(P, ds, J) == \
                looped_pair_count(P, ds, J)

    def test_work_is_q_to_the_J_minus_1(self, monkeypatch):
        # the lift tests the low digits of q**(J-1) residues; the q**J
        # loop it replaced tested 6.25 M values here
        tested = []

        def counting_mask(ds, n, k):
            tested.append(np.size(n))
            return contains_mask(ds, n, k)

        monkeypatch.setattr(arcs_mod, "contains_mask", counting_mask)
        ds = DigitSet(50, (7,))
        assert singular_series_pair_count(SQUARE, ds, 4) == 5924560
        assert 0 < sum(tested) <= 50 ** 3

    def test_blocks_join_seamlessly(self, monkeypatch):
        # at q = 5 the residues that steps of 37 would count twice all
        # have a low digit excluded; n^2 at q = 10 counts them
        monkeypatch.setattr(arcs_mod, "PAIR_BLOCK", 37)
        for ds, P in [(DigitSet(5, (2,)), IntPolynomial((5, -4, 0, 1))),
                      (DigitSet(10, (7,)), SQUARE)]:
            assert singular_series_pair_count(P, ds, 4) == \
                looped_pair_count(P, ds, 4)

    def test_across_real_blocks(self):
        ds = DigitSet(5, (2,))
        P = IntPolynomial((-1, -2, -3, 2))
        assert 5 ** 6 > arcs_mod.PAIR_BLOCK
        assert singular_series_pair_count(P, ds, 7) == \
            looped_pair_count(P, ds, 7)

    def test_int64_guard(self):
        # Horner values stay below PAIR_COUNT_CAP**2
        assert arcs_mod.PAIR_COUNT_CAP ** 2 < 2 ** 63


class TestTheoremComparison:
    def test_mangoldt_main_term(self):
        ds = DigitSet(10, (7,))
        rep = theorem_comparison(ds, 3, build_mangoldt(10 ** 3))
        assert rep.main_term == pytest.approx(float(Fraction(5, 6)) * 9 ** 3)
        assert rep.deviation == pytest.approx(
            abs(rep.direct - rep.main_term) / rep.main_term)
        assert rep.deviation < 0.25

    def test_poly_main_term(self):
        rep = theorem_comparison(DigitSet(10, (7,)), 4, SQUARE)
        assert rep.singular_series_value is not None
        assert rep.deviation < 0.25

    @pytest.mark.parametrize("weight", [build_mangoldt(10), SQUARE])
    def test_cap_before_the_main_term(self, weight):
        # 9**400 members are past the float range: the grid cap rejects
        # q**k before the main term floats them
        with pytest.raises(CapExceededError, match=r"10\^400 "):
            theorem_comparison(DigitSet(10, (7,)), 400, weight)

    def test_zero_main_term_has_no_deviation(self):
        # both units mod 6 excluded: kappa = 0
        rep = theorem_comparison(DigitSet(6, (1, 5)), 3, build_mangoldt(216))
        assert rep.kappa == 0
        assert rep.main_term == 0.0
        assert rep.deviation is None
