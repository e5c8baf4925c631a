import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scalar_oracles as oracle
from scalar_oracles import bits
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import digitlab.arcs as arcs_mod
from digitlab.arcs import (
    ARC_CLASSES,
    ArcClass,
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
from digitlab.fourier import FourierContext, RationalFrequency, grid_values

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
        assert classify(r, 3.0) is ArcClass.MAJOR

    def test_minor_by_denominator(self):
        r = dirichlet_approx(377, 610, 609)
        assert r.d > 20
        assert classify(r, 1.0) is ArcClass.MINOR_DENOMINATOR

    def test_minor_by_offset(self):
        Q = 10 ** 6
        r = dirichlet_approx(500, Q, 3)
        # best approximation with d <= 3 is 0/1, so Q|beta| = 500
        assert r.d == 1
        assert Q * abs(r.beta) == pytest.approx(500.0)
        assert classify(r, 1.0) is ArcClass.MINOR_OFFSET

    def test_boundary_is_minor(self, monkeypatch):
        monkeypatch.setattr(arcs_mod, "arc_threshold", lambda Q, A: 5.0)
        r = dirichlet_approx(1, 5, 5)  # d = 5 lands exactly on the threshold
        assert r.d == 5
        assert arcs_mod.classify(r, 1.0) is ArcClass.MINOR_DENOMINATOR


def scalar_classes(Q, D0, A_values):
    """Oracle: one dirichlet_approx and one classify per a < Q."""
    approx = [dirichlet_approx(a, Q, D0) for a in range(Q)]
    return {A: [classify(ap, A) for ap in approx] for A in A_values}


def mirrored(codes, Q):
    """The code of every a < Q from the half a <= Q//2: a > Q//2 takes
    the code of Q - a."""
    return np.concatenate([codes, codes[1:Q - Q // 2][::-1]])


def assert_codes_match(Q, D0, A_values):
    oracle = scalar_classes(Q, D0, A_values)
    for A in A_values:
        codes = arcs_mod._classification(Q, D0, A)
        assert codes.dtype == np.int8 and codes.shape == (Q // 2 + 1,)
        codes = mirrored(codes, Q)
        assert [ARC_CLASSES[c] for c in codes] == oracle[A], (Q, D0, A)
        counts = np.bincount(codes, minlength=len(ARC_CLASSES))
        assert [int(n) for n in counts] == [
            oracle[A].count(cls) for cls in ARC_CLASSES]


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
        assert ARC_CLASSES[codes[5]] is ArcClass.MINOR_OFFSET
        assert ARC_CLASSES[codes[4]] is ArcClass.MAJOR

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
        for A, want in ((1.0, ArcClass.MINOR_OFFSET), (4.0, ArcClass.MAJOR)):
            codes = arcs_mod._classification(Q, 1, A)
            assert classify(r, A) is want
            assert ARC_CLASSES[codes[half]] is want
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

    def test_threshold_above_D0_falls_back(self, euclid_numerators):
        Q, D0 = 10 ** 4, 7
        assert arcs_mod.arc_threshold(Q, 2.0) > D0
        assert_prefilter_matches(Q, D0, 2.0)
        assert 1 not in arcs_mod._classification(Q, D0, 2.0)

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
                         (2 ** 12, 64, 1.5)):
            assert_prefilter_matches(Q, D0, A)

    # Work-count guard: numerators sent through Euclid (500,001 before the
    # prefilter at this config; see CHANGES.md for the recorded figure).
    def test_euclid_runs_on_a_thin_shell(self, euclid_numerators):
        Q = 10 ** 6
        codes = mirrored(arcs_mod._classification(Q, 1000, 2.0), Q)
        assert np.bincount(codes).tolist() == [217746, 779142, 3112]
        assert euclid_numerators[0] <= 9357

    @pytest.mark.parametrize("Q, D0, A", [
        (10 ** 6, 1000, 3.0),  # thr > D0, and too many fractions
        (10 ** 5, 100, 2.0),  # thr > D0 alone
        (10 ** 4, 10 ** 11, 4.0),  # more fractions than points
    ])
    def test_fallback_runs_euclid_everywhere(self, Q, D0, A,
                                             euclid_numerators):
        arcs_mod._classification(Q, D0, A)
        assert euclid_numerators[0] == Q // 2 + 1

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
        assert led.total == (led.sums[ArcClass.MAJOR]
                             + led.sums[ArcClass.MINOR_DENOMINATOR]
                             + led.sums[ArcClass.MINOR_OFFSET])
        assert sum(led.counts.values()) == 10 ** 3

    def test_small_threshold_pushes_mass_minor(self):
        ds = DigitSet(10, (7,))
        table = build_mangoldt(10 ** 3)
        big = circle_pipeline(ds, 3, table, A_major=3.0)
        tiny = circle_pipeline(ds, 3, table, A_major=0.5)
        assert tiny.counts[ArcClass.MAJOR] < big.counts[ArcClass.MAJOR]
        # regrouping terms never changes the count of frequencies
        assert sum(tiny.counts.values()) == sum(big.counts.values())
        # nor the grand total
        assert tiny.total == pytest.approx(big.total, rel=1e-12)

    def test_cap(self):
        ds = DigitSet(10, (7,))
        with pytest.raises(CapExceededError):
            circle_pipeline(ds, 9, SQUARE)  # 10**9 points exceed GRID_CAP

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
    def test_rfft_half_matches_exact_expsums(self, q, excluded, k, weight):
        # n^2 - 3n + 1 is -1 at n = 1 and 2; neither side counts it
        Q = q ** k
        w = {"mangoldt": build_mangoldt(Q), "n^2": SQUARE,
             "n^2-3n+1": IntPolynomial((1, -3, 1))}[weight]
        st = arcs_mod.pipeline_stages(DigitSet(q, excluded), k, w)
        assert st.s_vals.shape == st.fhat.shape == st.codes.shape == \
            (Q // 2 + 1,)
        scale = abs(expsum(w, Q, RationalFrequency(0, Q)))
        for a in range(Q // 2 + 1):
            want = expsum(w, Q, RationalFrequency(-a, Q))
            assert abs(st.s_vals[a] - want) <= 1e-12 * scale, a

    @pytest.mark.parametrize("q, excluded, k", HALF_CASES)
    @pytest.mark.parametrize("A", [0.5, 1.0, 3.0])
    def test_ledger_matches_full_grid_reduction(self, q, excluded, k, A):
        # the whole-grid reduction: complex terms at every a < Q, with
        # the full code array
        ds, Q = DigitSet(q, excluded), q ** k
        table = build_mangoldt(Q)
        led = circle_pipeline(ds, k, table, A_major=A)
        terms = (grid_values(FourierContext(ds, k))
                 * np.fft.fft(arcs_mod._weight_vector(table, Q)) / Q)
        codes = mirrored(arcs_mod._classification(Q, led.D0, A), Q)
        assert led.total.imag == 0.0
        for code, cls in enumerate(ARC_CLASSES):
            picked = terms[codes == code]
            assert led.counts[cls] == picked.size
            assert led.sums[cls].imag == 0.0
            assert abs(led.sums[cls].real - picked.sum().real) <= \
                1e-12 * np.abs(picked).sum()

    @pytest.mark.parametrize("Q", [10 ** 5, 10 ** 6])
    def test_bytes_per_point(self, Q):
        # 66 B/point with the whole-grid stages; about 31 and 25 now
        ds = DigitSet(10, (7,))
        table = build_mangoldt(Q)
        k = round(math.log10(Q))
        tracemalloc.start()
        try:
            circle_pipeline(ds, k, table, A_major=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * Q


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
        for k in (9, 5000):
            with pytest.raises(CapExceededError,
                               match=rf"^grid of q\^k = 10\^{k} points "
                                     r"exceeds cap 100000000$"):
                direct_count(DigitSet(10, (7,)), k, build_mangoldt(100))

    def test_weight_vector_is_the_literal_count(self):
        # prime powers below 30 with their primes; n^2 - 4n + 5 takes
        # 5, 2, 1, 2, 5, 10, 17, 26 at n = 0..7
        powers = {2: 2, 3: 3, 4: 2, 5: 5, 7: 7, 8: 2, 9: 3, 11: 11, 13: 13,
                  16: 2, 17: 17, 19: 19, 23: 23, 25: 5, 27: 3, 29: 29}
        want = [math.log(powers[n]) if n in powers else 0.0
                for n in range(30)]
        assert bits(arcs_mod._weight_vector(build_mangoldt(29), 30)) == \
            bits(want)
        counts = {1: 1.0, 2: 2.0, 5: 2.0, 10: 1.0, 17: 1.0, 26: 1.0}
        want = [counts.get(n, 0.0) for n in range(30)]
        assert bits(arcs_mod._weight_vector(IntPolynomial((5, -4, 1)), 30)) \
            == bits(want)

    def test_second_call_on_one_table_same_bits(self):
        # the table's logs are cached, so no reader may write into them
        table, ds = build_mangoldt(10 ** 4), DigitSet(10, (7,))
        for call in (lambda: expsum(table, 10 ** 4, Fraction(3, 7)),
                     lambda: arcs_mod._weight_vector(table, 10 ** 4),
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
        with pytest.raises(CapExceededError, match=r"q\^J = 10\^5000 "):
            singular_series_pair_count(SQUARE, DigitSet(10, (7,)), 5000)


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

    def test_zero_main_term_has_no_deviation(self):
        # both units mod 6 excluded: kappa = 0
        rep = theorem_comparison(DigitSet(6, (1, 5)), 3, build_mangoldt(216))
        assert rep.kappa == 0
        assert rep.main_term == 0.0
        assert rep.deviation is None
