import cmath
import math
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scalar_oracles as oracle
from scalar_oracles import bits
from hypothesis import given, settings
from hypothesis import strategies as st

from digitlab import expsums as exp_mod
from digitlab.errors import CapExceededError, DomainError
from digitlab.expsums import (
    CALIBRATED_MAX_RATIO,
    CALIBRATION_SEED,
    INT64_LIMIT,
    MANGOLDT_CAP,
    IntPolynomial,
    bound_ratio_report,
    build_mangoldt,
    max_sweep_ratio,
    expsum,
    minsum,
)
from digitlab.fourier import RationalFrequency

LOG2, LOG3, LOG5, LOG7 = (math.log(p) for p in (2, 3, 5, 7))


def trial_division_listing(X):
    """Oracle: (n, p) for each prime power n = p**m <= X, by trial division."""
    out = []
    for n in range(2, X + 1):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        m = n
        while m % p == 0:
            m //= p
        if m == 1:
            out.append((n, p))
    return out


class TestMangoldt:
    def test_matches_trial_division_up_to_600(self):
        listing = trial_division_listing(600)
        for X in range(1, 601):
            t = build_mangoldt(X)
            want = [pair for pair in listing if pair[0] <= X]
            assert t.entries_n.dtype == t.entries_p.dtype == np.int64
            assert list(zip(t.entries_n.tolist(),
                            t.entries_p.tolist())) == want, X

    def test_matches_trial_division_at_10_4(self):
        t = build_mangoldt(10 ** 4)
        assert list(zip(t.entries_n.tolist(), t.entries_p.tolist())) == (
            trial_division_listing(10 ** 4))

    def test_chebyshev_sum_to_ten(self):
        t = build_mangoldt(10)
        total = expsum(t, 11, 0.0).real
        assert total == pytest.approx(3 * LOG2 + 2 * LOG3 + LOG5 + LOG7)

    def test_35_prime_powers_below_100(self):
        t = build_mangoldt(100)
        assert len(t.entries_n) == 35

    def test_chebyshev_sanity_window(self):
        for X in (100, 1000, 10 ** 5):
            t = build_mangoldt(X)
            total = expsum(t, X + 1, 0.0).real
            assert abs(total - X) <= 3 * math.sqrt(X) * math.log(X) ** 2

    @pytest.mark.parametrize("x", [0, 1, 2, 3, 4, 5, 50, 97, 100, 101])
    def test_support_below(self, x):
        ns, logs = build_mangoldt(100).support_below(x)
        want = [(n, p) for n, p in trial_division_listing(100) if n < x]
        assert ns.tolist() == [n for n, _ in want]
        assert logs.dtype == np.float64
        assert logs.tolist() == pytest.approx(
            [math.log(p) for _, p in want], rel=1e-15)

    @pytest.mark.parametrize("x", [102, 10 ** 3])
    def test_support_below_beyond_limit(self, x):
        with pytest.raises(DomainError, match="sieve limit 100"):
            build_mangoldt(100).support_below(x)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_mangoldt(MANGOLDT_CAP + 1)


class TestPrimeExpsum:
    def test_alternating_signs_at_half(self):
        t = build_mangoldt(10)
        val = expsum(t, 10, Fraction(1, 2))
        assert val.real == pytest.approx(3 * LOG2 - 2 * LOG3 - LOG5 - LOG7)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_periodicity_bit_for_bit(self):
        t = build_mangoldt(500)
        a, b = expsum(t, 500, Fraction(3, 7)), \
            expsum(t, 500, Fraction(10, 7))
        assert a == b

    def test_trivial_bound_and_conjugation(self):
        t = build_mangoldt(2000)
        peak = expsum(t, 2000, 0.0).real
        for alpha in (0.1234, Fraction(5, 17)):
            v = expsum(t, 2000, alpha)
            assert abs(v) <= peak + 1e-9
            w = expsum(t, 2000, -float(alpha))
            assert abs(w - v.conjugate()) < 1e-7

    def test_beyond_table_rejected(self):
        t = build_mangoldt(100)
        with pytest.raises(DomainError):
            expsum(t, 200, 0.0)


class TestSupportBelowMatchesMask:
    """The prefix views of the table and its cached logs give the bits of
    a mask over the table and one np.log per call."""

    TABLE = build_mangoldt(100)
    POWERS = TABLE.entries_n.tolist()
    XS = sorted({0, 1, 2, 3, 100, 101, *POWERS, *(n + 1 for n in POWERS)})

    @pytest.mark.parametrize("x", XS)
    def test_same_bits(self, x):
        ns, logs = self.TABLE.support_below(x)
        want_ns, want_logs = oracle.support_below(self.TABLE, x)
        assert ns.dtype == want_ns.dtype
        assert ns.tolist() == want_ns.tolist()
        assert bits(logs) == bits(want_logs)

    def test_every_tail_length(self):
        # np.log may take a SIMD path whose tail depends on the length
        sizes = {self.TABLE.support_below(x)[0].size for x in self.XS}
        assert set(range(1, 18)) <= sizes

    def test_views_are_read_only(self):
        ns, logs = build_mangoldt(100).support_below(50)
        with pytest.raises(ValueError):
            ns[0] = 1
        with pytest.raises(ValueError):
            logs[0] = 0.0


class TestPrimeExpsumMatchesFormula:
    """The table of roots at a rational alpha gives the bits of the
    literal formula, one np.exp per term."""

    TABLE = build_mangoldt(2000)

    def size(self, x):
        return self.TABLE.support_below(x)[0].size

    @pytest.mark.parametrize("x", [2, 3, 100, 2001])
    def test_fractions_and_frequencies(self, x):
        for d in range(1, 98):
            for a in {1, 2 % d, d - 1, -1, -d - 2, 3 * d + 1}:
                for alpha in (Fraction(a, d), RationalFrequency(a, d)):
                    assert bits(expsum(self.TABLE, x, alpha)) == bits(
                        oracle.prime_expsum(self.TABLE, x, alpha)), (a, d)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_den_at_and_around_the_table_size(self, shift):
        den = self.size(2001) + shift
        for a in (1, 2, den - 1, -7):
            for alpha in (Fraction(a, den), RationalFrequency(a, den)):
                assert bits(expsum(self.TABLE, 2001, alpha)) == bits(
                    oracle.prime_expsum(self.TABLE, 2001, alpha))

    def test_empty_table(self):
        t = build_mangoldt(1)
        for alpha in (Fraction(1, 3), RationalFrequency(-1, 1), 0.25):
            assert expsum(t, 2, alpha) == complex(0.0)
            assert oracle.prime_expsum(t, 2, alpha) == complex(0.0)

    def test_huge_numerator(self):
        # the residues come from Python ints, then index the roots
        alpha = Fraction(2 ** 80 + 3, 101)
        assert bits(expsum(self.TABLE, 2001, alpha)) == bits(
            oracle.prime_expsum(self.TABLE, 2001, alpha))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 400),
           st.integers(2, 2001))
    def test_random_rationals(self, a, d, x):
        alpha = Fraction(a, d)
        assert bits(expsum(self.TABLE, x, alpha)) == bits(
            oracle.prime_expsum(self.TABLE, x, alpha))


def object_phases(ns, num, den):
    """The reduction on Python ints: (n * num) % den, then / den."""
    return ((ns.astype(object) * num) % den).astype(np.float64) / den


@st.composite
def edge_reductions(draw):
    """ns, num, den with max |n| * |num| within 2 of 2**63."""
    big = draw(st.integers(1, 2 ** 62), label="max |n|")
    num = (INT64_LIMIT - 1) // big + draw(st.integers(-1, 1), label="step")
    num *= draw(st.sampled_from([1, -1]), label="sign")
    rest = draw(st.lists(st.integers(-big, big), max_size=8), label="ns")
    ns = np.array([draw(st.sampled_from([big, -big]))] + rest,
                  dtype=np.int64)
    den = draw(st.integers(1, INT64_LIMIT - 1), label="den")
    return ns, num, den


class TestPhasesMod1:
    """The int64 reduction against the object-array one, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(ns=st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=20),
           num=st.integers(-10 ** 9, 10 ** 9), den=st.integers(1, 10 ** 12))
    def test_int64_path_matches_object_path(self, ns, num, den):
        ns = np.array(ns, dtype=np.int64)
        assert exp_mod._residues(ns, num, den).dtype == np.int64
        frac = Fraction(num, den)
        got = exp_mod._phases_mod1(ns, frac)
        assert np.array_equal(
            got, object_phases(ns, frac.numerator, frac.denominator))
        got = exp_mod._phases_mod1(ns.astype(object),
                                   RationalFrequency(num, den))
        assert np.array_equal(got, object_phases(ns, num % den, den))

    @settings(max_examples=200, deadline=None)
    @given(case=edge_reductions())
    def test_overflow_edge(self, case):
        ns, num, den = case
        big = int(np.abs(ns).max())
        residues = exp_mod._residues(ns, num, den)
        want_int64 = big * abs(num) < INT64_LIMIT
        assert (residues.dtype == np.int64) == want_int64
        assert residues.tolist() == [n * num % den for n in ns.tolist()]
        assert np.array_equal(exp_mod._phases_mod1(ns, Fraction(num, den)),
                              object_phases(ns, *Fraction(num, den)
                                            .as_integer_ratio()))

    def test_empty(self):
        ns = np.zeros(0, dtype=np.int64)
        assert exp_mod._phases_mod1(ns, Fraction(3, 7)).size == 0


class TestIntPolynomial:
    def test_validation(self):
        with pytest.raises(DomainError):
            IntPolynomial((5,))
        with pytest.raises(DomainError):
            IntPolynomial((0, 0, -1))

    def test_evaluation_exact(self):
        P = IntPolynomial((3, -2, 1))
        assert P(10 ** 10) == 10 ** 20 - 2 * 10 ** 10 + 3

    def test_support_through_a_negative_dip(self):
        # P decreases to 4 at n = 4 before N = 6; every n < 10 is listed
        P = IntPolynomial((20, -8, 1))
        assert P.increasing_from() == 6
        assert P.support_below(30)[0].tolist() == [
            20, 13, 8, 5, 4, 5, 8, 13, 20, 29]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-60, 60), min_size=1, max_size=4),
           st.integers(1, 3), st.integers(-100, 3000))
    def test_increasing_from_and_support_against_brute_force(self, low,
                                                             lead, x):
        P = IntPolynomial((*low, lead))
        N = P.increasing_from()
        assert all(P(n + 1) > P(n) for n in range(N, N + 60))
        # every n with P(n) < x here lies below N + 3200
        assert P.support_below(x)[0].tolist() == [
            P(n) for n in range(N + 3200) if 0 <= P(n) < x]

    @staticmethod
    def count_calls(monkeypatch):
        """The arguments of every later ``IntPolynomial.__call__``."""
        calls = []
        real = IntPolynomial.__call__
        monkeypatch.setattr(IntPolynomial, "__call__",
                            lambda self, n: calls.append(n) or real(self, n))
        return calls

    def test_positive_coefficients_scan_from_zero(self, monkeypatch):
        # a large positive middle coefficient once set the scan length
        P = IntPolynomial((0, 10 ** 7, 6))
        assert P.increasing_from() == 0
        assert IntPolynomial((5, -4, 0, 1)).increasing_from() == 3
        calls = self.count_calls(monkeypatch)
        assert P.support_below(36)[0].tolist() == [0]
        assert len(calls) < 10

    def test_one_array_evaluation(self, monkeypatch):
        # the bisection makes O(log end) scalar calls, and P is evaluated
        # on the n < end in one array, not once per n
        calls = self.count_calls(monkeypatch)
        points, _ = IntPolynomial((0, 1)).support_below(10 ** 5)
        assert points.tolist() == list(range(10 ** 5))
        arrays = [n for n in calls if isinstance(n, np.ndarray)]
        assert [a.size for a in arrays] == [10 ** 5]
        assert len(calls) - len(arrays) < 64

    def test_scan_length_is_capped(self, monkeypatch):
        monkeypatch.setattr(exp_mod, "POLY_SCAN_CAP", 1000)
        points, _ = IntPolynomial((-964, 1)).support_below(36)
        assert points.tolist() == list(range(36))
        with pytest.raises(CapExceededError,
                           match="polynomial scan exceeds cap of 1000 "
                                 "values"):
            IntPolynomial((-965, 1)).support_below(36)

    @pytest.mark.parametrize("coeffs, x", [
        ((0, -10 ** 22, 1), 36),  # N = 5 * 10**21 + 2
        ((0, 1), 10 ** 400),      # end = 10**400
    ], ids=["start-past-cap", "end-past-cap"])
    def test_cap_before_any_index_past_it(self, coeffs, x, monkeypatch):
        # no index past the cap reaches bisect, whose indices must fit a
        # C ssize_t
        calls = self.count_calls(monkeypatch)
        with pytest.raises(CapExceededError):
            expsum(IntPolynomial(coeffs), x, Fraction(1, 3))
        assert max(calls) <= exp_mod.POLY_SCAN_CAP + 2
        assert len(calls) < 64


class TestPolySupport:
    """The values 0 <= P(n) < x over n >= 0, in the order of n."""

    @pytest.mark.parametrize("coeffs, x, want", [
        ((5, -4, 1), 10, [5, 2, 1, 2, 5]),  # P(0) = P(4) = 5 listed twice
        ((5, -4, 1), 3, [2, 1, 2]),         # P(0) = P(4) = 5 >= x dropped
        ((1, -3, 1), 10, [1, 1, 5]),        # P(1) = P(2) = -1 dropped
        ((-50, 0, 1), 30, [14]),            # n = 0..7 negative
        ((0, 0, 1), 1, [0]),
        ((5, -4, 1), 1, []),
        ((1, -3, 1), 1, []),
    ])
    def test_literal_values(self, coeffs, x, want):
        points, weights = IntPolynomial(coeffs).support_below(x)
        assert points.dtype == np.int64 and weights.dtype == np.float64
        assert points.tolist() == want
        assert weights.tolist() == [1.0] * len(want)

    def test_object_values_above_int64(self):
        P = IntPolynomial((0, 0, 0, 0, 0, 1))
        assert P.support_below(INT64_LIMIT)[0].dtype == np.int64
        points, _ = P.support_below(10 ** 20)
        assert points.dtype == object
        assert points.tolist() == [n ** 5 for n in range(10 ** 4)]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.integers(-100, 100),
                              st.integers(-2 ** 70, 2 ** 70)),
                    min_size=1, max_size=5),
           st.one_of(st.integers(1, 100), st.integers(1, 2 ** 70)),
           st.one_of(st.integers(0, 10 ** 4), st.integers(0, 10 ** 20),
                     st.integers(INT64_LIMIT - 10 ** 4, 10 ** 20)))
    def test_against_two_pass_oracle(self, low, lead, x):
        # the same values and dtype as P evaluated at each n of the old
        # scan; a small cap keeps that scan short
        P = IntPolynomial((*low, lead))
        with mock.patch.object(exp_mod, "POLY_SCAN_CAP", 3000):
            try:
                want, want_weights = oracle.poly_support_below(P, x)
            except (CapExceededError, OverflowError):
                # OverflowError: the old bisection past a C ssize_t
                with pytest.raises(CapExceededError):
                    P.support_below(x)
                return
            points, weights = P.support_below(x)
        assert points.dtype == want.dtype
        assert points.tolist() == want.tolist()
        assert bits(weights) == bits(want_weights)


class TestPolyExpsum:
    def test_count_at_zero(self):
        P = IntPolynomial((0, 0, 1))
        assert expsum(P, 101, 0.0) == pytest.approx(11.0)

    def test_parity_at_half(self):
        P = IntPolynomial((0, 0, 1))
        val = expsum(P, 101, Fraction(1, 2))
        assert val.real == pytest.approx(1.0)

    def test_cubic_against_term_by_term(self):
        P = IntPolynomial((0, 0, 0, 1))
        val = expsum(P, 1000, Fraction(1, 9))
        expect = 0.0 + 0.0j
        for n in range(9, -1, -1):  # independent (descending) order
            expect += cmath.exp(2j * math.pi * (n ** 3) / 9)
        assert abs(val - expect) < 1e-12

    def test_negative_values_left_out(self):
        # n^2 - 3n + 1 takes 1, -1, -1, 1, 5 below 10: three terms
        assert expsum(IntPolynomial((1, -3, 1)), 10, 0.0) == 3.0

    def test_fifth_powers_past_int64(self):
        # 10**4 values n**5 < 10**20 as Python ints; with Fraction phases
        # n**5/3 mod 1 the sum is 3334 + 3333*(e(1/3) + e(2/3))
        val = expsum(IntPolynomial((0, 0, 0, 0, 0, 1)), 10 ** 20,
                     Fraction(1, 3))
        phases = Counter(Fraction(n ** 5, 3) % 1 for n in range(10 ** 4))
        want = sum(c * cmath.exp(2j * math.pi * t) for t, c in phases.items())
        assert phases == {0: 3334, Fraction(1, 3): 3333, Fraction(2, 3): 3333}
        assert abs(val - want) < 1e-9

    def test_periodicity_bit_for_bit(self):
        P = IntPolynomial((1, 2, 3))
        a = expsum(P, 5000, Fraction(4, 11))
        b = expsum(P, 5000, Fraction(15, 11))
        assert a == b


class TestMinsum:
    def test_alpha_zero_convention(self):
        assert minsum(7, 11.0, 0.0) == pytest.approx(77.0)

    def test_half(self):
        assert minsum(4, 10.0, 0.5) == pytest.approx(24.0)

    def test_third(self):
        assert minsum(3, 100.0, Fraction(1, 3)) == pytest.approx(106.0)

    def test_monotone_in_M_and_N(self):
        alpha = 0.3183
        assert minsum(50, 5.0, alpha) <= minsum(50, 20.0, alpha)
        assert minsum(50, 20.0, alpha) <= minsum(80, 20.0, alpha)


class TestMinsumMatchesLoop:
    """``minsum`` has the bits of the scalar loop it replaced."""

    @pytest.mark.parametrize("N", [0, 1, 1000, -3])
    @pytest.mark.parametrize("alpha", [
        0.0, -0.0, 0.5, 1 / 3, 3 / 7, -5 / 11, 22 / 49, 1.0, 17.0,
        1 / 3 + 1e-12, 3 / 7 - 2.5e-9, 1e-300, 5e-324, 0.3183, 1e6 + 0.1])
    @pytest.mark.parametrize("M", [1000.0, 5.0])
    def test_float_alpha(self, N, alpha, M):
        assert bits(minsum(N, M, alpha)) == bits(oracle.minsum(N, M, alpha))

    @pytest.mark.parametrize("N", [0, 1, 1000])
    @pytest.mark.parametrize("alpha", [
        Fraction(0), Fraction(1, 3), Fraction(-5, 11), Fraction(22, 49),
        Fraction(7, 2 ** 60 + 1), Fraction(3 ** 45, 2 ** 61 - 1),
        Fraction(2 ** 70 + 1, 97), Fraction(1, 2 ** 53 + 3)])
    def test_fraction_alpha(self, N, alpha):
        assert bits(minsum(N, 1000.0, alpha)) == \
            bits(oracle.minsum(N, 1000.0, alpha))

    def test_every_a_over_d_below_60(self):
        for d in range(1, 60):
            for a in range(d):
                assert minsum(200, 1000.0, a / d) == \
                    oracle.minsum(200, 1000.0, a / d), (a, d)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e6, 1e6, allow_nan=False),
           st.floats(0.5, 1e9, allow_nan=False),
           st.integers(0, 300))
    def test_random_float_alpha(self, alpha, M, N):
        assert bits(minsum(N, M, alpha)) == bits(oracle.minsum(N, M, alpha))


class TestWeylDifferencing:
    def test_squared_sum_identity(self):
        # |sum e(a P(n))|^2 == sum over h of sum over overlapping n of
        # e(a (P(n+h) - P(n)))
        rng = random.Random(99)
        for _ in range(20):
            deg = rng.randrange(2, 4)
            coeffs = tuple(rng.randrange(-5, 6) for _ in range(deg)) + \
                (rng.randrange(1, 5),)
            P = IntPolynomial(coeffs)
            lo = rng.randrange(0, 50)
            length = rng.randrange(2, 201)
            alpha = rng.random()
            interval = range(lo, lo + length)
            lhs = abs(sum(cmath.exp(2j * math.pi * ((P(n) * alpha) % 1.0))
                          for n in interval)) ** 2
            rhs = 0.0 + 0.0j
            for h in range(-length + 1, length):
                for n in interval:
                    if n + h in interval:
                        diff = P(n + h) - P(n)
                        rhs += cmath.exp(2j * math.pi * ((diff * alpha) % 1.0))
            assert abs(lhs - rhs) <= 1e-9 * length ** 2


class TestBoundRatios:
    def test_equidistribution_sweep(self):
        rows = bound_ratio_report("equidistribution", CALIBRATION_SEED)
        assert {(r["N"], r["M"]) for r in rows} == {(1000, 1000.0)}
        assert max_sweep_ratio(rows) <= \
            CALIBRATED_MAX_RATIO["equidistribution"]

    def test_prime_sweep(self):
        rows = bound_ratio_report("prime", CALIBRATION_SEED)
        assert [r["d"] for r in rows] == list(range(3, 98))
        assert {(r["x"], r["beta"]) for r in rows} == {(10 ** 5, 0.0)}
        ratio = max_sweep_ratio(rows)
        assert 0.0 < ratio <= CALIBRATED_MAX_RATIO["prime"]
        # beta = 0 draws nothing, so the seed does not matter
        assert bound_ratio_report("prime", 1) == rows

    def test_polynomial_sweep(self):
        rows = bound_ratio_report("polynomial", CALIBRATION_SEED)
        assert {(r["coeffs"], r["x"]) for r in rows} == {((0, 0, 1), 10 ** 4)}
        ratio = max_sweep_ratio(rows)
        assert math.isfinite(ratio)
        assert ratio <= CALIBRATED_MAX_RATIO["polynomial"]

    # The rows and the maxima that the CALIBRATED_MAX_RATIO comment
    # records, to its three significant figures: a sweep configuration
    # cannot drift away from the run its ceiling was calibrated on.
    @pytest.mark.parametrize("kind, n_rows, observed", [
        ("equidistribution", 50, 0.674),
        ("prime", 95, 5.52e-5),
        ("polynomial", 20, 6.98e-4),
    ])
    def test_calibration_record(self, kind, n_rows, observed):
        rows = bound_ratio_report(kind, CALIBRATION_SEED)
        assert len(rows) == n_rows
        assert float(f"{max_sweep_ratio(rows):.3g}") == observed

    # d is drawn from 2..dmax; over ten seeds every value comes up, so a
    # changed dmax fails here even where one seed's draws do not show it
    @pytest.mark.parametrize("kind, dmax", [("equidistribution", 50),
                                            ("polynomial", 40)])
    def test_draws_cover_two_to_dmax(self, kind, dmax):
        drawn = {r["d"] for seed in range(10)
                 for r in bound_ratio_report(kind, seed)}
        assert drawn == set(range(2, dmax + 1))

    def test_seed_draws_the_random_sweeps(self):
        for kind in ("equidistribution", "polynomial"):
            assert bound_ratio_report(kind, 1) == bound_ratio_report(kind, 1)
            assert bound_ratio_report(kind, 1) != bound_ratio_report(kind, 2)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            bound_ratio_report("nonsense", CALIBRATION_SEED)
