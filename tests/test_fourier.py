import cmath
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scalar_oracles as oracle
from scalar_oracles import bits
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digitlab import expsums as exp_mod
from digitlab import fourier as fou_mod
from digitlab import verify as verify_mod
from digitlab.digits import DigitSet, enumerate_members
from digitlab.errors import CapExceededError, DomainError
from digitlab.fourier import (
    INT64_LIMIT,
    FourierContext,
    alpha,
    analytic_Cq,
    consecutive_alpha_limit,
    digit_factor,
    digit_factor_bound,
    distance_to_integer,
    e,
    empirical_Cq,
    eval_direct,
    eval_product,
    eval_product_real,
    grid_values,
    half_grid_values,
    l1_grid_sum,
    linf_decay_report,
    residues,
    unit,
)


class TestEvalProduct:
    def test_zero_frequency(self):
        for q, excl, k in [(10, (7,), 3), (5, (0, 1), 4)]:
            ctx = FourierContext(DigitSet(q, excl), k)
            val = eval_product(ctx, 0)
            assert val == pytest.approx((q - len(excl)) ** k)

    def test_half_frequency_k1(self):
        # five allowed even digits minus four allowed odd digits
        ctx = FourierContext(DigitSet(10, (7,)), 1)
        val = eval_product(ctx, 5)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_oracle_q8_k3(self):
        ds = DigitSet(8, (3,))
        ctx = FourierContext(ds, 3)
        rng = random.Random(42)
        for _ in range(30):
            a = rng.randrange(512)
            v1 = eval_product(ctx, a)
            v2 = eval_direct(ds, 3, a)
            assert abs(v1 - v2) <= 1e-9 * 7 ** 3

    def test_periodicity_bit_for_bit(self):
        # a, a + Q, a - Q and a + 5Q all name the frequency a/Q
        ds = DigitSet(9, (4,))
        ctx = FourierContext(ds, 3)
        Q = 9 ** 3
        for a in (0, 1, 17, 500, Q - 1):
            want = bits(eval_product(ctx, a))
            for b in (a + Q, a - Q, a + 5 * Q, -Q * 10 ** 30 + a):
                assert bits(eval_product(ctx, b)) == want, (a, b)
            assert bits(eval_direct(ds, 3, a - Q)) == bits(
                eval_direct(ds, 3, a))
        assert bits(eval_product(ctx, -3)) == bits(eval_product(ctx, Q - 3))

    def test_real_entry_point_agrees(self):
        ds = DigitSet(10, (7,))
        ctx = FourierContext(ds, 3)
        for a in (1, 123, 999):
            v1 = eval_product(ctx, a)
            v2 = eval_product_real(ctx, Fraction(a, 1000))
            v3 = eval_product_real(ctx, a / 1000)
            assert abs(v1 - v2) < 1e-10
            assert abs(v1 - v3) < 1e-9


class TestEvalDirect:
    def test_zero_frequency(self):
        assert eval_direct(DigitSet(6, (5,)), 2, 0) == pytest.approx(25.0)

    def test_literal_four_term_sum(self):
        # members of {digits 0,1} base 3, k=2 are 0,1,3,4
        ds = DigitSet(3, (2,))
        val = eval_direct(ds, 2, 1)
        expect = sum(cmath.exp(2j * math.pi * n / 9) for n in (0, 1, 3, 4))
        assert abs(val - expect) < 1e-12

    def test_conjugate_symmetry(self):
        ds = DigitSet(7, (2,))
        Q = 7 ** 2
        for a in range(1, Q):
            va = eval_direct(ds, 2, a)
            vb = eval_direct(ds, 2, Q - a)
            assert abs(vb - va.conjugate()) < 1e-10

    def test_cap(self):
        # 9**9 members exceed ENUMERATION_CAP
        with pytest.raises(CapExceededError):
            eval_direct(DigitSet(10, (7,)), 9, 1)

    def test_cap_before_the_power(self):
        # the cap is checked before Q = q**k is built: 10**(10**7) alone
        # would take 4.2 MB
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match=r"9\^10000000 "):
                eval_direct(DigitSet(10, (7,)), 10 ** 7, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6


class TestDigitFactorBound:
    def test_theta_zero_takes_first_branch(self):
        assert digit_factor_bound(DigitSet(10, (7,)), 0.0) == 10.0
        assert digit_factor_bound(DigitSet(10, (3, 4)), 0.0) == 20.0

    def test_single_exclusion_example(self):
        ds = DigitSet(10, (7,))
        bound = digit_factor_bound(ds, 0.25)
        assert bound == pytest.approx(3.0)
        assert abs(digit_factor(ds, 0.25)) <= bound

    def test_consecutive_run_example(self):
        ds = DigitSet(10, (3, 4))
        bound = digit_factor_bound(ds, 1.0 / 3.0)
        assert bound == pytest.approx(3.0, abs=1e-9)
        assert abs(digit_factor(ds, 1.0 / 3.0)) <= bound + 1e-12

    @pytest.mark.parametrize("excl", [(7,), (3, 7), (3, 4),
                                      (2, 3, 4, 5, 6)])
    def test_dominates_factor_on_grid(self, excl):
        ds = DigitSet(10, excl)
        for i in range(1000):
            theta = (i + 0.5) / 1000.0
            assert abs(digit_factor(ds, theta)) <= \
                digit_factor_bound(ds, theta) + 1e-9


ARRAY_SETS = [DigitSet(10, (7,)), DigitSet(10, (3, 7)),
              DigitSet(10, (1, 3, 4, 6, 9)),            # generic
              DigitSet(10, (3, 4)), DigitSet(10, (2, 3, 4, 5, 6)),
              DigitSet(8, (0, 1)), DigitSet(7, (6,))]    # runs
EDGE_THETAS = [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 0.5, -0.5, 0.25, 1 / 3,
               1e-300, -5e-324, 1 - 2 ** -53, 1e6 + 0.125, 2.0 ** 60,
               float("nan")]


class TestArrayForms:
    """An array of theta gives, entry by entry, the bits of the scalar
    call at that theta."""

    def check(self, ds, thetas):
        th = np.array(thetas, dtype=np.float64)
        f, bound = digit_factor(ds, th), digit_factor_bound(ds, th)
        want = [oracle.digit_factor(ds, t) for t in thetas]
        assert bits(f) == bits(want)
        assert bits(bound) == bits(
            [oracle.digit_factor_bound(ds, t) for t in thetas])
        # np.hypot of the parts is Python's abs()
        assert bits(np.hypot(f.real, f.imag)) == bits([abs(z) for z in want])

    @pytest.mark.parametrize("ds", ARRAY_SETS, ids=str)
    def test_edges_and_grid(self, ds):
        self.check(ds, EDGE_THETAS + [(i + 0.5) / 2000 for i in range(2000)])

    def test_distance_to_integer(self):
        th = np.array(EDGE_THETAS + [i / 97 for i in range(-200, 200)])
        assert bits(distance_to_integer(th)) == bits(
            [distance_to_integer(t) for t in th.tolist()])

    def test_scalar_calls_keep_their_types(self):
        ds = DigitSet(10, (7,))
        for t in (0.0, 0.3, Fraction(1, 3)):
            assert type(digit_factor(ds, t)) is complex
            assert type(digit_factor_bound(ds, t)) is float
            assert bits(digit_factor(ds, t)) == bits(
                oracle.digit_factor(ds, t))
            assert bits(digit_factor_bound(ds, t)) == bits(
                oracle.digit_factor_bound(ds, t))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(ARRAY_SETS),
           st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1,
                    max_size=40))
    def test_random_thetas(self, ds, thetas):
        self.check(ds, thetas)


# (q, excluded, k) at which the two entry points are compared at every a.
IDENTITY_SETS = [(10, (7,), 3), (7, (3,), 4), (5, (2,), 3), (8, (7,), 3)]


class TestOneReduction:
    """Every frequency is an exact num/den with the residues
    p_i = num*q**i mod den, and every phase is (d*p_i mod den)/den."""

    @pytest.mark.parametrize("q, excl, k", IDENTITY_SETS)
    def test_integer_and_fraction_entry_points_agree(self, q, excl, k):
        # a/Q and the reduced Fraction(a, Q) name one rational, whose
        # phases are the same correctly rounded floats
        ctx = FourierContext(DigitSet(q, excl), k)
        Q = q ** k
        for a in range(Q):
            assert bits(eval_product(ctx, a)) == bits(
                eval_product_real(ctx, Fraction(a, Q))), a

    def test_float_is_reduced_exactly(self):
        # 1e15 + 0.3 is the float 10**15 + 1/4; float products would lose
        # the 1/2 of 10 * theta (its ulp is 2) and report 0.0
        for theta, q, k, want in [
                (1e15 + 0.3, 10, 4, [0.25, 0.5, 0.0, 0.0]),
                (1 - 2 ** -53, 3, 3,
                 [1 - 2 ** -53, 1 - 3 * 2 ** -53, 1 - 9 * 2 ** -53]),
                (-0.75, 7, 2, [0.25, 0.75])]:
            num, den = fou_mod._ratio(theta)
            assert [p / den for p in
                    fou_mod._position_residues(q, k, num, den)] == want
            assert oracle.reduced_power_fracs(theta, q, k) == want

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.fractions()),
           st.integers(3, 60), st.integers(0, 12))
    @example(1e15 + 0.3, 10, 4)
    @example(1 - 2 ** -53, 3, 3)
    @example(-0.75, 7, 2)
    @example(5e-324, 10, 5)
    @example(-2.2250738585072e-308, 7, 4)
    def test_residues_are_the_fraction_reduction(self, theta, q, k):
        num, den = fou_mod._ratio(theta)
        assert bits([p / den for p in
                     fou_mod._position_residues(q, k, num, den)]) \
            == bits(oracle.reduced_power_fracs(theta, q, k))

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, theta):
        ctx = FourierContext(DigitSet(10, (7,)), 9)
        with pytest.raises(DomainError, match="not finite"):
            eval_product_real(ctx, theta)
        for k in (0, 3):
            with pytest.raises(DomainError, match="not finite"):
                l1_grid_sum(FourierContext(DigitSet(10, (7,)), k), theta)
        # theta = 1/3 + eps
        with pytest.raises(DomainError, match="eps"):
            linf_decay_report(ctx, 1, 3, theta)

    def test_prime_factor_rule_matches_trial_division(self):
        for d in range(1, 2000):
            for q in range(3, 60):
                assert fou_mod._has_prime_factor_coprime_to(d, q) == \
                    oracle.has_prime_factor_coprime_to(d, q), (d, q)


def python_units(ns, num, den):
    """The rule on Python ints, one term at a time: (n * num) % den, one
    correctly rounded division, then cmath.exp."""
    return np.array([cmath.exp(2j * math.pi * (n * num % den / den))
                     for n in ns.tolist()], dtype=np.complex128)


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


class TestResiduesAndUnit:
    """``residues`` is exact on either path, and ``unit`` takes e() of the
    correctly rounded r/den, the array form with the scalar form's bits."""

    @settings(max_examples=200, deadline=None)
    @given(ns=st.lists(st.integers(-10 ** 9, 10 ** 9), max_size=20),
           num=st.integers(-10 ** 9, 10 ** 9), den=st.integers(1, 10 ** 12))
    def test_int64_and_object_paths_agree(self, ns, num, den):
        ns = np.array(ns, dtype=np.int64)
        fast = residues(ns, num, den)
        with mock.patch.object(fou_mod, "INT64_LIMIT", 0):
            slow = residues(ns, num, den)
        assert fast.dtype == np.int64 and slow.dtype == object
        assert fast.tolist() == slow.tolist() == [
            n * num % den for n in ns.tolist()]
        assert bits(unit(fast, den)) == bits(unit(slow, den))
        # the reduced form of num/den names the same roots
        frac = Fraction(num, den)
        assert bits(unit(fast, den)) == bits(unit(
            residues(ns, frac.numerator, frac.denominator), frac.denominator))

    @settings(max_examples=200, deadline=None)
    @given(case=edge_reductions())
    def test_overflow_edge(self, case):
        ns, num, den = case
        big = int(np.abs(ns).max())
        got = residues(ns, num, den)
        assert (got.dtype == np.int64) == (big * abs(num) < INT64_LIMIT)
        assert got.tolist() == [n * num % den for n in ns.tolist()]
        assert bits(unit(got, den)) == bits(python_units(ns, num, den))

    def test_empty(self):
        got = residues(np.zeros(0, dtype=np.int64), 3, 7)
        assert got.size == 0
        for den in (7, 10 ** 30):
            assert unit(got, den).size == 0

    # past den = 2**53 a residue is not an exact float, so converting it
    # before the division would round twice
    @settings(max_examples=200, deadline=None)
    @given(ns=st.lists(st.integers(-10 ** 12, 10 ** 12), max_size=20),
           num=st.integers(-10 ** 40, 10 ** 40),
           den=st.integers(1, 10 ** 30))
    @example(ns=range(1, 2000), num=7, den=10 ** 17 + 3)
    @example(ns=range(1, 2000), num=5, den=10 ** 30 + 7)
    @example(ns=range(1, 2000), num=1, den=3 ** 40)
    def test_matches_python_division(self, ns, num, den):
        ns = np.array(ns, dtype=np.int64)
        assert bits(unit(residues(ns, num, den), den)) == bits(
            python_units(ns, num, den))

    # 961 and 10**6 are the grids of constants-l1 and arcs-mangoldt
    @pytest.mark.parametrize("den", [1, 2, 3, 7, 10, 961, 3 ** 9, 10 ** 6])
    def test_array_matches_scalar(self, den):
        want = [unit(r, den) for r in range(den)]
        assert type(want[-1]) is complex
        assert bits(unit(np.arange(den), den)) == bits(want)

    @pytest.mark.parametrize("den", [2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1,
                                     2 ** 63 + 5, 10 ** 30 + 7])
    def test_phase_is_the_correctly_rounded_quotient(self, den):
        rng = random.Random(den)
        rs = [0, 1, den // 3, den // 2, den - 1] + [
            rng.randrange(den) for _ in range(500)]
        want = [cmath.exp(2j * math.pi * float(Fraction(r, den)))
                for r in rs]
        assert bits([unit(r, den) for r in rs]) == bits(want)
        dtype = np.int64 if den < INT64_LIMIT else object
        assert bits(unit(np.array(rs, dtype=dtype), den)) == bits(want)


def check_kernel(phases):
    """e() of a float64 array of phases is a new complex128 array with the
    bits of the literal cmath.exp(2j*pi*f) at each entry f and leaves the
    phases unchanged; e() of each f, a Python float or an np.float64, is
    that complex."""
    before = phases.copy()
    want = [cmath.exp(2j * math.pi * f) for f in phases.tolist()]
    got = e(phases)
    assert got.dtype == np.complex128 and got.shape == phases.shape
    assert bits(phases) == bits(before)
    assert bits(got) == bits(want)
    for scalars in (phases.tolist(), list(phases)):
        roots = [e(f) for f in scalars]
        assert all(type(z) is complex for z in roots)
        assert bits(roots) == bits(want)


def recorded_phases(monkeypatch, run):
    """Every phase ``run()`` passes to fourier.e, from fourier and from
    expsums, as one float64 array."""
    kernel, seen = fou_mod.e, []

    def spy(phase):
        seen.append(np.array(phase, dtype=np.float64).ravel())
        return kernel(phase)

    monkeypatch.setattr(fou_mod, "e", spy)
    monkeypatch.setattr(exp_mod, "e", spy)
    run()
    return np.concatenate(seen)


# the grids of the goldens under tests/data: arcs_q10_k4, scan_q7_k4,
# count_q50_k3_poly and constants_q31_k4
GOLDEN_GRIDS = [10 ** 4, 7 ** 4, 50 ** 3, 31 ** 4]
# the residues per denominator the kernel test takes, evenly spaced
KERNEL_SAMPLE = 2 ** 17
# (j, N, real, imag): e(j/N) as computed by this package on an x86-64
# host with AVX-512 and FMA, Python 3.11.7, numpy 2.4.6, glibc 2.36, in
# float.hex form; N runs over GOLDEN_GRIDS and verify's ledger grids Q = 216
# and 1000
KERNEL_BITS = [
    (1, 10000, "0x1.fffff9606a38ep-1", "0x1.496b7ae82073dp-11"),
    (1234, 10000, "0x1.6da8f0e67232bp-1", "0x1.66617e033dc15p-1"),
    (9999, 10000, "0x1.fffff9606a38ep-1", "-0x1.496b7ae82150ep-11"),
    (1, 2401, "0x1.ffff8d1b4a6e1p-1", "0x1.57009c414743dp-9"),
    (600, 2401, "0x1.5700b44ee6121p-11", "0x1.fffff8d1b4667p-1"),
    (2400, 2401, "0x1.ffff8d1b4a6e1p-1", "-0x1.57009c414799ep-9"),
    (1, 125000, "0x1.fffffff525f41p-1", "0x1.a5a84d350ca92p-15"),
    (31249, 125000, "0x1.a5a84d350f962p-15", "0x1.fffffff525f41p-1"),
    (77777, 125000, "-0x1.7050ddaa72d26p-1", "-0x1.63a69363f1eb1p-1"),
    (1, 923521, "0x1.ffffffffcd1b2p-1", "0x1.c8936def759eap-18"),
    (461760, 923521, "-0x1.fffffffff346dp-1", "0x1.c8936def42d06p-19"),
    (923520, 923521, "0x1.ffffffffcd1b2p-1", "-0x1.c8936def3777cp-18"),
    (1, 216, "0x1.ffc88ccce07ffp-1", "0x1.dc8626f42950cp-6"),
    (215, 216, "0x1.ffc88ccce07ffp-1", "-0x1.dc8626f4295f5p-6"),
    (7, 1000, "0x1.ff813eac238efp-1", "0x1.682fd3c7bd8c8p-5"),
    (999, 1000, "0x1.fffd69aa0b99dp-1", "-0x1.9bc5a9d91f5d1p-8"),
]


class TestKernel:
    """``e`` is the one complex exponential outside the oracle: the
    phases the package passes it give the literal cmath.exp, bit for bit,
    in either form."""

    @pytest.mark.parametrize("den", GOLDEN_GRIDS + [3 * Q for Q in
                                                   GOLDEN_GRIDS])
    def test_grid_quotients(self, den):
        r = np.arange(0, den, -(-den // KERNEL_SAMPLE))
        check_kernel(np.append(r, den - 1) / den)

    def test_committed_bits(self):
        # a golden, not a same-process cmath.exp: a host whose libm or
        # numpy rounds these roots otherwise fails here
        want = [complex(float.fromhex(re), float.fromhex(im))
                for _, _, re, im in KERNEL_BITS]
        phases = np.array([j / N for j, N, _, _ in KERNEL_BITS])
        assert bits(e(phases)) == bits(want)
        assert bits([e(f) for f in phases.tolist()]) == bits(want)

    def test_edges(self):
        check_kernel(np.array([0.0, 0.25, 0.5, 0.75,
                               np.nextafter(1.0, 0.0), 5e-324]))
        check_kernel(np.zeros(0))

    @pytest.mark.parametrize("seed", [exp_mod.CALIBRATION_SEED, 1])
    def test_verify_phases(self, monkeypatch, seed):
        # the (d*theta) mod 1 of digit_factor at verify's theta grids, and
        # the quotients r/den of unit in the product formula and the engine
        phases = recorded_phases(
            monkeypatch, lambda: verify_mod.report("fourier", seed))
        assert phases.size > 2 * 10 ** 5
        check_kernel(phases)

    @pytest.mark.parametrize("seed", [exp_mod.CALIBRATION_SEED, 1])
    def test_polynomial_sweep_phases(self, monkeypatch, seed):
        # np.mod(n*alpha, 1) of expsum at a float alpha, at the values
        # n = m**2 < x of the sweep's polynomial
        phases = recorded_phases(
            monkeypatch,
            lambda: exp_mod.bound_ratio_report("polynomial", seed))
        assert phases.size == exp_mod.POLYNOMIAL_DRAWS * (
            math.isqrt(exp_mod.POLYNOMIAL_X - 1) + 1)
        check_kernel(phases)


class TestGridValues:
    def test_matches_pointwise_product(self):
        ds = DigitSet(6, (1,))
        ctx = FourierContext(ds, 3)
        vals = grid_values(ctx)
        for a in (0, 1, 77, 215):
            expect = eval_product(ctx, a)
            assert abs(vals[a] - expect) < 1e-9

    def test_parseval(self):
        for q, k in [(5, 3), (10, 4), (12, 3)]:
            ds = DigitSet(q, (1,))
            vals = grid_values(FourierContext(ds, k))
            got = float(np.add.reduce(np.abs(vals) ** 2))
            expect = q ** k * (q - 1) ** k
            assert abs(got - expect) <= 1e-9 * expect

    def test_magnitude_never_exceeds_member_count(self):
        ds = DigitSet(9, (0, 5))
        vals = grid_values(FourierContext(ds, 3))
        assert float(np.max(np.abs(vals))) <= 7 ** 3 * (1 + 1e-12)

    @pytest.mark.parametrize("transform",
                             [grid_values, l1_grid_sum, half_grid_values])
    def test_cap(self, transform):
        # 10**9 points exceed GRID_CAP; the message names Q by q and k, as
        # a str of 10**5000 would fail past 4,300 digits
        for k in (9, 5000):
            with pytest.raises(CapExceededError,
                               match=rf"^grid of q\^k = 10\^{k} points "
                                     r"exceeds cap 100000000$"):
                transform(FourierContext(DigitSet(10, (7,)), k))


class TestL1GridSum:
    def test_three_point_example(self):
        # factor 1 + e(a/3): magnitudes 2, 1, 1
        ds = DigitSet(3, (2,))
        assert l1_grid_sum(FourierContext(ds, 1)) == pytest.approx(4.0)

    def test_lower_bound_from_zero_term(self):
        ctx = FourierContext(DigitSet(8, (2,)), 3)
        assert l1_grid_sum(ctx) >= 7 ** 3

    def test_agrees_with_grid_values(self):
        ctx = FourierContext(DigitSet(10, (7,)), 3)
        expect = float(np.add.reduce(np.abs(grid_values(ctx))))
        assert l1_grid_sum(ctx) == pytest.approx(expect, rel=1e-12)

    def test_shifted_grid(self):
        ctx = FourierContext(DigitSet(5, (3,)), 2)
        theta0 = 0.1234
        expect = sum(
            abs(eval_product_real(ctx, theta0 + a / 25)) for a in range(25)
        )
        assert l1_grid_sum(ctx, theta0) == pytest.approx(expect, rel=1e-9)

    def test_growth_bound(self):
        for q in (8, 10):
            ds = DigitSet(q, (q - 1,))
            bound = (1 + 3 / math.log(q)) * q * math.log(q)
            for k in (1, 2, 3, 4):
                root = l1_grid_sum(FourierContext(ds, k)) ** (1 / k)
                assert root <= bound


# (q, excluded, k): k = 1, Q/q below one default block, consecutive runs,
# and Q/q not a multiple of the patched block width.
ENGINE_CASES = [
    (10, (7,), 1),
    (3, (2,), 1),
    (10, (7,), 3),
    (7, (0, 3), 3),
    (5, (1, 2), 4),
    (3, (0,), 5),
    (6, (1,), 3),
]


@pytest.fixture(params=[37, None], ids=["block37", "default"])
def engine_block(request, monkeypatch):
    """Run with BLOCK patched to 37 (not a multiple of any q above) and
    with the module default."""
    if request.param is not None:
        monkeypatch.setattr(fou_mod, "BLOCK", request.param)


class TestTransformEngine:
    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    def test_grid_matches_product_everywhere(self, engine_block, q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        Q = q ** k
        vals = grid_values(ctx)
        assert vals.shape == (Q,) and vals.dtype == np.complex128
        scale = (q - len(excl)) ** k
        for a in range(Q):
            expect = eval_product(ctx, a)
            assert abs(vals[a] - expect) <= 1e-12 * scale, a

    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    @pytest.mark.parametrize("theta0", [0.1234, Fraction(3, 7)],
                             ids=["float", "fraction"])
    def test_shifted_grid_matches_product_everywhere(
            self, engine_block, q, excl, k, theta0):
        ctx = FourierContext(DigitSet(q, excl), k)
        Q = q ** k
        vals = grid_values(ctx, theta0)
        scale = (q - len(excl)) ** k
        for a in range(Q):
            expect = eval_product_real(ctx,
                                       Fraction(theta0) + Fraction(a, Q))
            assert abs(vals[a] - expect) <= 1e-12 * scale, a

    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    def test_shifted_l1_matches_grid(self, engine_block, q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        theta0 = 0.3217
        expect = float(np.add.reduce(np.abs(grid_values(ctx, theta0))))
        assert l1_grid_sum(ctx, theta0) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("theta0", [0.0, 0.1234, Fraction(2, 3)])
    def test_k_zero_is_the_one_point_grid(self, theta0):
        ctx = FourierContext(DigitSet(10, (7,)), 0)
        vals = grid_values(ctx, theta0)
        assert vals.tolist() == [1 + 0j]
        assert l1_grid_sum(ctx, theta0) == 1.0
        assert empirical_Cq(ctx) == 1 / (10 * math.log(10))

    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    def test_blocks_tile_the_grid_within_budget(self, engine_block,
                                                q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        seen = []
        for cols, block, twice in fou_mod._transform_blocks(ctx, 0.0):
            assert block.shape == (q, cols.stop - cols.start)
            assert block.size <= max(fou_mod.BLOCK, q)
            assert range(block.shape[1])[twice] == range(0)
            seen.extend(range(cols.start, cols.stop))
        assert seen == list(range(q ** (k - 1)))

    @pytest.mark.parametrize("theta0", [0.0, 0.3217])
    def test_l1_does_not_build_the_grid(self, monkeypatch, theta0):
        def refuse(*args, **kwargs):
            raise AssertionError("l1_grid_sum built a grid")

        ctx = FourierContext(DigitSet(10, (7,)), 3)
        expect = l1_grid_sum(ctx, theta0)
        monkeypatch.setattr(fou_mod, "grid_values", refuse)
        monkeypatch.setattr(fou_mod, "half_grid_values", refuse)
        assert l1_grid_sum(ctx, theta0) == expect


# ENGINE_CASES plus k = 0, and even and odd W = q**(k-1) whose patched
# blocks (step 37//q columns) straddle the end of the paired columns:
# q = 10, k = 3 has the block [48, 51) and q = 4, k = 4 the block [27, 33).
L1_CASES = ENGINE_CASES + [(10, (7,), 0), (4, (1,), 4), (9, (2,), 3)]


class TestHalfSpectrumL1:
    """l1_grid_sum at theta0 = 0 transforms the columns m <= W//2 and
    counts the columns of mirror_paired(W) twice."""

    @pytest.mark.parametrize("q, excl, k", L1_CASES)
    def test_matches_full_grid(self, engine_block, q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        expect = float(np.abs(grid_values(ctx)).sum())
        assert l1_grid_sum(ctx) == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("q, excl, k", L1_CASES)
    @pytest.mark.parametrize("theta0, half", [
        (0.0, True), (0, True), (Fraction(0), True), (0.3217, False)])
    def test_transforms_the_half_columns_at_zero_only(
            self, engine_block, monkeypatch, q, excl, k, theta0, half):
        seen, paired = [], []
        real = fou_mod._transform_blocks

        def recording(*args, **kwargs):
            for cols, block, twice in real(*args, **kwargs):
                seen.extend(range(cols.start, cols.stop))
                paired.extend(range(cols.start, cols.stop)[twice])
                yield cols, block, twice

        monkeypatch.setattr(fou_mod, "_transform_blocks", recording)
        l1_grid_sum(FourierContext(DigitSet(q, excl), k), theta0)
        width = q ** (k - 1) if k else 1
        assert seen == list(range(width // 2 + 1 if half else width))
        assert paired == (list(range(width))[fou_mod.mirror_paired(width)]
                          if half else [])

    @pytest.mark.parametrize("n, paired", [
        (0, []), (1, []), (2, []), (3, [1]), (4, [1]), (5, [1, 2]),
        (6, [1, 2])])
    def test_mirror_paired(self, n, paired):
        assert list(range(n))[fou_mod.mirror_paired(n)] == paired


class TestHalfGrid:
    """half_grid_values against the full grid: a <= Q//2, columns
    m <= W//2 transformed, the rest conjugated from the mirror."""

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("q, excl", [(10, (7,)), (6, (1,)), (7, (0, 3)),
                                         (3, (0,))])
    def test_equals_full_grid_prefix(self, engine_block, q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        Q = q ** k
        half = half_grid_values(ctx)
        full = grid_values(ctx)
        assert half.shape == (Q // 2 + 1,) and half.dtype == np.complex128
        a = np.arange(half.size)
        width = Q // q if k else 1
        computed = a % width <= width // 2
        # bit for bit on the transformed columns
        assert half[computed].tobytes() == full[a[computed]].tobytes()
        # the mirrored ones are conjugates of transformed values at Q - a
        mirrored = a[~computed]
        assert half[~computed].tobytes() == \
            full[Q - mirrored].conj().tobytes()
        scale = (q - len(excl)) ** k
        err = np.abs(half[~computed] - full[mirrored])
        assert err.max(initial=0.0) <= 1e-12 * scale

    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    def test_column_bound_tiles_the_columns_below_it(self, engine_block,
                                                     q, excl, k):
        # the half spectrum: the columns m <= W//2 within the block budget,
        # and the twice slices tile mirror_paired(W) exactly once
        ctx = FourierContext(DigitSet(q, excl), k)
        width = q ** (k - 1)
        seen, paired = [], []
        for cols, block, twice in fou_mod._transform_blocks(ctx, 0.0,
                                                             half=True):
            assert block.shape == (q, cols.stop - cols.start)
            assert block.size <= max(fou_mod.BLOCK, q)
            seen.extend(range(cols.start, cols.stop))
            paired.extend(range(cols.start, cols.stop)[twice])
        assert seen == list(range(width // 2 + 1))
        assert paired == list(range(width))[fou_mod.mirror_paired(width)]


class TestEmpiricalCq:
    def test_k1_definition(self):
        ds = DigitSet(10, (7,))
        ctx = FourierContext(ds, 1)
        direct = sum(abs(digit_factor(ds, a / 10)) for a in range(10))
        assert empirical_Cq(ctx) == \
            pytest.approx(direct / (10 * math.log(10)), rel=1e-9)

    def test_below_analytic_bracket(self):
        for q, k in [(8, 3), (10, 4)]:
            ctx = FourierContext(DigitSet(q, (7,)), k)
            assert empirical_Cq(ctx) <= analytic_Cq(q, 1)
            shifted = l1_grid_sum(ctx, 0.37) ** (1 / k) / (q * math.log(q))
            assert shifted <= analytic_Cq(q, 1)


class TestConstants:
    def test_analytic_Cq_branches(self):
        assert analytic_Cq(10, 1) == pytest.approx(1 + 3 / math.log(10))
        assert analytic_Cq(10, 3) == pytest.approx(1 + 5 / math.log(10))
        assert analytic_Cq(10, 3, consecutive=True) == \
            pytest.approx(2 + 2 / math.log(10))

    def test_large_base_exponent_targets(self):
        assert alpha(2000001, 1) < 0.198
        assert alpha(10 ** 8, 10) < 0.2

    def test_alpha_decreasing_in_q(self):
        assert alpha(10 ** 6, 1) > alpha(10 ** 9, 1)

    def test_consecutive_limit(self):
        q = 10 ** 5
        s = q - math.ceil(q ** 0.81)
        assert consecutive_alpha_limit(q, s) < 0.2


class TestLinfDecay:
    def test_pointwise_cosine_inequality(self):
        for i in range(10 ** 4):
            theta = i / 10 ** 4
            dist = distance_to_integer(theta)
            assert 2 + 2 * math.cos(2 * math.pi * theta) <= \
                4 * math.exp(-2 * dist ** 2) + 1e-12

    def test_factor_exponential_bound_s1(self):
        ds = DigitSet(10, (7,))
        for i in range(10 ** 4):
            theta = i / 10 ** 4
            dist = distance_to_integer(theta)
            fac = abs(digit_factor(ds, theta))
            assert fac <= 9 * math.exp(-dist ** 2 / 10) + 1e-9

    def test_chain_inequality_and_decay_in_k(self):
        ds = DigitSet(10, (7,))
        recs = {}
        for k in (6, 9):
            rec = linf_decay_report(FourierContext(ds, k), 1, 3, 0.0)
            assert rec.lhs <= rec.rhs_shape + 1e-12
            recs[k] = rec
        assert recs[9].lhs < recs[6].lhs

    def test_chain_with_offset(self):
        ds = DigitSet(10, (7,))
        ctx = FourierContext(ds, 9)
        eps = 0.4 * 10 ** (-6)
        rec = linf_decay_report(ctx, 2, 7, eps)
        assert rec.lhs <= rec.rhs_shape + 1e-12

    def test_preconditions(self):
        ctx = FourierContext(DigitSet(10, (7,)), 9)
        with pytest.raises(DomainError, match="gcd"):
            linf_decay_report(ctx, 3, 9, 0.0)
        with pytest.raises(DomainError, match="q\\^\\(k/3\\)"):
            linf_decay_report(ctx, 1, 1001, 0.0)
        with pytest.raises(DomainError, match="coprime"):
            linf_decay_report(ctx, 1, 25, 0.0)
        with pytest.raises(DomainError, match="eps"):
            linf_decay_report(ctx, 1, 3, 0.1)


class TestOracleBattery:
    def test_product_vs_direct_random(self):
        rng = random.Random(2718)
        for q in (4, 6, 8, 10):
            ds = DigitSet(q, (q - 1,))
            members = list(enumerate_members(ds, 3))
            ctx = FourierContext(ds, 3)
            Q = q ** 3
            for _ in range(50):
                a = rng.randrange(Q)
                v1 = eval_product(ctx, a)
                v2 = eval_direct(ds, 3, a)
                assert abs(v1 - v2) <= 1e-9 * len(members)
