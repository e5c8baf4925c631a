import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from digitlab import fourier as fou_mod
from digitlab.digits import DigitSet, enumerate_members
from digitlab.errors import CapExceededError, DomainError
from digitlab.fourier import (
    FourierContext,
    RationalFrequency,
    alpha,
    alpha_q,
    analytic_Cq,
    consecutive_alpha_limit,
    digit_factor,
    digit_factor_bound,
    distance_to_integer,
    empirical_Cq,
    eval_direct,
    eval_product,
    eval_product_real,
    grid_values,
    l1_grid_sum,
    linf_decay_report,
)


def test_rational_frequency_normalizes():
    f = RationalFrequency(-3, 10)
    assert f.residue == 7
    assert RationalFrequency(13, 10).residue == 3


def test_phase_tables_rebuild_identically():
    ds = DigitSet(7, (4,))
    assert FourierContext(ds, 3).phase_tables == \
        FourierContext(ds, 3).phase_tables
    for table in FourierContext(ds, 3).phase_tables:
        assert all(0 <= r < 7 ** 3 for r in table)


class TestEvalProduct:
    def test_zero_frequency(self):
        for q, excl, k in [(10, (7,), 3), (5, (0, 1), 4)]:
            ctx = FourierContext(DigitSet(q, excl), k)
            val = eval_product(ctx, RationalFrequency(0, q ** k))
            assert val == pytest.approx((q - len(excl)) ** k)

    def test_half_frequency_k1(self):
        # five allowed even digits minus four allowed odd digits
        ctx = FourierContext(DigitSet(10, (7,)), 1)
        val = eval_product(ctx, RationalFrequency(5, 10))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_oracle_q8_k3(self):
        ds = DigitSet(8, (3,))
        ctx = FourierContext(ds, 3)
        rng = random.Random(42)
        for _ in range(30):
            freq = RationalFrequency(rng.randrange(512), 512)
            v1 = eval_product(ctx, freq)
            v2 = eval_direct(ds, 3, freq)
            assert abs(v1 - v2) <= 1e-9 * 7 ** 3

    def test_wrong_denominator_rejected(self):
        ctx = FourierContext(DigitSet(10, (7,)), 2)
        with pytest.raises(DomainError):
            eval_product(ctx, RationalFrequency(1, 99))

    def test_periodicity_bit_for_bit(self):
        ctx = FourierContext(DigitSet(9, (4,)), 3)
        Q = 9 ** 3
        for a in (1, 17, 500):
            assert eval_product(ctx, RationalFrequency(a, Q)) == \
                eval_product(ctx, RationalFrequency(a + Q, Q))

    def test_real_entry_point_agrees(self):
        ds = DigitSet(10, (7,))
        ctx = FourierContext(ds, 3)
        for a in (1, 123, 999):
            v1 = eval_product(ctx, RationalFrequency(a, 1000))
            v2 = eval_product_real(ctx, Fraction(a, 1000))
            v3 = eval_product_real(ctx, a / 1000)
            assert abs(v1 - v2) < 1e-10
            assert abs(v1 - v3) < 1e-9


class TestEvalDirect:
    def test_zero_frequency(self):
        assert eval_direct(DigitSet(6, (5,)), 2, RationalFrequency(0, 36)) \
            == pytest.approx(25.0)

    def test_literal_four_term_sum(self):
        # members of {digits 0,1} base 3, k=2 are 0,1,3,4
        ds = DigitSet(3, (2,))
        val = eval_direct(ds, 2, RationalFrequency(1, 9))
        expect = sum(cmath.exp(2j * math.pi * n / 9) for n in (0, 1, 3, 4))
        assert abs(val - expect) < 1e-12

    def test_conjugate_symmetry(self):
        ds = DigitSet(7, (2,))
        Q = 7 ** 2
        for a in range(1, Q):
            va = eval_direct(ds, 2, RationalFrequency(a, Q))
            vb = eval_direct(ds, 2, RationalFrequency(Q - a, Q))
            assert abs(vb - va.conjugate()) < 1e-10

    def test_cap(self):
        with pytest.raises(CapExceededError):
            eval_direct(DigitSet(10, (7,)), 12, RationalFrequency(1, 10 ** 12),
                        cap=10 ** 4)


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


class TestGridValues:
    def test_matches_pointwise_product(self):
        ds = DigitSet(6, (1,))
        ctx = FourierContext(ds, 3)
        vals = grid_values(ctx)
        for a in (0, 1, 77, 215):
            expect = eval_product(ctx, RationalFrequency(a, 216))
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

    def test_cap(self):
        with pytest.raises(CapExceededError):
            grid_values(FourierContext(DigitSet(10, (7,)), 9), cap=10 ** 6)


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
            expect = eval_product(ctx, RationalFrequency(a, Q))
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
        assert empirical_Cq(ctx, [theta0]) == 1 / (10 * math.log(10))

    @pytest.mark.parametrize("q, excl, k", ENGINE_CASES)
    def test_blocks_tile_the_grid_within_budget(self, engine_block,
                                                q, excl, k):
        ctx = FourierContext(DigitSet(q, excl), k)
        seen = []
        for cols, block in fou_mod._transform_blocks(ctx, 0.0):
            assert block.shape == (q, cols.stop - cols.start)
            assert block.size <= max(fou_mod.BLOCK, q)
            seen.extend(range(cols.start, cols.stop))
        assert seen == list(range(q ** (k - 1)))

    def test_l1_does_not_build_the_grid(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("l1_grid_sum called grid_values")

        ctx = FourierContext(DigitSet(10, (7,)), 3)
        expect = l1_grid_sum(ctx)
        monkeypatch.setattr(fou_mod, "grid_values", refuse)
        assert l1_grid_sum(ctx) == expect


class TestEmpiricalCq:
    def test_k1_definition(self):
        ds = DigitSet(10, (7,))
        ctx = FourierContext(ds, 1)
        direct = sum(abs(digit_factor(ds, a / 10)) for a in range(10))
        assert empirical_Cq(ctx, [0.0]) == \
            pytest.approx(direct / (10 * math.log(10)), rel=1e-9)

    def test_below_analytic_bracket(self):
        for q, k in [(8, 3), (10, 4)]:
            ctx = FourierContext(DigitSet(q, (7,)), k)
            assert empirical_Cq(ctx, [0.0, 0.37]) <= analytic_Cq(q, 1)

    def test_empty_samples_rejected(self):
        ctx = FourierContext(DigitSet(10, (7,)), 2)
        with pytest.raises(DomainError):
            empirical_Cq(ctx, [])


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

    def test_alpha_q_wrapper(self):
        ds = DigitSet(10, (3, 4))
        assert alpha_q(ds) == alpha(10, 2, consecutive=True)

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
                freq = RationalFrequency(rng.randrange(Q), Q)
                v1 = eval_product(ctx, freq)
                v2 = eval_direct(ds, 3, freq)
                assert abs(v1 - v2) <= 1e-9 * len(members)
