import numpy as np
import pytest
import scalar_oracles as oracle
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import digitlab.digits as digits_mod
from digitlab.digits import (
    DigitSet,
    contains,
    contains_mask,
    count_below,
    count_in_ap,
    enumerate_members,
)
from digitlab.errors import CapExceededError, DomainError


def brute_members(q, excluded, k):
    """Independent oracle: digit strings checked literally."""
    exc = set(excluded)
    out = []
    for n in range(q ** k):
        m, ok = n, True
        for _ in range(k):
            if m % q in exc:
                ok = False
                break
            m //= q
        if ok:
            out.append(n)
    return out


class TestDigitSet:
    def test_normalization(self):
        ds = DigitSet(10, (7, 3, 7))
        assert ds.excluded == (3, 7)
        assert ds.s == 2

    def test_rejects_bad_base(self):
        with pytest.raises(DomainError):
            DigitSet(2, (0,))

    def test_rejects_out_of_range_digit(self):
        with pytest.raises(DomainError):
            DigitSet(10, (10,))

    def test_rejects_too_many_exclusions(self):
        with pytest.raises(DomainError):
            DigitSet(4, (0, 1, 3))

    def test_rejects_no_consecutive_allowed_pair(self):
        # allowed digits {0, 2} have no adjacent pair
        with pytest.raises(DomainError):
            DigitSet(3, (1,))
        with pytest.raises(DomainError):
            DigitSet(10, (1, 3, 5, 7, 9))

    def test_consecutive_flag(self):
        assert DigitSet(10, (3, 4)).consecutive_flag
        assert DigitSet(10, (2, 3, 4, 5, 6)).consecutive_flag
        assert not DigitSet(10, (3, 7)).consecutive_flag
        assert not DigitSet(10, (7,)).consecutive_flag  # singleton: generic

    def test_allowed(self):
        assert DigitSet(5, (2,)).allowed == (0, 1, 3, 4)

    def test_base_cap(self):
        with pytest.raises(CapExceededError, match="base q="):
            DigitSet(digits_mod.BASE_CAP + 1, (7,))


@st.composite
def digit_sets(draw, max_q=16):
    """A valid DigitSet; the excluded digits include 0 half the time."""
    q = draw(st.integers(3, max_q))
    excluded = draw(st.sets(st.integers(0, q - 1), min_size=1,
                            max_size=q - 2))
    if draw(st.booleans()):
        excluded = (excluded - {max(excluded)}) | {0}
    try:
        return DigitSet(q, tuple(excluded))
    except DomainError:
        assume(False)


class TestContains:
    def test_examples(self):
        ds = DigitSet(10, (7,))
        assert contains(ds, 17, 2) is False
        assert contains(ds, 42, 2) is True
        # leading zero counts as a digit under the k-digit convention
        assert contains(DigitSet(10, (0,)), 5, 2) is False

    def test_domain_error(self):
        with pytest.raises(DomainError):
            contains(DigitSet(10, (7,)), 100, 2)

    def test_k_independence_when_zero_allowed(self):
        ds = DigitSet(10, (7,))
        for n in (0, 5, 42, 99):
            assert contains(ds, n, 2) == contains(ds, n, 5)

    def test_leading_zero_rule_when_zero_excluded(self):
        ds = DigitSet(10, (0,))
        k = 3
        for n in range(10 ** (k - 1)):
            assert not contains(ds, n, k)


class TestContainsMask:
    @given(data=st.data(), ds=digit_sets(), k=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_contains(self, data, ds, k):
        Q = ds.q ** k
        ns = [0, Q - 1] + data.draw(
            st.lists(st.integers(0, Q - 1), max_size=40))
        mask = contains_mask(ds, np.array(ns, dtype=np.int64), k)
        assert mask.dtype == np.bool_ and mask.shape == (len(ns),)
        assert mask.tolist() == [contains(ds, n, k) for n in ns]
        for bad in (-1, Q):
            with pytest.raises(DomainError):
                contains_mask(ds, np.array(ns + [bad], dtype=np.int64), k)

    @pytest.mark.parametrize("table", [1, 7 ** 2, 7 ** 3, None])
    def test_every_n_below_q_to_the_k(self, monkeypatch, table):
        # tables of 1, 2, 3 and (default) 5 digits; odd k leaves a shorter
        # last step, where an excluded 0 must not pad the leading digits
        if table is not None:
            monkeypatch.setattr(digits_mod, "MASK_TABLE", table)
        ds = DigitSet(7, (0, 4))
        for k in range(1, 6):
            mask = contains_mask(ds, np.arange(7 ** k), k)
            assert np.flatnonzero(mask).tolist() == brute_members(
                7, (0, 4), k), k
            with pytest.raises(DomainError):
                contains_mask(ds, np.array([7 ** k]), k)

    @pytest.mark.parametrize("n", [-1, 100, 2 ** 40])
    def test_same_domain_as_contains(self, n):
        ds = DigitSet(10, (7,))
        with pytest.raises(DomainError):
            contains(ds, n, 2)
        with pytest.raises(DomainError):
            contains_mask(ds, np.array([5, n], dtype=np.int64), 2)

    def test_empty(self):
        mask = contains_mask(DigitSet(10, (7,)), np.array([], np.int64), 3)
        assert mask.shape == (0,)


class TestCountBelow:
    def test_examples(self):
        ds = DigitSet(10, (7,))
        assert count_below(ds, 1000, 3) == 729
        assert count_below(ds, 50, 2) == 45
        assert count_below(ds, 0, 3) == 0

    def test_full_range_power(self):
        for q in (5, 10, 17, 50):
            ds = DigitSet(q, (1,))
            for k in (1, 4, 8):
                assert count_below(ds, q ** k, k) == (q - 1) ** k

    def test_against_brute_force_all_single_exclusions(self):
        for q in range(3, 13):
            for a0 in range(q):
                try:
                    ds = DigitSet(q, (a0,))
                except DomainError:
                    continue  # q=3 middle digit leaves no adjacent pair
                for k in (1, 2, 3, 4):
                    members = brute_members(q, (a0,), k)
                    for x in (0, 1, q ** k // 3, q ** k - 1, q ** k):
                        expect = sum(1 for n in members if n < x)
                        assert count_below(ds, x, k) == expect

    @given(x=st.integers(min_value=0, max_value=6 ** 4))
    @settings(max_examples=80, deadline=None)
    def test_matches_enumeration(self, x):
        ds = DigitSet(6, (2, 5))
        members = brute_members(6, (2, 5), 4)
        assert count_below(ds, x, 4) == sum(1 for n in members if n < x)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            count_below(DigitSet(10, (7,)), 1001, 3)


class TestCountInAp:
    def test_base_ten_residue_examples(self):
        ds = DigitSet(10, (7,))
        assert count_in_ap(ds, 1000, 3, 10, 3) == 81
        assert count_in_ap(ds, 1000, 3, 10, 7) == 0

    def test_brute_force(self):
        ds = DigitSet(10, (7,))
        members = brute_members(10, (7,), 2)
        expect = sum(1 for n in members if n < 100 and n % 3 == 0)
        assert count_in_ap(ds, 100, 2, 3, 0) == expect

    @given(
        x=st.integers(min_value=0, max_value=8 ** 3),
        m=st.integers(min_value=1, max_value=30),
        r=st.integers(min_value=0, max_value=29),
    )
    @settings(max_examples=100, deadline=None)
    def test_brute_force_random(self, x, m, r):
        if r >= m:
            r %= m
        ds = DigitSet(8, (5,))
        members = brute_members(8, (5,), 3)
        expect = sum(1 for n in members if n < x and n % m == r)
        assert count_in_ap(ds, x, 3, m, r) == expect

    def test_residues_partition_count_below(self):
        ds = DigitSet(12, (5, 11))
        for m in (1, 7, 12, 25):
            x = 12 ** 3 - 37
            total = sum(count_in_ap(ds, x, 3, m, r) for r in range(m))
            assert total == count_below(ds, x, 3)

    @given(data=st.data(), ds=digit_sets(max_q=9), k=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_matches_enumerated_members(self, data, ds, k):
        Q = ds.q ** k
        x = data.draw(st.integers(0, Q))
        m = data.draw(st.integers(1, min(Q, 60)))
        r = data.draw(st.integers(0, m - 1))
        expect = sum(1 for n in enumerate_members(ds, k)
                     if n < x and n % m == r)
        assert count_in_ap(ds, x, k, m, r) == expect

    def test_zero_modulus_rejected(self):
        with pytest.raises(DomainError):
            count_in_ap(DigitSet(10, (7,)), 100, 2, 0, 0)


class TestEnumerate:
    def test_examples(self):
        assert list(enumerate_members(DigitSet(3, (2,)), 2)) == [0, 1, 3, 4]
        assert list(enumerate_members(DigitSet(10, (7,)), 1)) == \
            [0, 1, 2, 3, 4, 5, 6, 8, 9]
        assert list(enumerate_members(DigitSet(4, (0, 3)), 2)) == \
            [5, 6, 9, 10]

    def test_matches_brute_force_and_is_sorted(self):
        for q, excl, k in [(5, (2,), 3), (10, (0, 9), 2), (7, (3, 4), 3)]:
            got = list(enumerate_members(DigitSet(q, excl), k))
            assert got == brute_members(q, excl, k)
            assert got == sorted(got)
            assert len(got) == (q - len(excl)) ** k

    @pytest.mark.parametrize("q, excl", [(10, (7,)), (10, (0,)), (5, (4,)),
                                         (10, (3, 4, 5)), (7, (0, 1))])
    def test_matches_recursive_oracle(self, q, excl):
        ds = DigitSet(q, excl)
        for k in range(6):
            assert list(enumerate_members(ds, k)) == \
                list(oracle.enumerate_members(ds, k))

    def test_cap(self):
        # 9**9 members exceed ENUMERATION_CAP, checked before the first
        with pytest.raises(CapExceededError):
            next(enumerate_members(DigitSet(10, (7,)), 9))
