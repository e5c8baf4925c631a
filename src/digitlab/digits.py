"""Digit-restricted integer sets with exact counting via digit DP.

A ``DigitSet`` is a base ``q`` together with a set of excluded digits.  All
counting uses the fixed k-digit convention: an integer ``n < q**k`` is read
as exactly ``k`` base-q digits including leading zeros, so membership of 0
depends on whether the digit 0 is allowed.  Every count is exact integer
arithmetic; ranges are always half-open ``[0, q**k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CapExceededError, DomainError

ENUMERATION_CAP = 10 ** 8
# Largest base: the digit tables (``allowed``, the transform's digit
# vectors) hold O(q) Python objects, 175 MB at q = 10**6.
BASE_CAP = 10 ** 6
# Largest lookup table of contains_mask, in entries (one byte each).
MASK_TABLE = 1 << 16


@dataclass(frozen=True)
class DigitSet:
    """Base q and the sorted tuple of excluded digits."""

    q: int
    excluded: tuple

    def __post_init__(self):
        if self.q < 3:
            raise DomainError(f"base must be >= 3, got q={self.q}")
        if self.q > BASE_CAP:
            raise CapExceededError(
                f"base q={self.q} exceeds cap {BASE_CAP}")
        exc = tuple(sorted(set(int(d) for d in self.excluded)))
        object.__setattr__(self, "excluded", exc)
        if not exc:
            raise DomainError("excluded digit set must be nonempty")
        if exc[0] < 0 or exc[-1] >= self.q:
            raise DomainError(f"excluded digits must lie in [0, {self.q})")
        if len(exc) > self.q - 2:
            raise DomainError(
                f"at most q-2 digits may be excluded (q={self.q}, s={len(exc)})"
            )
        if not self._has_consecutive_allowed_pair():
            raise DomainError(
                "digit set must leave two consecutive digits allowed"
            )

    def _has_consecutive_allowed_pair(self):
        # Scan the gaps between excluded digits (and the ends) for a gap of
        # width >= 2; works without materializing the allowed set.
        bounds = (-1,) + self.excluded + (self.q,)
        return any(b - a > 2 for a, b in zip(bounds, bounds[1:]))

    @property
    def s(self) -> int:
        return len(self.excluded)

    @property
    def consecutive_flag(self) -> bool:
        """True iff the excluded digits form a run of length >= 2.

        Singletons take the generic (non-run) bounds, so s=1 is not flagged.
        """
        return self.s >= 2 and self.excluded[-1] - self.excluded[0] == self.s - 1

    @cached_property
    def allowed(self) -> tuple:
        """Sorted allowed digits.  Only materialize for small q."""
        exc = set(self.excluded)
        return tuple(d for d in range(self.q) if d not in exc)

    @cached_property
    def _excluded_set(self):
        return frozenset(self.excluded)


def contains(ds: DigitSet, n: int, k: int) -> bool:
    """True iff all k base-q digits of n (with leading zeros) are allowed."""
    if n < 0 or n >= ds.q ** k:
        raise DomainError(f"n={n} not in [0, {ds.q}^{k})")
    exc = ds._excluded_set
    m = n
    for _ in range(k):
        if m % ds.q in exc:
            return False
        m //= ds.q
    return True


def contains_mask(ds: DigitSet, n: np.ndarray, k: int) -> np.ndarray:
    """``contains`` for every entry of an int64 array, as a bool array.

    Each step tests c digits with one lookup in a table that marks the
    values below q**c whose c digits are all allowed (q**c <= MASK_TABLE).
    """
    q = ds.q
    allowed = np.ones(q, dtype=bool)
    allowed[list(ds.excluded)] = False
    c = 1
    while c < k and q ** (c + 1) <= MASK_TABLE:
        c += 1
    tables = [np.ones(1, dtype=bool)]  # tables[j]: the table for j digits
    for _ in range(c):
        tables.append((tables[-1][:, None] & allowed).ravel())
    m = np.array(n, dtype=np.int64)  # a copy, divided in place
    hit = np.ones(m.shape, dtype=bool)
    left = k
    while left:
        step = min(c, left)
        hit &= tables[step][m % q ** step]
        m //= q ** step
        left -= step
    # m is now floor(n / q**k), which is 0 exactly when 0 <= n < q**k
    if m.any():
        raise DomainError(f"entries of n not all in [0, {q}^{k})")
    return hit


def _msb_digits(x: int, q: int, k: int):
    """The k base-q digits of x, most significant first (x < q**k)."""
    out = []
    m = x
    for _ in range(k):
        out.append(m % q)
        m //= q
    out.reverse()
    return out


def count_below(ds: DigitSet, x: int, k: int) -> int:
    """#{n < x : contains(ds, n, k)} by digit DP, O(k*q)."""
    q = ds.q
    if x < 0 or x > q ** k:
        raise DomainError(f"x={x} not in [0, {q}^{k}]")
    full = q - ds.s
    if x == q ** k:
        return full ** k
    exc = ds._excluded_set
    # allowed_below[d] = number of allowed digits strictly less than d
    allowed_below = [0] * (q + 1)
    for d in range(q):
        allowed_below[d + 1] = allowed_below[d] + (0 if d in exc else 1)
    total = 0
    for i, xd in enumerate(_msb_digits(x, q, k)):
        rem = k - i - 1
        total += allowed_below[xd] * full ** rem
        if xd in exc:
            break
    return total


def count_in_ap(ds: DigitSet, x: int, k: int, modulus: int, residue: int) -> int:
    """#{n < x : contains(ds, n, k), n == residue (mod modulus)}.

    Digit DP carrying a residue state, O(k*q*modulus).
    """
    q = ds.q
    if modulus <= 0:
        raise DomainError("modulus must be positive")
    if not 0 <= residue < modulus:
        raise DomainError(f"residue={residue} not in [0, {modulus})")
    if modulus > q ** k:
        raise DomainError(f"modulus={modulus} exceeds q^k")
    if x < 0 or x > q ** k:
        raise DomainError(f"x={x} not in [0, {q}^{k}]")
    exc = ds._excluded_set
    allowed = ds.allowed
    # free[j][r] = #length-j allowed-digit strings (positions 0..j-1, lsb)
    #              whose value is == r (mod modulus)
    free = [[0] * modulus for _ in range(k + 1)]
    free[0][0] = 1
    place = 1  # q**(j-1) mod modulus
    for j in range(1, k + 1):
        prev, cur = free[j - 1], free[j]
        shifts = [(d * place) % modulus for d in allowed]
        for r in range(modulus):
            c = prev[r]
            if c:
                for sh in shifts:
                    cur[(r + sh) % modulus] += c
        place = (place * q) % modulus
    if x == q ** k:
        return free[k][residue]
    total = 0
    prefix = 0  # residue of the fixed high digits
    places = [pow(q, i, modulus) for i in range(k)]
    for i, xd in enumerate(_msb_digits(x, q, k)):
        pos = k - i - 1  # place value q**pos
        for d in allowed:
            if d >= xd:
                break
            need = (residue - prefix - d * places[pos]) % modulus
            total += free[pos][need]
        if xd in exc:
            break
        prefix = (prefix + xd * places[pos]) % modulus
    return total


def enumerate_members(ds: DigitSet, k: int) -> Iterator[int]:
    """Yield the members of the set in [0, q**k) in increasing order.

    Two ascending blocks are built digit by digit: the members below
    q**(k//2) (the low k//2 digits) and those of the high k - k//2 digits.
    Each high value h, in order, is followed by every low value m, giving
    h*q**(k//2) + m, so the order is increasing and memory is
    O((q - s)**ceil(k/2)).  The cap is checked before the first item.
    """
    full = ds.q - ds.s
    if full ** k > ENUMERATION_CAP:
        raise CapExceededError(
            f"enumeration of {full}^{k} members exceeds cap {ENUMERATION_CAP}"
        )
    q, allowed, half = ds.q, ds.allowed, k // 2

    def block(width: int) -> list:
        values = [0]
        for _ in range(width):
            values = [v * q + d for v in values for d in allowed]
        return values

    low, shift = block(half), q ** half
    for h in block(k - half):
        base = h * shift
        for m in low:
            yield base + m
