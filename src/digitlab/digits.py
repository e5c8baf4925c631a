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
        check_cap(self.q, BASE_CAP, f"base q={self.q}")
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


def bounded_power(base: int, exp: int, bound: int) -> int:
    """base**exp if that is at most bound (>= 0), else a power of base
    above bound, so a cap check never builds base**exp (10**(10**7) takes
    seconds).  For base >= 2, base**(bound.bit_length() + 1) > bound; for
    base 0 or 1 every positive exponent gives the same power.
    """
    return base ** min(exp, bound.bit_length() + 1)


def check_cap(value: int, bound: int, what: str) -> int:
    """value if it is at most bound, else a ``CapExceededError`` "{what}
    exceeds cap {bound}": the one statement of every resource cap.  A
    power comes in as ``bounded_power(base, exp, bound)`` and is named
    in ``what`` by its base and exponent ("q^k = 10^5000"), as a str of
    the power itself fails past 4,300 digits.
    """
    if value > bound:
        raise CapExceededError(f"{what} exceeds cap {bound}")
    return value


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
    """#{n < x : contains(ds, n, k)}: ``count_in_ap`` at modulus 1."""
    return count_in_ap(ds, x, k, 1, 0)


def count_in_ap(ds: DigitSet, x: int, k: int, modulus: int, residue: int) -> int:
    """#{n < x : contains(ds, n, k), n == residue (mod modulus)}.

    One pass over the k digits of x, most significant first.  ``counts[r]``
    is the number of allowed-digit prefixes already below x's prefix of the
    same length whose value is r (mod modulus); each next digit d sends
    residue r to r*q + d.  While x's own prefix has only allowed digits,
    its residue ``tight`` adds the prefixes that leave it at a smaller
    allowed digit.  For x = q**k every prefix is below x, so the empty one
    starts in ``counts``.  O(k*q*modulus) time and O(modulus) memory.
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
    exc, allowed = ds._excluded_set, ds.allowed
    counts = [0] * modulus
    tight = 0  # x's prefix mod modulus; None once it holds an excluded digit
    if x == q ** k:
        counts[0], tight = 1, None
    for xd in _msb_digits(x, q, k):
        nxt = [0] * modulus
        for r, c in enumerate(counts):
            if c:
                shift = r * q % modulus
                for d in allowed:
                    nxt[(shift + d) % modulus] += c
        if tight is not None:
            for d in allowed:
                if d >= xd:
                    break
                nxt[(tight * q + d) % modulus] += 1
            tight = None if xd in exc else (tight * q + xd) % modulus
        counts = nxt
    return counts[residue]


def enumerate_members(ds: DigitSet, k: int) -> Iterator[int]:
    """Yield the members of the set in [0, q**k) in increasing order.

    Two ascending blocks are built digit by digit: the members below
    q**(k//2) (the low k//2 digits) and those of the high k - k//2 digits.
    Each high value h, in order, is followed by every low value m, giving
    h*q**(k//2) + m, so the order is increasing and memory is
    O((q - s)**ceil(k/2)).  The cap is checked before the first item.
    """
    full = ds.q - ds.s
    check_cap(bounded_power(full, k, ENUMERATION_CAP), ENUMERATION_CAP,
              f"enumeration of {full}^{k} members")
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
