"""Exponential sums over primes and polynomial values, with bound ratios.

Both weights, Lambda (``MangoldtTable``) and the values of an integer
polynomial (``IntPolynomial``), list the points n < x they charge and the
weights there by ``support_below(x)``, and ``expsum`` is the one sum of
w(n) e(n alpha) over that support; a polynomial's support costs one
bisection and one evaluation of P on an array.  A frequency alpha is a
float or a ``Fraction``.  A Fraction is held in lowest terms, and its
roots are ``fourier.unit`` at the exact residues r = n*num mod den of
that form (``fourier.residues``): the roots of the correctly rounded
floats r/den, the same as any unreduced form of alpha gives, by the rule
the transform's product formula and engine use.  A float alpha keeps its
float phases (n*alpha) mod 1 and takes the kernel ``fourier.e`` of them,
so this module computes no exponential itself.  The
equidistribution min-sum is a literal summation too, and three
bound-ratio sweeps compare the sums against their analytic right-hand
sides.  Each sweep returns what it measures, its configuration, its
points (a, d, beta) and each point's (lhs, rhs), and
``bound_ratio_report`` alone builds the rows from them.  The implied
constants of the bounds carry no numeric content, so sweeps only record
ratios.  Each sweep's ceiling in
``CALIBRATED_MAX_RATIO`` was fixed by a one-time run with the recorded
seed and holds only at the configuration it was run at, so those
configurations are constants beside it, not options; the seed alone
picks the random draws.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Sequence, Union

import numpy as np

from .digits import check_cap
from .errors import DomainError
from .fourier import INT64_LIMIT, distance_to_integer, e, residues, unit
from .summation import pairwise_sum

MANGOLDT_CAP = 10 ** 9
# Values n at which IntPolynomial.support_below evaluates P; as
# fourier.GRID_CAP, since the identity polynomial at the largest grid
# evaluates every n < Q.
POLY_SCAN_CAP = 10 ** 8

# One-time calibration run (seed below); the sweeps in the verification
# suites must stay under these max-ratio ceilings.
CALIBRATION_SEED = 20260826
CALIBRATED_MAX_RATIO = {
    # observed maxima at the seed above (tested): 0.674, 5.52e-5, 6.98e-4
    "equidistribution": 60.0,
    "prime": 1e-3,
    "polynomial": 1e-2,
}
# The sweep configurations those ceilings were calibrated at; the random
# sweeps draw d in 2..DMAX, the prime sweep has beta = 0.
EQUIDISTRIBUTION_N, EQUIDISTRIBUTION_M = 1000, 1000.0
EQUIDISTRIBUTION_DRAWS, EQUIDISTRIBUTION_DMAX = 50, 50
PRIME_X, PRIME_D_VALUES = 10 ** 5, range(3, 98)
POLYNOMIAL_COEFFS, POLYNOMIAL_X = (0, 0, 1), 10 ** 4  # n^2
POLYNOMIAL_DRAWS, POLYNOMIAL_DMAX = 20, 40


@dataclass(frozen=True)
class MangoldtTable:
    """The support of von Mangoldt's Lambda up to ``limit``.

    ``entries_n`` holds the prime powers n <= limit in increasing order and
    ``entries_p`` the corresponding primes p (so Lambda(n) = log p).  The
    weights log p are computed once per table, on first use, and held
    read-only for the table's lifetime.
    """

    limit: int
    entries_n: np.ndarray
    entries_p: np.ndarray

    @cached_property
    def _logs(self) -> np.ndarray:
        logs = np.log(self.entries_p.astype(np.float64))
        logs.flags.writeable = False
        return logs

    def support_below(self, x: int):
        """The prime powers n < x and their weights Lambda(n) = log p.

        ``entries_n`` is ascending, so both are prefixes: read-only views
        of ``entries_n`` and of the cached logs, which no caller can write
        into.
        """
        if x > self.limit + 1:
            raise DomainError(f"sieve limit {self.limit} does not cover "
                              f"n < {x}")
        stop = int(np.searchsorted(self.entries_n, x))
        ns = self.entries_n[:stop]
        ns.flags.writeable = False
        return ns, self._logs[:stop]


def build_mangoldt(X: int) -> MangoldtTable:
    """List the prime powers up to X from a boolean Eratosthenes sieve.

    The sieve crosses out multiples of the primes up to isqrt(X), one byte
    per integer; the higher powers come from multiplying the primes up to
    isqrt(X) by themselves, and one sort interleaves them.
    """
    if X < 1:
        raise DomainError("X must be positive")
    check_cap(X, MANGOLDT_CAP, f"sieve limit {X}")
    is_prime = np.ones(X + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(X) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = False
    primes = np.flatnonzero(is_prime).astype(np.int64, copy=False)
    del is_prime
    ns, ps = [primes], [primes]
    base = primes[:np.searchsorted(primes, math.isqrt(X), side="right")]
    power = base
    while base.size:
        power = power * base  # p <= isqrt(X): p**(m+1) <= X**1.5 fits
        keep = power <= X
        base, power = base[keep], power[keep]
        ns.append(power)
        ps.append(base)
    ns, ps = np.concatenate(ns), np.concatenate(ps)
    order = np.argsort(ns, kind="stable")
    return MangoldtTable(limit=X, entries_n=ns[order], entries_p=ps[order])


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients constant-first; positive lead."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)
        if self.degree < 1:
            raise DomainError("polynomial must have degree >= 1")
        if cs[-1] <= 0:
            raise DomainError("lead coefficient must be positive")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    def __call__(self, n: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * n + c
        return v

    def increasing_from(self) -> int:
        """An integer N >= 0 such that the polynomial is increasing on
        [N, oo).

        A Cauchy bound for the negative part of P'.  On n >= 0 only the
        negative coefficients can make P'(n) = sum_i i*c_i*n**(i-1)
        negative.  Let L = r*c_r > 0 and M = max(i*|c_i|) over 1 <= i < r
        with c_i < 0.  With no such i, P'(n) >= L*n**(r-1) > 0 for n > 0,
        so N = 0.  Otherwise, for n > 1,
        P'(n) >= L*n**(r-1) - M*(n**(r-1) - 1)/(n - 1)
              > (L - M/(n - 1))*n**(r-1),
        which is >= 0 once n - 1 >= M/L.  N = 2 + M//L exceeds 1 + M/L.
        """
        r, cs = self.degree, self.coeffs
        negative = [-i * cs[i] for i in range(1, r) if cs[i] < 0]
        return 2 + max(negative) // (r * cs[-1]) if negative else 0

    def support_below(self, x: int):
        """The values 0 <= P(n) < x over n >= 0, in the order of n (a value
        once per n), each of weight 1.0; int64 while x <= 2**63, Python
        ints above.

        Past N = ``increasing_from()`` those n are the n < end, where end
        is the first n > N with P(n) >= x, found by doubling and bisection
        that both stop at ``POLY_SCAN_CAP + 1``; one check of end enforces
        the cap.  P is evaluated once, on the array of all n < end: in
        int64 when sum |c_i| * max(end - 1, 1)**i < 2**63, which bounds
        every partial Horner value, in Python ints otherwise.
        """
        stop = POLY_SCAN_CAP + 1
        start = min(self.increasing_from(), stop)
        hi = start + 1
        while hi < stop and self(hi) < x:
            hi = min(2 * hi, stop)
        end = check_cap(
            bisect.bisect_left(range(hi + 1), x, lo=start + 1, key=self),
            POLY_SCAN_CAP, "polynomial scan")
        m = max(end - 1, 1)
        bound = sum(abs(c) * m ** i for i, c in enumerate(self.coeffs))
        values = self(np.arange(
            end, dtype=np.int64 if bound < INT64_LIMIT else object))
        points = values[(values >= 0) & (values < x)]
        return (points.astype(np.int64 if x <= INT64_LIMIT else object),
                np.ones(points.size))


Weight = Union[MangoldtTable, IntPolynomial]


def weight_support(weight: Weight, x: int):
    """``weight.support_below(x)``; any other weight raises DomainError."""
    if not isinstance(weight, (MangoldtTable, IntPolynomial)):
        raise DomainError(f"unsupported weight: {weight!r}")
    return weight.support_below(x)


def expsum(weight: Weight, x: int, alpha: float | Fraction) -> complex:
    """S_w(alpha) = sum over the points n < x of w(n) e(n alpha).

    The literal formula sums w(n) * e(phase) over
    ``weight_support(weight, x)`` by ``np.add.reduce``, with e() the
    kernel ``fourier.e``.  At a rational alpha = num/den the phases are
    the r/den with r = n*num mod den, and the terms take
    ``unit(residues(ns, num, den), den)``; with den no more than the
    number of terms, the den roots unit(arange(den), den) are computed
    once and indexed by the residues instead, with the same bits.  A
    float alpha keeps the float phase (n*alpha) mod 1 and takes e() of it.
    """
    ns, ws = weight_support(weight, x)
    if isinstance(alpha, Fraction):
        num, den = alpha.as_integer_ratio()
        r = residues(ns, num, den)
        units = (unit(np.arange(den), den)[r.astype(np.intp)]
                 if den <= ns.size else unit(r, den))
    else:
        units = e(np.mod(ns.astype(np.float64) * alpha, 1.0))
    terms = ws * units
    return complex(np.add.reduce(terms))


def minsum(N: int, M: float, alpha) -> float:
    """sum over 1 <= n <= N of min(M, 1/||alpha n||); M when ||..|| = 0.

    The N distances ||alpha n|| form one array, and ``pairwise_sum`` adds
    the terms as Python floats, so the sum has the bits of the loop
    ``min(M, 1/distance_to_integer(alpha*n))``.  A float alpha gives the
    array form of ``distance_to_integer`` on the products alpha*n; a
    Fraction alpha keeps the exact distance of each alpha*n.
    ``np.where(inv < M, inv, M)`` picks as ``min(M, inv)`` does, nan
    included, and inv = 1/0 = inf gives M; 1/dist overflows to inf as in
    Python.
    """
    if isinstance(alpha, Fraction):
        dist = np.array([distance_to_integer(alpha * n)
                         for n in range(1, N + 1)], dtype=np.float64)
    else:
        dist = distance_to_integer(float(alpha) * np.arange(1, N + 1))
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / dist
    return float(pairwise_sum(np.where(inv < M, inv, M).tolist()))


# ----------------------------------------------------------------------
# Bound-ratio sweeps
# ----------------------------------------------------------------------

def _effective_dbeta(d: int, beta: float, x: float) -> float:
    # beta = 0 is measured at the 1/x resolution of the frequency grid
    # (the partial-summation convention behind the near-rational case).
    return d * max(abs(beta), 1.0 / x)


def equidistribution_rhs(N: int, M: float, d: int, beta: float) -> float:
    db = d * abs(beta)
    inv = math.inf if db == 0.0 else 1.0 / db
    return (N + N * M * db + inv + d) * math.log(N)


def prime_rhs(x: int, d: int, beta: float) -> float:
    db = _effective_dbeta(d, beta, x)
    return (x ** 0.8 + math.sqrt(x) / math.sqrt(db)
            + x * math.sqrt(db)) * math.log(x) ** 4


def poly_rhs(x: int, r: int, d: int, beta: float) -> float:
    db = _effective_dbeta(d, beta, x)
    inner = 1.0 / x + 1.0 / (x ** r * db) + db + d / x ** r
    return x * math.log(x) * inner ** (1.0 / 2 ** r)


def bound_ratio_report(kind: str, seed: int) -> List[dict]:
    """Run one calibrated sweep, recording lhs, rhs and their ratio.

    ``kind`` is a key of ``SWEEPS``, keyed as ``CALIBRATED_MAX_RATIO``,
    and the sweep runs at the fixed configuration its ceiling was
    calibrated at (the constants beside it).  ``seed`` draws the points of
    the equidistribution and polynomial sweeps; the prime sweep draws
    none.  A sweep returns ``(config, points, sides)``: its configuration
    as a dict, its points ``(a, d, beta)`` and each point's ``(lhs, rhs)``.
    Each row here is ``{**config, "a", "d", "beta", "lhs", "rhs",
    "ratio"}``, with ratio = lhs / rhs.  No implied constant is asserted
    here.
    """
    if kind not in SWEEPS:
        raise DomainError(f"unknown sweep kind: {kind}")
    config, points, sides = SWEEPS[kind](random.Random(seed))
    return [{**config, "a": a, "d": d, "beta": beta,
             "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}
            for (a, d, beta), (lhs, rhs) in zip(points, sides)]


def _draw_near_rational(rng: random.Random, dmax: int):
    """A random reduced a/d with 2 <= d <= dmax, and |beta| <= 1/(2 d^2)."""
    d = rng.randrange(2, dmax + 1)
    a = rng.randrange(1, d)
    while math.gcd(a, d) != 1:
        a = rng.randrange(1, d)
    return a, d, rng.uniform(-1.0, 1.0) / (2.0 * d * d)


def _equidistribution_sweep(rng: random.Random):
    N, M = EQUIDISTRIBUTION_N, EQUIDISTRIBUTION_M
    points = [_draw_near_rational(rng, EQUIDISTRIBUTION_DMAX)
              for _ in range(EQUIDISTRIBUTION_DRAWS)]
    return {"N": N, "M": M}, points, [
        (minsum(N, M, a / d + beta), equidistribution_rhs(N, M, d, beta))
        for a, d, beta in points]


def _prime_sweep(rng: random.Random):
    x = PRIME_X
    table = build_mangoldt(x)
    # 1/d is reduced, so a = 1 is the least numerator of every d
    points = [(1, d, 0.0) for d in PRIME_D_VALUES]
    return {"x": x}, points, [
        (abs(expsum(table, x, Fraction(a, d))), prime_rhs(x, d, beta))
        for a, d, beta in points]


def _polynomial_sweep(rng: random.Random):
    P = IntPolynomial(POLYNOMIAL_COEFFS)
    x = POLYNOMIAL_X
    r = P.degree
    norm = P.lead * math.factorial(r)
    points = [_draw_near_rational(rng, POLYNOMIAL_DMAX)
              for _ in range(POLYNOMIAL_DRAWS)]
    # frequencies are measured in the lemma's normalization:
    # lead * r! * alpha = a/d + beta
    return {"coeffs": P.coeffs, "x": x}, points, [
        (abs(expsum(P, x, (a / d + beta) / norm)), poly_rhs(x, r, d, beta))
        for a, d, beta in points]


# The sweep of each kind, keyed as CALIBRATED_MAX_RATIO; each takes an rng
# and returns (config, points, sides) for bound_ratio_report's rows.
SWEEPS = {"equidistribution": _equidistribution_sweep,
          "prime": _prime_sweep, "polynomial": _polynomial_sweep}


def max_sweep_ratio(rows: Sequence[dict]) -> float:
    return max(row["ratio"] for row in rows)
