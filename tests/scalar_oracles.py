"""Scalar oracles of the vectorised measured sides of ``digitlab verify``.

Each is the loop or literal formula its numpy form replaced, kept here so
that the tests can require the numpy form to give the same bits, which
``bits`` compares.  ``count_below`` is the prefix digit DP that
``digits.count_below`` gave up for ``count_in_ap`` at modulus 1.
"""

import bisect
import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np

from digitlab import arcs as arcs_mod
from digitlab import digits as digits_mod
from digitlab import expsums as exp_mod
from digitlab import fourier as fou_mod
from digitlab import verify
from digitlab.errors import CapExceededError, DomainError
from digitlab.summation import pairwise_sum


def bits(values):
    """The IEEE bit patterns of floats or complexes, for exact equality
    that also tells -0.0 from 0.0 and compares nan with nan."""
    arr = np.atleast_1d(values)
    return arr.astype(np.complex128 if arr.dtype.kind == "c"
                      else np.float64).view(np.int64).tolist()


def support_below(table, x):
    """``MangoldtTable.support_below`` by a mask over the whole table and
    one np.log of the selected primes per call."""
    if x > table.limit + 1:
        raise DomainError(f"sieve limit {table.limit} does not cover "
                          f"n < {x}")
    sel = table.entries_n < x
    return (table.entries_n[sel],
            np.log(table.entries_p[sel].astype(np.float64)))


def poly_range(P, x):
    """All n >= 0 with P(n) < x, ascending: doubling and bisection find
    end, the first n past ``P.increasing_from()`` with P(n) >= x, and every
    n < end is tested, one scalar P(n) each."""
    start = P.increasing_from()
    hi = start + 1
    while P(hi) < x:
        hi *= 2
    end = bisect.bisect_left(range(hi + 1), x, lo=start + 1, key=P)
    cap = exp_mod.POLY_SCAN_CAP
    if end > cap:
        raise CapExceededError(
            f"polynomial scan of {end} values exceeds cap {cap}")
    return [n for n in range(end) if P(n) < x]


def poly_support_below(P, x):
    """``IntPolynomial.support_below`` as P evaluated again at each n of
    ``poly_range``, keeping the values >= 0."""
    values = [v for v in map(P, poly_range(P, x)) if v >= 0]
    points = np.array(values,
                      dtype=np.int64 if x <= exp_mod.INT64_LIMIT else object)
    return points, np.ones(points.size)


def weight_vector(weight, Q):
    """w(n) for n < Q as one Q-point vector, one ``np.bincount`` of the
    weight's support: what the pipeline's column spectrum replaced."""
    points, weights = exp_mod.weight_support(weight, Q)
    return np.bincount(points, weights=weights, minlength=Q)


def enumerate_members(ds, k):
    """The members of [0, q**k) in increasing order, one recursive
    generator per digit."""
    full = ds.q - ds.s
    cap = digits_mod.ENUMERATION_CAP
    if full ** k > cap:
        raise CapExceededError(
            f"enumeration of {full}^{k} members exceeds cap {cap}")

    def rec(prefix_value, remaining):
        if remaining == 0:
            yield prefix_value
            return
        for d in ds.allowed:
            yield from rec(prefix_value * ds.q + d, remaining - 1)

    yield from rec(0, k)


def count_below(ds, x, k):
    """#{n < x : contains(ds, n, k)} by its own digit DP, O(k*q): a count
    of the allowed digits below each digit of x, most significant first."""
    q = ds.q
    if x < 0 or x > q ** k:
        raise DomainError(f"x={x} not in [0, {q}^{k}]")
    full = q - ds.s
    if x == q ** k:
        return full ** k
    exc = set(ds.excluded)
    # allowed_below[d] = number of allowed digits strictly less than d
    allowed_below = [0] * (q + 1)
    for d in range(q):
        allowed_below[d + 1] = allowed_below[d] + (0 if d in exc else 1)
    total = 0
    for i, xd in enumerate(digits_mod._msb_digits(x, q, k)):
        rem = k - i - 1
        total += allowed_below[xd] * full ** rem
        if xd in exc:
            break
    return total


_dirichlet_approx = arcs_mod.dirichlet_approx


def dirichlet_approx(a, Q, D0):
    """``arcs.dirichlet_approx`` with beta as the float of the exact
    Fraction a/Q - ell/d."""
    approx = _dirichlet_approx(a, Q, D0)
    return dataclasses.replace(
        approx, beta=float(Fraction(a, Q) - Fraction(approx.ell, approx.d)))


def minsum(N, M, alpha):
    """sum over 1 <= n <= N of min(M, 1/||alpha n||), one n at a time."""
    total = []
    for n in range(1, N + 1):
        dist = fou_mod.distance_to_integer(alpha * n)
        total.append(M if dist == 0.0 else min(M, 1.0 / dist))
    return float(pairwise_sum(total)) if total else 0.0


def prime_expsum(weight, x, alpha):
    """``expsums.expsum`` as the literal sum of w(n) e(n alpha), one np.exp
    per term; for Lambda, the von Mangoldt sum.

    alpha is a float, a Fraction, or a pair (num, den) taken as it stands,
    unreduced: a rational alpha has the phases (n*num % den)/den, reduced
    and divided in Python ints.
    """
    ns, ws = weight.support_below(x)
    if isinstance(alpha, float):
        phases = np.mod(ns.astype(np.float64) * alpha, 1.0)
    else:
        num, den = (alpha.as_integer_ratio() if isinstance(alpha, Fraction)
                    else alpha)
        phases = np.array([n * num % den / den for n in ns.tolist()],
                          dtype=np.float64)
    terms = ws * np.exp(2j * np.pi * phases)
    return complex(np.add.reduce(terms)) if terms.size else complex(0.0)


def scalar_terms(ds, k, weight):
    """``verify._scalar_terms`` per point: F(a/Q) S_w(-a/Q) / Q for every
    a < Q as ``eval_product`` at a/Q times ``expsum`` at the exact
    frequency -a/Q, divided by Q."""
    Q = ds.q ** k
    ctx = fou_mod.FourierContext(ds, k)
    return [fou_mod.eval_product(ctx, a)
            * exp_mod.expsum(weight, Q, Fraction(-a, Q)) / Q
            for a in range(Q)]


def digit_factor(ds, theta):
    """sum of e(d*theta) over the allowed digits, at one theta."""
    return pairwise_sum([cmath.exp(2j * math.pi * ((d * float(theta)) % 1.0))
                         for d in ds.allowed])


def lemma_inequality(thetas):
    """The family ``verify.lemma_inequality`` with one scalar
    ``distance_to_integer`` call per t."""
    margin = verify._min_margin([
        4 * math.exp(-2 * fou_mod.distance_to_integer(t) ** 2)
        - (2 + 2 * math.cos(2 * math.pi * t))
        for t in thetas])
    return [verify._check("2+2cos(2 pi t) <= 4 exp(-2 ||t||^2)",
                          margin >= -1e-12, f"min margin {margin:.3e}")]


def digit_factor_bound(ds, theta):
    """The bound on |digit_factor| at one theta, by its two branches."""
    q = ds.q
    dist = fou_mod.distance_to_integer(float(theta))
    if ds.consecutive_flag:
        if dist == 0.0:
            return 2.0 * q
        return min(2.0 * q, 1.0 / dist)
    if dist == 0.0:
        return float(q)
    return min(float(q), ds.s + 1.0 / (2.0 * dist))


def digit_factor_bound_holds(sets, thetas):
    """The family ``verify.digit_factor_bound_holds`` as a loop over the
    points, with Python's abs() for the modulus."""
    thetas = list(thetas)
    margin = verify._min_margin([
        digit_factor_bound(ds, t) - abs(digit_factor(ds, t))
        for ds in sets for t in thetas])
    return [verify._check("digit factor bound dominates on grid",
                          margin >= -1e-9, f"min margin {margin:.3e}")]


def reduced_power_fracs(theta, q, k):
    """(q**i * theta) mod 1 for i < k, reduced exactly as Fractions, then
    as floats: the reduction the integer residues of
    ``fourier._position_residues`` replaced.  A finite float converts to a
    Fraction without loss, so each output is the correctly rounded float
    of the exact residue."""
    if not isinstance(theta, Fraction):
        if not math.isfinite(theta):
            raise DomainError(f"theta={theta} is not finite")
        theta = Fraction(theta)
    out = []
    t = theta % 1
    for _ in range(k):
        out.append(float(t))
        t = (t * q) % 1
    return out


def has_prime_factor_coprime_to(d, q):
    """Whether d has a prime factor not dividing q, by trial division."""
    m = d
    for p in range(2, m + 1):
        if p * p > m:
            break
        while m % p == 0:
            if q % p != 0:
                return True
            m //= p
    return m > 1 and q % m != 0
