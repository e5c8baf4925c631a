"""Fourier transform of a digit-restricted set and its bound constants.

The transform of the set truncated to [0, q**k) factorizes as a product of
k single-digit factors.  A rational frequency a/q**k is named by its
integer numerator a, as grid_values and half_grid_values index their
points, and evaluated with all phases reduced mod q**k in exact integers;
real frequencies are reduced mod 1 exactly, as Fractions (a float is a
dyadic rational), before any floating evaluation.  The constants C_q and
alpha are plain functions of (q, s, consecutive); ``digitlab constants``
reports them beside empirical_Cq.

Full grids F(theta0 + a/q**k), a < q**k, come from one transform engine, a
blocked four-step FFT of the digit indicator (modulated by e(n*theta0)):
an inverse FFT over the high k-1 digits, then batched length-q transforms
over the low digit, BLOCK points at a time.  grid_values stores the blocks;
l1_grid_sum sums their moduli and never holds more than the q**(k-1)-point
high grid plus one block.  At theta0 = 0 the indicator is real, so
F(-a/Q) = conj F(a/Q): in the (q, W = q**(k-1)) view of the grid, column
W - m holds the conjugates of column m with the rows reversed.  So
half_grid_values, the circle pipeline's grid, holds a <= q**k//2 only,
and both it and the theta0 = 0 L1 sum transform just the columns
m <= W//2; mirror_paired names the indices whose mirror is another index,
which count twice.  The product formula (eval_product, eval_product_real)
stays the scalar oracle of the engine.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .digits import DigitSet, enumerate_members
from .errors import CapExceededError, DomainError
from .summation import pairwise_sum

GRID_CAP = 10 ** 8
# Points per block of the transform engine (_transform_blocks).
BLOCK = 2 ** 14


@dataclass(frozen=True)
class FourierContext:
    """Precomputed per-position phase residues for one (digit set, k)."""

    ds: DigitSet
    k: int

    @property
    def Q(self) -> int:
        return self.ds.q ** self.k

    @cached_property
    def phase_tables(self) -> tuple:
        """phase_tables[i][j] = allowed[j] * q**i mod q**k, exact integers."""
        Q = self.Q
        q = self.ds.q
        tables = []
        p = 1
        for _ in range(self.k):
            tables.append(tuple((d * p) % Q for d in self.ds.allowed))
            p *= q
        return tuple(tables)


def eval_product(ctx: FourierContext, a: int) -> complex:
    """Product-formula evaluation at the rational frequency a/q**k; a is
    reduced mod q**k, so any integer numerator names its frequency."""
    Q = ctx.Q
    a %= Q
    result = complex(1.0)
    for table in ctx.phase_tables:
        fac = pairwise_sum(
            [cmath.exp(2j * math.pi * ((r * a) % Q) / Q) for r in table]
        )
        result *= fac
    return result


def _reduced_power_fracs(theta, q: int, k: int):
    """(q**i * theta) mod 1 for i < k, reduced exactly, then as floats.

    A finite float is an exact dyadic rational, so it is converted to a
    Fraction without loss; every reduction is then exact and each output
    is the correctly rounded float of the exact residue.
    """
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


def digit_factor(ds: DigitSet, theta):
    """The single-digit factor: sum of e(d*theta) over allowed digits d.

    A float64 array of theta gives the array of factors.  Each allowed
    digit then gives one column np.exp(2j*pi*((d*theta) % 1.0)), and
    ``pairwise_sum`` adds the columns with the tree the scalar call uses
    for its terms; the product, the floor mod, the complex np.exp (equal
    to cmath.exp) and each addition are the same IEEE operations, so each
    entry has the bits of the scalar call at its theta.
    """
    if np.ndim(theta):
        theta, exp = np.asarray(theta, dtype=np.float64), np.exp
    else:
        theta, exp = float(theta), cmath.exp
    return pairwise_sum(
        [exp(2j * math.pi * ((d * theta) % 1.0)) for d in ds.allowed])


def eval_product_real(ctx: FourierContext, theta) -> complex:
    """Product-formula evaluation at a real (or Fraction) frequency."""
    result = complex(1.0)
    for fr in _reduced_power_fracs(theta, ctx.ds.q, ctx.k):
        result *= digit_factor(ctx.ds, fr)
    return result


def eval_direct(ds: DigitSet, k: int, a: int) -> complex:
    """Oracle: literal sum of e(n * a/Q) over the enumerated members,
    Q = q**k, with a reduced mod Q."""
    Q = ds.q ** k
    a %= Q
    terms = [
        cmath.exp(2j * math.pi * ((n * a) % Q) / Q)
        for n in enumerate_members(ds, k)
    ]
    return pairwise_sum(terms)


def distance_to_integer(x):
    """||x||, the distance to the nearest integer; exact for a Fraction.

    A float64 array gives the array of distances, each with the bits of
    the scalar call: np.mod is Python's floor mod, and no nan or signed
    zero reaches np.minimum where it would pick otherwise than min().
    """
    if not isinstance(x, float):  # a float, np.float64 too, is scalar
        if isinstance(x, Fraction):
            fr = x % 1
            return float(min(fr, 1 - fr))
        if np.ndim(x):
            fr = np.mod(np.asarray(x, dtype=np.float64), 1.0)
            return np.minimum(fr, 1.0 - fr)
    fr = float(x) % 1.0
    return min(fr, 1.0 - fr)


def digit_factor_bound(ds: DigitSet, theta):
    """Proven upper bound for |digit_factor(ds, theta)|.

    Generic sets get min(q, s + 1/(2*||theta||)); a run of excluded digits
    gets the sharper min(2q, 1/||theta||).  ||theta|| = 0 selects the first
    branch of the min.

    A float64 array of theta gives the array of bounds, a scalar theta a
    float.  1/0 is inf, which ``np.where(rest < cap, rest, cap)`` turns
    into the cap as ``min(cap, rest)`` would: the first branch at
    ||theta|| = 0, and the cap at a nan theta.
    """
    q = ds.q
    dist = distance_to_integer(np.atleast_1d(np.asarray(theta, np.float64)))
    with np.errstate(divide="ignore", over="ignore"):
        if ds.consecutive_flag:
            cap, rest = 2.0 * q, 1.0 / dist
        else:
            cap, rest = float(q), ds.s + 1.0 / (2.0 * dist)
    out = np.where(rest < cap, rest, cap)
    return out if np.ndim(theta) else float(out[0])


def _digit_vectors(ctx: FourierContext, theta0) -> list:
    """v_i[d] = e(d * {q**i theta0}) at allowed digits d, 0 elsewhere, i < k."""
    q = ctx.ds.q
    allowed = list(ctx.ds.allowed)
    vecs = []
    for fr in _reduced_power_fracs(theta0, q, ctx.k):
        v = np.zeros(q, dtype=np.complex128)
        v[allowed] = [cmath.exp(2j * math.pi * ((d * fr) % 1.0))
                      for d in allowed]
        vecs.append(v)
    return vecs


def mirror_paired(n: int) -> slice:
    """The indices 0 < i < n/2 of range(n) whose mirror n - i is another
    index; i = 0 and i = n/2 are their own mirrors."""
    return slice(1, n - n // 2)


def _transform_blocks(ctx: FourierContext, theta0, stop=None):
    """Yield (cols, block) with block[t, j] = F(theta0 + (t*Q/q + m)/Q),
    m = cols.start + j: the columns m < stop (default all Q/q) of the
    grid, column block by column block.

    Four-step FFT (Cooley-Tukey, in Bailey's blocked layout).  Positions
    1..k-1 contribute G[m] = sum_n kron(v_{k-1}, ..., v_1)[n] e(n*m/(Q/q)),
    one length-Q/q inverse FFT; position 0 contributes, for each m, the
    length-q inverse DFT over digits of v_0[d] e(d*m/Q).  A block holds at
    most BLOCK points (one column if q > BLOCK), so a caller that consumes
    blocks one at a time holds the Q/q-point high grid plus O(BLOCK).
    """
    Q = ctx.Q
    # k = 0: the set is {0}; one length-1 vector gives F = 1 at one point.
    vecs = _digit_vectors(ctx, theta0) or [np.ones(1, dtype=np.complex128)]
    low = vecs[0][:, None]
    width = Q // len(low)
    high = np.fft.ifft(
        functools.reduce(np.kron, vecs[:0:-1],
                         np.ones(1, dtype=np.complex128)),
        norm="forward",
    )
    d = np.arange(len(low), dtype=np.int64)[:, None]
    step = max(1, BLOCK // len(low))
    stop = width if stop is None else stop
    for start in range(0, stop, step):
        cols = slice(start, min(start + step, stop))
        m = np.arange(cols.start, cols.stop, dtype=np.int64)
        # d*m < Q, so the twiddle phase is an exact integer over Q
        twiddle = np.exp((2j * np.pi / Q) * (d * m))
        block = np.fft.ifft(low * twiddle, axis=0, norm="forward")
        block *= high[cols]
        yield cols, block


def check_grid_size(q: int, k: int) -> None:
    """Reject q**k > ``GRID_CAP``, naming Q as ``q^k = {q}^{k}``: a str of
    Q itself fails past 4,300 digits."""
    if q ** k > GRID_CAP:
        raise CapExceededError(
            f"grid of q^k = {q}^{k} points exceeds cap {GRID_CAP}")


def grid_values(ctx: FourierContext, theta0=0.0) -> np.ndarray:
    """All q**k transform values F(theta0 + a/q**k), a = 0..q**k-1.

    No report and no ``verify`` check reads it: the tests keep it as the
    full-grid reference for the engine.

    Blocked FFT of the digit indicator (see _transform_blocks): each block
    is written into its columns of the (q, q**(k-1)) view of the result.
    Work: q**k complex exponentials plus FFTs of lengths q**(k-1) and q.
    Memory: the q**k-point result, the q**(k-1)-point high grid and one
    BLOCK-point block.
    """
    check_grid_size(ctx.ds.q, ctx.k)
    out = np.empty(ctx.Q, dtype=np.complex128)
    for cols, block in _transform_blocks(ctx, theta0):
        out.reshape(len(block), -1)[:, cols] = block
    return out


def half_grid_values(ctx: FourierContext) -> np.ndarray:
    """F(a/q**k) for a = 0..q**k//2; the rest of the grid is its mirror.

    The indicator is real, so F(-theta) = conj F(theta).  In the (q, W)
    view of the grid (a = t*W + m, W = q**(k-1)), Q - a = (q-1-t)*W + W-m,
    so G[t, m] = conj G[q-1-t, W-m] for 0 < m < W.  Only the columns
    m <= W//2 are transformed (by _transform_blocks, so they equal
    grid_values bit for bit); each block writes its own points a <= Q//2
    and the conjugates of the points W - m it mirrors.  The last partial
    row holds only columns m <= W//2: Q//2 + 1 is (q//2)*W + 1 for even Q
    and ((q-1)/2)*W + W//2 + 1 for odd Q.  Memory: the Q//2 + 1 points of
    the result, the high grid and one block.
    """
    check_grid_size(ctx.ds.q, ctx.k)
    width = ctx.Q // ctx.ds.q if ctx.k else 1
    paired = mirror_paired(width)
    out = np.empty(ctx.Q // 2 + 1, dtype=np.complex128)
    rows, rem = divmod(out.size, width)
    body = out[:rows * width].reshape(rows, width)
    tail = out[rows * width:]
    for cols, block in _transform_blocks(ctx, 0.0, stop=width // 2 + 1):
        start = cols.start
        body[:, cols] = block[:rows]
        if start < rem:
            tail[start:cols.stop] = block[rows, :rem - start]
        # mirrored columns W - m for m in [lo, hi), from rows q-1, q-2, ...
        lo, hi = max(start, paired.start), min(cols.stop, paired.stop)
        if lo < hi:
            np.conjugate(block[::-1][:rows, lo - start:hi - start][:, ::-1],
                         out=body[:, width - hi + 1:width - lo + 1])
    return out


def l1_grid_sum(ctx: FourierContext, theta0=0.0) -> float:
    """Sum of |F(theta0 + a/q**k)| over the full grid a < q**k.

    Sums the blocks of _transform_blocks as they come, so it never holds
    q**k points: its arrays are the q**(k-1)-point high grid and one
    BLOCK-point block.  Each block is summed by columns first.  At
    theta0 = 0 only the columns m <= W//2 of the (q, W) view are
    transformed: column W - m holds the moduli of column m, rows reversed,
    so the columns in mirror_paired(W) count twice.  Other theta0 sum all
    W columns once.  Either sum may differ from np.abs(grid_values).sum()
    in the last bits, by the summation order.
    """
    check_grid_size(ctx.ds.q, ctx.k)
    width = ctx.Q // ctx.ds.q if ctx.k else 1
    if theta0 == 0:
        stop, paired = width // 2 + 1, mirror_paired(width)
    else:
        stop, paired = width, slice(0, 0)
    total = 0.0
    for cols, block in _transform_blocks(ctx, theta0, stop):
        sums = np.abs(block).sum(axis=0)
        lo, hi = max(cols.start, paired.start), min(cols.stop, paired.stop)
        if lo < hi:
            sums[lo - cols.start:hi - cols.start] *= 2.0
        total += float(sums.sum())
    return total


def empirical_Cq(ctx: FourierContext) -> float:
    """l1_grid_sum(ctx)**(1/k) / (q * log q), the grid at theta = 0.

    At k = 0 the sum is the single value F = 1, whose root is taken as 1.
    """
    q, k = ctx.ds.q, ctx.k
    exponent = 1.0 / k if k else 0.0
    return l1_grid_sum(ctx, 0.0) ** exponent / (q * math.log(q))


# ----------------------------------------------------------------------
# Constants C_q / C_{q,s} / alpha_q / alpha_{q,s}
# ----------------------------------------------------------------------

def analytic_Cq(q: int, s: int = 1, consecutive: bool = False) -> float:
    """Upper end of the L1-lemma bracket for the constant C_q.

    s excluded digits give 1 + (2+s)/log q (so 1 + 3/log q for s=1); a run
    of consecutive excluded digits gives 2 + 2/log q.
    """
    if q < 3:
        raise DomainError("q must be >= 3")
    lq = math.log(q)
    if consecutive and s >= 2:
        return 2.0 + 2.0 / lq
    return 1.0 + (2.0 + s) / lq


def alpha(q: int, s: int = 1, consecutive: bool = False) -> float:
    """Hybrid-lemma exponent: log(C * (q/(q-s)) * log q) / log q."""
    c = analytic_Cq(q, s, consecutive)
    lq = math.log(q)
    return math.log(c * (q / (q - s)) * lq) / lq


def consecutive_alpha_limit(q: int, s: int) -> float:
    """Limiting exponent log(q/(q-s))/log q for a consecutive excluded run.

    This is the density exponent the consecutive-run refinement attains up
    to an epsilon that vanishes as q grows; the full hybrid formula carries
    a log(C log q)/log q overhead that only dies off at astronomical q.
    """
    if not 0 < s < q:
        raise DomainError("need 0 < s < q")
    return math.log(q / (q - s)) / math.log(q)


# ----------------------------------------------------------------------
# L-infinity decay
# ----------------------------------------------------------------------

@dataclass
class LinfDecayRecord:
    lhs: float        # |F(l/d + eps)| / (q-s)**k
    rhs_shape: float  # exp(-(1/q) * sum_i ||q**i (l/d + eps)||**2)
    ell: int
    d: int
    eps: float
    k: int


def _has_prime_factor_coprime_to(d: int, q: int) -> bool:
    m = d
    for p in range(2, m + 1):
        if p * p > m:
            break
        while m % p == 0:
            if q % p != 0:
                return True
            m //= p
    return m > 1 and q % m != 0


def linf_decay_report(
    ctx: FourierContext, ell: int, d: int, eps: float
) -> LinfDecayRecord:
    """Check the constant-free chain behind the pointwise decay bound.

    Returns the normalized transform magnitude at l/d + eps together with
    the proof's intermediate quantity exp(-(1/q) * sum ||q**i theta||**2);
    the former never exceeds the latter for admissible (l, d, eps).
    """
    q, k = ctx.ds.q, ctx.k
    if d <= 0:
        raise DomainError("d must be positive")
    if math.gcd(ell % d, d) != 1:
        raise DomainError(f"gcd(ell, d) != 1 for ell={ell}, d={d}")
    if d ** 3 >= q ** k:
        raise DomainError(f"d={d} is not < q^(k/3)")
    if not _has_prime_factor_coprime_to(d, q):
        raise DomainError(f"d={d} has no prime factor coprime to q={q}")
    if abs(eps) >= 0.5 * q ** (-2.0 * k / 3.0):
        raise DomainError(f"|eps|={abs(eps)} is not < 1/(2 q^(2k/3))")
    theta = Fraction(ell, d) + Fraction(eps)
    val = eval_product_real(ctx, theta)
    lhs = abs(val) / (q - ctx.ds.s) ** k
    sq_sum = 0.0
    for fr in _reduced_power_fracs(theta, q, k):
        sq_sum += min(fr, 1.0 - fr) ** 2
    rhs_shape = math.exp(-sq_sum / q)
    return LinfDecayRecord(lhs=lhs, rhs_shape=rhs_shape, ell=ell, d=d,
                           eps=eps, k=k)
