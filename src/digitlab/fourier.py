"""Fourier transform of a digit-restricted set and its bound constants.

The transform of the set truncated to [0, q**k) factorizes as a product of
k single-digit factors.  One rule reduces every frequency: theta is an
exact num/den (a/q**k for the grid's point a, a dyadic rational for a
finite float), position i has the residue p_i = num*q**i mod den, and
digit d there has the phase (d*p_i mod den)/den, a correctly rounded
float, before e() is applied; the product formula and the engine's digit
vectors both take it.  The constants C_q and alpha are plain functions
of (q, s, consecutive); ``digitlab constants`` reports them beside
empirical_Cq.

Full grids F(theta0 + a/q**k), a < q**k, come from one transform engine, a
blocked four-step FFT of the digit indicator (modulated by e(n*theta0)):
an inverse FFT over the high k-1 digits, then batched length-q transforms
over the low digit, BLOCK points at a time.  grid_values stores the blocks;
l1_grid_sum sums their moduli and never holds more than the q**(k-1)-point
high grid plus one block.  At theta0 = 0 the indicator is real, so
F(-a/Q) = conj F(a/Q): in the (q, W = q**(k-1)) view of the grid, column
W - m holds the conjugates of column m with the rows reversed.  So
half_grid_values, the circle pipeline's grid, holds a <= q**k//2 only,
and both it and the theta0 = 0 L1 sum ask the engine for the half
spectrum: the columns m <= W//2, each block with the slice of its
columns in mirror_paired (the indices whose mirror is another index),
which count twice.  The product formula (eval_product, eval_product_real)
stays the scalar oracle of the engine.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import DigitSet, enumerate_members
from .errors import CapExceededError, DomainError
from .summation import pairwise_sum

GRID_CAP = 10 ** 8
# Points per block of the transform engine (_transform_blocks).
BLOCK = 2 ** 14


@dataclass(frozen=True)
class FourierContext:
    """A digit set and the number k of digit positions."""

    ds: DigitSet
    k: int

    @property
    def Q(self) -> int:
        return self.ds.q ** self.k


def _ratio(theta) -> tuple:
    """theta as an exact (num, den); a finite float is a dyadic rational."""
    if not isinstance(theta, Fraction) and not math.isfinite(theta):
        raise DomainError(f"theta={theta} is not finite")
    return Fraction(theta).as_integer_ratio()


def _residues(q: int, k: int, num: int, den: int) -> list:
    """p_i = num * q**i mod den for i < k, by an integer recursion."""
    out, r = [], num % den
    for _ in range(k):
        out.append(r)
        r = r * q % den
    return out


def _roots(ds: DigitSet, p: int, den: int) -> list:
    """e(d*p/den) over the allowed digits d, each phase the correctly
    rounded float (d*p mod den)/den."""
    return [cmath.exp(2j * math.pi * (d * p % den / den)) for d in ds.allowed]


def _product(ds: DigitSet, k: int, num: int, den: int) -> complex:
    """The product formula at num/den, one pairwise sum per position."""
    result = complex(1.0)
    for p in _residues(ds.q, k, num, den):
        result *= pairwise_sum(_roots(ds, p, den))
    return result


def eval_product(ctx: FourierContext, a: int) -> complex:
    """Product-formula evaluation at the rational frequency a/q**k; any
    integer numerator names its frequency."""
    return _product(ctx.ds, ctx.k, a, ctx.Q)


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
    return _product(ctx.ds, ctx.k, *_ratio(theta))


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
    """v_i[d] = e(d * {q**i theta0}) at allowed digits d, else 0, i < k."""
    num, den = _ratio(theta0)
    vecs = []
    for p in _residues(ctx.ds.q, ctx.k, num, den):
        v = np.zeros(ctx.ds.q, dtype=np.complex128)
        v[list(ctx.ds.allowed)] = _roots(ctx.ds, p, den)
        vecs.append(v)
    return vecs


def mirror_paired(n: int) -> slice:
    """The indices 0 < i < n/2 of range(n) whose mirror n - i is another
    index; i = 0 and i = n/2 are their own mirrors."""
    return slice(1, n - n // 2)


def _transform_blocks(ctx: FourierContext, theta0, half=False):
    """Yield (cols, block, twice), block[t, j] = F(theta0 + (t*Q/q + m)/Q)
    at m = cols.start + j: the grid's columns, block by block.  All
    W = Q/q columns by default.  ``half`` (for theta0 = 0 only) stops at
    the columns m <= W//2, and then ``twice`` slices the block's columns
    in mirror_paired(W), whose mirror W - m is a column not transformed;
    without ``half`` every ``twice`` is empty.

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
    stop, paired = ((width // 2 + 1, mirror_paired(width)) if half
                    else (width, slice(0, 0)))
    for start in range(0, stop, step):
        cols = slice(start, min(start + step, stop))
        m = np.arange(cols.start, cols.stop, dtype=np.int64)
        # d*m < Q, so the twiddle phase is an exact integer over Q
        twiddle = np.exp((2j * np.pi / Q) * (d * m))
        block = np.fft.ifft(low * twiddle, axis=0, norm="forward")
        block *= high[cols]
        lo = max(start, paired.start)
        hi = max(lo, min(cols.stop, paired.stop))
        yield cols, block, slice(lo - start, hi - start)


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
    for cols, block, _ in _transform_blocks(ctx, theta0):
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
    out = np.empty(ctx.Q // 2 + 1, dtype=np.complex128)
    rows, rem = divmod(out.size, width)
    body = out[:rows * width].reshape(rows, width)
    tail = out[rows * width:]
    for cols, block, twice in _transform_blocks(ctx, 0.0, half=True):
        start = cols.start
        body[:, cols] = block[:rows]
        if start < rem:
            tail[start:cols.stop] = block[rows, :rem - start]
        # mirrored columns W - m for m in [lo, hi), from rows q-1, q-2, ...
        lo, hi = start + twice.start, start + twice.stop
        np.conjugate(block[::-1][:rows, twice][:, ::-1],
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
    total = 0.0
    for _, block, twice in _transform_blocks(ctx, theta0, half=theta0 == 0):
        sums = np.abs(block).sum(axis=0)
        sums[twice] *= 2.0
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


def _has_prime_factor_coprime_to(d: int, q: int) -> bool:
    """Whether d >= 1 has a prime factor not dividing q: strip the
    factors d shares with q and see what is left."""
    while (g := math.gcd(d, q)) > 1:
        d //= g
    return d > 1


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
    if not abs(eps) < 0.5 * q ** (-2.0 * k / 3.0):  # nan fails too
        raise DomainError(f"|eps|={abs(eps)} is not < 1/(2 q^(2k/3))")
    theta = Fraction(ell, d) + Fraction(eps)
    lhs = abs(eval_product_real(ctx, theta)) / (q - ctx.ds.s) ** k
    num, den = _ratio(theta)
    sq_sum = 0.0
    for p in _residues(q, k, num, den):
        sq_sum += min(p / den, 1.0 - p / den) ** 2
    return LinfDecayRecord(lhs=lhs, rhs_shape=math.exp(-sq_sum / q))
