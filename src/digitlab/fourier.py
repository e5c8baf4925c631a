"""Fourier transform of a digit-restricted set and its bound constants.

The transform of the set truncated to [0, q**k) factorizes as a product of
k single-digit factors.  Every complex exponential outside the oracle
``eval_direct`` is the kernel ``e(phase)`` = exp(2 pi i phase), of a float
or a float64 array.  One rule gives every root of unity at a rational:
``residues`` reduces n*num mod den exactly, and ``unit`` takes e() of the
correctly rounded float r/den of a residue r.  A frequency theta is an
exact num/den (a/q**k for the grid's point a, a dyadic rational for a
finite float), position i has the residue p_i = num*q**i mod den, and
digit d there has the root unit(d*p_i mod den, den); the product formula,
the engine's digit vectors, the engine's twiddles unit(d*m, Q) and
``expsums.expsum`` at a Fraction all take it.  Only the float-theta
entry points ``digit_factor`` and ``expsum`` at a float keep the float
phase of their input, and take e() of it.  The constants C_q and alpha
are plain functions of (q, s, consecutive); ``digitlab constants``
reports them beside empirical_Cq.

Every transform of the package is one engine, a blocked four-step FFT
(Bailey, "FFTs in external or hierarchical memory", 1990) on the
(radix, W) view of the grid, a = t*W + m (``engine_shape``).  A signal
enters it by the transforms of its rows (``_four_step``): the column
pass multiplies them by the twiddles unit(r*m, Q) and takes batched
length-q transforms over the rows, BLOCK points at a time.  The digit
indicator (modulated by e(n*theta0)) has the rows v_0[r]*G[m], with G one
inverse FFT over the high k-1 digits (``_indicator``); a real weight has
the real FFTs of its rows (``column_spectrum``).  Full grids
F(theta0 + a/q**k), a < q**k: grid_values stores the blocks; l1_grid_sum
sums their moduli and never holds more than the q**(k-1)-point high grid
plus one block.  At theta0 = 0 the indicator is real, so
F(-a/Q) = conj F(a/Q): in the (q, W = q**(k-1)) view of the grid, column
W - m holds the conjugates of column m with the rows reversed.  So
half_grid_values, the circle pipeline's grid, holds a <= q**k//2 only
(``_half_grid``), and both it and the theta0 = 0 L1 sum ask the engine
for the half spectrum: the columns m <= W//2, each block with the slice
of its columns in mirror_paired (the indices whose mirror is another
index), which count twice.  A real weight's spectrum takes the same half
layout, reduced in the pass that makes it: to its moduli
(half_weight_moduli), or to its products with F (half_products, one pass
on shared twiddles), so no complex weight spectrum is held.  The product
formula (eval_product, eval_product_real) stays the scalar oracle of the
engine.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digits import DigitSet, bounded_power, check_cap, enumerate_members
from .errors import DomainError
from .summation import pairwise_sum

GRID_CAP = 10 ** 8
# Points per block of the transform engine (_transform_blocks).
BLOCK = 2 ** 14
# Products n * num below this are exact in int64 (see residues).
INT64_LIMIT = 2 ** 63
# Integers up to this are exact in float64: unit's residues and den while
# den <= it, and a*d - ell*Q and Q*d of arcs' beta while Q*D0 < it.
EXACT_FLOAT_LIMIT = 1 << 53


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


def residues(ns: np.ndarray, num: int, den: int) -> np.ndarray:
    """(n * num) mod den for an array of integers n, exactly.

    int64 when no product can reach 2**63, Python ints otherwise; both
    give the same residues, floor-mod as Python's %.
    """
    big = max(abs(int(ns.max())), abs(int(ns.min())), 1) if ns.size else 1
    if big * abs(num) < INT64_LIMIT and den < INT64_LIMIT:
        return (ns.astype(np.int64) * num) % den
    return (ns.astype(object) * num) % den


def e(phase):
    """e(phase) = exp(2 pi i phase): the one complex exponential of the
    package outside the oracle ``eval_direct``.

    A float (np.float64 too) gives the complex cmath.exp(2j*pi*phase).  A
    float64 array gives a new complex128 array, each entry with the bits
    of the scalar call: the product 2j*pi*phase and the complex np.exp
    (equal to cmath.exp) are the same IEEE operations.  The argument is
    left unchanged.
    """
    if isinstance(phase, float):
        return cmath.exp(2j * math.pi * phase)
    z = 2j * np.pi * phase
    return np.exp(z, out=z)


def unit(r, den: int):
    """e(r/den) from the correctly rounded float r/den of a residue
    0 <= r < den: the one root of unity at a rational.

    An int r gives a complex, e() of the Python int/int quotient.  An
    array of r gives the array, e() of the quotients, each entry with the
    bits of the scalar call: up to den = ``EXACT_FLOAT_LIMIT`` the
    residues and den are exact floats, so one float64 division rounds
    once; past it the residues are divided as Python ints, since
    converting r to a float first would round twice.
    """
    if isinstance(r, int):
        return e(r / den)
    # a copy of r, divided in place: the engine's twiddles are a block of
    # points per call
    phase = np.array(r, np.float64 if den <= EXACT_FLOAT_LIMIT else object)
    phase /= den
    return e(phase.astype(np.float64, copy=False))


def _position_residues(q: int, k: int, num: int, den: int) -> list:
    """p_i = num * q**i mod den for i < k, by an integer recursion."""
    out, r = [], num % den
    for _ in range(k):
        out.append(r)
        r = r * q % den
    return out


def _roots(ds: DigitSet, p: int, den: int) -> list:
    """e(d*p/den) over the allowed digits d: unit(d*p mod den, den).

    Scalar calls, so the roots and the product are Python complex: numpy
    divides a complex128 by a real through its reciprocal, so a caller's
    eval_product(...) / Q would round otherwise.
    """
    return [unit(d * p % den, den) for d in ds.allowed]


def _product(ds: DigitSet, k: int, num: int, den: int) -> complex:
    """The product formula at num/den, one pairwise sum per position."""
    result = complex(1.0)
    for p in _position_residues(ds.q, k, num, den):
        result *= pairwise_sum(_roots(ds, p, den))
    return result


def eval_product(ctx: FourierContext, a: int) -> complex:
    """Product-formula evaluation at the rational frequency a/q**k; any
    integer numerator names its frequency."""
    return _product(ctx.ds, ctx.k, a, ctx.Q)


def digit_factor(ds: DigitSet, theta):
    """The single-digit factor: sum of e(d*theta) over allowed digits d.

    It keeps the float phase (d*theta) % 1.0 of its input and takes e()
    of it.  A float64 array of theta gives the array of factors.  Each
    allowed digit then gives one column e((d*theta) % 1.0), and
    ``pairwise_sum`` adds the columns with the tree the scalar call uses
    for its terms; the product, the floor mod, e() and each addition are
    the same IEEE operations, so each entry has the bits of the scalar
    call at its theta.
    """
    theta = np.asarray(theta, np.float64) if np.ndim(theta) else float(theta)
    return pairwise_sum([e((d * theta) % 1.0) for d in ds.allowed])


def eval_product_real(ctx: FourierContext, theta) -> complex:
    """Product-formula evaluation at a real (or Fraction) frequency."""
    return _product(ctx.ds, ctx.k, *_ratio(theta))


def eval_direct(ds: DigitSet, k: int, a: int) -> complex:
    """Oracle: literal sum of e(n * a/Q) over the enumerated members,
    Q = q**k, with a reduced mod Q."""
    members = list(enumerate_members(ds, k))  # its cap, before q**k
    Q = ds.q ** k
    a %= Q
    terms = [cmath.exp(2j * math.pi * ((n * a) % Q) / Q) for n in members]
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
    for p in _position_residues(ctx.ds.q, ctx.k, num, den):
        v = np.zeros(ctx.ds.q, dtype=np.complex128)
        v[list(ctx.ds.allowed)] = _roots(ctx.ds, p, den)
        vecs.append(v)
    return vecs


def mirror_paired(n: int) -> slice:
    """The indices 0 < i < n/2 of range(n) whose mirror n - i is another
    index; i = 0 and i = n/2 are their own mirrors."""
    return slice(1, n - n // 2)


def engine_shape(q: int, k: int) -> tuple:
    """(radix, W) of the engine's view of the q**k-point grid as a
    (radix, W) array, a = t*W + m: (q, q**(k-1)), or (1, 1) at k = 0,
    where the grid is one point."""
    return (q, q ** (k - 1)) if k else (1, 1)


def _four_step(Q: int, half: bool, sources: list):
    """The engine's column pass: yield (cols, blocks, twice), blocks[i] the
    block of sources[i] at the grid's columns m in ``cols``.

    A source (low, high) is a transform in four-step form: low[r, m] (a
    radix x W array, or its first W//2 + 1 columns under ``half``) holds
    the transforms over the rows, and high (None for 1) a factor per
    column, so that the block is
    block[t, j] = high[m] * sum_r low[r, m] e(r*(t*W + m)/Q),
    m = cols.start + j: the length-radix inverse DFTs of low[:, cols] times
    the twiddles unit(r*m, Q), which every source of a call shares.  A
    block holds at most BLOCK points (one column if radix > BLOCK).
    ``half`` stops at the columns m <= W//2 and then ``twice`` slices the
    block's columns in mirror_paired(W), whose mirror W - m is a column
    not transformed; without ``half`` every ``twice`` is empty.
    """
    radix = len(sources[0][0])
    width = Q // radix
    r = np.arange(radix, dtype=np.int64)[:, None]
    step = max(1, BLOCK // radix)
    stop, paired = ((width // 2 + 1, mirror_paired(width)) if half
                    else (width, slice(0, 0)))
    for start in range(0, stop, step):
        cols = slice(start, min(start + step, stop))
        m = np.arange(cols.start, cols.stop, dtype=np.int64)
        # r*m < Q is the residue of the twiddle e(r*m/Q)
        twiddles = unit(r * m, Q)
        blocks = []
        for low, high in sources:
            block = np.fft.ifft(low[:, cols] * twiddles, axis=0,
                                norm="forward")
            if high is not None:
                block *= high[cols]
            blocks.append(block)
        lo = max(start, paired.start)
        hi = max(lo, min(cols.stop, paired.stop))
        yield cols, blocks, slice(lo - start, hi - start)


def _indicator(ctx: FourierContext, theta0) -> tuple:
    """The source (low, high) of F(theta0 + a/Q) for ``_four_step``.

    The indicator is kron(v_{k-1}, ..., v_0) of the digit vectors, so its
    row transforms are v_0[r] * G[m]: low is v_0 as a column, broadcast
    over the W columns, and high is G[m] = sum_n kron(v_{k-1}, ..., v_1)[n]
    e(n*m/W), one length-W inverse FFT.  At k = 0 the set is {0}, and one
    length-1 vector gives F = 1 at one point.
    """
    vecs = _digit_vectors(ctx, theta0) or [np.ones(1, dtype=np.complex128)]
    high = np.fft.ifft(
        functools.reduce(np.kron, vecs[:0:-1],
                         np.ones(1, dtype=np.complex128)),
        norm="forward",
    )
    return np.broadcast_to(vecs[0][:, None], (len(vecs[0]), high.size)), high


def _transform_blocks(ctx: FourierContext, theta0, half=False):
    """Yield (cols, block, twice), block[t, j] = F(theta0 + (t*Q/q + m)/Q)
    at m = cols.start + j: the grid's columns, block by block, as
    ``_four_step`` cuts them (``half`` for theta0 = 0 only).

    Four-step FFT (Cooley-Tukey, in Bailey's blocked layout) of the
    indicator's source (``_indicator``).  A caller that consumes blocks one
    at a time holds the Q/q-point high grid plus O(BLOCK).
    """
    for cols, (block,), twice in _four_step(ctx.Q, half,
                                            [_indicator(ctx, theta0)]):
        yield cols, block, twice


def column_spectrum(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[r, m] = sum_j rows[r, j] e(j*m/W) for m <= W//2, W = the rows'
    length: the row transforms of a real signal x[radix*j + r] = rows[r, j]
    in the four-step, the conjugates of the rows' real FFTs (x is real, so
    the columns m > W//2 are the conjugates of W - m)."""
    out[...] = np.fft.rfft(rows, axis=1)
    return np.conjugate(out, out=out)


def _half_grid(Q: int, sources: list, combine, dtype) -> np.ndarray:
    """The points a <= Q//2 of a grid X with X(Q - a) = conj X(a): the
    blocks combine(*blocks) of the half spectrum of ``sources`` in one
    pass of ``_four_step``.

    In the (radix, W) view (a = t*W + m), Q - a = (radix-1-t)*W + W-m, so
    X[t, m] = conj X[radix-1-t, W-m] for 0 < m < W.  Each block writes its
    own points a <= Q//2 and the conjugates of the points W - m it mirrors
    (for a real grid, the same values).  The last partial row holds only
    columns m <= W//2: Q//2 + 1 is (q//2)*W + 1 for even Q and
    ((q-1)/2)*W + W//2 + 1 for odd Q.  Memory: the Q//2 + 1 points of the
    result and one block per source, beside the sources.
    """
    width = Q // len(sources[0][0])
    out = np.empty(Q // 2 + 1, dtype=dtype)
    rows, rem = divmod(out.size, width)
    body = out[:rows * width].reshape(rows, width)
    tail = out[rows * width:]
    for cols, blocks, twice in _four_step(Q, True, sources):
        block = combine(*blocks)
        start = cols.start
        body[:, cols] = block[:rows]
        if start < rem:
            tail[start:cols.stop] = block[rows, :rem - start]
        # mirrored columns W - m for m in [lo, hi), from rows q-1, q-2, ...
        lo, hi = start + twice.start, start + twice.stop
        np.conjugate(block[::-1][:rows, twice][:, ::-1],
                     out=body[:, width - hi + 1:width - lo + 1])
    return out


def check_grid_size(q: int, k: int) -> None:
    """Reject q**k > ``GRID_CAP`` without building q**k."""
    check_cap(bounded_power(q, k, GRID_CAP), GRID_CAP,
              f"grid of q^k = {q}^{k} points")


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

    The indicator is real, so F(-theta) = conj F(theta): only the columns
    m <= W//2 are transformed (by the engine's blocks, so they equal
    grid_values bit for bit) and ``_half_grid`` writes them and their
    mirrors.  Memory: the Q//2 + 1 points of the result, the high grid and
    one block.
    """
    check_grid_size(ctx.ds.q, ctx.k)
    return _half_grid(ctx.Q, [_indicator(ctx, 0.0)], lambda f: f,
                      np.complex128)


def half_weight_moduli(spectrum: np.ndarray, Q: int) -> np.ndarray:
    """|S_w(-a/Q)|, S_w(-a/Q) = sum_n w(n) e(-a*n/Q), for a = 0..Q//2,
    from the column spectrum of a real weight w on [0, Q)
    (``column_spectrum`` of its rows in the (radix, W) view).

    The source (spectrum, None) of ``_four_step`` gives
    T(a) = sum_n w(n) e(a*n/Q) = conj S_w(-a/Q), and w is real, so the
    half grid holds the whole spectrum.  np.hypot ignores the signs of
    its arguments, so the modulus of each block T is that of S_w bit for
    bit, and equals abs() of the Python complex.  The complex S_w is
    never held: the memory is the Q//2 + 1 floats of the result and one
    block, beside the spectrum.
    """
    return _half_grid(Q, [(spectrum, None)],
                      lambda t: np.hypot(t.real, t.imag), np.float64)


def _real_product(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Re(f * conj t) = f.re*t.re + f.im*t.im, blockwise."""
    prod = f.real * t.real
    prod += f.imag * t.imag
    return prod


def half_products(ctx: FourierContext, spectrum: np.ndarray) -> np.ndarray:
    """Re(F(a/Q) * S_w(-a/Q)) for a = 0..Q//2, in one pass of the engine.

    ``spectrum`` is the column spectrum of a real weight w on [0, Q), as
    for ``half_weight_moduli``.  Each block of F (bit for bit that of
    half_grid_values) and of T = conj S_w(-a/Q) comes from the same
    twiddles, and their product Re(F * conj T) goes into the half grid:
    both factors are conjugate-symmetric, so the product at Q - a is the
    one at a.  Neither F nor S_w is held: the memory is the Q//2 + 1
    floats of the result, the high grid and the blocks, beside the
    spectrum.
    """
    check_grid_size(ctx.ds.q, ctx.k)
    return _half_grid(ctx.Q, [_indicator(ctx, 0.0), (spectrum, None)],
                      _real_product, np.float64)


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
    for p in _position_residues(q, k, num, den):
        sq_sum += min(p / den, 1.0 - p / den) ** 2
    return LinfDecayRecord(lhs=lhs, rhs_shape=math.exp(-sq_sum / q))
