"""Fourier transform of a digit-restricted set and its bound constants.

The transform of the set truncated to [0, q**k) factorizes as a product of
k single-digit factors.  Rational frequencies a/q**k are evaluated with all
phases reduced mod q**k in exact integers; real frequencies are reduced
mod 1 in extended precision (mpmath) before any floating evaluation.

Full grids F(theta0 + a/q**k), a < q**k, come from one transform engine, a
blocked four-step FFT of the digit indicator (modulated by e(n*theta0)):
an inverse FFT over the high k-1 digits, then batched length-q transforms
over the low digit, BLOCK points at a time.  grid_values stores the blocks;
l1_grid_sum sums their moduli and never holds more than the q**(k-1)-point
high grid plus one block.  The product formula (eval_product,
eval_product_real) stays the scalar oracle of the engine.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import mpmath
import numpy as np

from .digits import DigitSet, enumerate_members
from .errors import CapExceededError, DomainError
from .summation import pairwise_sum

GRID_CAP = 10 ** 8
# Points per block of the transform engine (_transform_blocks).
BLOCK = 2 ** 14

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RationalFrequency:
    """An exact frequency a/Q; the numerator is normalized into [0, Q)."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.denominator <= 0:
            raise DomainError("denominator must be positive")
        object.__setattr__(
            self, "numerator", self.numerator % self.denominator
        )

    @property
    def residue(self) -> int:
        return self.numerator


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


def eval_product(ctx: FourierContext, freq: RationalFrequency) -> complex:
    """Product-formula evaluation at an exact rational frequency a/q**k."""
    if freq.denominator != ctx.Q:
        raise DomainError(
            f"denominator {freq.denominator} != q^k = {ctx.Q}; "
            "use eval_product_real for other frequencies"
        )
    Q = ctx.Q
    a = freq.residue
    result = complex(1.0)
    for table in ctx.phase_tables:
        fac = pairwise_sum(
            [cmath.exp(2j * math.pi * ((r * a) % Q) / Q) for r in table]
        )
        result *= fac
    return result


def _reduced_power_fracs(theta, q: int, k: int):
    """(q**i * theta) mod 1 for i < k, as floats, reduced exactly enough.

    Fractions reduce exactly; floats go through mpmath at a precision that
    absorbs the q**k blow-up of the reduction.
    """
    if isinstance(theta, Fraction):
        out = []
        t = theta % 1
        for _ in range(k):
            out.append(float(t))
            t = (t * q) % 1
        return out
    prec = 80 + int(k * math.log2(q)) + 16
    with mpmath.workprec(prec):
        t = mpmath.mpf(theta)
        t -= mpmath.floor(t)
        out = []
        for _ in range(k):
            out.append(float(t))
            t = (t * q) % 1
        return out


def digit_factor(ds: DigitSet, theta: float) -> complex:
    """The single-digit factor: sum of e(d*theta) over allowed digits d."""
    return pairwise_sum(
        [cmath.exp(2j * math.pi * ((d * float(theta)) % 1.0)) for d in ds.allowed]
    )


def eval_product_real(ctx: FourierContext, theta) -> complex:
    """Product-formula evaluation at a real (or Fraction) frequency."""
    fracs = _reduced_power_fracs(theta, ctx.ds.q, ctx.k)
    allowed = ctx.ds.allowed
    result = complex(1.0)
    for fr in fracs:
        fac = pairwise_sum(
            [cmath.exp(2j * math.pi * ((d * fr) % 1.0)) for d in allowed]
        )
        result *= fac
    return result


def eval_direct(
    ds: DigitSet, k: int, freq: RationalFrequency, cap: int = 10 ** 8
) -> complex:
    """Oracle: literal sum of e(n * a/Q) over the enumerated members."""
    Q = freq.denominator
    a = freq.residue
    terms = [
        cmath.exp(2j * math.pi * ((n * a) % Q) / Q)
        for n in enumerate_members(ds, k, cap=cap)
    ]
    return pairwise_sum(terms)


def distance_to_integer(x: float) -> float:
    fr = x % 1.0
    return min(fr, 1.0 - fr)


def digit_factor_bound(ds: DigitSet, theta: float) -> float:
    """Proven upper bound for |digit_factor(ds, theta)|.

    Generic sets get min(q, s + 1/(2*||theta||)); a run of excluded digits
    gets the sharper min(2q, 1/||theta||).  ||theta|| = 0 selects the first
    branch of the min.
    """
    q = ds.q
    dist = distance_to_integer(float(theta))
    if ds.consecutive_flag:
        if dist == 0.0:
            return 2.0 * q
        return min(2.0 * q, 1.0 / dist)
    if dist == 0.0:
        return float(q)
    return min(float(q), ds.s + 1.0 / (2.0 * dist))


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


def _transform_blocks(ctx: FourierContext, theta0):
    """Yield (cols, block) with block[t, j] = F(theta0 + (t*Q/q + m)/Q),
    m = cols.start + j: the whole grid, column block by column block.

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
    for start in range(0, width, step):
        cols = slice(start, min(start + step, width))
        m = np.arange(cols.start, cols.stop, dtype=np.int64)
        # d*m < Q, so the twiddle phase is an exact integer over Q
        twiddle = np.exp((2j * np.pi / Q) * (d * m))
        block = np.fft.ifft(low * twiddle, axis=0, norm="forward")
        block *= high[cols]
        yield cols, block


def grid_values(
    ctx: FourierContext, theta0=0.0, cap: int = GRID_CAP
) -> np.ndarray:
    """All q**k transform values F(theta0 + a/q**k), a = 0..q**k-1.

    Blocked FFT of the digit indicator (see _transform_blocks): each block
    is written into its columns of the (q, q**(k-1)) view of the result.
    Work: q**k complex exponentials plus FFTs of lengths q**(k-1) and q.
    Memory: the q**k-point result, the q**(k-1)-point high grid and one
    BLOCK-point block.
    """
    if ctx.Q > cap:
        raise CapExceededError(f"grid of {ctx.Q} points exceeds cap {cap}")
    out = np.empty(ctx.Q, dtype=np.complex128)
    for cols, block in _transform_blocks(ctx, theta0):
        out.reshape(len(block), -1)[:, cols] = block
    return out


def l1_grid_sum(ctx: FourierContext, theta0=0.0, cap: int = GRID_CAP) -> float:
    """Sum of |F(theta0 + a/q**k)| over the full grid a < q**k.

    Sums the blocks of _transform_blocks as they come, so it never holds
    q**k points: its arrays are the q**(k-1)-point high grid and one
    BLOCK-point block.
    """
    if ctx.Q > cap:
        raise CapExceededError(f"grid of {ctx.Q} points exceeds cap {cap}")
    return sum(float(np.abs(block).sum())
               for _, block in _transform_blocks(ctx, theta0))


def empirical_Cq(
    ctx: FourierContext, theta_samples: Sequence[float], cap: int = GRID_CAP
) -> float:
    """max over samples of l1_grid_sum(theta)**(1/k) / (q * log q).

    At k = 0 the sum is the single value F = 1, whose root is taken as 1.
    """
    if not theta_samples:
        raise DomainError("theta_samples must be nonempty")
    q, k = ctx.ds.q, ctx.k
    exponent = 1.0 / k if k else 0.0
    return max(
        l1_grid_sum(ctx, t, cap=cap) ** exponent / (q * math.log(q))
        for t in theta_samples
    )


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


def alpha_q(ds: DigitSet) -> float:
    return alpha(ds.q, ds.s, ds.consecutive_flag)


def consecutive_alpha_limit(q: int, s: int) -> float:
    """Limiting exponent log(q/(q-s))/log q for a consecutive excluded run.

    This is the density exponent the consecutive-run refinement attains up
    to an epsilon that vanishes as q grows; the full hybrid formula carries
    a log(C log q)/log q overhead that only dies off at astronomical q.
    """
    if not 0 < s < q:
        raise DomainError("need 0 < s < q")
    return math.log(q / (q - s)) / math.log(q)


@dataclass
class ConstantsReport:
    q: int
    s: int
    consecutive: bool
    Cq_analytic: float
    alpha: float
    Cq_empirical: Optional[float] = None
    k: Optional[int] = None


def constants_report(
    q: int,
    s: int = 1,
    consecutive: bool = False,
    ctx: Optional[FourierContext] = None,
    theta_samples: Sequence[float] = (0.0,),
) -> ConstantsReport:
    rep = ConstantsReport(
        q=q,
        s=s,
        consecutive=consecutive,
        Cq_analytic=analytic_Cq(q, s, consecutive),
        alpha=alpha(q, s, consecutive),
    )
    if ctx is not None:
        rep.Cq_empirical = empirical_Cq(ctx, theta_samples)
        rep.k = ctx.k
    return rep


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
    t = theta % 1
    for _ in range(k):
        fr = float(t)
        sq_sum += min(fr, 1.0 - fr) ** 2
        t = (t * q) % 1
    rhs_shape = math.exp(-sq_sum / q)
    return LinfDecayRecord(lhs=lhs, rhs_shape=rhs_shape, ell=ell, d=d,
                           eps=eps, k=k)
