"""Circle-method pipeline: arc decomposition, main terms, singular series.

The counting sum over a digit-restricted set equals (1/q**k) times the
grid sum of the set's Fourier transform against the weight's exponential
sum; every a/q**k is Dirichlet-approximated, classified major/minor and
accumulated per class.  Class totals sum to the pipeline total by
construction (one shared accumulation tree).  Both weights list their
support below Q through ``expsums.weight_support``, so the weight's rows
(``np.bincount``) and the direct count have one body each; only the main
term of ``theorem_comparison`` tells the weights apart.

Every transform is the engine's four-step (``fourier``).  The weight
never becomes a Q-point vector: ``_weight_vector`` counts its rows
w(q*j + r), j < W = Q/q, a few at a time, and real-FFTs each into the
column spectrum, which the engine's column pass turns into S_w on the
twiddles it also gives the digit indicator.  The digit indicator and the
weight are real, so F(-theta) = conj F(theta) and S(-theta) =
conj S(theta), and every stage holds a <= Q/2 only.  ``circle_pipeline``
runs one fused pass (``fourier.half_products``) that writes the terms
Re(F*S)/Q and holds neither F nor S; the term at Q - a is the conjugate
of the term at a, in the same class, so the ledger sums the terms twice
for 0 < a < Q/2, and its imaginary parts are exactly 0.0.  ``scan``
reads the per-point stages from ``pipeline_stages``: the moduli
|S_w| (``fourier.half_weight_moduli``), the half grid and the class
codes, in that order, so that the column spectrum is freed before the
grid exists.  Both paths share ``_grid``, ``_weight_vector``, the
engine's half layout and ``_classification``, and check every argument
before the first transform.

An arc class is its int8 code, 0 major, 1 minor_denominator or 2
minor_offset, and ``ARC_CLASSES[code]`` is the class's name in the
reports.  ``classify`` returns the code of one point, and
``_classification`` the codes of the grid for a <= Q/2 only:
1 - x = [0; 1, a1 - 1, a2, ...] when x = [0; a1, a2, ...], so a/Q and
(Q - a)/Q share d and have opposite beta, and the code of Q - a is the
code of a.  Every point lies near its reduced approximation
ell/d <= 1/2, |a*d - ell*Q| <= Q//(D0 + 1).  While D0 reaches the
threshold, a point that is not minor_denominator has d below the
threshold, so codes start as minor_denominator and only the
neighbourhoods of those fractions are visited; when the threshold
exceeds D0, no d reaches it, so codes start as major and only the d
small enough for a minor_offset are visited.  Where
|a*d - ell*Q|*(D0 + d) < Q, Legendre's criterion makes ell/d the
Dirichlet approximation and the code is set directly; the thin shell
left over goes through a batch Euclid, which steps the
continued-fraction state of a block of numerators at once in numpy,
keeping the last convergent with denominator <= D0.  Should the
fractions outnumber the points, the whole half is visited as the
neighbourhood of 0/1.  One loop writes every code; the proofs are in
``_classification``.  The offset beta is the exact integer
a*d - ell*Q divided by float(Q*d), which is correctly rounded and so
equals the scalar one, an int quotient, bit for bit while Q*D0 < 2**53;
larger Q*D0 is rejected.  ``dirichlet_approx`` and ``classify`` are the
scalar oracles of ``_classification``.  The singular-series pair count
lifts the top digit: for J >= 2,
P(r + t*q**(J-1)) == P(r) + t*q**(J-1)*P'(r) mod q**J, so it visits the
q**(J-1) residues r (Horner's rule mod q**J on int64 steps, then
``contains_mask`` on the low J - 1 digits) and counts the allowed top
digits t < q in closed form from gcd(P'(r), q).
``contains_mask`` also gives the direct count its digit test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .digits import DigitSet, bounded_power, contains_mask
from .errors import CapExceededError, DomainError
from .expsums import IntPolynomial, MangoldtTable, Weight, weight_support
from .fourier import (EXACT_FLOAT_LIMIT, FourierContext, check_grid_size,
                      column_spectrum, engine_shape, half_grid_values,
                      half_products, half_weight_moduli, mirror_paired)

# Bounds q**J in the pair count.  Its Horner values stay below
# q**J * q**(J-1) (q**J * q**J when J = 1) <= PAIR_COUNT_CAP**2, which is
# below 2**63, so int64 never overflows.
PAIR_COUNT_CAP = 10 ** 7
# Numerators handled per numpy step; bounds the working arrays at a few MB
# whatever Q is.
BLOCK = 1 << 14
# Residues r < q**(J-1) lifted per numpy step of the pair count.  The lift
# holds more arrays per residue than a plain Horner loop did, and they set
# the peak RSS of ``count --q 50 --exclude 7 --k 3 --weight poly``
# (medians of 7 runs): 30.95 MB with steps of 2^14 (``BLOCK``), 30.40 MB
# with 2^13 and 30.38 MB with 2^12, against 30.43 MB for the q**J Horner
# loop in steps of 2^14 that the lift replaced.
PAIR_BLOCK = 1 << 13
# Points of the weight's rows counted and real-FFT'd per step (512 KB of
# floats, at least one row).  Several rows per call run the FFT on
# several at once: ``_weight_vector`` at Q = 10^5 took 1.22 ms in two
# steps of at most 6 rows, as in one step of all 10, and 1.86 ms a row
# at a time (medians of 30).  The one step of 10 rows raised ``scan``'s
# peak RSS there by 0.2 MiB.  At Q = 10^6 a row of 10^5 points is one
# step; two rows a step raised ``arcs``' peak RSS by 0.9 MB.
ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class RationalApprox:
    """Dirichlet approximation a/Q = ell/d + beta with d <= D0."""

    ell: int
    d: int
    beta: float
    Q: int


def dirichlet_approx(a: int, Q: int, D0: int) -> RationalApprox:
    """Best continued-fraction convergent of a/Q with denominator <= D0.

    Guarantees gcd(ell, d) = 1, d <= D0 and |beta| <= 1/(d*D0).
    """
    if not 0 <= a < Q:
        raise DomainError(f"a={a} not in [0, {Q})")
    if D0 < 1:
        raise DomainError("D0 must be positive")
    h1, h2 = 1, 0  # numerators h_{n-1}, h_{n-2}
    k1, k2 = 0, 1  # denominators
    x, y = a, Q
    best = (0, 1)
    while y:
        t = x // y
        h1, h2 = t * h1 + h2, h1
        k1, k2 = t * k1 + k2, k1
        x, y = y, x - t * y
        if k1 <= D0:
            best = (h1, k1)
        else:
            break
    ell, d = best
    # int / int is correctly rounded: the float nearest a/Q - ell/d
    beta = (a * d - ell * Q) / (Q * d)
    return RationalApprox(ell=ell, d=d, beta=beta, Q=Q)


# The report name of each class code.
ARC_CLASSES = ("major", "minor_denominator", "minor_offset")


def arc_threshold(Q: int, A_major: float) -> float:
    """(log Q)**A; a NaN or overflowing threshold is a ``DomainError``."""
    try:
        thr = math.log(Q) ** A_major
    except OverflowError:
        thr = math.inf
    if not math.isfinite(thr):
        raise DomainError(f"A = {A_major!r}: (log Q)**A is {thr} at Q = {Q}")
    return thr


def classify(approx: RationalApprox, A_major: float) -> int:
    """The class code: 0 (major) iff max(d, Q |beta|) is strictly below
    (log Q)**A, else 1 (minor_denominator) if d is not, else 2
    (minor_offset).

    Q = q**k is the grid size ``approx.Q``, so the approximation carries
    all the class depends on besides A.  Boundary points are minor; the
    denominator coordinate is checked first.
    """
    thr = arc_threshold(approx.Q, A_major)
    if approx.d >= thr:
        return 1
    if approx.Q * abs(approx.beta) >= thr:
        return 2
    return 0


def _weight_vector(weight: Weight, q: int, k: int) -> np.ndarray:
    """The column spectrum (``fourier.column_spectrum``) of w on [0, q**k)
    from its rows w(radix*j + r), j < W, in the engine's (radix, W) view
    (``fourier.engine_shape``).

    Each row is exact: distinct prime powers get 0.0 + log p, and a
    polynomial value the count of its n, a small integer.  The weight's
    support is sorted by row once; then the rows are counted
    (``np.bincount``) and transformed ``ROW_BLOCK`` points (at least one
    row) at a time, so the q**k-point weight vector is never held.  The benchmark's
    ``arcs.weight`` span times this function by its name.
    """
    radix, width = engine_shape(q, k)
    points, weights = weight_support(weight, radix * width)
    j, cells = np.divmod(points, radix)  # n = radix*j + r, cells holds r
    del points
    starts = np.concatenate(([0], np.cumsum(np.bincount(cells,
                                                        minlength=radix))))
    # the support sorted by row, stably, so each row keeps the order of n;
    # the smallest key that holds r makes numpy's stable sort a radix sort
    # up to 16 bits
    order = np.argsort(cells.astype(np.min_scalar_type(radix - 1)),
                       kind="stable")
    cells *= width
    cells += j  # n's cell r*W + j in the rows
    del j
    cells = cells[order]
    weights = weights[order]
    spectrum = np.empty((radix, width // 2 + 1), dtype=np.complex128)
    step = max(1, ROW_BLOCK // width)
    for lo in range(0, radix, step):
        hi = min(lo + step, radix)
        rows = np.bincount(cells[starts[lo]:starts[hi]] - lo * width,
                           weights=weights[starts[lo]:starts[hi]],
                           minlength=(hi - lo) * width)
        column_spectrum(rows.reshape(hi - lo, width), out=spectrum[lo:hi])
    return spectrum


@dataclass
class ArcLedger:
    """Per-class sums and point counts, each a list indexed by class code
    (see ``ARC_CLASSES``); the sums add up to the pipeline total."""

    sums: List[complex]
    counts: List[int]
    D0: int
    A_major: float
    threshold: float

    @property
    def total(self) -> complex:
        return self.sums[0] + self.sums[1] + self.sums[2]


def _batch_dirichlet(a: np.ndarray, Q: int, D0: int):
    """``dirichlet_approx`` for every numerator in ``a`` at once, for
    D0 >= 1 with Q*D0 < 2**53 (``_threshold`` checks both).

    Returns int64 arrays ell, d and the float64 offsets beta, equal bit for
    bit to the scalar fields.  The scalar recursion is stepped on arrays; a
    numerator leaves the live set when its remainder hits 0 or its next
    denominator exceeds D0, and only then are its ell and d written.
    """
    n = a.size
    ell = np.zeros(n, dtype=np.int64)
    d = np.ones(n, dtype=np.int64)
    live = np.arange(n)
    h1, h2 = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    k1, k2 = np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)
    x, y = a.astype(np.int64), np.full(n, Q, dtype=np.int64)
    while live.size:
        t = x // y
        h1, h2 = t * h1 + h2, h1
        k1, k2 = t * k1 + k2, k1
        x, y = y, x - t * y
        ok = k1 <= D0
        keep = ok & (y != 0)
        out = np.flatnonzero(~keep)
        if out.size:
            # the last convergent with denominator <= D0 is this one or,
            # if this one is too large, the one before (the first has d = 1)
            at, ok_out = live[out], ok[out]
            ell[at] = np.where(ok_out, h1[out], h2[out])
            d[at] = np.where(ok_out, k1[out], k2[out])
            idx = np.flatnonzero(keep)
            live, h1, h2, k1, k2, x, y = (
                v.take(idx) for v in (live, h1, h2, k1, k2, x, y))
    # exact integers below 2**53, so one correctly rounded division
    beta = (a * d - ell * Q).astype(np.float64) / (Q * d).astype(np.float64)
    return ell, d, beta


def _codes(d: np.ndarray, beta: np.ndarray, Q: int, thr: float) -> np.ndarray:
    """The class code of ``classify`` from batch fields d and beta."""
    return np.where(d >= thr, 1, np.where(Q * np.abs(beta) >= thr, 2, 0))


def _neighbourhoods(Q: int, r: int, dmax: int):
    """Yield (a, ell, d), at most BLOCK points at a time: every a <= Q//2
    with |a*d - ell*Q| <= r, for each reduced ell/d in [0, 1/2] with
    d <= dmax.

    The radius r is in units of 1/(Q*d): the neighbourhood of ell/d is
    the a with |a/Q - ell/d| <= r/(Q*d).  The fractions are listed in
    groups of consecutive d, about BLOCK at a time, and each group's
    neighbourhoods are cut into chunks of BLOCK.
    """
    half = Q // 2
    d_lo = 1
    while d_lo <= dmax:
        # d_lo..d_hi hold about (d_hi**2 - d_lo**2)/4 numerators ell <= d/2
        d_hi = min(dmax, math.isqrt(d_lo * d_lo + 4 * BLOCK))
        per_d = np.arange(d_lo, d_hi + 1, dtype=np.int64)
        sizes = per_d // 2 + 1
        d = np.repeat(per_d, sizes)
        ell = np.arange(d.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        reduced = np.gcd(ell, d) == 1
        ell, d = ell[reduced], d[reduced]
        # exact bounds: ceil((ell*Q - r)/d) and floor((ell*Q + r)/d)
        lo = np.maximum(-((r - ell * Q) // d), 0)
        n = np.maximum(np.minimum((ell * Q + r) // d, half) - lo + 1, 0)
        ends = np.cumsum(n)
        total = int(ends[-1])
        shift = lo - (ends - n)  # a = i + shift[f] for the i-th point
        for start in range(0, total, BLOCK):
            i = np.arange(start, min(start + BLOCK, total), dtype=np.int64)
            f = np.searchsorted(ends, i, side="right")
            yield i + shift[f], ell[f], d[f]
        d_lo = d_hi + 1


def _threshold(Q: int, D0: int, A_major: float) -> float:
    """The threshold (log Q)**A of ``_classification`` once its arguments
    are checked: D0 >= 1, Q*D0 < 2**53 (so beta is exact) and a finite
    threshold (``arc_threshold``); any other is a ``DomainError``."""
    if D0 < 1:
        raise DomainError("D0 must be positive")
    if Q * D0 >= EXACT_FLOAT_LIMIT:
        raise DomainError(
            f"Q*D0 = {Q * D0} not below 2^53: beta would not be exact")
    return arc_threshold(Q, A_major)


def _classification(Q: int, D0: int, A_major: float) -> np.ndarray:
    """int8 class code of a/Q for a = 0..Q//2 (see ``ARC_CLASSES``).

    The code of a > Q//2 is the code of Q - a, which is not stored.
    Proof that codes[a] == codes[Q - a] for 0 < a < Q: take x = a/Q < 1/2
    (else swap a and Q - a; a = Q/2 is its own mirror and is computed
    directly) and its Euclid expansion x = [0; a1, ..., an], where
    a1 >= 2 and an >= 2 if n >= 2.  Then 1 - x = [0; 1, a1 - 1, a2, ...,
    an], and that is again the expansion Euclid yields, since its last
    quotient is an >= 2, or a1 - 1 >= 2 when n = 1 (a1 = 2, n = 1 is
    x = 1/2, excluded).  So the convergents of 1 - x are 0/1, 1/1, then
    (d - ell)/d for each convergent ell/d of x past 0/1: the same
    denominators in the same order, with d = 1 twice.  The last one with
    d <= D0 therefore has the same d; its numerator is d - ell, so
    beta(Q - a) = (1 - x) - (d - ell)/d = -beta(a), where D0 < a1 gives
    the pair 0/1, 1/1 and beta = x, -x.  Both coordinates of ``classify``
    (d and |beta|) agree, hence so do the codes.  The one point where
    beta is not negated is the tie a = Q/2 with D0 = 1: it is its own
    mirror, Euclid stops at 0/1 and beta = +1/2 (not the -1/2 of 1/1).
    It lies in the computed half, and only |beta| is classified.

    Euclid runs only where three lemmas leave the code open.  For
    a <= Q//2 let x = a/Q, let ell/d be its last convergent with d <= D0
    (what ``dirichlet_approx`` returns), delta = a*d - ell*Q,
    r = Q//(D0 + 1) and thr = (log Q)**A.

    Superset lemma: always |delta| <= r and ell/d <= 1/2.  Proof: if
    x != ell/d, the next convergent has a denominator d' >= D0 + 1 and
    |x - ell/d| <= 1/(d*d'), so |delta| = Q*d*|x - ell/d| <= Q/(D0 + 1),
    an integer bound since delta is one.  The convergents of x <= 1/2 lie
    between its first two, 0/1 and 1/a1 with a1 >= 2, so in [0, 1/2].
    So every a lies in the neighbourhood |delta| <= r of its own reduced
    ell/d in [0, 1/2] (``_neighbourhoods``), and only neighbourhoods whose
    d can give a code other than the start value are visited.  If
    thr <= D0, a code other than 1 (major or minor_offset) needs d < thr:
    codes start at 1, and d <= dmax = ceil(thr) - 1 is visited.

    Offset lemma: if thr > D0, no code is 1, since d <= D0 < thr, and a
    code 2 needs Q*|beta| = |delta|/d >= thr, so d <= r/thr.  Codes
    start at 0, and d <= min(D0, floor(r/thr) + 1) is visited; the + 1
    covers the rounding of the floats, and a needless visit is harmless.

    Inner-zone lemma: if ell/d is reduced, d <= D0 and
    |delta|*(D0 + d) < Q, then ell/d is the last convergent of x with
    denominator <= D0.  Proof: |x - ell/d| < 1/(d*(D0 + d)) <= 1/(2*d*d),
    so ell/d is a convergent of x by Legendre's criterion (Hardy-Wright,
    Thm 184).  It is one of Euclid's: the only other candidate, the
    penultimate convergent (p_n - p_{n-1})/(q_n - q_{n-1}) of the
    expansion ending in 1, lies 1/(q_n*(q_n - q_{n-1})) >= 1/(2*d*d) from
    x, as q_n >= 2*q_{n-1}.  If x = ell/d it is the last convergent.
    Otherwise the next one, with denominator d', has
    |x - ell/d| > 1/(d*(d + d')), since the complete quotient is below the
    next partial quotient plus 1; so d + d' > D0 + d and d' > D0.  In
    that inner zone the code is set from d and beta = delta/(Q*d), the
    float division of exact integers that ``_batch_dirichlet`` makes, so
    beta is the same bit for bit.  The rest of each neighbourhood, a
    shell about one point wide on each side when D0**2 is near Q, goes
    through ``_batch_dirichlet``.  Every code written is the true one, so
    neighbourhoods that overlap may be written in any order.

    When the fractions would outnumber the points,
    dmax*(dmax + 1)/2 > Q//2 + 1 (only a D0 above about sqrt(Q) gets
    there), the whole half is visited instead as the neighbourhood of 0/1
    at radius Q//2: the inner-zone lemma sets a < Q/(D0 + 1) directly and
    the rest goes through ``_batch_dirichlet`` in the same loop.
    """
    thr = _threshold(Q, D0, A_major)
    half, r = Q // 2, Q // (D0 + 1)
    start, dmax = ((1, math.ceil(thr) - 1) if thr <= D0
                   else (0, min(D0, math.floor(r / thr) + 1)))
    if dmax * (dmax + 1) > 2 * (half + 1):
        r, dmax = half, 1
    codes = np.full(half + 1, start, dtype=np.int8)
    for a, ell, d in _neighbourhoods(Q, r, dmax):
        delta = a * d - ell * Q
        beta = delta.astype(np.float64) / (Q * d).astype(np.float64)
        shell = np.flatnonzero(np.abs(delta) * (D0 + d) >= Q)
        if shell.size:
            _, d[shell], beta[shell] = _batch_dirichlet(a[shell], Q, D0)
        codes[a] = _codes(d, beta, Q, thr)
    return codes


@dataclass
class PipelineStages:
    """The per-point stages that ``scan`` writes at a/Q, a <= Q//2.

    ``fhat[a]`` is F(a/Q), ``s_abs[a]`` is |S_w(-a/Q)| and ``codes[a]``
    the int8 class code of a/Q (see ``ARC_CLASSES``).  The digit indicator
    and the weight are real and the codes mirror (``_classification``), so
    the point Q - a has fhat conj(fhat[a]), s_abs s_abs[a] and code
    codes[a].
    """

    Q: int
    fhat: np.ndarray
    s_abs: np.ndarray
    codes: np.ndarray


def _grid(ds: DigitSet, k: int, D0: Optional[int], A_major: float) -> tuple:
    """(Q, D0, threshold) of the pipeline, D0 defaulting to isqrt(Q), once
    the grid size and the arguments of ``_classification`` are checked
    (``_threshold``): before any stage allocates.  ``arcs`` and ``scan``
    run it before they build the weight, so a bad D0 costs no sieve."""
    check_grid_size(ds.q, k)
    Q = ds.q ** k
    D0 = max(1, math.isqrt(Q)) if D0 is None else D0
    return Q, D0, _threshold(Q, D0, A_major)


def pipeline_stages(
    ds: DigitSet,
    k: int,
    weight: Weight,
    D0: Optional[int] = None,
    A_major: float = 3.0,
) -> PipelineStages:
    """|S_w|, half grid and class codes; D0 defaults to isqrt(Q).

    The weight's column spectrum lives only as the argument of
    ``half_weight_moduli``, so it is freed before the half grid exists and
    the peaks of the two stages do not overlap.  One pass that also made
    the grid would hold the column spectrum beside both stage arrays.
    """
    Q, D0, _ = _grid(ds, k, D0, A_major)
    s_abs = half_weight_moduli(_weight_vector(weight, ds.q, k), Q)
    fhat = half_grid_values(FourierContext(ds, k))
    codes = _classification(Q, D0, A_major)
    return PipelineStages(Q=Q, fhat=fhat, s_abs=s_abs, codes=codes)


def circle_pipeline(
    ds: DigitSet,
    k: int,
    weight: Weight,
    D0: Optional[int] = None,
    A_major: float = 3.0,
) -> ArcLedger:
    """Full Fourier-inversion sum with per-arc-class accounting.

    The ledger's ``total`` is the count.  One pass of the engine
    (``fourier.half_products``) gives the terms Re(F*S)/Q at a <= Q//2,
    so neither the half grid nor the weight spectrum is held.  The terms
    at a and Q - a are conjugate and share a class, so each class sums
    the terms over a <= Q//2, twice for a in mirror_paired(Q) (whose
    mirror is another point), and its imaginary part is exactly 0.0.
    """
    Q, D0, thr = _grid(ds, k, D0, A_major)
    terms = half_products(FourierContext(ds, k),
                          _weight_vector(weight, ds.q, k))
    terms /= Q
    paired = mirror_paired(Q)
    terms[paired] *= 2.0
    codes = _classification(Q, D0, A_major)
    sums, counts = [], []
    for code in range(len(ARC_CLASSES)):
        mask = codes == code
        counts.append(int(np.count_nonzero(mask))
                      + int(np.count_nonzero(mask[paired])))
        sums.append(complex(np.add.reduce(terms[mask])))
    return ArcLedger(sums=sums, counts=counts, D0=D0, A_major=A_major,
                     threshold=thr)


def direct_count(ds: DigitSet, k: int, weight: Weight) -> float:
    """Literal weighted count: the oracle side of every pipeline test."""
    check_grid_size(ds.q, k)
    points, weights = weight_support(weight, ds.q ** k)
    return float(np.add.reduce(weights[contains_mask(ds, points, k)]))


def _totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def coprime_excluded_count(ds: DigitSet) -> int:
    """s' = number of excluded digits coprime to the base."""
    return sum(1 for b in ds.excluded if math.gcd(b, ds.q) == 1)


def kappa(ds: DigitSet) -> Fraction:
    """Main-term density q(phi(q) - s') / ((q-1) phi(q)), exact."""
    q = ds.q
    phi = _totient(q)
    s_prime = coprime_excluded_count(ds)
    return Fraction(q * (phi - s_prime), (q - 1) * phi)


def singular_series_pair_count(P: IntPolynomial, ds: DigitSet,
                               J: int) -> int:
    """#{(n, m) : 0 <= n, m < q**J, m in the set, P(n) == m mod q**J}.

    Each n < q**J gives one m, so this counts the n whose P(n) mod q**J
    has all J digits allowed.  For J >= 2 it visits only the residues
    r < R = q**(J-1) and counts the top digit t of n = r + t*R in closed
    form (Hensel's lemma, as in the local densities of Davenport,
    *Analytic Methods for Diophantine Equations and Inequalities*, ch. 5).

    The lift.  Taylor's formula P(r + h) = sum_i P_i(r)*h**i has integer
    coefficients P_i = P^(i)/i! = sum_j binom(j, i)*c_j*x**(j-i).  With
    h = t*R, every term i >= 2 is divisible by R**i = q**(i*(J-1)), and
    i*(J-1) >= 2*(J-1) >= J, so P(r + t*R) == P(r) + t*R*P'(r) mod q**J.

    What the lift leaves fixed.  Write P(r) mod q**J = d*R + low with
    low < R.  Then P(r + t*R) mod q**J = ((d + t*u) mod q)*R + low with
    u = P'(r) mod q: the low J - 1 digits are those of P(r), and only the
    top digit moves with t.  As P' has integer coefficients, u depends
    only on r mod q, so it comes from a table of q slopes.

    Counting t.  As t runs over [0, q), t*u mod q runs over the multiples
    of g = gcd(u, q) (g = q when u = 0), each exactly g times, since
    t*u == 0 mod q exactly for the g multiples of q/g.  So the top digit
    equals an excluded b for g values of t when b == d mod g, and for none
    otherwise: q - g*#{b excluded : b == d mod g} values of t are allowed.
    The count sums that over the r whose low is allowed, in steps of
    ``PAIR_BLOCK`` residues.  For J <= 1, 2*(J-1) < J and the lift does
    not hold, so the count is direct over n < q**J.
    """
    q = ds.q
    QJ = bounded_power(q, J, PAIR_COUNT_CAP)
    if QJ > PAIR_COUNT_CAP:
        raise CapExceededError(
            f"pair counting over q^J = {q}^{J} exceeds cap {PAIR_COUNT_CAP}")
    if J < 2:
        m = _horner_mod(P.coeffs, np.arange(QJ, dtype=np.int64), QJ)
        return int(np.count_nonzero(contains_mask(ds, m, J)))
    R = QJ // q
    slope = _horner_mod([i * c for i, c in enumerate(P.coeffs)][1:],
                        np.arange(q, dtype=np.int64), q)
    divisors = [g for g in range(1, q + 1) if q % g == 0]
    g_row = np.searchsorted(divisors, np.gcd(slope, q))
    excluded = np.array(ds.excluded, dtype=np.int64)
    tops = np.arange(q)
    # free[i, d]: how many t < q make the top digit (d + t*u) mod q
    # allowed, for gcd(u, q) = divisors[i]
    free = np.array([
        q - g * np.bincount(excluded % g, minlength=g)[tops % g]
        for g in divisors])
    count = 0
    for start in range(0, R, PAIR_BLOCK):
        r = np.arange(start, min(start + PAIR_BLOCK, R), dtype=np.int64)
        top, low = np.divmod(_horner_mod(P.coeffs, r, QJ), R)
        ok = contains_mask(ds, low, J - 1)
        count += int(free[g_row[r[ok] % q], top[ok]].sum())
    return count


def _horner_mod(coeffs, n: np.ndarray, M: int) -> np.ndarray:
    """P(n) mod M for the constant-first ``coeffs``, on int64.

    Each coefficient is reduced mod M as a Python int first (i*c in P'
    can pass 2**63 before it is); the values stay below M*max(n) + M,
    which the callers keep below 2**63.
    """
    cs = [c % M for c in reversed(coeffs)]
    m = np.full(n.size, cs[0], dtype=np.int64)
    for c in cs[1:]:
        m = (m * n + c) % M
    return m


def singular_series(P: IntPolynomial, ds: DigitSet, J: int) -> Fraction:
    """Finite-level local density: pair count over (q-s)**J, exact."""
    denom = (ds.q - ds.s) ** J
    return Fraction(singular_series_pair_count(P, ds, J), denom)


@dataclass
class MainTermReport:
    """``members`` is (q - s)**k, the size of the set below q**k, which
    both main terms scale; ``deviation`` is |direct - main| / main, or
    None when main is 0."""

    members: int
    main_term: float
    direct: float
    deviation: Optional[float]
    kappa: Optional[Fraction] = None
    singular_series_J: Optional[int] = None
    singular_series_value: Optional[Fraction] = None


def theorem_comparison(ds: DigitSet, k: int, weight: Weight) -> MainTermReport:
    """Main term vs direct count, prime or polynomial flavour.

    The prime main term is kappa times the member count.  The polynomial
    main term takes the singular series at the largest J <= 4 with q**J
    within ``PAIR_COUNT_CAP``.  The direct count's grid cap is checked
    first, so no main term builds or floats a q**k past it.  A main term
    that is not a finite float (a lead coefficient past the float range)
    raises DomainError before the direct count.
    """
    q = ds.q
    check_grid_size(q, k)
    members = (q - ds.s) ** k
    if isinstance(weight, MangoldtTable):
        kap = kappa(ds)
        main = float(kap) * members
        extra = {"kappa": kap}
    else:
        r = weight.degree
        J = 1
        while q ** (J + 1) <= PAIR_COUNT_CAP and J < 4:
            J += 1
        sj = singular_series(weight, ds, J)
        try:
            main = (weight.lead ** (1.0 / r) * float(sj)
                    * q ** (k / r) * members / q ** k)
        except OverflowError:
            main = math.inf
        extra = {"singular_series_J": J, "singular_series_value": sj}
    if not math.isfinite(main):
        raise DomainError("main term is not a finite float: the lead "
                          "coefficient is too large")
    direct = direct_count(ds, k, weight)
    dev = abs(direct - main) / main if main else None
    return MainTermReport(members=members, main_term=main, direct=direct,
                          deviation=dev, **extra)
