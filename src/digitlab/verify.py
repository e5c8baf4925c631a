"""The verification catalogue behind ``digitlab verify``.

Each check family is written once, as a function of its cases, and returns
a list of ``{"check", "passed", "detail"}`` dicts.  ``SUITES`` calls the
families with the cheap cases ``digitlab verify`` reports, and the
acceptance tests with their own, larger ones; a threshold is a constant
inside its family, so both callers hold the same one.  Pipeline stages are
called through their modules, so a replaced module attribute reaches every
check.  The oracle side of a family never calls what it checks: the
residue family counts its totient from the definition, and the transform
checks read the half grid and the L1 sum against the product formula,
never ``fourier.grid_values``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, List

import numpy as np

from . import arcs as arcs_mod
from . import digits as dig_mod
from . import expsums as exp_mod
from . import fourier as fou_mod
from .digits import DigitSet, contains
from .expsums import IntPolynomial
from .summation import pairwise_sum


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


def _set_label(ds: DigitSet) -> str:
    """"q=10, ex 7", "q=10, ex 0,7": a digit set as check names give it."""
    return f"q={ds.q}, ex {','.join(map(str, ds.excluded))}"


def exponent_targets() -> List[dict]:
    """The exponents the paper's theorems need, under their targets."""
    a1 = fou_mod.alpha(2000001, 1)
    a2 = fou_mod.alpha(10 ** 8, 10)
    q3 = 10 ** 5
    a3 = fou_mod.consecutive_alpha_limit(q3, q3 - math.ceil(q3 ** 0.81))
    return [
        _check("alpha(q=2000001, s=1) < 0.198", a1 < 0.198,
               f"alpha={a1:.6f}"),
        _check("alpha(q=1e8, s=10) < 0.2", a2 < 0.2, f"alpha={a2:.6f}"),
        _check("consecutive-run limit alpha(q=1e5, q-s=ceil(q^0.81)) < 0.2",
               a3 < 0.2, f"alpha_limit={a3:.6f}"),
    ]


def pipeline_vs_direct(cases: Iterable[tuple]) -> List[dict]:
    """Circle-pipeline total against the literal weighted count.

    Each case is ``(digit_set, k, weight, weight_label)``.
    """
    checks = []
    for ds, k, weight, label in cases:
        total = arcs_mod.circle_pipeline(ds, k, weight).total.real
        direct = arcs_mod.direct_count(ds, k, weight)
        rel = abs(total - direct) / max(1.0, abs(direct))
        checks.append(_check(
            f"pipeline vs direct (q={ds.q}, k={k}, {label})", rel < 1e-6,
            f"rel {rel:.2e}"))
    return checks


def _scalar_terms(ds: DigitSet, k: int, weight) -> list:
    """F(a/Q) S_w(-a/Q) / Q for every a < Q as Python complex, with the
    bits of ``eval_product`` at a/Q times ``expsum`` at the exact frequency
    -a/Q, over Q.

    One table of the Q roots unit(r, Q) serves both sides: each reduced
    phase r/den of theirs is the same correctly rounded float as some
    r'/Q.  F(a/Q) multiplies, in ``fourier._product``'s order, the digit
    sums at p_i = a*q**i mod Q, taken for every p at once as the pairwise
    sum over the allowed d of the roots at d*p mod Q.  S_w(-a/Q) gathers
    the roots at n*(Q - a) mod Q over the weight's support, one 1-D array
    per a, so that memory stays linear in Q, and adds the terms by
    ``np.add.reduce`` as expsum does; it is a Python complex before the
    / Q, since numpy divides a complex by a real through its reciprocal.
    n < Q, so n*(Q - a) < Q**2 is exact in int64 at any Q a loop over the
    grid can reach.
    """
    Q = ds.q ** k
    ns, ws = exp_mod.weight_support(weight, Q)
    points = np.arange(Q)
    roots = fou_mod.unit(points, Q)
    sums = pairwise_sum([roots[d * points % Q] for d in ds.allowed]).tolist()
    terms = []
    for a in range(Q):
        f, p = complex(1.0), a
        for _ in range(k):
            f *= sums[p]
            p = p * ds.q % Q
        s = complex(np.add.reduce(ws * roots[ns * (Q - a) % Q]))
        terms.append(f * s / Q)
    return terms


def ledger_vs_scalar(cases: Iterable[tuple],
                     settings: Iterable[tuple] = ((None, None),)
                     ) -> List[dict]:
    """Ledger class counts and per-class sums against a scalar oracle.

    Cases are those of ``pipeline_vs_direct``; the pipeline runs at each
    (D0, A) in ``settings``, None being its default.  The checks are
    named by q, k, the case's weight label and any given D0 and A.  A
    scalar pass per setting classifies (``classify``) the
    ``dirichlet_approx`` of every a < Q, made once per case and resolved
    D0; the counts must match exactly, and each class sum of the scalar
    terms (``_scalar_terms``, computed once per case and added by
    ``pairwise_sum``) must match the ledger's within 1e-9 of the class's
    sum of |term|.
    """
    checks = []
    for ds, k, weight, label in cases:
        Q = ds.q ** k
        terms = _scalar_terms(ds, k, weight)
        approx = {}  # resolved D0 -> dirichlet_approx of every a < Q
        for D0, A in settings:
            at = "".join(f", {name}={value}" for name, value
                         in (("D0", D0), ("A", A)) if value is not None)
            kw = {} if A is None else {"A_major": A}
            led = arcs_mod.circle_pipeline(ds, k, weight, D0=D0, **kw)
            if led.D0 not in approx:
                approx[led.D0] = [arcs_mod.dirichlet_approx(a, Q, led.D0)
                                  for a in range(Q)]
            codes = [arcs_mod.classify(ap, led.A_major)
                     for ap in approx[led.D0]]
            counts = led.counts
            checks.append(_check(
                f"ledger class counts vs scalar classify "
                f"(q={ds.q}, k={k}, {label}{at})",
                counts == [codes.count(c)
                           for c in range(len(arcs_mod.ARC_CLASSES))]
                and sum(counts) == Q,
                "major/minor_denominator/minor_offset "
                + "/".join(map(str, counts))))
            worst = 0.0
            for code, total in enumerate(led.sums):
                picked = [t for t, c in zip(terms, codes) if c == code]
                err = abs(total - pairwise_sum(picked))
                scale = pairwise_sum([abs(t) for t in picked])
                worst = max(worst, err / scale if scale else err)
            checks.append(_check(
                f"ledger class sums vs scalar oracle "
                f"(q={ds.q}, k={k}, {label}{at})",
                worst < 1e-9, f"max rel err {worst:.2e}"))
    return checks


def pair_count_vs_looped(cases: Iterable[tuple]) -> List[dict]:
    """Singular-series pair count against a literal loop over ``contains``.

    Each case is ``(digit_set, polynomial, label, J)``; the loop makes
    q**J ``contains`` calls, so keep q**J small.
    """
    checks = []
    for ds, P, label, J in cases:
        QJ = ds.q ** J
        want = sum(1 for n in range(QJ) if contains(ds, P(n) % QJ, J))
        got = arcs_mod.singular_series_pair_count(P, ds, J)
        checks.append(_check(
            f"pair count vs looped contains ({label}, {_set_label(ds)}, "
            f"J={J})", got == want, f"got {got}, looped {want}"))
    return checks


def parseval(cases: Iterable[tuple]) -> List[dict]:
    """sum |F(a/Q)|^2 over the grid = Q * #members, per ``(digit_set, k)``,
    read from the half grid with the points of ``mirror_paired(Q)``
    counted twice."""
    checks = []
    for ds, k in cases:
        sq = np.abs(fou_mod.half_grid_values(fou_mod.FourierContext(ds, k)))
        sq **= 2
        sq[fou_mod.mirror_paired(ds.q ** k)] *= 2.0
        lhs = float(np.add.reduce(sq))
        expected = ds.q ** k * (ds.q - ds.s) ** k
        checks.append(_check(
            f"Parseval q={ds.q} k={k}",
            abs(lhs - expected) / expected < 1e-9,
            f"sum |F|^2 = {lhs!r}, expected {expected}"))
    return checks


def _min_margin(margins) -> float:
    """The worst margin of a family, as a float; np.min keeps a nan, so a
    nan anywhere fails the check."""
    return float(np.min(margins))


def lemma_inequality(thetas: Iterable[float]) -> List[dict]:
    """2 + 2 cos(2 pi t) <= 4 exp(-2 ||t||^2) at every t; the detail is the
    worst margin, right side minus left.

    The distances come from one array call of ``distance_to_integer``,
    which gives the scalar call's bits; the rest is a scalar loop over
    Python floats read one at a time from the two arrays (lists of them
    would raise the peak RSS of ``verify``), since float64 np.exp may be
    vectorised and differ from math.exp in the last bit, and the report
    is fixed to the bit."""
    ts = np.fromiter(thetas, dtype=np.float64)
    dists = fou_mod.distance_to_integer(ts)
    margin = _min_margin([
        4 * math.exp(-2 * dist ** 2) - (2 + 2 * math.cos(2 * math.pi * t))
        for t, dist in zip(map(float, ts), map(float, dists))])
    return [_check("2+2cos(2 pi t) <= 4 exp(-2 ||t||^2)", margin >= -1e-12,
                   f"min margin {margin:.3e}")]


def digit_factor_bound_holds(sets: Iterable[DigitSet],
                             thetas: Iterable[float]) -> List[dict]:
    """|digit_factor| <= digit_factor_bound for every set at every t; the
    detail is the worst margin, bound minus |digit_factor|.

    Each set makes one call of each on the float64 array of the t.  The
    modulus is ``np.hypot`` of the parts, which is abs() of a Python
    complex bit for bit; np.abs of complex128 differs from it in the last
    bit on many points.
    """
    thetas = np.array(list(thetas), dtype=np.float64)
    margins = []
    for ds in sets:
        f = fou_mod.digit_factor(ds, thetas)
        margins.append(fou_mod.digit_factor_bound(ds, thetas)
                       - np.hypot(f.real, f.imag))
    margin = _min_margin(margins)
    return [_check("digit factor bound dominates on grid", margin >= -1e-9,
                   f"min margin {margin:.3e}")]


def sweep_ratios(seed: int) -> List[dict]:
    """Each bound-ratio sweep's maximum is positive, finite and under its
    frozen calibration ceiling."""
    checks = []
    for kind, ceiling in exp_mod.CALIBRATED_MAX_RATIO.items():
        rows = exp_mod.bound_ratio_report(kind, seed)
        ratio = exp_mod.max_sweep_ratio(rows)
        checks.append(_check(
            f"{kind} sweep max ratio below calibration {ceiling}",
            math.isfinite(ratio) and 0 < ratio <= ceiling,
            f"max ratio {ratio:.3g}"))
    return checks


def product_vs_direct(cases: Iterable[tuple], draws: int,
                      rng: random.Random) -> List[dict]:
    """``eval_product`` against the literal sum ``eval_direct`` at ``draws``
    random a/Q per ``(digit_set, k)``, drawn from ``rng`` case by case.

    One check over every draw: the error is relative to max(|oracle|, 1),
    which is at most (q - s)**k, and must stay under 1e-9.
    """
    worst, n = 0.0, 0
    for ds, k in cases:
        ctx = fou_mod.FourierContext(ds, k)
        Q = ds.q ** k
        for _ in range(draws):
            a = rng.randrange(Q)
            oracle = fou_mod.eval_direct(ds, k, a)
            err = abs(fou_mod.eval_product(ctx, a) - oracle)
            worst = max(worst, err / max(abs(oracle), 1.0))
            n += 1
    return [_check(f"product vs direct ({n} random frequencies)",
                   worst < 1e-9, f"max rel err {worst:.2e}")]


def l1_bound(cases: Iterable[tuple], thetas: Iterable) -> List[dict]:
    """The L1 lemma: (sum_a |F(theta + a/Q)|)**(1/k) <= C_q * q * log q,
    with C_q = ``analytic_Cq`` of the set, per ``(digit_set, k)`` (k >= 1)
    and theta.  The sum is ``l1_grid_sum``."""
    thetas = list(thetas)
    checks = []
    for ds, k in cases:
        q = ds.q
        bound = (fou_mod.analytic_Cq(q, ds.s, ds.consecutive_flag)
                 * q * math.log(q))
        ctx = fou_mod.FourierContext(ds, k)
        for theta in thetas:
            root = fou_mod.l1_grid_sum(ctx, theta) ** (1.0 / k)
            checks.append(_check(
                f"L1 bound (q={q}, k={k}, theta {theta})", root <= bound,
                f"root {root:.4f}, bound {bound:.4f}, "
                f"ratio {root / bound:.4f}"))
    return checks


def l1_vs_product(cases: Iterable[tuple], thetas: Iterable) -> List[dict]:
    """``l1_grid_sum`` against the sum of |``eval_product_real``| over the
    Q exact frequencies theta + a/Q, per ``(digit_set, k)`` and theta.

    A theta with ||Q*theta|| small makes the shifted grid nearly the
    unshifted one rolled, and then an engine that drops theta passes, so
    take ||Q*theta|| >= 1/4.
    """
    thetas = list(thetas)
    checks = []
    for ds, k in cases:
        ctx = fou_mod.FourierContext(ds, k)
        Q = ds.q ** k
        for theta in thetas:
            got = fou_mod.l1_grid_sum(ctx, theta)
            want = pairwise_sum([
                abs(fou_mod.eval_product_real(
                    ctx, Fraction(theta) + Fraction(a, Q)))
                for a in range(Q)])
            rel = abs(got - want) / want
            checks.append(_check(
                f"L1 sum vs product formula (q={ds.q}, k={k}, theta {theta})",
                rel < 1e-9, f"rel err {rel:.2e}"))
    return checks


def digit_factor_decay(sets: Iterable[DigitSet],
                       thetas: Iterable[float]) -> List[dict]:
    """|digit_factor| <= (q - 1) exp(-||t||^2 / q) for sets with one
    excluded digit, at every t; the detail is the worst margin, bound minus
    |digit_factor|."""
    thetas = list(thetas)
    margin = _min_margin([
        (ds.q - 1) * math.exp(-fou_mod.distance_to_integer(t) ** 2 / ds.q)
        - abs(fou_mod.digit_factor(ds, t))
        for ds in sets for t in thetas])
    return [_check("|digit factor| <= (q-1) exp(-||t||^2/q)",
                   margin >= -1e-9, f"min margin {margin:.3e}")]


def residue_counts(cases: Iterable[tuple]) -> List[dict]:
    """The members n < q**k split over the residues a mod q: the coprime
    allowed a hold (phi(q) - s')(q - s)**(k-1) of them together, and each
    excluded a holds none, per ``(digit_set, k)`` with k >= 1.

    s' counts the excluded digits coprime to q, and phi(q) is counted here
    from its definition, #{a < q : gcd(a, q) = 1}, not by the totient of
    ``arcs``.  The counts come from ``digits.count_in_ap``.
    """
    checks = []
    for ds, k in cases:
        q, Q = ds.q, ds.q ** k
        phi = sum(1 for a in range(q) if math.gcd(a, q) == 1)
        s_prime = sum(1 for b in ds.excluded if math.gcd(b, q) == 1)
        want = (phi - s_prime) * (q - ds.s) ** (k - 1)
        got = sum(dig_mod.count_in_ap(ds, Q, k, q, a) for a in range(q)
                  if math.gcd(a, q) == 1 and a not in ds.excluded)
        stray = sum(dig_mod.count_in_ap(ds, Q, k, q, b) for b in ds.excluded)
        checks.append(_check(
            f"residue count (phi - s')(q - s)^(k-1) ({_set_label(ds)}, "
            f"k={k})", got == want and stray == 0,
            f"got {got}, expected {want}; {stray} at excluded residues"))
    return checks


def singular_series_levels(cases: Iterable[tuple]) -> List[dict]:
    """Per ``(digit_set, polynomial, label, S_1, top)``: S_1 equals the
    exact ``S_1``; the gaps |S_(J+1) - S_J| for J < top do not increase
    (within 1e-15); and the identity polynomial has pair count
    (q - s)**J, the member count, at every J <= top."""
    checks = []
    ident = IntPolynomial((0, 1))
    for ds, P, label, s1, top in cases:
        at = _set_label(ds)
        got = arcs_mod.singular_series(P, ds, 1)
        checks.append(_check(f"singular series S_1({label}, {at}) = {s1}",
                             got == s1, f"got {got}"))
        vals = [float(arcs_mod.singular_series(P, ds, J))
                for J in range(1, top + 1)]
        gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        checks.append(_check(
            f"singular series gaps nonincreasing ({label}, {at}, "
            f"J=1..{top})",
            all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:])),
            "gaps " + " ".join(f"{g:.3e}" for g in gaps)))
        counts = [arcs_mod.singular_series_pair_count(ident, ds, J)
                  for J in range(1, top + 1)]
        checks.append(_check(
            f"identity pair counts = (q - s)^J ({at}, J=1..{top})",
            counts == [(ds.q - ds.s) ** J for J in range(1, top + 1)],
            "got " + " ".join(map(str, counts))))
    return checks


def main_term_deviation(cases: Iterable[tuple]) -> List[dict]:
    """``theorem_comparison``'s relative deviation of the direct count from
    the main term is at most 0.2, per ``(digit_set, k, weight, label)``."""
    checks = []
    for ds, k, weight, label in cases:
        dev = arcs_mod.theorem_comparison(ds, k, weight).deviation
        checks.append(_check(
            f"main term deviation <= 0.2 ({_set_label(ds)}, k={k}, "
            f"{label})", dev is not None and dev <= 0.2,
            "main term is 0" if dev is None else f"deviation {dev:.4f}"))
    return checks


def _suite_constants(seed: int) -> List[dict]:
    cq = fou_mod.analytic_Cq(10, 1)
    return exponent_targets() + [
        _check("alpha decreasing in q (1e6 vs 1e9, s=1)",
               fou_mod.alpha(10 ** 6, 1) > fou_mod.alpha(10 ** 9, 1), ""),
        _check("Cq_analytic(q=10, s=1) = 1 + 3/log 10",
               abs(cq - (1 + 3 / math.log(10))) < 1e-12, f"Cq={cq:.6f}"),
    ]


def _suite_fourier(seed: int) -> List[dict]:
    rng = random.Random(seed)
    ds = DigitSet(10, (7,))
    small = DigitSet(5, (2,))
    checks = product_vs_direct(
        [(small, 3), (DigitSet(8, (7,)), 3), (ds, 3)], 40, rng)
    checks += parseval([(ds, 4)])
    # the product formula in array form, at the floats (a*10**i mod Q)/Q
    # of every a <= Q/2; never fourier.unit, which the half grid uses
    Q, a = 10 ** 4, np.arange(10 ** 4 // 2 + 1)
    want = np.prod([fou_mod.digit_factor(
        ds, fou_mod.residues(a, 10 ** i, Q) / Q) for i in range(4)], axis=0)
    half = fou_mod.half_grid_values(fou_mod.FourierContext(ds, 4))
    grid_err = float(np.max(np.abs(half - want))) / 9 ** 4  # keeps a nan
    checks.append(_check(
        "half grid vs product formula (q=10, k=4, every a <= Q/2)",
        grid_err < 1e-9, f"max rel err {grid_err:.2e}"))
    # ||Q/3|| = 1/3 for Q = 10^4 and 5^3, so theta = 1/3 is no grid shift
    shift = Fraction(1, 3)
    checks += l1_bound([(ds, 4)], (0, shift))
    checks += l1_vs_product([(small, 3)], (shift,))
    checks += digit_factor_bound_holds(
        [DigitSet(10, (7,)), DigitSet(10, (3, 4)),
         DigitSet(10, (2, 3, 4, 5, 6))],
        [(i + 0.5) / 2000.0 for i in range(2000)])
    checks += digit_factor_decay([DigitSet(8, (7,)), DigitSet(10, (9,))],
                                 [i / 100 for i in range(100)])
    checks += lemma_inequality(i / 10 ** 4 for i in range(10 ** 4))
    rec = fou_mod.linf_decay_report(
        fou_mod.FourierContext(DigitSet(10, (7,)), 9), 1, 3, 0.0)
    checks.append(_check("Linf proof chain at (l=1, d=3, k=9)",
                         rec.lhs <= rec.rhs_shape + 1e-12,
                         f"lhs={rec.lhs:.3e} rhs={rec.rhs_shape:.3e}"))
    return checks


def _suite_expsums(seed: int) -> List[dict]:
    table = exp_mod.build_mangoldt(100)
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    got = exp_mod.expsum(table, 11, 0.0).real
    nonzero = int(np.sum(table.entries_n <= 100))
    ms = exp_mod.minsum(4, 10.0, 0.5)
    return [
        _check("sum Lambda(n), n <= 10", abs(got - expected) < 1e-12,
               f"got {got!r}"),
        _check("35 prime powers up to 100", nonzero == 35, f"got {nonzero}"),
        _check("minsum(N=4, M=10, alpha=1/2) = 24", abs(ms - 24.0) < 1e-12,
               f"got {ms!r}"),
    ] + sweep_ratios(seed)


def _suite_arcs(seed: int) -> List[dict]:
    checks = []
    # A = 1 fills all three classes; the default A = 3 is all major.  At
    # q = 6 two more settings run the other two regimes of
    # ``_classification``: D0 = 2 is below the threshold 5.375, so the
    # codes start major and the minor_offset points are visited, and at
    # D0 = 100 the fractions outnumber the points, so the whole half is
    # the neighbourhood of 0/1.
    for q, excl, k, more in [(6, (3,), 3, ((2, 1.0), (100, 2.0))),
                             (10, (7,), 3, ())]:
        case = (DigitSet(q, excl), k, exp_mod.build_mangoldt(q ** k),
                "mangoldt")
        checks += pipeline_vs_direct([case]) + ledger_vs_scalar(
            [case], ((None, None), (None, 1.0)) + more)
    P = IntPolynomial((0, 0, 1))
    ds = DigitSet(10, (7,))
    checks += pipeline_vs_direct([(ds, 3, P, "n^2")])
    rng = random.Random(seed)
    ok, worst_d, worst_beta = True, 0.0, 0.0
    for _ in range(2000):
        Q = rng.randrange(2, 10 ** 6)
        a = rng.randrange(Q)
        D0 = rng.randrange(1, 1000)
        ap = arcs_mod.dirichlet_approx(a, Q, D0)
        if ap.d > D0 or abs(ap.beta) > 1.0 / (ap.d * D0) + 1e-15:
            ok = False
        worst_d = max(worst_d, ap.d / D0)
        worst_beta = max(worst_beta, abs(ap.beta) * ap.d * D0)
    checks.append(_check("dirichlet approx postcondition (2000 random)",
                         ok, f"max d/D0 {worst_d:.4f}, "
                             f"max |beta| d D0 {worst_beta:.4f}"))
    # n^2 has gcd(P'(r), 10) in {2, 10}; the cubic's slopes 3r^2 - 4 mod
    # 10 take gcd 1 and 2.  2,100 contains calls in all.
    checks += pair_count_vs_looped([
        (ds, P, "n^2", 2), (ds, P, "n^2", 3),
        (ds, IntPolynomial((5, -4, 0, 1)), "n^3-4n+5", 3)])
    checks += singular_series_levels([(ds, P, "n^2", Fraction(10, 9), 5)])
    kap = arcs_mod.kappa(ds)
    checks.append(_check("kappa(q=10, ex 7) = 5/6", kap == Fraction(5, 6),
                         f"got {kap}"))
    checks += residue_counts([(ds, 4), (DigitSet(10, (0, 7)), 3)])
    sieve = exp_mod.build_mangoldt(50 ** 3)
    checks += main_term_deviation([
        (DigitSet(50, (b,)), 3, sieve, "mangoldt") for b in (7, 10)])
    return checks


SUITES = {
    "constants": _suite_constants,
    "fourier": _suite_fourier,
    "expsums": _suite_expsums,
    "arcs": _suite_arcs,
}


def report(suite: str, seed: int) -> dict:
    """Run one suite, or every suite for ``"all"``, into a verify payload."""
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        for chk in SUITES[name](seed):
            chk["suite"] = name
            checks.append(chk)
    failures = [c["check"] for c in checks if not c["passed"]]
    return {"suite": suite, "seed": seed, "checks": checks,
            "failures": failures, "passed": not failures}
