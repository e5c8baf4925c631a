"""End-to-end acceptance gate: one test per criterion, one line per verdict.

Run with `pytest tests/test_acceptance.py -v` for the pass/fail roster, or
`-s` to also see the per-criterion summary lines.

Criteria that measure what a ``digitlab verify`` check measures call that
check family in ``digitlab.verify`` with their own cases and require every
returned check to pass.
"""

import math
import random
from fractions import Fraction

import numpy as np

from digitlab import cli, verify
from digitlab.arcs import (
    singular_series,
    singular_series_pair_count,
    theorem_comparison,
)
from digitlab.digits import DigitSet, count_in_ap
from digitlab.expsums import CALIBRATION_SEED, IntPolynomial, build_mangoldt
from digitlab.fourier import (
    FourierContext,
    RationalFrequency,
    digit_factor,
    distance_to_integer,
    eval_direct,
    eval_product,
    l1_grid_sum,
)

SQUARE = IntPolynomial((0, 0, 1))


def report(n, detail):
    print(f"ACCEPTANCE {n}: PASS — {detail}")


def assert_passed(checks, cases=None):
    """Every check passed; a failure names its case when one is given."""
    failed = [(case, c) for case, c in zip(cases or checks, checks)
              if not c["passed"]]
    assert not failed, failed


def test_criterion_01_exponent_constants():
    checks = verify.exponent_targets()
    assert_passed(checks)
    report(1, ", ".join(c["detail"] for c in checks) + " all under target")


def test_criterion_02_exact_inversion_sweep():
    cases = []
    for q in range(6, 13):
        for excl in {(0,), (q - 1,), (1,)}:
            ds = DigitSet(q, excl)
            for k in (2, 3, 4):
                cases.append((ds, k, build_mangoldt(q ** k), "mangoldt"))
                cases.append((ds, k, SQUARE, "n^2"))
    checks = verify.pipeline_vs_direct(cases)
    assert_passed(checks, [(ds.q, ds.excluded, k, label)
                           for ds, k, _, label in cases])
    report(2, f"{len(checks)} pipeline/direct pairs agree")


def test_criterion_03_fourier_oracle_battery():
    rng = random.Random(CALIBRATION_SEED)
    worst = 0.0
    for q in (4, 6, 8, 10):
        ds = DigitSet(q, (q - 1,))
        for k in (2, 3, 4):
            ctx = FourierContext(ds, k)
            Q = q ** k
            for _ in range(200):
                freq = RationalFrequency(rng.randrange(Q), Q)
                prod = eval_product(ctx, freq)
                oracle = eval_direct(ds, k, freq)
                err = abs(prod - oracle) / max(abs(oracle), 1.0)
                worst = max(worst, err)
                assert err <= 1e-9
    parseval = verify.parseval([(DigitSet(q, (q - 1,)), k)
                                for q in (6, 10, 12) for k in (3, 5)])
    assert_passed(parseval)
    report(3, f"2400 product/oracle pairs worst {worst:.2e}; "
              f"{len(parseval)} Parseval identities hold")


def test_criterion_04_residue_structure():
    def totient(n):
        r, m, p = n, n, 2
        while p * p <= m:
            if m % p == 0:
                while m % p == 0:
                    m //= p
                r -= r // p
            p += 1
        if m > 1:
            r -= r // m
        return r

    checked = 0
    for q, excl in [(10, (7,)), (10, (0, 7)), (12, (5,)), (30, (7, 11, 13))]:
        ds = DigitSet(q, excl)
        s = len(excl)
        sprime = sum(1 for b in excl if math.gcd(b, q) == 1)
        phi = totient(q)
        for k in range(1, 7):
            total = 0
            for a in range(q):
                if math.gcd(a, q) == 1 and a not in excl:
                    total += count_in_ap(ds, q ** k, k, q, a)
            assert total == (phi - sprime) * (q - s) ** (k - 1)
            for b in excl:
                assert count_in_ap(ds, q ** k, k, q, b) == 0
            checked += 1
    report(4, f"{checked} (digit set, k) cases: exact coprime-residue "
              "identity and zero counts at excluded residues")


def test_criterion_05_pointwise_lemma_inequalities():
    thetas = np.linspace(0.0, 1.0, 10 ** 4, endpoint=False)

    assert_passed(verify.lemma_inequality(thetas.tolist()))

    for q in (8, 10):
        ds = DigitSet(q, (q - 1,))
        for th in thetas:
            t = distance_to_integer(float(th))
            bound = (q - 1) * math.exp(-t * t / q)
            assert abs(digit_factor(ds, float(th))) <= bound + 1e-9

    sets = [DigitSet(10, (7,)),              # s = 1
            DigitSet(10, (3, 7)),            # s = 2, scattered
            DigitSet(10, (2, 3, 4, 5, 6)),   # s = 5, consecutive run
            DigitSet(10, (1, 3, 4, 6, 9))]   # s = 5, generic
    assert_passed(verify.digit_factor_bound_holds(sets, thetas.tolist()))
    report(5, "three inequality families hold on 10^4-point grids, "
              "zero failures")


def test_criterion_06_l1_growth():
    rows = []
    for q in (8, 10, 16):
        ds = DigitSet(q, (q - 1,))
        bound = (1 + 3 / math.log(q)) * q * math.log(q)
        for k in (2, 4, 6):
            ctx = FourierContext(ds, k)
            root = l1_grid_sum(ctx) ** (1.0 / k)
            assert root <= bound
            rows.append((q, k, root, bound))
    worst = max(r[2] / r[3] for r in rows)
    report(6, f"L1 root within bound for all (q, k); tightest margin "
              f"ratio {worst:.3f}")


def test_criterion_07_singular_series():
    ds = DigitSet(10, (7,))
    assert singular_series(SQUARE, ds, 1) == Fraction(10, 9)
    vals = [float(singular_series(SQUARE, ds, J)) for J in range(1, 6)]
    gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    assert all(b <= a + 1e-15 for a, b in zip(gaps, gaps[1:]))
    ident = IntPolynomial((0, 1))
    for J in range(1, 5):
        assert singular_series_pair_count(ident, ds, J) == 9 ** J
    report(7, f"level-1 value 10/9 exact; gaps {['%.4f' % g for g in gaps]} "
              "nonincreasing; identity pair counts exact")


def test_criterion_08_desk_scale_main_term():
    devs = []
    for excl in ((7,), (10,)):
        ds = DigitSet(50, excl)
        rep = theorem_comparison(ds, 3, build_mangoldt(50 ** 3))
        assert rep.deviation <= 0.2
        devs.append(rep.deviation)
    report(8, f"q=50 deviations {devs[0]:.4f} (coprime digit), "
              f"{devs[1]:.4f} (non-coprime digit), both <= 0.2")


def test_criterion_09_bound_ratio_sweeps():
    checks = verify.sweep_ratios(CALIBRATION_SEED)
    assert_passed(checks)
    report(9, "; ".join(f"{c['check']}: {c['detail']}" for c in checks))


def test_criterion_10_deterministic_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "all", "--out", str(a)]) == 0
    assert cli.main(["verify", "all", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report(10, f"two verify-all runs byte-identical "
               f"({len(a.read_bytes())} bytes)")


def test_criterion_11_ledger_class_sums():
    ds = DigitSet(10, (7,))
    cases = [(ds, 4, build_mangoldt(10 ** 4), "mangoldt"),
             (ds, 4, SQUARE, "n^2")]
    A_values = (0.5, 1.0, 1.5)
    checks = verify.ledger_vs_scalar(cases, A_values)
    assert_passed(checks, [(label, A, kind) for _, _, _, label in cases
                           for A in A_values for kind in ("counts", "sums")])
    assert len({c["check"] for c in checks}) == len(checks)
    report(11, f"{len(checks)} class-count and class-sum checks at q=10, "
               f"k=4, A in {A_values}, both weights")
