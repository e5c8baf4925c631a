"""End-to-end acceptance gate: one test per criterion, one line per verdict.

Run with `pytest tests/test_acceptance.py -v` for the pass/fail roster, or
`-s` to also see the per-criterion summary lines.

Every criterion that measures a value builds its cases and calls a check
family of ``digitlab.verify``, the catalogue ``digitlab verify`` reports
from, and requires every returned check to pass; no loop here computes a
measured value.  The families hold the thresholds, so the gate and the
report cannot drift apart; ``digitlab verify`` runs cheaper cases of the
same families.
"""

import random
from fractions import Fraction

import numpy as np

from digitlab import cli, verify
from digitlab.digits import DigitSet
from digitlab.expsums import CALIBRATION_SEED, IntPolynomial, build_mangoldt

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
    product = verify.product_vs_direct(
        [(DigitSet(q, (q - 1,)), k) for q in (4, 6, 8, 10) for k in (2, 3, 4)],
        200, random.Random(CALIBRATION_SEED))
    parseval = verify.parseval([(DigitSet(q, (q - 1,)), k)
                                for q in (6, 10, 12) for k in (3, 5)])
    assert_passed(product + parseval)
    report(3, f"{product[0]['check']}: {product[0]['detail']}; "
              f"{len(parseval)} Parseval identities hold")


def test_criterion_04_residue_structure():
    cases = [(DigitSet(q, excl), k)
             for q, excl in [(10, (7,)), (10, (0, 7)), (12, (5,)),
                             (30, (7, 11, 13))]
             for k in range(1, 7)]
    checks = verify.residue_counts(cases)
    assert_passed(checks, cases)
    report(4, f"{len(checks)} (digit set, k) cases: exact coprime-residue "
              "identity and zero counts at excluded residues")


def test_criterion_05_pointwise_lemma_inequalities():
    thetas = np.linspace(0.0, 1.0, 10 ** 4, endpoint=False).tolist()
    sets = [DigitSet(10, (7,)),              # s = 1
            DigitSet(10, (3, 7)),            # s = 2, scattered
            DigitSet(10, (2, 3, 4, 5, 6)),   # s = 5, consecutive run
            DigitSet(10, (1, 3, 4, 6, 9))]   # s = 5, generic
    checks = (verify.lemma_inequality(thetas)
              + verify.digit_factor_decay(
                  [DigitSet(q, (q - 1,)) for q in (8, 10)], thetas)
              + verify.digit_factor_bound_holds(sets, thetas))
    assert_passed(checks)
    report(5, "three inequality families hold on 10^4-point grids: "
              + "; ".join(c["detail"] for c in checks))


def test_criterion_06_l1_growth():
    cases = [(DigitSet(q, (q - 1,)), k) for q in (8, 10, 16) for k in (2, 4, 6)]
    checks = verify.l1_bound(cases, (0,))
    assert_passed(checks, cases)
    report(6, f"L1 root within bound for all {len(checks)} (q, k); "
              + "; ".join(c["detail"] for c in checks))


def test_criterion_07_singular_series():
    checks = verify.singular_series_levels(
        [(DigitSet(10, (7,)), SQUARE, "n^2", Fraction(10, 9), 5)])
    assert_passed(checks)
    report(7, "; ".join(f"{c['check']}: {c['detail']}" for c in checks))


def test_criterion_08_desk_scale_main_term():
    cases = [(DigitSet(50, excl), 3, build_mangoldt(50 ** 3), "mangoldt")
             for excl in ((7,), (10,))]
    checks = verify.main_term_deviation(cases)
    assert_passed(checks)
    report(8, "q=50, coprime digit 7 and non-coprime digit 10: "
              + "; ".join(c["detail"] for c in checks))


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
    checks = verify.ledger_vs_scalar(cases, [(None, A) for A in A_values])
    assert_passed(checks, [(label, A, kind) for _, _, _, label in cases
                           for A in A_values for kind in ("counts", "sums")])
    assert len({c["check"] for c in checks}) == len(checks)
    report(11, f"{len(checks)} class-count and class-sum checks at q=10, "
               f"k=4, A in {A_values}, both weights")
