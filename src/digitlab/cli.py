"""Command-line surface: count, verify, scan, constants, arcs.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 resource cap.
Reports are JSON (schema 1) with the generating config inline; grids are
CSV with a fixed header, so every number is reproducible from its file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import List, Optional

import numpy as np

from . import arcs as arcs_mod
from . import expsums as exp_mod
from . import fourier as fou_mod
from .digits import DigitSet, count_below, count_in_ap, enumerate_members
from .errors import CapExceededError, ConfigError, DomainError
from .expsums import IntPolynomial, build_mangoldt
from .fourier import FourierContext, RationalFrequency

SCHEMA = 1


@dataclass
class ExperimentConfig:
    q: int = 10
    excluded: tuple = (7,)
    k: int = 3
    weight: str = "mangoldt"
    poly_coeffs: tuple = (0, 0, 1)
    D0: Optional[int] = None
    A_major: float = 3.0
    cap: int = fou_mod.GRID_CAP
    seed: int = exp_mod.CALIBRATION_SEED
    out: Optional[str] = None
    fmt: str = "json"

    def validate(self) -> None:
        if self.q < 3:
            raise ConfigError("q: must be an integer >= 3")
        if not self.excluded:
            raise ConfigError("excluded: required")
        if any(not 0 <= d < self.q for d in self.excluded):
            raise ConfigError("excluded: digits must lie in [0, q)")
        if self.k < 0:
            raise ConfigError("k: must be nonnegative")
        if self.weight not in ("mangoldt", "poly"):
            raise ConfigError("weight: must be 'mangoldt' or 'poly'")
        if self.weight == "poly" and len(self.poly_coeffs) < 2:
            raise ConfigError("poly-coeffs: need degree >= 1")
        if self.A_major <= 0:
            raise ConfigError("a-major: must be positive")
        if self.cap > fou_mod.GRID_CAP:
            raise ConfigError(f"cap: must be at most {fou_mod.GRID_CAP}")
        if self.fmt not in ("json", "csv", "table"):
            raise ConfigError("format: must be json, csv or table")

    def digit_set(self) -> DigitSet:
        try:
            return DigitSet(self.q, tuple(self.excluded))
        except DomainError as exc:
            raise ConfigError(f"excluded: {exc}") from exc

    def public(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "value": float(obj)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                     default=_jsonify) + "\n", out)


def _deviation_fields(report: arcs_mod.MainTermReport) -> dict:
    """The relative deviation, or null and why when it is undefined."""
    if report.deviation is None:
        return {"deviation": None,
                "deviation_reason": "main term is 0, so the relative "
                                    "deviation is undefined"}
    return {"deviation": report.deviation}


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------

def cmd_count(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    Q = cfg.q ** cfg.k
    if Q > cfg.cap:
        raise CapExceededError(f"q^k = {Q} exceeds cap {cfg.cap}")
    if cfg.k == 0:
        payload = {"schema": SCHEMA, "config": cfg.public(),
                   "direct": 0.0, "main_term": 0.0, "members": 1}
        _emit_json(payload, cfg.out)
        return 0
    weight = _make_weight(cfg, Q)
    report = arcs_mod.theorem_comparison(ds, cfg.k, weight, cap=cfg.cap)
    payload = {
        "schema": SCHEMA,
        "config": cfg.public(),
        "members": count_below(ds, Q, cfg.k),
        "direct": report.direct,
        "main_term": report.main_term,
        **_deviation_fields(report),
        "kappa": report.kappa,
        "singular_series_J": report.singular_series_J,
        "singular_series": report.singular_series_value,
    }
    if cfg.fmt == "table":
        lines = [f"{key:>18}: {payload[key]}" for key in
                 ("members", "direct", "main_term", "deviation", "kappa")]
        _emit("\n".join(lines) + "\n", cfg.out)
    else:
        _emit_json(payload, cfg.out)
    return 0


def _make_weight(cfg: ExperimentConfig, Q: int):
    if cfg.weight == "mangoldt":
        return build_mangoldt(max(Q - 1, 1))
    return IntPolynomial(cfg.poly_coeffs)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

def cmd_scan(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    Q = cfg.q ** cfg.k
    if Q > cfg.cap:
        raise CapExceededError(f"grid of {Q} points exceeds cap {cfg.cap}")
    ctx = FourierContext(ds, cfg.k)
    fhat = fou_mod.grid_values(ctx, cap=cfg.cap)
    weight = _make_weight(cfg, Q)
    w = arcs_mod._weight_vector(weight, Q)
    s_vals = np.fft.fft(w)
    D0 = cfg.D0 or max(1, math.isqrt(Q))
    codes = arcs_mod._classification(Q, D0, cfg.A_major)
    names = [cls.value for cls in arcs_mod.ARC_CLASSES]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["a", "fhat_re", "fhat_im", "fhat_abs",
                     "arc_class", "s_abs"])
    for a in range(Q):
        writer.writerow([
            a,
            repr(float(fhat[a].real)),
            repr(float(fhat[a].imag)),
            repr(float(abs(fhat[a]))),
            names[codes[a]],
            repr(float(abs(s_vals[a]))),
        ])
    _emit(buf.getvalue(), cfg.out)
    return 0


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------

def cmd_arcs(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    Q = cfg.q ** cfg.k
    weight = _make_weight(cfg, Q)
    result = arcs_mod.circle_pipeline(
        ds, cfg.k, weight, D0=cfg.D0, A_major=cfg.A_major, cap=cfg.cap
    )
    comparison = arcs_mod.theorem_comparison(ds, cfg.k, weight, cap=cfg.cap)
    payload = {
        "schema": SCHEMA,
        "config": cfg.public(),
        "total": result.total,
        "imag": result.imag,
        "per_class": {
            cls.value: {
                "sum": result.ledger.sums[cls],
                "count": result.ledger.counts[cls],
            }
            for cls in arcs_mod.ArcClass
        },
        "thresholds": {
            "D0": result.ledger.D0,
            "A_major": result.ledger.A_major,
            "threshold": result.ledger.threshold,
        },
        "main_term": comparison.main_term,
        "direct": comparison.direct,
        **_deviation_fields(comparison),
        "kappa": comparison.kappa,
        "seed": cfg.seed,
    }
    _emit_json(payload, cfg.out)
    return 0


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def cmd_constants(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    ctx = FourierContext(ds, cfg.k) if cfg.q ** cfg.k <= 10 ** 6 else None
    rep = fou_mod.constants_report(
        cfg.q, ds.s, ds.consecutive_flag, ctx=ctx
    )
    payload = {"schema": SCHEMA, "config": cfg.public(), **asdict(rep)}
    _emit_json(payload, cfg.out)
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------

def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


def _suite_constants(seed: int) -> List[dict]:
    checks = []
    a1 = fou_mod.alpha(2000001, 1)
    checks.append(_check("alpha(q=2000001, s=1) < 0.198", a1 < 0.198,
                         f"alpha={a1:.6f}"))
    a2 = fou_mod.alpha(10 ** 8, 10)
    checks.append(_check("alpha(q=1e8, s=10) < 0.2", a2 < 0.2,
                         f"alpha={a2:.6f}"))
    q3 = 10 ** 5
    s3 = q3 - math.ceil(q3 ** 0.81)
    a3 = fou_mod.consecutive_alpha_limit(q3, s3)
    checks.append(_check(
        "consecutive-run limit alpha(q=1e5, q-s=ceil(q^0.81)) < 0.2",
        a3 < 0.2, f"alpha_limit={a3:.6f}"))
    checks.append(_check(
        "alpha decreasing in q (1e6 vs 1e9, s=1)",
        fou_mod.alpha(10 ** 6, 1) > fou_mod.alpha(10 ** 9, 1), ""))
    cq = fou_mod.analytic_Cq(10, 1)
    checks.append(_check("Cq_analytic(q=10, s=1) = 1 + 3/log 10",
                         abs(cq - (1 + 3 / math.log(10))) < 1e-12,
                         f"Cq={cq:.6f}"))
    return checks


def _suite_fourier(seed: int) -> List[dict]:
    checks = []
    rng = random.Random(seed)
    worst = 0.0
    for q, excl, k in [(5, (2,), 3), (8, (7,), 3), (10, (7,), 3)]:
        ds = DigitSet(q, excl)
        ctx = FourierContext(ds, k)
        Q = q ** k
        members = list(enumerate_members(ds, k))
        for _ in range(40):
            a = rng.randrange(Q)
            freq = RationalFrequency(a, Q)
            v1 = fou_mod.eval_product(ctx, freq)
            v2 = fou_mod.eval_direct(ds, k, freq)
            worst = max(worst, abs(v1 - v2) / len(members))
    checks.append(_check("product vs direct (120 random frequencies)",
                         worst < 1e-9, f"max rel err {worst:.2e}"))
    ds = DigitSet(10, (7,))
    ctx = FourierContext(ds, 4)
    vals = fou_mod.grid_values(ctx)
    parseval = float(np.add.reduce(np.abs(vals) ** 2))
    expected = 10 ** 4 * 9 ** 4
    checks.append(_check(
        "Parseval q=10 k=4",
        abs(parseval - expected) / expected < 1e-9,
        f"sum |F|^2 = {parseval!r}, expected {expected}"))
    sym = max(abs(vals[a] - vals[-a].conjugate()) for a in range(1, 10 ** 4))
    checks.append(_check("conjugate symmetry", sym < 1e-6,
                         f"max |F(Q-a) - conj F(a)| = {sym:.2e}"))
    theta0 = 0.1234
    shifted = fou_mod.grid_values(ctx, theta0)
    grid_err = 0.0
    for _ in range(40):
        a = rng.randrange(10 ** 4)
        v1 = fou_mod.eval_product(ctx, RationalFrequency(a, 10 ** 4))
        v2 = fou_mod.eval_product_real(
            ctx, Fraction(theta0) + Fraction(a, 10 ** 4))
        grid_err = max(grid_err, abs(vals[a] - v1), abs(shifted[a] - v2))
    grid_err /= 9 ** 4
    checks.append(_check(
        "grid vs product formula (q=10, k=4, 40 random a, theta0 0 and "
        f"{theta0})", grid_err < 1e-9, f"max rel err {grid_err:.2e}"))
    grid_ok = True
    for ds_b in (DigitSet(10, (7,)), DigitSet(10, (3, 4)),
                 DigitSet(10, (2, 3, 4, 5, 6))):
        for i in range(2000):
            theta = (i + 0.5) / 2000.0
            fac = abs(fou_mod.digit_factor(ds_b, theta))
            if fac > fou_mod.digit_factor_bound(ds_b, theta) + 1e-9:
                grid_ok = False
    checks.append(_check("digit factor bound dominates on grid", grid_ok, ""))
    lin_ok = True
    for i in range(10 ** 4):
        theta = i / 10 ** 4
        dist = fou_mod.distance_to_integer(theta)
        if 2 + 2 * math.cos(2 * math.pi * theta) > \
                4 * math.exp(-2 * dist ** 2) + 1e-12:
            lin_ok = False
    checks.append(_check("2+2cos(2 pi t) <= 4 exp(-2 ||t||^2)", lin_ok, ""))
    rec = fou_mod.linf_decay_report(FourierContext(DigitSet(10, (7,)), 9),
                                    1, 3, 0.0)
    checks.append(_check("Linf proof chain at (l=1, d=3, k=9)",
                         rec.lhs <= rec.rhs_shape + 1e-12,
                         f"lhs={rec.lhs:.3e} rhs={rec.rhs_shape:.3e}"))
    return checks


def _suite_expsums(seed: int) -> List[dict]:
    checks = []
    table = build_mangoldt(100)
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    got = exp_mod.prime_expsum(table, 11, 0.0).real
    checks.append(_check("sum Lambda(n), n <= 10", abs(got - expected) < 1e-12,
                         f"got {got!r}"))
    nonzero = int(np.sum(table.entries_n <= 100))
    checks.append(_check("35 prime powers up to 100", nonzero == 35,
                         f"got {nonzero}"))
    ms = exp_mod.minsum(4, 10.0, 0.5)
    checks.append(_check("minsum(N=4, M=10, alpha=1/2) = 24",
                         abs(ms - 24.0) < 1e-12, f"got {ms!r}"))
    for kind, params in (
        ("equidistribution", {"N": 1000, "M": 1000.0, "count": 50,
                              "seed": seed}),
        ("prime", {"x": 10 ** 5, "d_values": list(range(3, 98)),
                   "beta": 0.0}),
        ("polynomial", {"coeffs": (0, 0, 1), "x": 10 ** 4, "count": 20,
                        "seed": seed}),
    ):
        rows = exp_mod.bound_ratio_report(kind, params)
        ratio = exp_mod.max_sweep_ratio(rows)
        ceiling = exp_mod.CALIBRATED_MAX_RATIO[kind]
        checks.append(_check(
            f"{kind} sweep max ratio below calibration {ceiling}",
            math.isfinite(ratio) and ratio <= ceiling,
            f"max ratio {ratio:.4f}"))
    return checks


def _suite_arcs(seed: int) -> List[dict]:
    checks = []
    for q, excl, k in [(6, (3,), 3), (10, (7,), 3)]:
        ds = DigitSet(q, excl)
        Q = q ** k
        table = build_mangoldt(Q)
        res = arcs_mod.circle_pipeline(ds, k, table)
        direct = arcs_mod.direct_count(ds, k, table)
        rel = abs(res.total - direct) / max(1.0, direct)
        checks.append(_check(
            f"pipeline vs direct (q={q}, k={k}, mangoldt)", rel < 1e-6,
            f"rel {rel:.2e}"))
        checks.append(_check(
            f"ledger conservation (q={q}, k={k})",
            res.ledger.total.real == res.total, ""))
        led = res.ledger
        oracle = {cls: 0 for cls in arcs_mod.ArcClass}
        for a in range(Q):
            ap = arcs_mod.dirichlet_approx(a, Q, led.D0)
            oracle[arcs_mod.classify(ap, k, led.A_major)] += 1
        counts = led.counts
        checks.append(_check(
            f"ledger class counts vs scalar classify (q={q}, k={k})",
            counts == oracle and sum(counts.values()) == Q,
            "major/minor_denominator/minor_offset "
            + "/".join(str(counts[c]) for c in arcs_mod.ArcClass)))
    P = IntPolynomial((0, 0, 1))
    ds = DigitSet(10, (7,))
    res = arcs_mod.circle_pipeline(ds, 3, P)
    direct = arcs_mod.direct_count(ds, 3, P)
    checks.append(_check(
        "pipeline vs direct (q=10, k=3, n^2)",
        abs(res.total - direct) / max(1.0, direct) < 1e-6,
        f"total {res.total!r} direct {direct!r}"))
    rng = random.Random(seed)
    ok = True
    for _ in range(2000):
        Q = rng.randrange(2, 10 ** 6)
        a = rng.randrange(Q)
        D0 = rng.randrange(1, 1000)
        ap = arcs_mod.dirichlet_approx(a, Q, D0)
        if ap.d > D0 or abs(ap.beta) > 1.0 / (ap.d * D0) + 1e-15:
            ok = False
    checks.append(_check("dirichlet approx postcondition (2000 random)",
                         ok, ""))
    sj = arcs_mod.singular_series(P, ds, 1)
    checks.append(_check("singular series S_1(n^2, q=10, ex 7) = 10/9",
                         sj == Fraction(10, 9), f"got {sj}"))
    kap = arcs_mod.kappa(ds)
    checks.append(_check("kappa(q=10, ex 7) = 5/6", kap == Fraction(5, 6),
                         f"got {kap}"))
    total = sum(
        count_in_ap(ds, 10 ** 4, 4, 10, a)
        for a in range(10) if math.gcd(a, 10) == 1 and a != 7
    )
    checks.append(_check("residue count (phi - s')(q-1)^(k-1)",
                         total == 3 * 9 ** 3, f"got {total}"))
    return checks


SUITES = {
    "constants": _suite_constants,
    "fourier": _suite_fourier,
    "expsums": _suite_expsums,
    "arcs": _suite_arcs,
}


def cmd_verify(suite: str, seed: int, out: Optional[str]) -> int:
    if suite != "all" and suite not in SUITES:
        sys.stderr.write(f"unknown suite: {suite}\n")
        return 2
    names = list(SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        for chk in SUITES[name](seed):
            chk["suite"] = name
            checks.append(chk)
    failures = [c for c in checks if not c["passed"]]
    payload = {
        "schema": SCHEMA,
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "failures": [c["check"] for c in failures],
        "passed": not failures,
    }
    _emit_json(payload, out)
    return 1 if failures else 0


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int)
    p.add_argument("--exclude", type=str,
                   help="comma-separated excluded digits")
    p.add_argument("--k", type=int)
    p.add_argument("--weight", choices=["mangoldt", "poly"])
    p.add_argument("--poly-coeffs", type=str,
                   help="comma-separated, constant term first")
    p.add_argument("--d0", type=int)
    p.add_argument("--a-major", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=str)
    p.add_argument("--format", choices=["json", "csv", "table"])
    p.add_argument("--config", type=str, help="key=value config file")


def _read_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"config: bad line {line!r}")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return out


def _parse_int_list(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers: {text!r}") \
            from exc


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    file_vals = _read_config_file(args.config) if args.config else {}
    mapping = [
        ("q", "q", int), ("exclude", "excluded", _parse_int_list),
        ("k", "k", int), ("weight", "weight", str),
        ("poly_coeffs", "poly_coeffs", _parse_int_list),
        ("d0", "D0", int), ("a_major", "A_major", float),
        ("cap", "cap", int), ("seed", "seed", int), ("out", "out", str),
        ("format", "fmt", str),
    ]
    for key, attr, conv in mapping:
        if key in file_vals:
            try:
                setattr(cfg, attr, conv(file_vals[key]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{attr}: {file_vals[key]!r}") from exc
    for key, attr, conv in mapping:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, attr,
                    conv(val) if isinstance(val, str) and conv in
                    (_parse_int_list,) else val)
    if args.exclude is None and "exclude" not in file_vals:
        raise ConfigError("excluded: required")
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="digitlab",
        description="Circle-method lab for digit-restricted primes and "
                    "polynomial values",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("count", "scan", "arcs", "constants"):
        p = sub.add_parser(name)
        _add_config_flags(p)
    pv = sub.add_parser("verify")
    pv.add_argument("suite",
                    choices=list(SUITES) + ["all"], metavar="suite",
                    help="fourier | arcs | expsums | constants | all")
    pv.add_argument("--seed", type=int, default=exp_mod.CALIBRATION_SEED)
    pv.add_argument("--out", type=str)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.out)
        cfg = build_config(args)
        if args.command == "count":
            return cmd_count(cfg)
        if args.command == "scan":
            return cmd_scan(cfg)
        if args.command == "arcs":
            return cmd_arcs(cfg)
        if args.command == "constants":
            return cmd_constants(cfg)
        return 2
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except CapExceededError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
