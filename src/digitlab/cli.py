"""Command-line surface: count, verify, scan, constants, arcs.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 resource cap.
Reports are JSON (schema 1) with the generating config inline; grids are
CSV with a fixed header, so every number is reproducible from its file.

``--cap`` limits q^k and is checked once, by ``_make_weight`` (and by
``cmd_constants``), before any stage allocates.  The library checks only
its fixed caps: ``fourier.GRID_CAP``, ``expsums.MANGOLDT_CAP``,
``expsums.POLY_SCAN_CAP``, ``digits.ENUMERATION_CAP``, ``digits.BASE_CAP``
(when the ``DigitSet`` is made) and ``arcs.PAIR_COUNT_CAP``.  The
directory of ``--out`` must exist before any stage runs (``validate`` and
``cmd_verify``), and ``validate`` rejects an ``--a-major`` whose threshold
(log Q)^A would overflow, naming the largest A it accepts.

``arcs`` and ``scan`` share one set of pipeline stages
(``arcs.pipeline_stages``), which hold a <= Q//2 only.  ``scan`` formats
each pair of rows a and Q - a once, in blocks of ``CSV_BLOCK`` rows: it
streams the rows a <= Q//2 to the output and spills their mirror rows to
an anonymous temporary file, read back after them (``_scan_csv_blocks``).
It creates the spill file, and then opens the output, only once every
stage has succeeded, so a failed run leaves an existing file untouched.

``count`` and ``arcs`` both report ``arcs.theorem_comparison`` at every
k; at k = 0 the set is {0} and the direct count is the weight at 0.
``verify`` emits the payload of the check catalogue in ``verify.py``,
which only that command imports.  A ``--config`` file takes only the keys
of the config flags (``exclude``, ``poly_coeffs``, ``d0``, ...); any
other key is a config error, and so is a polynomial given, by flag or
file, with the von Mangoldt weight.  Messages name Q as q^k by q and k,
since Python will not write an int of more than 4,300 digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import BinaryIO, Iterable, Iterator, List, Optional

import numpy as np

from . import arcs as arcs_mod
from . import expsums as exp_mod
from . import fourier as fou_mod
from .digits import DigitSet, count_below
from .errors import CapExceededError, ConfigError, DomainError
from .expsums import IntPolynomial, build_mangoldt
from .fourier import FourierContext

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
    out: Optional[str] = None

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
        if self.D0 is not None and self.D0 < 1:
            raise ConfigError("d0: must be positive")
        if not 0 < self.A_major < math.inf:
            raise ConfigError("a-major: must be positive and finite")
        limit = arcs_mod.max_a_major(self.q ** self.k)
        if self.A_major > limit:
            raise ConfigError(
                f"a-major: (log Q)^A overflows at Q = {self.q}^{self.k}; "
                f"the largest A accepted is {limit!r}")
        if not 1 <= self.cap <= fou_mod.GRID_CAP:
            raise ConfigError(f"cap: must lie in [1, {fou_mod.GRID_CAP}]")
        _check_out_dir(self.out)

    def digit_set(self) -> DigitSet:
        try:
            return DigitSet(self.q, tuple(self.excluded))
        except DomainError as exc:
            raise ConfigError(f"excluded: {exc}") from exc

    def public(self) -> dict:
        """The config echoed in reports; ``excluded`` is the digit set's,
        sorted and without repeats, so one set gives one report."""
        d = asdict(self)
        d.pop("out")
        d["excluded"] = self.digit_set().excluded
        return d


def _check_out_dir(out: Optional[str]) -> None:
    """Reject an output path whose directory does not exist."""
    parent = os.path.dirname(out or "") or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"out: directory {parent!r} does not exist")


def _jsonify(obj):
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator,
                "value": float(obj)}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(blocks: Iterable[str], out: Optional[str]) -> None:
    """Write the strings in order to the file ``out``, or to stdout."""
    if out:
        try:
            fh = open(out, "w")
        except OSError as exc:
            raise ConfigError(f"out: {exc}") from exc
        with fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit([json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=_jsonify) + "\n"], out)


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
    weight = _make_weight(cfg, Q)
    report = arcs_mod.theorem_comparison(ds, cfg.k, weight)
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
    _emit_json(payload, cfg.out)
    return 0


def _q_to_the_k(cfg: ExperimentConfig) -> str:
    """"q^k = 10^5000": Q named by q and k, as a str of Q itself fails
    past 4,300 digits."""
    return f"q^k = {cfg.q}^{cfg.k}"


def _make_weight(cfg: ExperimentConfig, Q: int):
    """The weight on [0, Q), built only once Q = q^k is within the cap."""
    if Q > cfg.cap:
        raise CapExceededError(f"{_q_to_the_k(cfg)} exceeds cap {cfg.cap}")
    if cfg.weight == "mangoldt":
        return build_mangoldt(max(Q - 1, 1))
    return IntPolynomial(cfg.poly_coeffs)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

# Rows per block of the scan writer.  Its transient strings and lists
# (a few per row of one block) set ``scan``'s peak RSS: at q = 10, k = 5,
# a run peaked at 45 MB with blocks of 2^14 rows (``arcs.BLOCK``), 36 MB
# with 2^12 and 35 MB with 2^10.
CSV_BLOCK = 1 << 12


def cmd_scan(cfg: ExperimentConfig) -> int:
    cfg.validate()
    st = arcs_mod.pipeline_stages(
        cfg.digit_set(), cfg.k, _make_weight(cfg, cfg.q ** cfg.k),
        D0=cfg.D0, A_major=cfg.A_major
    )
    with _spill_file() as spill:
        _emit(_scan_csv_blocks(st, spill), cfg.out)
    return 0


def _spill_file() -> BinaryIO:
    """An anonymous temporary file, made before ``--out`` is opened."""
    tmp = None
    try:
        tmp = tempfile.gettempdir()
        return tempfile.TemporaryFile(dir=tmp)
    except OSError as exc:
        raise ConfigError(f"scan: cannot create a spill file in the temp "
                          f"directory {tmp!r}: {exc}") from exc


def _scan_csv_blocks(st: arcs_mod.PipelineStages,
                     spill: BinaryIO) -> Iterator[str]:
    """The scan CSV: its header, then at most ``CSV_BLOCK`` rows per
    string.

    The pair rule: row Q - m (m in ``mirror_paired(Q)``) repeats row m but for
    the sign of fhat_im, as F and S_w are conjugate-symmetric (see
    ``arcs.PipelineStages``).  So the rows a <= Q//2 are formatted block
    by block, and each block's mirror rows are built from the same
    strings, with fhat_im written as ``repr(-im)``: that is exactly the
    conjugate's imaginary part (-0.0 for 0.0, nan for nan), so no sign
    case needs proof.  The mirror rows of a block (a = Q - m ascending)
    are appended to ``spill``, an empty binary file, and read back in
    reverse block order after the last lower block, so memory stays
    O(``CSV_BLOCK``) and the spill grows to about half the CSV in the
    temp directory.  A failed spill write raises ``OSError`` as a
    failed ``--out`` write does; either leaves a partial ``--out``.
    """
    yield "a,fhat_re,fhat_im,fhat_abs,arc_class,s_abs\n"
    names = [cls.value for cls in arcs_mod.ARC_CLASSES]
    Q, stored = st.Q, st.codes.size  # rows a < stored = Q//2 + 1 are held
    paired = fou_mod.mirror_paired(Q)  # the m whose row Q - m is mirrored
    sizes = []
    for start in range(0, stored, CSV_BLOCK):
        stop = min(start + CSV_BLOCK, stored)
        f, s = st.fhat[start:stop], st.s_vals[start:stop]
        # np.hypot equals abs() of a Python complex bit for bit; the
        # complex np.abs differs from it in the last bit on many points.
        heads = [f",{re!r}," for re in f.real.tolist()]
        ims = f.imag.tolist()
        tails = [f",{fa!r},{names[c]},{sa!r}\n" for fa, c, sa in zip(
            np.hypot(f.real, f.imag).tolist(), st.codes[start:stop].tolist(),
            np.hypot(s.real, s.imag).tolist())]
        yield "".join(f"{a}{h}{im!r}{t}" for a, h, im, t in zip(
            range(start, stop), heads, ims, tails))
        lo, hi = max(start, paired.start), min(stop, paired.stop)
        if lo < hi:
            i, j = lo - start, hi - start
            data = "".join(f"{a}{h}{-im!r}{t}" for a, h, im, t in zip(
                range(Q - hi + 1, Q - lo + 1), reversed(heads[i:j]),
                reversed(ims[i:j]), reversed(tails[i:j]))).encode()
            spill.write(data)
            sizes.append(len(data))
    end = sum(sizes)
    for size in reversed(sizes):
        end -= size
        spill.seek(end)
        yield spill.read(size).decode()


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------

def cmd_arcs(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    Q = cfg.q ** cfg.k
    weight = _make_weight(cfg, Q)
    # first, so that a main term that is not finite exits before any
    # pipeline stage allocates
    comparison = arcs_mod.theorem_comparison(ds, cfg.k, weight)
    ledger = arcs_mod.circle_pipeline(
        ds, cfg.k, weight, D0=cfg.D0, A_major=cfg.A_major
    )
    payload = {
        "schema": SCHEMA,
        "config": cfg.public(),
        "total": ledger.total.real,
        "imag": ledger.total.imag,
        "per_class": {
            cls.value: {
                "sum": ledger.sums[cls],
                "count": ledger.counts[cls],
            }
            for cls in arcs_mod.ArcClass
        },
        "thresholds": {
            "D0": ledger.D0,
            "A_major": ledger.A_major,
            "threshold": ledger.threshold,
        },
        "main_term": comparison.main_term,
        "direct": comparison.direct,
        **_deviation_fields(comparison),
        "kappa": comparison.kappa,
    }
    _emit_json(payload, cfg.out)
    return 0


# ----------------------------------------------------------------------
# constants
# ----------------------------------------------------------------------

def cmd_constants(cfg: ExperimentConfig) -> int:
    cfg.validate()
    ds = cfg.digit_set()
    Q = cfg.q ** cfg.k
    q, s, run = cfg.q, ds.s, ds.consecutive_flag
    skipped = Q > cfg.cap
    payload = {
        "schema": SCHEMA, "config": cfg.public(),
        "q": q, "s": s, "consecutive": run,
        "Cq_analytic": fou_mod.analytic_Cq(q, s, run),
        "alpha": fou_mod.alpha(q, s, run),
        "Cq_empirical": (None if skipped else
                         fou_mod.empirical_Cq(FourierContext(ds, cfg.k))),
        "k": cfg.k,
    }
    if skipped:
        payload["Cq_empirical_reason"] = (
            f"{_q_to_the_k(cfg)} exceeds cap {cfg.cap}, so the L1 grid sum "
            "is skipped")
    _emit_json(payload, cfg.out)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

# The suites of ``verify.SUITES``, named here so that only ``verify``
# imports the catalogue.
VERIFY_SUITES = ("constants", "fourier", "expsums", "arcs")


def cmd_verify(suite: str, seed: int, out: Optional[str]) -> int:
    from . import verify as verify_mod

    _check_out_dir(out)
    payload = verify_mod.report(suite, seed)
    _emit_json({"schema": SCHEMA, **payload}, out)
    return 0 if payload["passed"] else 1


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
    p.add_argument("--out", type=str)
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
        ("cap", "cap", int), ("out", "out", str),
    ]
    unknown = sorted(set(file_vals) - {key for key, _, _ in mapping})
    if unknown:
        raise ConfigError(f"config: unknown key {unknown[0]!r}")
    for key, attr, conv in mapping:
        if key in file_vals:
            try:
                setattr(cfg, attr, conv(file_vals[key]))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{attr}: {file_vals[key]!r}") from exc
    for key, attr, conv in mapping:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, attr, conv(val))
    if args.exclude is None and "exclude" not in file_vals:
        raise ConfigError("excluded: required")
    if cfg.weight == "mangoldt" and (args.poly_coeffs is not None
                                     or "poly_coeffs" in file_vals):
        raise ConfigError("poly-coeffs: given with weight 'mangoldt', "
                          "which takes no polynomial")
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
    suites = [*VERIFY_SUITES, "all"]
    pv.add_argument("suite", choices=suites, metavar="suite",
                    help=" | ".join(suites))
    pv.add_argument("--seed", type=int, default=exp_mod.CALIBRATION_SEED)
    pv.add_argument("--out", type=str)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.seed, args.out)
        command = {"count": cmd_count, "scan": cmd_scan, "arcs": cmd_arcs,
                   "constants": cmd_constants}[args.command]
        return command(build_config(args))
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
