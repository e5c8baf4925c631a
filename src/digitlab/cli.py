"""Command-line surface: count, verify, scan, constants, arcs.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 resource cap,
141 (128 + SIGPIPE) stdout closed by its reader, with no traceback.
Reports are JSON (schema 1) with the generating config inline; grids are
CSV with a fixed header, so every number is reproducible from its file.

``main`` validates the config once, before any command runs.  ``--cap``
limits q^k and is checked once, by ``_make_weight`` (and by
``cmd_constants``), before any stage allocates.  The library checks only
its fixed caps: ``fourier.GRID_CAP``, ``expsums.MANGOLDT_CAP``,
``expsums.POLY_SCAN_CAP``, ``digits.ENUMERATION_CAP``, ``digits.BASE_CAP``
(when the ``DigitSet`` is made) and ``arcs.PAIR_COUNT_CAP``.  Every cap on
a power is checked by ``digits.bounded_power``, without building the
power, so a k of ten million is rejected at once.  The directory of
``--out`` must exist before any stage runs (``validate`` and
``cmd_verify``), and ``validate`` rejects an ``--a-major`` whose threshold
(log Q)^A would overflow, naming the largest A it accepts.

``arcs`` reduces the circle pipeline to its ledger in one pass
(``arcs.circle_pipeline``); ``scan`` writes the per-point stages
(``arcs.pipeline_stages``), which hold a <= Q//2 only.  ``scan`` writes
each stored float through ``repr`` once, in blocks of ``CSV_BLOCK`` rows:
row Q - a reuses the strings of row a, with the sign of fhat_im flipped
on its string, and each block's rows are joined into one string.  It
streams the rows a <= Q//2 to the output and spills their mirror rows to
an anonymous temporary file, read back after them (``_scan_csv_blocks``).
It creates the spill file, and then opens the output, only once every
stage has succeeded, so a failed run leaves an existing file untouched.

``count`` and ``arcs`` both report ``arcs.theorem_comparison`` at every
k; at k = 0 the set is {0} and the direct count is the weight at 0.
``verify`` emits the payload of the check catalogue in ``verify.py``.
Each command imports the modules it needs when it runs: only ``verify``
imports the catalogue, and ``constants`` imports neither ``arcs`` nor
``expsums``.  A ``--config`` file takes only the keys
of the config flags (``exclude``, ``poly_coeffs``, ``d0``, ...); any
other key is a config error, and so is a polynomial given, by flag or
file, with the von Mangoldt weight.  Messages name Q as q^k by q and k,
since Python will not write an int of more than 4,300 digits.

Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is set,
before numpy loads: the package does no BLAS work, and OpenBLAS's thread
pool made up a third of a run's start-up.
"""

from __future__ import annotations

import os

# before any import of numpy, which starts OpenBLAS's threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import sys
import tempfile
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import (TYPE_CHECKING, BinaryIO, Iterable, Iterator, List,
                    Optional)

import numpy as np

from . import fourier as fou_mod
from .digits import DigitSet, bounded_power, count_below
from .errors import CapExceededError, ConfigError, DomainError
from .fourier import FourierContext

if TYPE_CHECKING:
    from .arcs import MainTermReport, PipelineStages

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
        # log Q as arc_threshold takes it, where a command evaluates it
        Q = bounded_power(self.q, self.k, fou_mod.GRID_CAP)
        lg = (math.log(Q) if Q <= fou_mod.GRID_CAP
              else self.k * math.log(self.q))
        limit = max_a_major(lg)
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


def max_a_major(lg: float) -> float:
    """The largest float A for which ``lg**A`` is finite, lg = log Q.

    With lg = math.log(Q) that is the largest A at which
    ``arcs.arc_threshold(Q, A)`` is finite.  lg**A overflows once
    A*log(lg) passes the log of the largest float; that quotient lies
    within a few ulps of the boundary, and the steps below find it
    exactly.  lg <= 1 (Q <= e) never overflows.
    """
    if lg <= 1.0:
        return math.inf

    def finite(a: float) -> bool:
        try:
            return math.isfinite(lg ** a)
        except OverflowError:
            return False

    a = math.log(sys.float_info.max) / math.log(lg)
    while not finite(a):
        a = math.nextafter(a, 0.0)
    while finite(math.nextafter(a, math.inf)):
        a = math.nextafter(a, math.inf)
    return a


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
        sys.stdout.flush()  # a closed pipe raises here, inside ``main``


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit([json.dumps(payload, sort_keys=True, indent=2, allow_nan=False,
                      default=_jsonify) + "\n"], out)


def _deviation_fields(report: MainTermReport) -> dict:
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
    from . import arcs as arcs_mod

    ds = cfg.digit_set()
    weight = _make_weight(cfg)
    report = arcs_mod.theorem_comparison(ds, cfg.k, weight)
    payload = {
        "schema": SCHEMA,
        "config": cfg.public(),
        "members": count_below(ds, cfg.q ** cfg.k, cfg.k),
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


def _make_weight(cfg: ExperimentConfig):
    """The weight on [0, Q), built only once Q = q^k is within the cap."""
    from .expsums import IntPolynomial, build_mangoldt

    Q = bounded_power(cfg.q, cfg.k, cfg.cap)
    if Q > cfg.cap:
        raise CapExceededError(f"{_q_to_the_k(cfg)} exceeds cap {cfg.cap}")
    if cfg.weight == "mangoldt":
        return build_mangoldt(max(Q - 1, 1))
    return IntPolynomial(cfg.poly_coeffs)


# ----------------------------------------------------------------------
# scan
# ----------------------------------------------------------------------

# Rows per block of the scan writer.  Its transient strings and lists
# (about 740 B per row of one block) set ``scan``'s peak RSS: at q = 10,
# k = 5, A = 2, a run peaked at 46.2 MiB with blocks of 2^14 rows
# (``arcs.BLOCK``), 37.3 with 2^12, 35.1 with 2^10 and 34.6 with 2^8,
# with the same CPU time from 2^8 to 2^12.
CSV_BLOCK = 1 << 10


def cmd_scan(cfg: ExperimentConfig) -> int:
    from . import arcs as arcs_mod

    st = arcs_mod.pipeline_stages(
        cfg.digit_set(), cfg.k, _make_weight(cfg),
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


def _negated_reprs(strs: Iterable[str]) -> List[str]:
    """``repr(-x)`` for each ``repr(x)`` in ``strs``, for every float x."""
    return [s[1:] if s[0] == "-" else s if s == "nan" else "-" + s
            for s in strs]


def _csv_rows(a: range, *columns: Iterable[str]) -> str:
    """The rows (a, *columns) as one string, each row joined in C."""
    return "\n".join(map(",".join, zip(map(str, a), *columns))) + "\n"


def _scan_csv_blocks(st: PipelineStages,
                     spill: BinaryIO) -> Iterator[str]:
    """The scan CSV: its header, then at most ``CSV_BLOCK`` rows per
    string.

    The pair rule: row Q - m (m in ``mirror_paired(Q)``) repeats row m but for
    the sign of fhat_im, as F and S_w are conjugate-symmetric (see
    ``arcs.PipelineStages``).  So each block of rows a <= Q//2 puts its
    four float columns through ``repr`` once, and its mirror rows reuse
    those strings, with fhat_im from ``_negated_reprs``.  That equals
    ``repr(-im)``: Python's float repr writes "-" when the sign bit is
    set, then the shortest digits of |x| ("0.0", "inf", ...), and every
    nan, of either sign and any payload, as "nan".  Negation flips only
    the sign bit, so it adds or strips the "-" and leaves "nan" alone.
    The mirror rows of a block (a = Q - m ascending) are formatted first
    and appended to ``spill``, an empty binary file, then the block's own
    rows; each is one string whose rows are joined in C (``_csv_rows``).
    The spill is read back in reverse block order after the last lower
    block, so memory stays O(``CSV_BLOCK``) and the spill grows to about
    half the CSV in the temp directory.  A failed spill write raises
    ``OSError`` as a failed ``--out`` write does; either leaves a
    partial ``--out``.
    """
    from .arcs import ARC_CLASSES as names

    yield "a,fhat_re,fhat_im,fhat_abs,arc_class,s_abs\n"
    Q, stored = st.Q, st.codes.size  # rows a < stored = Q//2 + 1 are held
    paired = fou_mod.mirror_paired(Q)  # the m whose row Q - m is mirrored
    sizes = []
    for start in range(0, stored, CSV_BLOCK):
        stop = min(start + CSV_BLOCK, stored)
        f = st.fhat[start:stop]
        # np.hypot equals abs() of a Python complex bit for bit; the
        # complex np.abs differs from it in the last bit on many points.
        re, im, fa, sa = (list(map(repr, x.tolist())) for x in (
            f.real, f.imag, np.hypot(f.real, f.imag), st.s_abs[start:stop]))
        cls = [names[c] for c in st.codes[start:stop].tolist()]
        lo, hi = max(start, paired.start), min(stop, paired.stop)
        if lo < hi:  # the rows a = Q - m, m from hi - 1 down to lo
            i, j = lo - start, hi - start
            sizes.append(spill.write(_csv_rows(
                range(Q - hi + 1, Q - lo + 1), reversed(re[i:j]),
                _negated_reprs(reversed(im[i:j])), reversed(fa[i:j]),
                reversed(cls[i:j]), reversed(sa[i:j])).encode()))
        yield _csv_rows(range(start, stop), re, im, fa, cls, sa)
    end = sum(sizes)
    for size in reversed(sizes):
        end -= size
        spill.seek(end)
        yield spill.read(size).decode()


# ----------------------------------------------------------------------
# arcs
# ----------------------------------------------------------------------

def cmd_arcs(cfg: ExperimentConfig) -> int:
    from . import arcs as arcs_mod

    ds = cfg.digit_set()
    weight = _make_weight(cfg)
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
            name: {"sum": ledger.sums[code], "count": ledger.counts[code]}
            for code, name in enumerate(arcs_mod.ARC_CLASSES)
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
    ds = cfg.digit_set()
    q, s, run = cfg.q, ds.s, ds.consecutive_flag
    skipped = bounded_power(q, cfg.k, cfg.cap) > cfg.cap
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


def cmd_verify(suite: str, seed: Optional[int], out: Optional[str]) -> int:
    """The catalogue's report; ``seed`` None is its calibration seed."""
    from . import verify as verify_mod
    from .expsums import CALIBRATION_SEED

    _check_out_dir(out)
    payload = verify_mod.report(suite,
                                CALIBRATION_SEED if seed is None else seed)
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
    pv.add_argument("--seed", type=int)
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
        cfg = build_config(args)
        cfg.validate()
        return command(cfg)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except CapExceededError as exc:
        sys.stderr.write(f"resource cap: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed stdout (``| head``): send what is left to
        # devnull, so the interpreter's last flush cannot raise again, and
        # exit as a shell reports a death by SIGPIPE (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
