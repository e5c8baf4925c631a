"""Command-line surface: count, verify, scan, constants, arcs.

Exit codes: 0 success, 1 assertion failure, 2 config error, 3 resource cap,
141 (128 + SIGPIPE) stdout closed by its reader, with no traceback.
Reports are JSON (schema 1, which ``_emit_json`` adds to each) with the
generating config inline; grids are CSV with a fixed header, so every
number is reproducible from its file.

``CONFIG_KEYS`` is the one table of config keys: each entry names the
flag's dest, which is also the key of a ``--config`` file, the
``ExperimentConfig`` field and the parser of the value's text.  Every
flag takes text; ``build_config`` lays the flags over the file's values
and parses each text once, so a malformed value gives one error from
either source, ``config error: <field>: '<text>'`` (exit 2).  A write
that fails (a full disk, on ``--out``, stdout or scan's spill file) is a
config error too, exit 2 with one line naming what failed; a failed
stdout is pointed at devnull first, as a closed one is, so the
interpreter's last flush cannot raise again.

``main`` validates the config once, before any command runs.  ``--cap``
limits q^k and is checked once, by ``_make_weight`` (and by
``cmd_constants``), before any stage allocates.  ``_make_weight`` makes a
polynomial weight before that check, so the polynomial's own rule
(degree >= 1, positive lead) rejects a bad one ahead of the cap; for
``arcs`` and ``scan`` it then runs the pipeline's own argument check,
``arcs._grid`` (D0 >= 1, Q*D0 < 2^53, a finite threshold), before the
sieve is built.  ``count`` reads no D0 and does not run it; ``validate``
rejects a D0 below 1 for every command.  The library checks only
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
k, through one block of fields (``_comparison_fields``): the member count
(q - s)^k, the direct count, the main term, the relative deviation (null,
with its reason, when the main term is 0), kappa and the singular series
with its level J (each null where its weight has none).  So an ``arcs``
main term can be checked from its report alone.  At k = 0 the set is {0}
and the direct count is the weight at 0.
``verify`` emits the payload of the check catalogue in ``verify.py``.
Each command imports the modules it needs when it runs: only ``verify``
imports the catalogue, and ``constants`` imports neither ``arcs`` nor
``expsums``.  A ``--config`` file takes only the keys of the table; any
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
from .digits import DigitSet, bounded_power
from .errors import CapExceededError, ConfigError, DomainError
from .fourier import FourierContext

if TYPE_CHECKING:
    from .arcs import MainTermReport, PipelineStages

SCHEMA = 1


@dataclass
class ExperimentConfig:
    q: int = 10
    excluded: tuple = ()  # required: validate rejects the empty set
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
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(blocks: Iterable[str], out: Optional[str]) -> None:
    """Write the strings in order to the file ``out``, or to stdout.

    A failed open or write (a full disk) is a config error naming ``out``
    or stdout; a closed pipe stays a ``BrokenPipeError`` for ``main``.
    """
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(blocks)
        else:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()  # so that a failed write raises here
    except OSError as exc:
        if not out:
            # send what is left to devnull, so that the interpreter's last
            # flush cannot raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise  # the reader closed stdout: ``main`` exits 141
        raise ConfigError(f"{'out' if out else 'stdout'}: {exc}") from exc


def _emit_json(payload: dict, out: Optional[str]) -> None:
    """Emit the report ``payload`` as JSON, with ``SCHEMA`` added."""
    _emit([json.dumps(dict(payload, schema=SCHEMA), sort_keys=True, indent=2,
                      allow_nan=False, default=_jsonify) + "\n"], out)


def _comparison_fields(report: MainTermReport) -> dict:
    """The theorem comparison that ``count`` and ``arcs`` both report; a
    null deviation comes with why it is undefined."""
    fields = {"members": report.members, "direct": report.direct,
              "main_term": report.main_term, "deviation": report.deviation,
              "kappa": report.kappa,
              "singular_series_J": report.singular_series_J,
              "singular_series": report.singular_series_value}
    if report.deviation is None:
        fields["deviation_reason"] = ("main term is 0, so the relative "
                                      "deviation is undefined")
    return fields


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------

def cmd_count(cfg: ExperimentConfig) -> int:
    from . import arcs as arcs_mod

    report = arcs_mod.theorem_comparison(cfg.digit_set(), cfg.k,
                                         _make_weight(cfg))
    _emit_json({"config": cfg.public(), **_comparison_fields(report)},
               cfg.out)
    return 0


def _q_to_the_k(cfg: ExperimentConfig) -> str:
    """"q^k = 10^5000": Q named by q and k, as a str of Q itself fails
    past 4,300 digits."""
    return f"q^k = {cfg.q}^{cfg.k}"


def _make_weight(cfg: ExperimentConfig, pipeline: bool = False):
    """The weight on [0, Q).  A polynomial is made first, so that its own
    rule (degree >= 1, positive lead) is the one error for a bad one,
    ahead of the cap.  The sieve is built only once Q = q^k is within the
    cap and, for the ``pipeline`` commands, once ``arcs._grid`` accepts
    D0 and A."""
    from . import arcs as arcs_mod
    from .expsums import IntPolynomial, build_mangoldt

    poly = IntPolynomial(cfg.poly_coeffs) if cfg.weight == "poly" else None
    Q = bounded_power(cfg.q, cfg.k, cfg.cap)
    if Q > cfg.cap:
        raise CapExceededError(f"{_q_to_the_k(cfg)} exceeds cap {cfg.cap}")
    if pipeline:
        arcs_mod._grid(cfg.digit_set(), cfg.k, cfg.D0, cfg.A_major)
    return build_mangoldt(max(Q - 1, 1)) if poly is None else poly


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
        cfg.digit_set(), cfg.k, _make_weight(cfg, pipeline=True),
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
    half the CSV in the temp directory.  A failed spill write (a full
    temp directory) is a config error that names the spill file, as a
    failed ``--out`` write names ``out``; either leaves a partial
    ``--out``.
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
            try:
                sizes.append(spill.write(_csv_rows(
                    range(Q - hi + 1, Q - lo + 1), reversed(re[i:j]),
                    _negated_reprs(reversed(im[i:j])), reversed(fa[i:j]),
                    reversed(cls[i:j]), reversed(sa[i:j])).encode()))
            except OSError as exc:
                raise ConfigError(f"scan: spill file: {exc}") from exc
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
    weight = _make_weight(cfg, pipeline=True)
    # first, so that a main term that is not finite exits before any
    # pipeline stage allocates
    comparison = arcs_mod.theorem_comparison(ds, cfg.k, weight)
    ledger = arcs_mod.circle_pipeline(
        ds, cfg.k, weight, D0=cfg.D0, A_major=cfg.A_major
    )
    payload = {
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
        **_comparison_fields(comparison),
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
        "config": cfg.public(),
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
    _emit_json(payload, out)
    return 0 if payload["passed"] else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

def _parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


# The config keys, one entry each: the flag's argparse dest, which is also
# the key of a --config file, the ExperimentConfig field, the parser of
# the value's text, and the flag's help.
CONFIG_KEYS = (
    ("q", "q", int, None),
    ("exclude", "excluded", _parse_int_list,
     "comma-separated excluded digits"),
    ("k", "k", int, None), ("weight", "weight", str, None),
    ("poly_coeffs", "poly_coeffs", _parse_int_list,
     "comma-separated, constant term first"),
    ("d0", "D0", int, None), ("a_major", "A_major", float, None),
    ("cap", "cap", int, None), ("out", "out", str, None),
)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    for key, _, _, text in CONFIG_KEYS:
        p.add_argument("--" + key.replace("_", "-"), help=text)
    p.add_argument("--config", help="key=value config file")


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


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the flags laid over the ``--config`` file's values,
    each text parsed once, by its key's parser."""
    texts = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(texts) - {key for key, *_ in CONFIG_KEYS})
    if unknown:
        raise ConfigError(f"config: unknown key {unknown[0]!r}")
    texts.update((key, getattr(args, key)) for key, *_ in CONFIG_KEYS
                 if getattr(args, key) is not None)
    cfg = ExperimentConfig()
    for key, field, parse, _ in CONFIG_KEYS:
        if key in texts:
            try:
                setattr(cfg, field, parse(texts[key]))
            except ValueError as exc:
                raise ConfigError(f"{field}: {texts[key]!r}") from exc
    if cfg.weight == "mangoldt" and "poly_coeffs" in texts:
        raise ConfigError("poly-coeffs: given with weight 'mangoldt', "
                          "which takes no polynomial")
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    # looked up at each call, so that a cmd_* replaced on this module, as
    # perfbench/inproc.py wraps them to time them, is the one that runs
    commands = {"count": cmd_count, "scan": cmd_scan, "arcs": cmd_arcs,
                "constants": cmd_constants}
    parser = argparse.ArgumentParser(
        prog="digitlab",
        description="Circle-method lab for digit-restricted primes and "
                    "polynomial values",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _add_config_flags(sub.add_parser(name))
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
        cfg = build_config(args)
        cfg.validate()
        return commands[args.command](cfg)
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
        # the reader closed stdout (``| head``; ``_emit`` sent what is left
        # to devnull): exit as a shell reports a death by SIGPIPE (128 + 13)
        return 141


if __name__ == "__main__":
    sys.exit(main())
