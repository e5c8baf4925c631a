"""digitlab end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, table

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` each invocation is ``python -m
digitlab.cli ...`` in a fresh interpreter, one child at a time, started
until S seconds have passed (at least one).  Wall time is spawn to exit,
less the time the child was paused for speed probes; CPU time and peak RSS
come from the child's own rusage (``os.wait4``).  ``setup_s`` is the median
time of a fresh interpreter that only imports ``digitlab.cli``.  Wall, CPU
and set-up times are scaled to reference speed (see PROBE_PERIOD_S and
BARE_REF_S).  With
``--trace 1`` the workload runs in process (``perfbench/inproc.py``),
alternating untraced and traced children, and the per-layer metrics come
from the traced ones.

Every output is checked; an invocation fails if it exits non-zero, its
output is rejected by a strict parser or by the workload's check, or it is
not byte-identical to the first output of that workload in the run.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
Metric names and units are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import sys
import select
import signal
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPROC = HERE / "inproc.py"
PROBE = HERE / "probe.py"

# The calibration seed of ``digitlab verify``; it selects exclude 7.
DEFAULT_SEED = 20260826
# Excluded digits a seed picks from.  In base 50 the squares mod 50**4 stop
# the digit loop of ``contains`` after exactly the same 24,704,200 digit
# tests for each of these, so ``count-poly`` does equal work at every seed.
# All three leave two consecutive allowed digits in bases 10, 31 and 50.
DIGITS = (3, 5, 7)
SETUP_REPEATS = 21
# The host is shared: the same instructions take from 0.7x to 1.5x their
# usual time, in phases of a few seconds, and a loop on the second core
# slows the child by up to 2.5x.  So every PROBE_PERIOD_S the runner stops
# the child (SIGSTOP), times one slice of probe.py on the idle machine,
# and resumes it.  The paused time is taken out of the wall time, and wall
# and CPU time are scaled by the mean of PROBE_REF_S over each slice time:
# the mean speed over probes evenly spaced in the child's time, so seconds
# at reference speed.  PROBE_REF_S is about the slice time on a quiet host
# (Intel Xeon, 2.1 GHz, Python 3.11).
PROBE_PERIOD_S = 0.2
PROBE_REF_S = 0.007
# A set-up child ends before the first probe, so set-up time is scaled by
# a bare interpreter start (``python -c pass``) made just before each one:
# the same kind of work (exec, site, unmarshal, page faults) at the same
# moment.  BARE_REF_S is about its time on the quiet host above.
BARE_REF_S = 0.040
# Environment of the set-up children.  Importing numpy starts the OpenBLAS
# thread pool, whose start-up waits on the other core and so on the other
# tenants: it made set-up time bimodal.  The package does no BLAS work.
SETUP_ENV = {"OPENBLAS_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150.0

SCAN_HEADER = "a,fhat_re,fhat_im,fhat_abs,arc_class,s_abs"
ARC_CLASSES = {"major", "minor_denominator", "minor_offset"}


class CheckFailed(Exception):
    pass


def _reject_constant(name):
    raise CheckFailed(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"invalid JSON: {exc}") from exc


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ----------------------------------------------------------------------
# workloads: command line and output check
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    seed: int
    digit: int
    out_path: Path
    squares_avoiding: int  # reference for count-poly, computed once


def _digits_avoid(n: int, q: int, k: int, d: int) -> bool:
    return all((n // q ** i) % q != d for i in range(k))


def make_inputs(seed: int, out_dir: Path) -> Inputs:
    digit = DIGITS[seed % len(DIGITS)]
    # n**2 < 50**3 with all three base-50 digits of n**2 allowed
    squares = sum(1 for n in range(math.isqrt(50 ** 3 - 1) + 1)
                  if _digits_avoid(n * n, 50, 3, digit))
    return Inputs(seed, digit, out_dir / "scan.csv", squares)


def check_arcs(out: bytes, inp: Inputs) -> None:
    rep = strict_json(out.decode())
    counts = {c: v["count"] for c, v in rep["per_class"].items()}
    require(set(counts) == ARC_CLASSES, f"arc classes {sorted(counts)}")
    require(sum(counts.values()) == 10 ** 6,
            f"arc-class counts sum to {sum(counts.values())}, not Q")
    require(all(v > 0 for v in counts.values()),
            f"an arc class is empty: {counts}")
    rel = abs(rep["total"] - rep["direct"]) / max(1.0, rep["direct"])
    require(rel < 1e-6, f"pipeline vs direct rel err {rel:.3e}")
    require(rep["config"]["excluded"] == [inp.digit], "excluded digit")


def check_count(out: bytes, inp: Inputs) -> None:
    rep = strict_json(out.decode())
    require(rep["direct"] == float(inp.squares_avoiding),
            f"direct {rep['direct']} != reference {inp.squares_avoiding}")
    J = rep["singular_series_J"]
    ss = rep["singular_series"]
    require(J == 4, f"singular series level {J}")
    require(isinstance(ss["num"], int) and isinstance(ss["den"], int)
            and ss["den"] > 0, "singular series is not an exact fraction")
    require(49 ** J % ss["den"] == 0,
            f"denominator {ss['den']} does not divide 49^{J}")
    require(rep["config"]["excluded"] == [inp.digit], "excluded digit")


def check_scan(out: bytes, inp: Inputs) -> None:
    # Streamed row by row: the runner's own RSS must stay small (see
    # probe.py), and the CSV is 9 MB.
    require(out == b"", "scan wrote to stdout")
    with inp.out_path.open(newline="") as fh:
        header = fh.readline()
        require(header == SCAN_HEADER + "\n", f"header {header!r}")
        a = -1
        for a, row in enumerate(csv.reader(fh)):
            require(len(row) == 6 and int(row[0]) == a, f"row {a}: {row[:2]}")
            require(row[4] in ARC_CLASSES, f"row {a}: class {row[4]!r}")
            require(all(math.isfinite(float(v)) for v in row[1:4] + row[5:]),
                    f"row {a}: non-finite value")
            if a == 0:
                require(float(row[1]) == 9.0 ** 5,
                        f"fhat_re at a=0 is {row[1]}, not (q-s)^k")
    require(a + 1 == 10 ** 5, f"{a + 1} rows, not Q")


def check_constants(out: bytes, inp: Inputs) -> None:
    rep = strict_json(out.decode())
    lower = 30 / (31 * math.log(31))
    emp, ana = rep["Cq_empirical"], rep["Cq_analytic"]
    require(rep["k"] == 4, f"k {rep['k']}")
    require(lower <= emp <= ana,
            f"not {lower:.6f} <= Cq_empirical {emp} <= Cq_analytic {ana}")


def check_verify(out: bytes, inp: Inputs) -> None:
    rep = strict_json(out.decode())
    require(rep["passed"] is True, f"failures: {rep['failures']}")
    require(rep["seed"] == inp.seed, "seed not echoed")


@dataclass
class Workload:
    name: str
    argv: Callable[[Inputs], List[str]]
    check: Callable[[bytes, Inputs], None]


def _cfg(*flags: str) -> Callable[[Inputs], List[str]]:
    return lambda inp: [f.format(d=inp.digit, out=inp.out_path, seed=inp.seed)
                        for f in flags]


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    Workload("arcs-mangoldt",
             _cfg("arcs", "--q", "10", "--exclude", "{d}", "--k", "6",
                  "--weight", "mangoldt", "--a-major", "2.0"),
             check_arcs),
    Workload("count-poly",
             _cfg("count", "--q", "50", "--exclude", "{d}", "--k", "3",
                  "--weight", "poly", "--poly-coeffs", "0,0,1"),
             check_count),
    Workload("scan-csv",
             _cfg("scan", "--q", "10", "--exclude", "{d}", "--k", "5",
                  "--weight", "mangoldt", "--a-major", "2.0",
                  "--out", "{out}"),
             check_scan),
    Workload("constants-l1",
             _cfg("constants", "--q", "31", "--exclude", "{d}", "--k", "4"),
             check_constants),
    Workload("verify-all",
             _cfg("verify", "all", "--seed", "{seed}"),
             check_verify),
]}


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@dataclass
class Run:
    wall_s: float  # spawn to exit, minus the time the child was paused
    cpu_s: float
    rss_mb: float
    rc: int
    probes: List[float] = field(default_factory=list)  # probe times, s


class Prober:
    """The probe.py helper process: ``time_slice()`` times one probe."""

    def __enter__(self) -> "Prober":
        self.proc = subprocess.Popen([sys.executable, str(PROBE)],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        return self

    def time_slice(self) -> float:
        self.proc.stdin.write(b"x")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _env(**extra: str) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: List[str], stdout: Path, stderr: Path,
          prober: Optional[Prober] = None, env: Optional[dict] = None) -> Run:
    """Start ``python args...`` and wait for it; return its own rusage.
    With a ``prober``, pause it every PROBE_PERIOD_S to time one probe.
    ``env`` defaults to ``_env()``."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                         env or _env(), file_actions=actions)
    probes, paused, reaped = [], 0.0, None
    pidfd = os.pidfd_open(pid)
    try:
        while reaped is None:
            if select.select([pidfd], [], [],
                             PROBE_PERIOD_S if prober else 1.0)[0]:
                break  # exited
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                os.kill(pid, signal.SIGKILL)  # hung: end the run in time
                break
            if prober is None:
                continue
            os.kill(pid, signal.SIGSTOP)
            waited = os.wait4(pid, os.WUNTRACED)
            if not os.WIFSTOPPED(waited[1]):
                reaped = waited  # exited before it stopped
                break
            p0 = time.perf_counter()
            probes.append(prober.time_slice())
            os.kill(pid, signal.SIGCONT)
            paused += time.perf_counter() - p0
        _, status, ru = reaped or os.wait4(pid, 0)
    except BaseException:
        if reaped is None:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        raise
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0 - paused
    return Run(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6,
               os.waitstatus_to_exitcode(status), probes)


class Session:
    """One workload at one seed: inputs, output checks and failure counts."""

    def __init__(self, wl: Workload, seed: int, tmp: Path):
        self.wl = wl
        self.tmp = tmp
        self.inputs = make_inputs(seed, tmp)
        self.first_digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.output_bytes = 0  # of the last invocation: stdout + --out file

    def verdict(self, rc: int, stdout: Path) -> bool:
        """Check one invocation's outputs; count and record a failure."""
        self.attempted += 1
        try:
            require(rc == 0, f"exit code {rc}: "
                    + (self.tmp / "stderr").read_text()[-300:])
            out = stdout.read_bytes()
            self.wl.check(out, self.inputs)
            digest = hashlib.sha256(out)
            self.output_bytes = len(out)
            if self.inputs.out_path.exists():
                with self.inputs.out_path.open("rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        digest.update(chunk)
                        self.output_bytes += len(chunk)
            digest = digest.hexdigest()
            if self.first_digest is None:
                self.first_digest = digest
            require(digest == self.first_digest,
                    "output differs from the first output of this run")
        except (CheckFailed, AttributeError, IndexError, KeyError, TypeError,
                ValueError, OSError, csv.Error) as exc:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{type(exc).__name__}: {exc}")
            return False
        finally:
            self.inputs.out_path.unlink(missing_ok=True)
        return True

    def cli_args(self) -> List[str]:
        return self.wl.argv(self.inputs)

    def invoke(self, prober: Prober) -> Run:
        stdout = self.tmp / "stdout"
        run = spawn(["-m", "digitlab.cli", *self.cli_args()], stdout,
                    self.tmp / "stderr", prober)
        self.verdict(run.rc, stdout)
        return run

    def inproc(self, trace: bool, n: int) -> Optional[dict]:
        """One in-process run; its result dict, or None if it failed."""
        stdout, result = self.tmp / "stdout", self.tmp / f"inv{n}.json"
        result.unlink(missing_ok=True)
        run = spawn([str(INPROC), str(result), "1" if trace else "0", "--",
                     *self.cli_args()], stdout, self.tmp / "stderr")
        if not result.exists():
            self.verdict(run.rc or 1, stdout)
            return None
        res = json.loads(result.read_text())
        return res if self.verdict(res["rc"], stdout) else None


def setup_runs(tmp: Path) -> List[tuple]:
    """(bare, set-up) wall-time pairs: a bare interpreter start, then a
    fresh interpreter that only imports digitlab.cli.  The first pair
    warms the bytecode cache and is not counted."""
    bare_env = dict(os.environ, **SETUP_ENV)  # no src: nothing of the package
    pairs = []
    for i in range(SETUP_REPEATS + 1):
        bare = spawn(["-c", "pass"], tmp / "stdout", tmp / "stderr",
                     env=bare_env)
        run = spawn(["-c", "import digitlab.cli"], tmp / "stdout",
                    tmp / "stderr", env=_env(**SETUP_ENV))
        if run.rc != 0 or bare.rc != 0:
            raise SystemExit("a set-up run failed:\n"
                             + (tmp / "stderr").read_text()[-2000:])
        if i:
            pairs.append((bare.wall_s, run.wall_s))
    return pairs


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def tail(values: List[float]) -> str:
    """Median plus the highest percentile with ten samples beyond it."""
    n = len(values)
    med = statistics.median(values)
    p = math.floor(100 * (1 - 10 / n)) if n >= 20 else None
    if p is None:
        return f"median {med:.4f} (n={n}; too few samples for a tail " \
               f"percentile; max {max(values):.4f})"
    val = statistics.quantiles(values, n=100)[p - 1]
    return f"median {med:.4f}, p{p} {val:.4f} (n={n})"


def speed_scale(run: Run, fallback: List[Run]) -> float:
    """Mean of PROBE_REF_S over each probe time during ``run`` (or during
    ``fallback`` if no probe fell inside it)."""
    probes = run.probes or [t for r in fallback for t in r.probes]
    return statistics.mean(PROBE_REF_S / t for t in probes) if probes else 1.0


def end_to_end(sess: Session, seconds: float) -> dict:
    """Times at reference speed.  Each invocation is scaled by the probes
    taken while it ran (see PROBE_PERIOD_S); each set-up run by the bare
    interpreter start made just before it (see BARE_REF_S)."""
    setup = setup_runs(sess.tmp)
    setups = [run / bare * BARE_REF_S for bare, run in setup]
    with Prober() as prober:
        runs = []
        deadline = time.perf_counter() + seconds
        while not runs or time.perf_counter() < deadline:
            runs.append(sess.invoke(prober))
    scales = [speed_scale(r, runs) for r in runs]
    walls = [r.wall_s * f for r, f in zip(runs, scales)]
    print(f"# wall_s as measured: {tail([r.wall_s for r in runs])}")
    print(f"# wall_s at reference speed: {tail(walls)}")
    print(f"# speed scale {min(scales):.4f}..{max(scales):.4f} from "
          f"{sum(len(r.probes) for r in runs)} probes")
    print(f"# setup_s as measured: {tail([r for _, r in setup])}; bare "
          f"interpreter start: {tail([b for b, _ in setup])}")
    print(f"# setup_s at reference speed: {tail(setups)}")
    print(f"# failed_share {sess.failed / sess.attempted:.4f} "
          f"({sess.failed}/{sess.attempted})")
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(r.cpu_s * f for r, f in zip(runs, scales)),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "setup_s": statistics.median(setups),
    }


def self_times(spans: list) -> dict:
    """Per span name: summed duration minus the time of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _, _), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - c
    return out


def per_layer(res: dict, sess: Session) -> dict:
    """Per-layer metric values from one traced run."""
    selfs = self_times(res["spans"])
    counts = res["counts"]
    m = {f"{name}_s": t for name, t in selfs.items()}
    m.update(counts)
    names = [s[0] for s in res["spans"]]
    m["summation.pairwise_calls"] = names.count("summation.pairwise")
    m["arcs.major_share"] = (counts.get("arcs.major", 0)
                             / counts["arcs.classify_points"]
                             if counts.get("arcs.classify_points") else 0.0)
    m["arcs.pair_hit_share"] = (counts.get("arcs.pair_hits", 0)
                                / counts["arcs.pair_tests"]
                                if counts.get("arcs.pair_tests") else 0.0)
    m["cli.output_bytes"] = sess.output_bytes
    return m


def traced(sess: Session, seconds: float) -> dict:
    """Alternate untraced and traced in-process runs for ``seconds``."""
    plain, layered, notes = [], [], []
    available = {"cli.output_bytes", "trace.overhead_s"}
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        res = sess.inproc(False, n)
        if res is not None:
            plain.append(res["wall_s"])
        res = sess.inproc(True, n + 1)
        n += 2
        if res is None:
            continue
        available.update(res["available"])
        layer = per_layer(res, sess)
        layer["trace.overhead_s"] = res["wall_s"]  # made relative below
        layered.append(layer)
        notes += [t for t in res["notes"] if t not in notes]
    for t in notes:
        print(f"# note: {t}")
    if not layered:
        return {}
    # A hook that is installed but never called measured zero work.
    out = dict.fromkeys(available, 0)
    out.update(layered[0])  # counts are exact; times take the median
    for key in out:
        if key.endswith("_s"):
            out[key] = statistics.median(m.get(key, 0.0) for m in layered)
    if plain:
        out["trace.overhead_s"] -= statistics.median(plain)
    else:
        del out["trace.overhead_s"]
    zero = sorted(k for k, v in out.items() if v == 0)
    if zero:
        print(f"# reported as 0 (no work in that layer on this workload): "
              f"{', '.join(zero)}")
    if min(len(plain), len(layered)) < 3:
        print(f"# note: trace.overhead_s rests on {len(plain)} untraced and "
              f"{len(layered)} traced run(s); host noise dominates it and it "
              "can be negative, so it cannot be compared across runs")
    return out


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        sess = Session(wl, seed, Path(tmp))
        print(f"# workload {wl.name} seed {seed} exclude {sess.inputs.digit}:"
              f" digitlab {' '.join(sess.cli_args())}")
        values = traced(sess, seconds) if trace else end_to_end(sess, seconds)
    for p in sess.problems:
        print(f"# failure: {p}")
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            print(f"# missing metric {m['name']}: its hook was not found "
                  "or no traced run succeeded")
    return {"correct": sess.failed == 0 and sess.attempted > 0,
            "attempted": sess.attempted, "failed": sess.failed,
            "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds: the child is killed and reaped


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "digitlab" / "cli.py").is_file():
        sys.stderr.write(f"no digitlab sources under {SRC}; run from a "
                         "source checkout\n")
        return 2
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds,
                               bool(args.trace), spec) for n in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for n, r in results.items():
        share = r["failed"] / r["attempted"]
        print(f"{n:>14}  failed_share {share:.4f} ratio")
        for k, v in r["metrics"].items():
            print(f"{n:>14}  {k} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
