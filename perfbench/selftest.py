"""Self-test of the benchmark.

    python3 perfbench/selftest.py [WORKLOAD ...]

Runs each workload (default: all) traced twice and checks that the exact
counts repeat and that the layer with the largest self time is the one the
profile of the package predicts.  Also checks that a missing hook becomes a
note, not a failure, and that the strict JSON parser rejects NaN.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inproc  # noqa: E402
import run  # noqa: E402

# Exact counts: equal across runs of the same code and inputs.
COUNT_SUFFIXES = ("_points", "_calls", "prime_powers", "pair_tests",
                  "output_bytes", "major_share", "members_enumerated")

# Layer with the largest self time, from an in-process profile.
DOMINANT = {
    "arcs-mangoldt": {"arcs.classify_s"},
    "count-poly": {"arcs.singular_series_s"},
    "scan-csv": {"cli.format_s", "arcs.classify_s"},
    "constants-l1": {"fourier.l1_s"},
}


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def traced_once(wl: run.Workload, n: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as tmp:
        sess = run.Session(wl, run.DEFAULT_SEED, Path(tmp))
        res = sess.inproc(True, n)
        if res is None:
            fail(f"{wl.name}: traced run failed: {sess.problems}")
        return run.per_layer(res, sess)


def check_workload(name: str) -> None:
    wl = run.WORKLOADS[name]
    a, b = traced_once(wl, 0), traced_once(wl, 1)
    counts = sorted(k for k in a if k.endswith(COUNT_SUFFIXES))
    if not counts:
        fail(f"{name}: no counts recorded")
    for key in counts:
        if a[key] != b.get(key):
            fail(f"{name}: {key} differs between runs: {a[key]} vs "
                 f"{b.get(key)}")
    selfs = {k: v for k, v in a.items()
             if k.endswith("_s") and k != "trace.observe_s"}
    top = max(selfs, key=selfs.get)
    if name in DOMINANT and top not in DOMINANT[name]:
        fail(f"{name}: largest self time is {top} ({selfs[top]:.3f} s), "
             f"expected one of {sorted(DOMINANT[name])}")
    print(f"ok {name}: {len(counts)} counts repeat; largest self time "
          f"{top} {selfs[top]:.3f} s")


def check_missing_hook() -> None:
    tracer = inproc.Tracer("selftest")
    inproc._patch(tracer, "digitlab.arcs._no_such_function", lambda f: f)
    inproc._patch(tracer, "digitlab.no_such_module.f", lambda f: f)
    if len(tracer.notes) != 2 or not all("hook not found" in t
                                         for t in tracer.notes):
        fail(f"missing hooks gave notes {tracer.notes}")
    print("ok missing hooks become notes")


def check_strict_json() -> None:
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}'):
        try:
            run.strict_json(text)
        except run.CheckFailed:
            continue
        fail(f"strict_json accepted {text}")
    print("ok strict JSON rejects NaN and Infinity")


def main(argv) -> int:
    sys.path.insert(0, str(run.SRC))
    check_strict_json()
    check_missing_hook()
    for name in argv or list(run.WORKLOADS):
        check_workload(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
