"""Run ``digitlab.cli.main(argv)`` once inside this interpreter.

    python3 perfbench/inproc.py RESULT.json TRACE -- ARGV...

The program writes its report to this process's stdout as usual.  The time
of the ``main(argv)`` call (imports excluded), its return code and, with
TRACE = 1, the spans and counters recorded around the calls into each
layer are written to RESULT.json when the run ends.

Hooks are wrapped from outside the program, by dotted name, at run time.
A hook whose module attribute is gone is skipped with a note naming it, so
a rename in the package removes a per-layer metric but never fails a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

CLI_COMMANDS = ["digitlab.cli.cmd_count", "digitlab.cli.cmd_scan",
                "digitlab.cli.cmd_arcs", "digitlab.cli.cmd_constants",
                "digitlab.cli.cmd_verify"]

# span name -> dotted functions whose calls the span covers.  A metric
# "<span>_s" is the summed self time of the span.
SPANS = {
    "cli.format": CLI_COMMANDS,
    "arcs.classify": ["digitlab.arcs._classification"],
    "arcs.ledger": ["digitlab.arcs.circle_pipeline"],
    "arcs.weight": ["digitlab.arcs._weight_vector"],
    "arcs.fft": ["numpy.fft.fft"],
    "arcs.direct": ["digitlab.arcs.direct_count"],
    "arcs.singular_series": ["digitlab.arcs.singular_series_pair_count"],
    "fourier.grid": ["digitlab.fourier.grid_values"],
    "fourier.l1": ["digitlab.fourier.l1_grid_sum"],
    "fourier.oracle": ["digitlab.fourier.eval_product",
                       "digitlab.fourier.eval_product_real",
                       "digitlab.fourier.eval_direct",
                       "digitlab.fourier.digit_factor"],
    "expsums.sieve": ["digitlab.expsums.build_mangoldt"],
    "expsums.sweep": ["digitlab.expsums.bound_ratio_report"],
    "summation.pairwise": ["digitlab.summation.pairwise_sum"],
}

OBSERVE_SPAN = "trace.observe"

# Functions too hot for a span (millions of calls): count calls only.
CALL_COUNTERS = {"digits.contains_calls": "digitlab.digits.contains"}
# Generators: count the items they yield.
YIELD_COUNTERS = {
    "digits.members_enumerated": "digitlab.digits.enumerate_members",
}


def _observe_classify(tr, args, result):
    tr.counts["arcs.classify_points"] += len(result)
    if len(result):
        tr.counts["arcs.major"] += result.count(type(result[0])("major"))


def _observe_pipeline(tr, args, result):
    key = (args["ds"], args["k"], id(args["weight"]))
    tr.pipeline_totals[key] = result.total


def _observe_direct(tr, args, result):
    key = (args["ds"], args["k"], id(args["weight"]))
    tr.direct_counts[key] = result


def _observe_pairs(tr, args, result):
    tr.counts["arcs.pair_tests"] += args["ds"].q ** args["J"]
    tr.counts["arcs.pair_hits"] += result


def _observe_grid(tr, args, result):
    tr.counts["fourier.grid_points"] += result.size
    tr.counts["fourier.grid_bytes"] += result.nbytes


def _observe_l1(tr, args, result):
    tr.counts["fourier.l1_points"] += args["ctx"].Q


def _observe_sieve(tr, args, result):
    tr.counts["expsums.prime_powers"] += len(result.entries_n)


# dotted hook -> (observer, metrics it yields besides its span's "_s").
OBSERVERS = {
    "digitlab.arcs._classification":
        (_observe_classify, ["arcs.classify_points", "arcs.major_share"]),
    "digitlab.arcs.circle_pipeline": (_observe_pipeline, ["arcs.rel_err"]),
    "digitlab.arcs.direct_count": (_observe_direct, ["arcs.rel_err"]),
    "digitlab.arcs.singular_series_pair_count":
        (_observe_pairs, ["arcs.pair_tests", "arcs.pair_hit_share"]),
    "digitlab.fourier.grid_values":
        (_observe_grid, ["fourier.grid_points", "fourier.grid_bytes"]),
    "digitlab.fourier.l1_grid_sum": (_observe_l1, ["fourier.l1_points"]),
    "digitlab.expsums.build_mangoldt":
        (_observe_sieve, ["expsums.prime_powers"]),
    "digitlab.summation.pairwise_sum":
        (None, ["summation.pairwise_calls"]),
}


class Tracer:
    """In-memory spans ``[name, start, end, parent, invocation]`` and counts."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.ticks = {}
        self.notes = []
        self.available = set()  # metrics whose hooks are installed
        self.pipeline_totals = {}
        self.direct_counts = {}

    def note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def span_wrapper(self, name, dotted, fn):
        observe, metrics = OBSERVERS.get(dotted, (None, []))
        self.available.update([f"{name}_s", *metrics])
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            sig = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            row = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                   self.invocation]
            self.spans.append(row)
            self.stack.append(idx)
            row[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                # A sibling span, so the parent's self time excludes it.
                obs = [OBSERVE_SPAN, time.perf_counter(), 0.0, row[3],
                       self.invocation]
                self.spans.append(obs)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observe(self, bound.arguments, result)
                except Exception as exc:  # a changed signature loses a count
                    self.note(f"observer for {dotted} failed: {exc!r}")
                finally:
                    obs[2] = time.perf_counter()
            return result

        return wrapper

    def call_counter(self, key, fn):
        # A C-level tick is the cheapest count a Python wrapper can make.
        ticks = self.ticks[key] = itertools.count()
        tick = ticks.__next__
        self.available.add(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def yield_counter(self, key, fn):
        counts = self.counts
        self.available.add(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def install(self) -> None:
        for name, targets in SPANS.items():
            for dotted in targets:
                _patch(self, dotted,
                       lambda fn, n=name, d=dotted: self.span_wrapper(n, d, fn))
        for key, dotted in CALL_COUNTERS.items():
            _patch(self, dotted, lambda fn, k=key: self.call_counter(k, fn))
        for key, dotted in YIELD_COUNTERS.items():
            _patch(self, dotted, lambda fn, k=key: self.yield_counter(k, fn))

    def result(self) -> dict:
        for key, ticks in self.ticks.items():
            self.counts[key] = next(ticks)
        errs = [abs(total - self.direct_counts[key]) /
                max(1.0, self.direct_counts[key])
                for key, total in self.pipeline_totals.items()
                if key in self.direct_counts]
        if errs:
            self.counts["arcs.rel_err"] = max(errs)
        return {"spans": self.spans, "counts": dict(self.counts),
                "notes": self.notes, "available": sorted(self.available)}


def _patch(tracer: Tracer, dotted: str, make_wrapper) -> None:
    """Replace ``dotted`` in its module and in every digitlab module that
    imported the same function object under any name."""
    modname, _, attr = dotted.rpartition(".")
    try:
        home = importlib.import_module(modname)
        orig = getattr(home, attr)
    except (ImportError, AttributeError):
        tracer.note(f"hook not found: {dotted}")
        return
    wrapped = make_wrapper(orig)
    mods = [home] + [m for n, m in list(sys.modules.items())
                     if (n == "digitlab" or n.startswith("digitlab."))
                     and m is not home]
    for mod in mods:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)


def main() -> int:
    result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        sys.stderr.write(__doc__)
        return 2
    import digitlab.cli as cli

    tracer = None
    if trace == "1":
        tracer = Tracer(invocation=Path(result_path).stem)
        tracer.install()
    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    out = {"wall_s": wall, "rc": rc}
    if tracer is not None:
        out.update(tracer.result())
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
