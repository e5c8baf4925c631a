"""Run the benchmark in alternating pairs on a parent checkout and on this
one, and write the comparison that a speed claim rests on.

Run from the root of the checkout with the change:
``python3 tools/pairs.py PARENT_DIR --claim METRIC:WORKLOAD --out FILE``,
for example ``--claim wall_s:verify-all``.  PARENT_DIR is a ``git clone``
or an unpacked ``git archive`` of the parent commit.  Pair i runs the
command of ``BENCHMARK.json`` as ``... --workload all --trace 0 --seed
SEEDS[i]`` in both checkouts, each with its own ``perfbench/`` and
``src/``, the parent first when i is even and the change first when it
is odd.

FILE (JSON) holds both sides (commit and whether the tree was clean,
when it is a git checkout, and a digest of ``src/``), the command,
the seeds, every run's raw result, and for each metric and workload: both
sides' medians and quartiles, the pairs the change won (ties count for
neither), the ratio of medians, the gain (the parent's median less the
change's, signed so that positive is better) and whether it exceeds the
parent's interquartile range, and for an end-to-end metric whether the
change stays within its bound.  The claim holds when the change wins at
least nine tenths of the pairs and its gain exceeds the parent's IQR.
Exit 0 when every run succeeded with correct outputs and the claim
holds, 1 when the claim does not hold or a run reported an incorrect
output, 2 on a usage error or a run that failed.

Standard library only: ``ru_maxrss`` is carried through fork and exec, so
a tool that imported numpy would raise the peak RSS the runner reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = tuple(range(100, 110))
WIN_SHARE = Fraction(9, 10)


def summarize(parent: list, change: list, better: str) -> dict:
    """Compare one metric of one workload over paired runs: parent[i] and
    change[i] come from pair i; ``better`` is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    gain = sign * (p_med - c_med)
    return {
        "better": better,
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "pairs": len(parent),
        "won": sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0),
        "ratio": c_med / p_med if p_med else None,
        "gain": gain,
        "gain_exceeds_parent_iqr": gain > p_q3 - p_q1,
    }


def claim_holds(row: dict) -> bool:
    """The change wins at least nine tenths of the pairs and its gain
    exceeds the parent's IQR."""
    return row["won"] >= WIN_SHARE * row["pairs"] and \
        row["gain_exceeds_parent_iqr"]


def within_bound(row: dict, bound: float) -> bool:
    """The change's median is worse than the parent's by at most ``bound``
    of the parent's median."""
    return -row["gain"] <= bound * abs(row["parent"]["median"])


def _git(path: Path, *args: str):
    run = subprocess.run(["git", "-C", str(path), *args],
                         capture_output=True, text=True)
    return run.stdout.strip() if run.returncode == 0 else None


def describe(path: Path) -> dict:
    """The checkout at ``path``: its commit and cleanliness when it is the
    top of a git work tree, and the SHA-256 of its ``src/`` .py files."""
    digest = hashlib.sha256()
    for f in sorted((path / "src").rglob("*.py")):
        digest.update(f.relative_to(path).as_posix().encode() + b"\0")
        digest.update(f.read_bytes())
    top = _git(path, "rev-parse", "--show-toplevel")
    own = top is not None and Path(top).resolve() == path.resolve()
    return {"commit": _git(path, "rev-parse", "HEAD") if own else None,
            "clean": _git(path, "status", "--porcelain") == "" if own
            else None,
            "src_sha256": digest.hexdigest()}


def run_once(path: Path, command: list) -> dict:
    """One benchmark run in ``path``: the JSON of its last stdout line."""
    run = subprocess.run(command, cwd=path, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        raise RuntimeError(f"{' '.join(command)} in {path} exited "
                           f"{run.returncode}: {run.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def compare(runs: list, spec: dict) -> dict:
    """Every metric of every workload that both sides of every pair
    report, keyed "workload.metric"."""
    kinds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = {}
    for key in runs[0]["parent"]["metrics"]:
        metric = key.split(".", 1)[1]
        if metric not in kinds or any(
                key not in r[side]["metrics"] for r in runs
                for side in ("parent", "change")):
            continue
        row = summarize(
            [r["parent"]["metrics"][key]["value"] for r in runs],
            [r["change"]["metrics"][key]["value"] for r in runs],
            kinds[metric]["better"])
        if "bound" in kinds[metric]:
            row["bound"] = kinds[metric]["bound"]
            row["within_bound"] = within_bound(row, row["bound"])
        rows[key] = row
    return rows


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("--claim", required=True, metavar="METRIC:WORKLOAD")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    metric, _, workload = args.claim.partition(":")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if metric not in names or workload not in {
            w["name"] for w in spec["workloads"]}:
        ap.error(f"--claim {args.claim}: no such metric and workload")
    if not (args.parent_dir / "perfbench" / "run.py").is_file():
        ap.error(f"{args.parent_dir} holds no perfbench/run.py")
    sides = {"parent": args.parent_dir.resolve(), "change": ROOT}
    base = spec["command"] + ["--workload", "all", "--trace", "0"]
    runs = []
    try:
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                sys.stderr.write(f"pair {i + 1}/{len(SEEDS)}, seed {seed}: "
                                 f"{side}\n")
                pair[side] = run_once(sides[side],
                                      base + ["--seed", str(seed)])
            runs.append(pair)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    rows = compare(runs, spec)
    key = f"{workload}.{metric}"
    holds = key in rows and claim_holds(rows[key])
    correct = all(r[s]["correct"] for r in runs for s in ("parent", "change"))
    args.out.write_text(json.dumps({
        "parent": describe(sides["parent"]),
        "change": describe(ROOT),
        "command": base + ["--seed", "SEED"],
        "seeds": list(SEEDS),
        "claim": {"metric": metric, "workload": workload, "holds": holds,
                  "rule": f"won >= {WIN_SHARE} of the pairs and gain > "
                          "parent IQR"},
        "correct": correct,
        "summary": rows,
        "runs": runs,
    }, indent=2) + "\n")
    if key in rows:
        row = rows[key]
        print(f"{key}: median {row['parent']['median']:.4g} -> "
              f"{row['change']['median']:.4g} (parent IQR "
              f"{row['parent']['q3'] - row['parent']['q1']:.4g}), won "
              f"{row['won']}/{row['pairs']}")
    print(f"claim {'holds' if holds else 'does not hold'}")
    return 0 if holds and correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
