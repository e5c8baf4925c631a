"""Write the reports of the byte gate, one file each, into OUT_DIR.

Run from the root of the checkout to report on:
``python3 tools/reports.py OUT_DIR``.  Each report comes from a
``python -m digitlab.cli`` child whose ``PYTHONPATH`` is the ``src`` of
the working directory, so one copy of the tool reports on any checkout,
an unpacked ``git archive`` of another commit too:
``(cd ../parent && python3 ../repo/tools/reports.py /tmp/parent)``.
The byte gate between two commits is then ``diff -r`` of their
directories.

``GOLDEN`` lists the commands of the committed reports in ``tests/data/``,
which ``tests/test_cli.py`` compares byte for byte; ``REPORTS`` adds
``verify all`` at seed 1 and the benchmark's ``arcs`` and ``scan``
configs (``perfbench/run.py``) with digit 7 excluded.  Exit 0 when every
command exits 0, else 1, with one stderr line per failed command.

``ERRORS`` lists rejected configs, one per rule of the digit set, the
threshold and ``--out``, one per resource cap a config reaches (the base,
``--cap`` and the polynomial scan), one per shape of argv that the parser
itself rejects, plus configs once rejected that now run.  Each gives one line
of ``errors.txt``: the JSON list of its argv, its exit code and its
stderr, so that ``diff -r`` shows every change to an error path.
``tests/data/errors.txt`` is the committed file, which
``tests/test_cli.py`` compares byte for byte.  The exit status covers
``REPORTS`` only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

GOLDEN = [
    (["arcs", "--q", "10", "--exclude", "7", "--k", "4", "--a-major", "1.0"],
     "arcs_q10_k4.json"),
    (["scan", "--q", "7", "--exclude", "3", "--k", "4"], "scan_q7_k4.csv"),
    (["count", "--q", "50", "--exclude", "7", "--k", "3", "--weight", "poly",
      "--poly-coeffs", "0,0,1"], "count_q50_k3_poly.json"),
    (["constants", "--q", "31", "--exclude", "7", "--k", "4"],
     "constants_q31_k4.json"),
    (["arcs", "--q", "10", "--exclude", "7", "--k", "4", "--weight", "poly",
      "--poly-coeffs", "1,-3,1", "--a-major", "1.0"], "arcs_q10_k4_poly.json"),
    (["verify", "all"], "verify_all.json"),
]

REPORTS = GOLDEN + [
    (["verify", "all", "--seed", "1"], "verify_all_seed1.json"),
    (["arcs", "--q", "10", "--exclude", "7", "--k", "6", "--weight",
      "mangoldt", "--a-major", "2.0"], "arcs-mangoldt.json"),
    (["scan", "--q", "10", "--exclude", "7", "--k", "5", "--weight",
      "mangoldt", "--a-major", "2.0"], "scan-csv.csv"),
]

A400 = ["--q", "10", "--exclude", "7", "--k", "3", "--a-major", "400"]
ERRORS = [
    ["count", "--q", "2", "--exclude", "1", "--k", "2"],
    ["count", "--q", "10", "--k", "2"],
    ["count", "--q", "10", "--exclude", "7,12", "--k", "2"],
    ["count", "--q", "5", "--exclude", "0,1,2,3", "--k", "2"],
    ["count", "--q", "6", "--exclude", "1,3,5", "--k", "2"],
    ["count", "--q", "2000000", "--k", "1"],
    ["arcs", *A400],
    ["scan", *A400],
    ["count", *A400],
    ["constants", *A400],
    ["arcs", "--q", "10", "--exclude", "7", "--k", "9", "--cap", "1000",
     "--a-major", "400"],
    ["count", "--q", "10", "--exclude", "7", "--k", "3", "--weight", "poly",
     "--poly-coeffs=0,-10000000000000000000000,1"],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--out="],
    ["verify", "constants", "--out", ""],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--d0=--"],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--d0", "0"],
    ["arcs", "--q", "10", "--exclude", "7", "--k", "2", "--a-major", "nan"],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--bogus"],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--d0"],
    ["count", "--q", "10", "--exclude", "7", "--k", "2", "--weight", "poly",
     "--poly-coeffs", "-2000,0,1"],
    ["verify", "bogus"],
    ["verify", "constants", "--seed=abc"],
    ["verify", "constants", "--seed=--"],
    ["--bogus"],
    [],
]


def main(argv: list) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python3 tools/reports.py OUT_DIR\n")
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    failed = 0
    for args, name in REPORTS:
        code = subprocess.run(
            [sys.executable, "-m", "digitlab.cli", *args,
             "--out", str(out / name)], env=env).returncode
        if code:
            sys.stderr.write(f"{name}: exit {code}\n")
            failed += 1
    with open(out / "errors.txt", "w") as fh:
        for args in ERRORS:
            run = subprocess.run([sys.executable, "-m", "digitlab.cli", *args],
                                 env=env, capture_output=True, text=True)
            fh.write(json.dumps([args, run.returncode, run.stderr]) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
