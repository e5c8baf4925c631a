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
"""

from __future__ import annotations

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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
