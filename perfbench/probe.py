"""Speed probe server for run.py.

    python3 perfbench/probe.py

For every byte read from stdin it times one ``probe_slice()`` and writes
the seconds as a line to stdout; it exits at end of input.  It runs in its
own process so that its memory (numpy, the 8 MB array) never raises the
runner's peak RSS, which exec passes on to every child's ru_maxrss.
"""

import sys
import time
from fractions import Fraction

import numpy


def probe_slice() -> None:
    """Fixed work of the kinds the package does: integer loops, Euclid
    steps, Fraction arithmetic, fresh memory and numpy complex
    exponentials.  It is the benchmark's own code, so a change to the
    package cannot move it."""
    acc = 0
    for i in range(50_000):
        acc += i % 7
    for a in range(1, 350):
        x, y = a, 9973
        while y:
            x, y = y, x % y
        acc += (Fraction(a, 9973) - Fraction(1, 7)).denominator
    acc += int(numpy.ones(1 << 20).sum())  # 8 MB of fresh pages
    r = numpy.arange(8192)
    for d in range(8):
        acc += int(abs(numpy.exp((2j * numpy.pi / 8192) * (d * r % 8192))
                       .sum()))


def main() -> int:
    while sys.stdin.buffer.read(1):
        t0 = time.perf_counter()
        probe_slice()
        sys.stdout.write(f"{time.perf_counter() - t0!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
