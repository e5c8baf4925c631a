"""Deterministic pairwise (tree) accumulation.

All literal complex sums in the package accumulate ascending-index with a
fixed pairwise tree so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

from typing import Sequence

_BASE = 8


def pairwise_sum(values: Sequence):
    """Sum `values` with a fixed binary tree (ascending index order).

    The values may be numpy arrays of one shape: they are then summed
    elementwise, each entry by the same tree and so with the same bits
    as a sum of that entry's scalars.
    """
    n = len(values)
    if n == 0:
        return 0.0
    return _pairwise(values, 0, n)


def _pairwise(values, lo, hi):
    if hi - lo <= _BASE:
        total = values[lo]
        for i in range(lo + 1, hi):
            total = total + values[i]
        return total
    mid = (lo + hi) // 2
    return _pairwise(values, lo, mid) + _pairwise(values, mid, hi)
