"""Kravchuk tables: distance-collapsed level sums of Walsh parity functions.

For codes in Z_2^d, the Walsh function of an index subset T is the parity
character w_T(x) = (-1)^(sum of x_t over t in T). Summing w_T(x) * w_T(y)
over all subsets of a fixed size j collapses, by symmetry, to a function
G(d, j, m) of the Hamming distance m = |x XOR y| alone; these are the
Kravchuk polynomials. This module builds normalized tables
G'(d, j, m) = G(d, j, m) / C(d, j) by dynamic programming. The tests check
them against two independent oracles in ``tests/oracles.py``: an exact
integer closed form and direct enumeration of subsets.
"""

from __future__ import annotations

import math
import threading

import numpy as np


class KravchukTable:
    """Normalized level-sum values G'(d, j, m) for all 0 <= j, m <= d.

    ``values[j, m]`` holds G(d, j, m) / C(d, j), which stays in [-1, 1] and is
    numerically safe for large d; ``log_binom[j]`` = log C(d, j) restores
    the raw scale.
    """

    def __init__(self, d: int, values: np.ndarray):
        self.d = d
        values = np.asarray(values, dtype=float)
        values.setflags(write=False)
        self.values = values
        log_binom = np.array(
            [math.lgamma(d + 1) - math.lgamma(j + 1) - math.lgamma(d - j + 1) for j in range(d + 1)]
        )
        log_binom.setflags(write=False)
        self.log_binom = log_binom

    def value(self, j: int, m: int) -> float:
        """Normalized value G'(d, j, m)."""
        self._check(j, m)
        return float(self.values[j, m])

    def _check(self, j: int, m: int) -> None:
        if not (0 <= j <= self.d and 0 <= m <= self.d):
            raise ValueError(f"indices (j={j}, m={m}) out of range for d={self.d}")


def _normalized_values(d: int) -> np.ndarray:
    prev = np.array([[1.0, 1.0], [1.0, -1.0]])  # d = 1 base table
    for dd in range(2, d + 1):
        cur = np.empty((dd + 1, dd + 1))
        cur[0, :] = 1.0
        cur[:, 0] = 1.0
        # prev padded with a zero row so the j = dd recurrence term vanishes
        prev_pad = np.zeros((dd + 1, dd))
        prev_pad[:dd, :] = prev
        j = np.arange(1, dd + 1)[:, None].astype(float)
        cur[1:, 1:] = ((dd - j) / dd) * prev_pad[1:, :] - (j / dd) * prev_pad[:-1, :]
        prev = cur
    return prev


_TABLE_CACHE: dict[int, KravchukTable] = {}
_TABLE_LOCK = threading.Lock()


def build_table(d: int) -> KravchukTable:
    """Build (or fetch from cache) the normalized table for dimension d >= 1.

    Construction follows the two-term recurrence
    G'(d, j, m) = ((d-j)/d) G'(d-1, j, m-1) - (j/d) G'(d-1, j-1, m-1)
    with G'(d, 0, m) = G'(d, j, 0) = 1 and G'(1, 1, 1) = -1.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    with _TABLE_LOCK:
        table = _TABLE_CACHE.get(d)
        if table is None:
            table = KravchukTable(d, _normalized_values(d))
            _TABLE_CACHE[d] = table
    return table
