"""Shared tolerances and float-vector deduplication.

All arithmetic is float64.  EPS is the global comparison tolerance for
equality predicates; FORM_TOL validates bilinear-form entries; WALL_TOL is
the looser tolerance used by wall / radical identities whose inputs are
averages of group images.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

EPS = 1e-9
FORM_TOL = 1e-12
WALL_TOL = 1e-8


class GridIndex:
    """Deduplicate float arrays by rounding coordinates to a grid.

    Arrays whose coordinates agree within `tol` are meant to collide.  A
    rounded integer key is probed together with its neighbours whenever a
    coordinate sits near a cell boundary, so near-ties on the rounding edge
    are still caught.  Distinct inputs are assumed to be separated well
    above the grid scale (true of root data at desk depths).
    """

    def __init__(self, grid: float, tol: float = EPS):
        self.grid = grid
        self.tol = tol
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._items: list[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._items)

    def _keys(self, flat: np.ndarray) -> Iterator[tuple[int, ...]]:
        scaled = flat / self.grid
        base = np.rint(scaled).astype(np.int64)
        # coordinates within 2*tol of a half-integer boundary may round
        # either way; probe both cells for those few coordinates
        frac = np.abs(scaled - np.floor(scaled) - 0.5)
        wobbly = np.nonzero(frac * self.grid < 2.0 * self.tol)[0]
        if wobbly.size == 0:
            yield tuple(base)
            return
        for signs in product((0, -1, 1), repeat=len(wobbly)):
            key = base.copy()
            key[wobbly] += signs
            yield tuple(key)

    def find(self, arr: np.ndarray) -> int | None:
        """Index of a stored array equal to `arr` within tol, else None."""
        flat = np.asarray(arr, dtype=float).ravel()
        for key in self._keys(flat):
            for idx in self._cells.get(key, ()):
                if np.max(np.abs(self._items[idx].ravel() - flat)) <= self.tol:
                    return idx
        return None

    def add(self, arr: np.ndarray) -> bool:
        """Insert `arr`; True if it was new, False if already present."""
        if self.find(arr) is not None:
            return False
        flat = np.asarray(arr, dtype=float).ravel()
        idx = len(self._items)
        self._items.append(flat)
        self._cells.setdefault(next(self._keys(flat)), []).append(idx)
        return True


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only float64 copy of `arr`."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out
