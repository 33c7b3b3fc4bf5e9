"""Array limit-root extraction against the per-root reference.

The reference normalizes one deep root at a time, evaluates its
self-pairing with `datum.bilinear` and deduplicates through a rounding
grid of cell 1e-4 whose probes catch every stored point within EPS in the
max-norm, so it keeps a point exactly when no earlier kept point lies
within EPS of it.
"""

import math
from itertools import product

import numpy as np
import pytest

from coxcone import make_datum
from coxcone.normalize import (
    LIMIT_ISOTROPY_TOL,
    LimitRootEstimate,
    _first_of_each_cluster,
    approximate_limit_roots,
    normalize,
)
from coxcone.numeric import EPS
from coxcone.reflections import generate_roots, roots_by_level

INF = math.inf


class GridIndex:
    """Points stored under rounded grid keys; a query probes the
    neighbouring cell of every coordinate within 2 tol of a cell edge."""

    def __init__(self, grid: float, tol: float = EPS):
        self.grid = grid
        self.tol = tol
        self._cells: dict[tuple[int, ...], list[int]] = {}
        self._items: list[np.ndarray] = []

    def _keys(self, flat):
        scaled = flat / self.grid
        base = np.rint(scaled).astype(np.int64)
        frac = np.abs(scaled - np.floor(scaled) - 0.5)
        wobbly = np.nonzero(frac * self.grid < 2.0 * self.tol)[0]
        if wobbly.size == 0:
            yield tuple(base)
            return
        for signs in product((0, -1, 1), repeat=len(wobbly)):
            key = base.copy()
            key[wobbly] += signs
            yield tuple(key)

    def add(self, arr) -> bool:
        """Insert arr; True if no stored point lies within tol of it."""
        flat = np.asarray(arr, dtype=float).ravel()
        for key in self._keys(flat):
            for idx in self._cells.get(key, ()):
                if np.max(np.abs(self._items[idx] - flat)) <= self.tol:
                    return False
        self._cells.setdefault(next(self._keys(flat)), []).append(len(self._items))
        self._items.append(flat)
        return True


def reference_limit_roots(datum, max_depth, isotropy_tol=LIMIT_ISOTROPY_TOL):
    levels = roots_by_level(generate_roots(datum, max_depth))
    top = max(levels)
    deepest = list(levels[top - 1]) + list(levels[top])
    seen = GridIndex(grid=1e-4)
    estimates = []
    for record in deepest:
        point = normalize(record.coords)
        isotropy = datum.bilinear(point, point)
        if abs(isotropy) <= isotropy_tol and seen.add(point):
            estimates.append(LimitRootEstimate(point, isotropy, record.depth))
    return estimates


def _datum(bonds, values=()):
    return make_datum(["s", "t", "u"], bonds, values)


CASES = {
    "universal3": (_datum([("s", "t", INF), ("s", "u", INF), ("t", "u", INF)]), 10),
    "mixed3": (_datum([("s", "t", 3), ("s", "u", INF), ("t", "u", INF)]), 10),
    "r4": (make_datum(["a", "b", "c", "d"],
                      [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", INF)]), 10),
    "m3inf@-20": (_datum([("s", "t", 3), ("t", "u", 3), ("s", "u", INF)],
                         [("s", "u", -20.0)]), 10),
    "m3inf@-1": (_datum([("s", "t", 3), ("t", "u", 3), ("s", "u", INF)]), 10),
    # distinct deep roots normalize within 1e-14 of each other here
    "m3inf@-3": (_datum([("s", "t", 3), ("t", "u", 3), ("s", "u", INF)],
                        [("s", "u", -3.0)]), 10),
    # over a third of the estimates have x_a = 0 exactly
    "a-b-universal(bcd)": (make_datum(
        ["a", "b", "c", "d"],
        [("a", "b", 3), ("b", "c", INF), ("b", "d", INF), ("c", "d", INF)]), 8),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(name):
    datum, depth = CASES[name]
    got = approximate_limit_roots(datum, depth)
    want = reference_limit_roots(datum, depth)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert np.array_equal(g.point, w.point)
        assert g.source_depth == w.source_depth
        assert abs(g.isotropy - w.isotropy) <= 1e-15


def test_distinct_roots_merge_at_c_minus_3():
    # the two closest distinct deep roots are both near-isotropic, and only
    # the first of them is kept
    datum, depth = CASES["m3inf@-3"]
    levels = roots_by_level(generate_roots(datum, depth))
    points = normalize(np.array([r.coords for r in levels[depth - 1] + levels[depth]]))
    gaps = np.max(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    gaps[np.diag_indices(len(points))] = np.inf
    i, j = sorted(np.unravel_index(np.argmin(gaps), gaps.shape))
    assert 0.0 < gaps[i, j] <= 1e-14
    kept = [e.point.tobytes() for e in approximate_limit_roots(datum, depth)]
    assert points[i].tobytes() in kept and points[j].tobytes() not in kept


def test_chain_keeps_both_ends():
    # B is within EPS of A and C within EPS of B, but C is farther than EPS
    # from A: the scan drops B, so nothing is left to drop C
    a = np.array([0.25, 0.25, 0.5])
    b = a + [0.6 * EPS, -0.6 * EPS, 0.0]
    c = b + [0.6 * EPS, -0.6 * EPS, 0.0]
    points = np.array([a, b, c, [0.5, 0.25, 0.25]])
    reference = GridIndex(grid=1e-4)
    assert [reference.add(p) for p in points] == [True, False, True, True]
    assert _first_of_each_cluster(points, EPS).tolist() == [0, 2, 3]
    assert _first_of_each_cluster(points[[2, 1, 0, 3]], EPS).tolist() == [0, 2, 3]
    assert _first_of_each_cluster(points[[1, 0, 2, 3]], EPS).tolist() == [0, 3]
