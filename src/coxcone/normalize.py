"""Projection of rays onto the affine hyperplane where coordinates sum to 1.

Every positive root has positive coordinate sum, so scaling by that sum
maps them into a compact slice where the action of the group becomes a
partially-defined "dot action".  Accumulation points of the normalized
roots lie in the isotropic set of the form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import CoxeterDatum
from .errors import FiniteGroup, LeftDomain, OnV0
from .numeric import EPS, frozen
from .reflections import GroupElement, RootRecord, act, generate_roots, roots_by_level

LIMIT_ISOTROPY_TOL = 1e-3


def phi(v: np.ndarray) -> float:
    """Coordinate sum; the linear functional whose level set is the slice."""
    return float(np.sum(v))


def normalize(v: np.ndarray) -> np.ndarray:
    """Scale v, or each row of v, to coordinate sum 1.  Raises OnV0 when
    a sum is ~0.

    Negative sums are allowed: a ray and its opposite normalize to the
    same point of the slice.
    """
    total = v.sum(axis=-1, keepdims=True)
    if (abs(total) <= EPS).any():
        raise OnV0("cannot normalize a vector with coordinate sum zero")
    return v / total


def self_pairings(datum: CoxeterDatum, points: np.ndarray) -> np.ndarray:
    """B(x, x) for each row x of points; zero exactly on the isotropic set.

    Rows are stacked 1 x rank matrices, so each pairing is evaluated as
    `datum.bilinear` evaluates x @ G @ x, with the same bits.
    """
    rows = points[:, None, :]
    return (rows @ datum.gram @ points[:, :, None])[:, 0, 0]


def dot_act(datum: CoxeterDatum, w: GroupElement, x: np.ndarray) -> np.ndarray:
    """Act by w, then renormalize.  Undefined when the image has
    coordinate sum ~0 (the point is outside the domain of w)."""
    image = act(w, x)
    total = phi(image)
    if abs(total) <= EPS:
        raise LeftDomain("group image lands on the zero-sum hyperplane")
    return image / total


def normalized_roots_by_level(
        datum: CoxeterDatum, max_depth: int) -> dict[int, list[RootRecord]]:
    """Positive roots by depth, each scaled to coordinate sum 1."""
    levels = roots_by_level(generate_roots(datum, max_depth))
    return {
        depth: [RootRecord(point, depth)
                for point in normalize(np.array([r.coords for r in level]))]
        for depth, level in levels.items()
    }


@dataclass(frozen=True)
class LimitRootEstimate:
    """A normalized deep root kept as an empirical limit candidate."""

    point: np.ndarray
    isotropy: float
    source_depth: int

    def __post_init__(self):
        object.__setattr__(self, "point", frozen(self.point))


def approximate_limit_roots(
        datum: CoxeterDatum, max_depth: int,
        isotropy_tol: float = LIMIT_ISOTROPY_TOL) -> list[LimitRootEstimate]:
    """Near-isotropic normalized roots from the two deepest levels.

    Normalizes the roots of the top two generation levels (shallower level
    first, each in generation order) and keeps those with self-pairing
    within isotropy_tol of zero.  Of those, a point is dropped when an
    earlier kept point lies within EPS of it in the max-norm, so only
    numerically coincident roots merge: near-isotropic roots 1e-5 apart
    stay two estimates.  Purely empirical: no convergence guarantee.
    Finite groups exhaust their roots early and have no limit points.
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    levels = roots_by_level(generate_roots(datum, max_depth))
    top = max(levels)
    if top < max_depth:  # enumeration stalled: every root was found
        raise FiniteGroup("a finite root system has no accumulation points")
    deepest = levels[top - 1] + levels[top]
    points = normalize(np.array([r.coords for r in deepest]))
    isotropy = self_pairings(datum, points)
    near = np.nonzero(np.abs(isotropy) <= isotropy_tol)[0]
    keep = near[_first_of_each_cluster(points[near], EPS)]
    return [LimitRootEstimate(points[i], float(isotropy[i]), deepest[i].depth)
            for i in keep]


def _first_of_each_cluster(points: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the rows kept by a scan in row order that drops each row
    lying within tol, in the max-norm, of an earlier kept row.

    Rows are sorted by a fixed projection with distinct irrational
    weights, so permuted or zero coordinates do not tie, and each row is
    compared with the next k rows for k = 1, 2, ... until no projections
    are close enough for a pair within tol.  The scan then runs over the
    pairs found, not over all pairs.
    """
    weights = np.sqrt(np.arange(2.0, points.shape[1] + 2.0))
    keys = points @ weights
    # a pair within tol has projections within tol * sum(weights); the
    # factor 2 covers the rounding of the projections
    reach = 2.0 * tol * weights.sum()
    order = np.argsort(keys, kind="stable")
    ranked, keys = points[order], keys[order]
    pairs = []
    for k in range(1, len(order)):
        close = np.nonzero(keys[k:] - keys[:-k] <= reach)[0]
        if close.size == 0:
            break
        hit = close[np.all(np.abs(ranked[close + k] - ranked[close]) <= tol, axis=1)]
        pairs.append(np.sort(np.stack([order[hit], order[hit + k]], axis=1), axis=1))
    keep = np.ones(len(points), dtype=bool)
    if pairs:
        pairs = np.concatenate(pairs)
        for earlier, later in pairs[np.argsort(pairs[:, 1], kind="stable")].tolist():
            if keep[earlier]:
                keep[later] = False
    return np.nonzero(keep)[0]


def isotropy_defect(datum: CoxeterDatum, v: np.ndarray) -> float:
    """|(v, v)|; zero exactly on the isotropic set."""
    return abs(datum.bilinear(v, v))
