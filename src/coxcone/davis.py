"""The Davis complex over a word-ball.

The fundamental chamber is the order complex of the poset of spherical
subsets: one vertex per subset (including the empty one), one simplex per
chain under strict inclusion.  The complex glues one copy of the chamber
per group element, identifying cells whose points agree and whose elements
differ by the stabilizer of the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import CoxeterDatum
from .errors import PreconditionViolated
from .numeric import EPS
from .parabolic import SphericalPoset, enumerate_spherical_poset
from .reflections import (
    GroupElement,
    element_from_word,
    enumerate_ball,
    negative_columns,
)

Chain = tuple[frozenset[str], ...]


@dataclass(frozen=True)
class FundamentalChamber:
    generator_order: tuple[str, ...]
    vertices: tuple[frozenset[str], ...]
    simplices: tuple[Chain, ...]  # every chain, strictly increasing

    def subset_key(self, subset: frozenset[str]) -> tuple[str, ...]:
        return tuple(g for g in self.generator_order if g in subset)

    def chain_key(self, chain: Chain) -> tuple:
        return (len(chain), tuple(self.subset_key(t) for t in chain))


def build_fundamental_chamber(poset: SphericalPoset) -> FundamentalChamber:
    """Order complex of the spherical poset: all chains, each one a simplex.

    Every face of a simplex is itself a chain, so the face-closure
    invariant holds by construction.
    """
    vertices = poset.elements

    def extensions(last: frozenset[str]) -> list[Chain]:
        chains: list[Chain] = []
        for nxt in vertices:
            if last < nxt:
                chains.append((nxt,))
                chains.extend((nxt,) + tail for tail in extensions(nxt))
        return chains

    simplices: list[Chain] = []
    for v in vertices:
        simplices.append((v,))
        simplices.extend((v,) + tail for tail in extensions(v))
    chamber = FundamentalChamber(poset.generator_order, vertices, ())
    ordered = tuple(sorted(simplices, key=chamber.chain_key))
    return FundamentalChamber(poset.generator_order, vertices, ordered)


def mirror(chamber: FundamentalChamber, s: str) -> tuple[Chain, ...]:
    """Simplices fixed by s: chains whose minimal subset contains s."""
    if s not in chamber.generator_order:
        raise PreconditionViolated(f"unknown generator {s!r}")
    return tuple(c for c in chamber.simplices if s in c[0])


@dataclass(frozen=True)
class ChamberPoint:
    """A point of the chamber in barycentric position on its carrier chain.

    All weights are strictly positive, so the carrier is the unique
    smallest simplex containing the point.
    """

    carrier: Chain
    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.carrier) != len(self.weights):
            raise PreconditionViolated("one weight per chain element required")
        if any(t >= u for t, u in zip(self.carrier, self.carrier[1:])):
            raise PreconditionViolated("carrier must be strictly increasing")
        if min(self.weights) <= 0.0:
            raise PreconditionViolated("barycentric weights must be positive")
        if abs(sum(self.weights) - 1.0) > EPS:
            raise PreconditionViolated("barycentric weights must sum to 1")


def uniform_point(chain: Chain) -> ChamberPoint:
    k = len(chain)
    return ChamberPoint(chain, (1.0 / k,) * k)


def point_stabilizer(point: ChamberPoint) -> frozenset[str]:
    """Generators fixing the point: the minimal subset of its carrier."""
    return point.carrier[0]


@dataclass(frozen=True)
class DavisCell:
    element: GroupElement
    point: ChamberPoint


def minimal_coset_matrix(datum: CoxeterDatum, matrix: np.ndarray,
                         subset: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Strip right descents inside `subset` off the matrix until none are
    left, returning the reduced matrix and the letters stripped (in order).
    The result represents the minimal-length element of the right coset
    modulo the parabolic subgroup on `subset`."""
    reflections = datum.simple_reflections
    cols = [datum.index(s) for s in subset]
    m = np.array(matrix, dtype=float)
    stripped: list[str] = []
    while True:
        descents = negative_columns(m)
        for s, i in zip(subset, cols):
            if descents[i]:
                m = m @ reflections[i]
                stripped.append(s)
                break
        else:
            return m, tuple(stripped)


def canonicalize_cell(datum: CoxeterDatum, cell: DavisCell) -> DavisCell:
    """Minimal-length representative of the element modulo the stabilizer
    of the point, by stripping right descents inside the stabilizer."""
    stab = datum.sort_subset(point_stabilizer(cell.point))
    if not stab:
        return cell
    _, stripped = minimal_coset_matrix(datum, cell.element.matrix, stab)
    if not stripped:
        return cell
    element = element_from_word(datum, cell.element.word + stripped)
    return DavisCell(element, cell.point)


def cells_equal(datum: CoxeterDatum, a: DavisCell, b: DavisCell) -> bool:
    """Equivalence in the complex: canonical forms agree."""
    ca = canonicalize_cell(datum, a)
    cb = canonicalize_cell(datum, b)
    if ca.point.carrier != cb.point.carrier:
        return False
    if max(abs(x - y) for x, y in
           zip(ca.point.weights, cb.point.weights)) > EPS:
        return False
    return ca.element == cb.element


@dataclass(frozen=True)
class DavisBall:
    chamber: FundamentalChamber
    elements: tuple[GroupElement, ...]
    adjacency: tuple[tuple[int, int, str], ...]  # chambers i, j share mirror s
    frontier: tuple[tuple[int, str], ...]        # mirror s of chamber i unmatched

    @property
    def is_closed(self) -> bool:
        return not self.frontier


def build_davis_ball(datum: CoxeterDatum, radius: int,
                     poset: SphericalPoset | None = None) -> DavisBall:
    """One chamber per ball element; chambers w and w r_s share the mirror
    of s; mirrors whose neighbor falls outside the ball are frontier.

    Each pair is found from its shorter chamber w, where s is an ascent.
    Write w = t p with t the first letter of its word.  If w(alpha_s) is a
    simple root alpha_a (exactly when r_a w(alpha_s) is negative), then
    w r_s = r_a w, whose word is a followed by that of w when a comes
    before t.  Otherwise w r_s = t (p r_s), whose word is t followed by
    that of p r_s, which is as long as w and so already found.
    """
    if poset is None:
        poset = enumerate_spherical_poset(datum)
    chamber = build_fundamental_chamber(poset)
    elements = enumerate_ball(datum, radius)
    index = {w.word: i for i, w in enumerate(elements)}
    mats = np.array([w.matrix for w in elements])
    # [i, a, s]: the coordinate sum of r_a w_i(alpha_s) is negative
    simple = mats.sum(axis=1)[:, None, :] - 2.0 * (datum.gram @ mats) < 0.0
    up: dict[tuple[int, int], int] = {}  # (i, s) -> index of w_i r_s
    adjacency: list[tuple[int, int, str]] = []
    frontier: list[tuple[int, str]] = []
    for i, w in enumerate(elements):
        for k in np.flatnonzero(~negative_columns(w.matrix)):
            hits = np.flatnonzero(simple[i, :, k])
            if hits.size and (not w.word or hits[0] < datum.index(w.word[0])):
                word = (datum.generators[hits[0]],) + w.word
            else:
                word = (w.word[0],) + elements[up[index[w.word[1:]], k]].word
            j = index.get(word)
            if j is None:
                frontier.append((i, datum.generators[k]))
            else:
                up[i, k] = j
                adjacency.append((i, j, datum.generators[k]))
    return DavisBall(chamber, tuple(elements),
                     tuple(sorted(adjacency)), tuple(frontier))


def ball_cells(datum: CoxeterDatum, ball: DavisBall) -> list[DavisCell]:
    """Canonical barycenter cells of every simplex of every chamber."""
    cells: list[DavisCell] = []
    for w in ball.elements:
        for chain in ball.chamber.simplices:
            cells.append(canonicalize_cell(
                datum, DavisCell(w, uniform_point(chain))))
    return cells


def davis_ball_to_json(ball: DavisBall) -> dict:
    chamber = ball.chamber
    return {
        "chambers": [{"word": list(w.word), "length": w.length}
                     for w in ball.elements],
        "simplices": [[list(chamber.subset_key(t)) for t in chain]
                      for chain in chamber.simplices],
        "adjacency": [{"a": i, "b": j, "generator": s}
                      for i, j, s in ball.adjacency],
        "frontier": [{"chamber": i, "generator": s}
                     for i, s in ball.frontier],
    }
