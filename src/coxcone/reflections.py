"""Reflection action, reduced words, and breadth-first root generation.

Every "is this root negative" test is the sign of the root's coordinate
sum: a root is all-nonnegative or all-nonpositive, so its sum is never
near zero and needs no tolerance.  A generator s is a right descent of w
when w(alpha_s) is negative (column s of the action matrix M(w)) and a
left descent when w^-1(alpha_s) is (column s of M(w^-1)).

A group element is identified by its lexicographically least reduced word,
letters ordered as the datum lists its generators: the smallest left
descent s of w followed by the least word of s w.  Balls grow one length
at a time and meet each element exactly once, by prepending s to a
canonical w' when s is not a left descent of w' but is the smallest left
descent of s w' (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 3-4).
Roots grow the same way, one depth at a time (Brink-Howlett 1993).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .datum import INFINITE, CoxeterDatum
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidBond,
    IsotropicMirror,
)
from .numeric import EPS, frozen

ROOT_CAP = 100_000
ELEMENT_CAP = 200_000


def reflection_matrix(datum: CoxeterDatum, x: np.ndarray) -> np.ndarray:
    """Matrix of the reflection in x:  v -> v - 2 (x,v)/(x,x) x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (datum.rank,):
        raise DimensionMismatch(f"expected a vector of length {datum.rank}")
    xx = datum.bilinear(x, x)
    if abs(xx) <= EPS:
        raise IsotropicMirror(f"(x, x) = {xx:g} is too close to 0")
    return np.eye(datum.rank) - (2.0 / xx) * np.outer(x, datum.gram @ x)


def reflect(datum: CoxeterDatum, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reflect v in the vector x; preserves the bilinear form."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != (datum.rank,) or v.shape != (datum.rank,):
        raise DimensionMismatch(f"expected vectors of length {datum.rank}")
    xx = datum.bilinear(x, x)
    if abs(xx) <= EPS:
        raise IsotropicMirror(f"(x, x) = {xx:g} is too close to 0")
    return v - (2.0 * datum.bilinear(x, v) / xx) * x


def simple_reflection_matrix(datum: CoxeterDatum, s: str) -> np.ndarray:
    """Matrix of the reflection in the simple root of s (read-only)."""
    return datum.simple_reflections[datum.index(s)]


def negative_columns(matrix: np.ndarray) -> np.ndarray:
    """Which columns of an action matrix, or of a stack of them, are
    negative roots: the right descents of w for M(w), the left descents
    for M(w^-1)."""
    return np.sum(matrix, axis=-2) < 0.0


@dataclass(frozen=True)
class GroupElement:
    """A group element: canonical reduced word plus cached action matrix.

    The word is the lexicographically least reduced word, so elements
    compare and hash by it; the matrix takes no part in equality.
    """

    word: tuple[str, ...]
    matrix: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen(self.matrix))

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self) -> str:
        name = ".".join(self.word) if self.word else "1"
        return f"GroupElement({name})"


def act(w: GroupElement, v: np.ndarray) -> np.ndarray:
    """Apply the cached action matrix of w to v."""
    v = np.asarray(v, dtype=float)
    n = w.matrix.shape[0]
    if v.shape != (n,):
        raise DimensionMismatch(f"expected a vector of length {n}")
    return w.matrix @ v


def identity_element(datum: CoxeterDatum) -> GroupElement:
    return GroupElement((), np.eye(datum.rank))


class WordInfo(NamedTuple):
    length: int
    descents: frozenset[str]  # generators a with w(alpha_a) a negative root
    word: tuple[str, ...]     # canonical reduced word


def _canonical_word(datum: CoxeterDatum, inverse: np.ndarray,
                    budget: int) -> tuple[str, ...]:
    """Lexicographically least reduced word of the element w with
    M(w^-1) = inverse, by stripping its smallest left descent at every step.

    An element without left descents is the identity, so a matrix that
    still differs from it is not a group element.
    """
    inv = np.array(inverse, dtype=float)
    letters: list[str] = []
    for _ in range(budget + 1):
        descents = np.flatnonzero(negative_columns(inv))
        if descents.size == 0:
            scale = max(1.0, float(np.max(np.abs(inverse))))
            if np.max(np.abs(inv - np.eye(datum.rank))) > EPS * scale:
                raise BudgetExceeded("no descent found; matrix is not a group element")
            return tuple(letters)
        inv = inv @ datum.simple_reflections[descents[0]]
        letters.append(datum.generators[descents[0]])
    raise BudgetExceeded("word reduction exceeded its budget")


def element_from_word(datum: CoxeterDatum, word: Sequence[str]) -> GroupElement:
    """Group element of a (not necessarily reduced) word, in canonical form."""
    letters = tuple(word)
    reflections = datum.simple_reflections
    mat = np.eye(datum.rank)
    inv = np.eye(datum.rank)
    for s in letters:
        r = reflections[datum.index(s)]
        mat = mat @ r
        inv = r @ inv
    return GroupElement(_canonical_word(datum, inv, len(letters)), mat)


def length_and_descents(datum: CoxeterDatum, word: Sequence[str] | GroupElement) -> WordInfo:
    """Length, descent set and canonical reduced word of an arbitrary word.

    The descent set holds the generators a whose simple root is sent to a
    negative root, i.e. those with len(w r_a) = len(w) - 1.
    """
    w = word if isinstance(word, GroupElement) else element_from_word(datum, word)
    descents = frozenset(
        s for s, down in zip(datum.generators, negative_columns(w.matrix)) if down)
    return WordInfo(w.length, descents, w.word)


def multiply(datum: CoxeterDatum, u: GroupElement, w: GroupElement) -> GroupElement:
    """Product uw in canonical form."""
    return element_from_word(datum, u.word + w.word)


def inverse_element(datum: CoxeterDatum, w: GroupElement) -> GroupElement:
    """Inverse of w (generators are involutions, so reverse the word)."""
    return element_from_word(datum, tuple(reversed(w.word)))


def dihedral_orbit_closed_form(m: float, c: float | None, i: int) -> tuple[float, float]:
    """Coefficients of the i-th forward image of the first simple root
    under the rotation r_first r_second in a rank-2 subgroup.

    For a finite bond of order m the coefficients are
    sin((2i+1)t)/sin(t) and sin(2it)/sin(t) with t = pi/m.  For an
    infinite bond with form value c < -1 the sines become hyperbolic with
    t = arccosh(-c); at the boundary value c = -1 they degenerate to the
    integer pair (2i+1, 2i).
    """
    if m != INFINITE:
        if not float(m).is_integer() or m < 2:
            raise InvalidBond(f"bond order {m} must be an integer >= 2 or infinite")
        t = math.pi / m
        return (math.sin((2 * i + 1) * t) / math.sin(t),
                math.sin(2 * i * t) / math.sin(t))
    c = -1.0 if c is None else float(c)
    if c > -1.0:
        raise InvalidBond(f"infinite bond requires a form value <= -1, got {c}")
    if c == -1.0:
        return (float(2 * i + 1), float(2 * i))
    t = math.acosh(-c)
    return (math.sinh((2 * i + 1) * t) / math.sinh(t),
            math.sinh(2 * i * t) / math.sinh(t))


@dataclass(frozen=True)
class RootRecord:
    """A positive root with its breadth-first generation level."""

    coords: np.ndarray
    depth: int
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coords", frozen(self.coords))


def _pairing_tol(v: np.ndarray) -> np.ndarray:
    """Tolerance on the pairings (v, alpha_t), relative to the size of v:
    pairings that are 0 in exact arithmetic come out as +-1e-16 |v|."""
    return EPS * np.max(np.abs(v), axis=-1)


def generate_roots(datum: CoxeterDatum, max_depth: int,
                   cap: int = ROOT_CAP) -> list[RootRecord]:
    """All positive roots reachable from the simple ones within `max_depth`
    rounds of simple reflections.

    Level 0 is the simple roots themselves.  A root gamma one level deeper
    than beta is r_s beta with (beta, alpha_s) < 0; it is kept only from the
    smallest s with (gamma, alpha_s) > 0, so each root is found once.
    Results are sorted by level then coordinates.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    gram = datum.gram
    frontier = np.eye(datum.rank)
    records = [RootRecord(e, 0) for e in frontier]
    for depth in range(1, max_depth + 1):
        pairings = frontier @ gram
        fresh = []
        for i, r in enumerate(datum.simple_reflections):
            beta = frontier[pairings[:, i] < -_pairing_tol(frontier)]
            # one product per root rounds exactly as r @ beta does; a single
            # matrix product for all of them rounds differently
            gamma = np.matmul(r, beta[:, :, None])[:, :, 0]
            ascents = gamma @ gram[:, :i] > _pairing_tol(gamma)[:, None]
            fresh.append(gamma[~ascents.any(axis=1)])
        frontier = np.concatenate(fresh)
        if not len(frontier):
            break
        frontier = frontier[np.lexsort(frontier.T[::-1])]
        records.extend(RootRecord(gamma, depth) for gamma in frontier)
        if len(records) > cap:
            raise BudgetExceeded(f"root generation passed the cap of {cap}")
    return records


def roots_by_level(records: Iterable[RootRecord]) -> dict[int, list[RootRecord]]:
    levels: dict[int, list[RootRecord]] = {}
    for rec in records:
        levels.setdefault(rec.depth, []).append(rec)
    return levels


def enumerate_ball(datum: CoxeterDatum, radius: int,
                   generators: Sequence[str] | None = None,
                   cap: int = ELEMENT_CAP) -> list[GroupElement]:
    """All elements of length <= radius, sorted by (length, word).

    Each element appears once, under its lexicographically least reduced
    word.  An optional generator subset restricts the search to that
    standard parabolic subgroup (whose length function agrees with the
    full one).
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _ball(datum, generators, radius, cap)


def parabolic_closure(datum: CoxeterDatum, generators: Sequence[str],
                      cap: int = ELEMENT_CAP) -> list[GroupElement]:
    """Every element of the parabolic subgroup on `generators`; raises
    BudgetExceeded if the subgroup does not close up within the cap."""
    return _ball(datum, generators, None, cap)


def _ball(datum: CoxeterDatum, generators: Sequence[str] | None,
          radius: int | None, cap: int) -> list[GroupElement]:
    gens = datum.generators if generators is None else datum.sort_subset(generators)
    cols = [datum.index(s) for s in gens]
    reflections = datum.simple_reflections
    out = [identity_element(datum)]
    # the last length reached: canonical words, M(w) and M(w^-1)
    words: list[tuple[str, ...]] = [()]
    mats = np.eye(datum.rank)[None]
    invs = mats
    level = 0
    while words and (radius is None or level < radius):
        level += 1
        left = negative_columns(invs)
        grown: list[tuple[str, ...]] = []
        grown_mats, grown_invs = [], []
        for k, (s, i) in enumerate(zip(gens, cols)):
            rows = np.flatnonzero(~left[:, i])
            inv = invs[rows] @ reflections[i]
            smallest = ~negative_columns(inv)[:, cols[:k]].any(axis=1)
            rows = rows[smallest]
            grown.extend((s,) + words[j] for j in rows)
            grown_mats.append(reflections[i] @ mats[rows])
            grown_invs.append(inv[smallest])
        if not grown:
            break
        words = grown
        mats = np.concatenate(grown_mats)
        invs = np.concatenate(grown_invs)
        out.extend(GroupElement(w, m) for w, m in zip(words, mats))
        if len(out) > cap:
            raise BudgetExceeded(f"ball enumeration passed the cap of {cap}")
    return out


def roots_to_json(records: Iterable[RootRecord]) -> list[dict]:
    return [{"coords": [float(x) for x in rec.coords], "depth": rec.depth}
            for rec in records]


def ball_to_json(elements: Iterable[GroupElement]) -> list[dict]:
    return [{"word": list(el.word), "length": el.length} for el in elements]
