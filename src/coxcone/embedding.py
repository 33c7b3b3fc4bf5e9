"""The equivariant map from the Davis complex into the normalized cone.

The empty subset goes to an interior basepoint; a spherical subset goes to
the normalized average of the basepoint's orbit under its finite parabolic,
which lands on exactly the walls of that subset.  That average is the
B-orthogonal projection of the basepoint onto the fixed space of the
parabolic (`cone.average_over_parabolic`), so no orbit is listed.  Chains
map to affinely independent frames, points extend barycentrically, and a
group element acts on the result through the dot action.

`verify_embedding` checks the map on the barycenter cells (w, chain) of a
Davis ball, with array code over the whole ball.  The point of a cell is
fixed by W_T, T the first subset of its chain, so its canonical element is
the minimal representative of w W_T, found by walking down the ball's
shared mirrors (`davis.coset_minima`).  The report's fields:

- `chambers`, `samples`: ball elements and (element, chain) cells.
- `max_equivariance_violation`, the larger of two gaps; `equivariance_ok`
  when both are below WALL_TOL.  Equivariance: for every u in the ball and
  every distinct canonical cell, the image of the moved cell, through the
  minimal representative of u w W_T, against u acting on the cell's image.
  Independence of the representative: every cell's image through its own
  element against its image through its canonical element.
- `min_separation`: the exact smallest Chebyshev distance between the
  images of two distinct canonical cells, over all pairs, computed a block
  of rows at a time so that memory stays bounded as the ball grows;
  `injectivity_ok` when it is above SEPARATION_TOL.
- `max_on_wall_violation`, `min_off_wall_margin`: on the identity chamber,
  the largest |wall value| of a chain's image at the walls of the chain's
  stabilizer, and the smallest at the other walls; `mirror_ok` when the
  first is below WALL_TOL and the second is not.
- `max_isotropy`: the largest B(x, x) over the cell images; `isotropy_ok`
  when it is at most ISOTROPY_TOL.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .cone import (
    ConePoint,
    average_over_parabolic,
    find_interior_basepoint,
    in_fundamental_chamber,
)
from .datum import CoxeterDatum
from .davis import (
    Chain,
    DavisBall,
    DavisCell,
    canonicalize_cell,
    coset_minima,
    uniform_point,
)
from .errors import DegenerateSimplex, InvariantViolation, LeftDomain, NotInterior
from .normalize import dot_act, normalize
from .numeric import EPS, WALL_TOL, frozen
from .parabolic import enumerate_spherical_poset
from .reflections import element_from_word, negative_columns

SIMPLEX_TOL = 1e-8
SEPARATION_TOL = 1e-7
ISOTROPY_TOL = 1e-9
BLOCK_FLOATS = 1 << 18   # floats in one batch of products or of pairwise gaps


def _interior_coords(datum: CoxeterDatum, v0: ConePoint | np.ndarray) -> np.ndarray:
    if isinstance(v0, ConePoint):
        if not v0.in_interior:
            raise NotInterior("basepoint is not interior to the fundamental domain")
        return np.asarray(v0.coords, dtype=float)
    coords = np.asarray(v0, dtype=float)
    if not in_fundamental_chamber(datum, coords).interior:
        raise NotInterior("basepoint is not interior to the fundamental domain")
    return coords


def vertex_image(datum: CoxeterDatum, subset,
                 v0: ConePoint | np.ndarray) -> np.ndarray:
    """Normalized image of the vertex of a spherical subset: the average of
    the basepoint's orbit under the finite parabolic, with the linear
    action."""
    base = _interior_coords(datum, v0)
    members = datum.sort_subset(subset)
    if not members:
        return normalize(base)
    return normalize(average_over_parabolic(datum, members, base))


@dataclass(frozen=True)
class VertexImageTable:
    basepoint: ConePoint  # normalized interior basepoint
    images: Mapping[frozenset[str], np.ndarray]

    def image(self, subset: frozenset[str]) -> np.ndarray:
        return self.images[subset]


def build_vertex_image_table(datum: CoxeterDatum,
                             v0: ConePoint | np.ndarray | None = None) -> VertexImageTable:
    """Vertex images for every spherical subset, validated: each image lies
    on exactly its own walls, is fixed by the dot action of its subset, and
    stays in the fundamental domain."""
    if v0 is None:
        v0 = find_interior_basepoint(datum)
    base = _interior_coords(datum, v0)
    normalized_base = ConePoint(normalize(base), True)
    images: dict[frozenset[str], np.ndarray] = {}
    for subset in enumerate_spherical_poset(datum).elements:
        images[subset] = frozen(vertex_image(datum, subset, normalized_base))
    table = VertexImageTable(normalized_base, images)
    _validate_table(datum, table)
    return table


def _validate_table(datum: CoxeterDatum, table: VertexImageTable) -> None:
    if np.max(np.abs(table.image(frozenset()) - table.basepoint.coords)) > EPS:
        raise InvariantViolation("empty subset must map to the basepoint")
    for subset, v in table.images.items():
        if not in_fundamental_chamber(datum, v).member:
            raise InvariantViolation("vertex image left the fundamental domain")
        walls = datum.wall_values(v)
        for s in datum.generators:
            value = walls[datum.index(s)]
            if s in subset:
                if abs(value) > WALL_TOL:
                    raise InvariantViolation(
                        f"image of {sorted(subset)} missed the wall of {s!r}")
                moved = dot_act(datum, element_from_word(datum, (s,)), v)
                if np.max(np.abs(moved - v)) > WALL_TOL:
                    raise InvariantViolation(
                        f"image of {sorted(subset)} is not fixed by {s!r}")
            elif value >= -EPS:
                raise InvariantViolation(
                    f"image of {sorted(subset)} touched the wall of {s!r}")


def affine_independence_margin(images: Sequence[np.ndarray]) -> float:
    """Smallest singular value of the difference frame; large means the
    points span a nondegenerate simplex."""
    if len(images) <= 1:
        return np.inf
    diffs = np.array([np.asarray(p, dtype=float) - np.asarray(images[0], dtype=float)
                      for p in images[1:]])
    return float(np.linalg.svd(diffs, compute_uv=False)[-1])


def chain_simplex_check(images: Sequence[np.ndarray]) -> bool:
    """Affine independence of the vertex images along a chain."""
    return affine_independence_margin(images) > SIMPLEX_TOL


def embed_chamber_point(point, table: VertexImageTable) -> np.ndarray:
    """Barycentric extension of the vertex images over the carrier chain."""
    images = [table.image(t) for t in point.carrier]
    if not chain_simplex_check(images):
        raise DegenerateSimplex(
            "chain vertex images are affinely dependent; the basepoint or "
            "the numerics are bad")
    return np.sum([w * img for w, img in zip(point.weights, images)], axis=0)


@dataclass(frozen=True)
class EmbeddedPoint:
    source: DavisCell
    image: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "image", frozen(self.image))


def embed_cell(datum: CoxeterDatum, cell: DavisCell,
               table: VertexImageTable) -> EmbeddedPoint:
    """Image of a cell: the element's dot action on the chamber image.

    Representatives of the same cell give the same image because the
    chamber image of a point is linearly fixed by the point's stabilizer.
    """
    canonical = canonicalize_cell(datum, cell)
    chamber_image = embed_chamber_point(canonical.point, table)
    return EmbeddedPoint(
        canonical, dot_act(datum, canonical.element, chamber_image))


@dataclass(frozen=True)
class EmbeddingReport:
    chambers: int
    samples: int
    equivariance_ok: bool
    injectivity_ok: bool
    mirror_ok: bool
    isotropy_ok: bool
    max_equivariance_violation: float
    min_separation: float
    max_on_wall_violation: float   # for s in the stabilizer, should be ~0
    min_off_wall_margin: float     # for s outside, should be clearly nonzero
    max_isotropy: float

    @property
    def all_passed(self) -> bool:
        return (self.equivariance_ok and self.injectivity_ok
                and self.mirror_ok and self.isotropy_ok)

    def to_json(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


class _BallImages(NamedTuple):
    chains: tuple[Chain, ...]
    chamber_images: np.ndarray  # [c]: barycenter image of chain c in the chamber
    matrices: np.ndarray        # [w]: M(w) of ball element w
    canonical: np.ndarray       # [w, c]: minimal representative of w W_T, T = c[0]
    own: np.ndarray             # [w, c]: chamber image c moved by w itself
    images: np.ndarray          # [w, c]: chamber image c moved by canonical[w, c]


def _on_slice(points: np.ndarray, axis: int) -> np.ndarray:
    """Scale to coordinate sum 1 along `axis`, as `dot_act` does."""
    totals = np.sum(points, axis=axis, keepdims=True)
    if np.any(np.abs(totals) <= EPS):
        raise LeftDomain("group image lands on the zero-sum hyperplane")
    return points / totals


def _embed_ball(datum: CoxeterDatum, ball: DavisBall,
                table: VertexImageTable) -> _BallImages:
    """Images of the barycenter cells (w, chain) of every chamber, each the
    dot action of M(w) on the chain's chamber image."""
    chains = ball.chamber.simplices
    chamber_images = np.array([embed_chamber_point(uniform_point(chain), table)
                               for chain in chains])
    matrices = np.array([w.matrix for w in ball.elements])
    minima = coset_minima(datum, ball, {chain[0] for chain in chains})
    canonical = np.stack([minima[chain[0]] for chain in chains], axis=1)
    own = _on_slice(matrices @ chamber_images.T, axis=1).transpose(0, 2, 1)
    images = own[canonical, np.arange(len(chains))]
    return _BallImages(chains, chamber_images, matrices, canonical, own, images)


def _strip_right_descents(products: np.ndarray, cols: list[int],
                          reflections: np.ndarray) -> None:
    """`minimal_coset_matrix` on a stack of matrices, in place: each round
    strips the first right descent among `cols` from every matrix that
    still has one."""
    while cols:
        down = negative_columns(products)[:, cols]
        moving = down.any(axis=1)
        if not moving.any():
            return
        first = down.argmax(axis=1)
        for k, i in enumerate(cols):
            rows = np.flatnonzero(moving & (first == k))
            products[rows] = products[rows] @ reflections[i]


def _equivariance_gap(datum: CoxeterDatum, emb: _BallImages,
                      subset: frozenset[str], reps: np.ndarray,
                      chains: list[int]) -> float:
    """Largest gap, over every u of the ball and every cell (w, c) with w
    in `reps` and c in `chains` (all starting at `subset`), between the
    image of the moved cell, through the minimal representative of
    u w W_subset, and u acting on the cell's image."""
    cols = [datum.index(s) for s in datum.sort_subset(subset)]
    frames = emb.chamber_images[chains].T                 # [rank, chain]
    cells = emb.images[reps][:, chains].transpose(0, 2, 1)  # [w, rank, chain]
    pairs = len(emb.matrices) * len(reps)
    block = max(1, BLOCK_FLOATS // (datum.rank * max(datum.rank, len(chains))))
    worst = 0.0
    for start in range(0, pairs, block):
        u, w = np.divmod(np.arange(start, min(start + block, pairs)), len(reps))
        moved = emb.matrices[u]
        products = moved @ emb.matrices[reps[w]]
        _strip_right_descents(products, cols, datum.simple_reflections)
        direct = _on_slice(products @ frames, axis=1)
        acted = _on_slice(moved @ cells[w], axis=1)
        worst = max(worst, float(np.max(np.abs(direct - acted))))
    return worst


def _min_separation(points: np.ndarray) -> float:
    """Smallest Chebyshev distance between two rows of `points`, exact over
    all pairs, comparing one block of rows with the later rows at a time."""
    n = len(points)
    coords = points.T.copy()
    best = np.inf
    rows = max(1, BLOCK_FLOATS // n)
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n - 1)
        gaps = np.zeros((stop - start, n - start - 1))
        for x in coords:
            np.maximum(gaps, np.abs(x[start:stop, None] - x[None, start + 1:]), out=gaps)
        # row start+k against row start+1+m: keep the pairs with m >= k
        gaps[np.tril_indices(stop - start, -1, n - start - 1)] = np.inf
        best = min(best, float(np.min(gaps)))
    return best


def verify_embedding(datum: CoxeterDatum, ball: DavisBall,
                     table: VertexImageTable) -> EmbeddingReport:
    """Check the embedding on a ball: equivariance of the group action and
    independence of the representative, injectivity on the barycenter
    sample, wall alignment of the mirrors, and isotropy of every image.
    Failures are reported, never raised."""
    emb = _embed_ball(datum, ball, table)

    # every representative of a cell gives the image of its canonical one
    max_gap = float(np.max(np.abs(emb.own - emb.images)))

    groups: dict[frozenset[str], list[int]] = {}
    for c, chain in enumerate(emb.chains):
        groups.setdefault(chain[0], []).append(c)
    max_equi = 0.0
    distinct = []
    for subset, chains in groups.items():
        reps = np.unique(emb.canonical[:, chains[0]])
        max_equi = max(max_equi, _equivariance_gap(datum, emb, subset, reps, chains))
        distinct.append(emb.images[reps][:, chains].reshape(-1, datum.rank))
    points = np.concatenate(distinct)
    min_sep = _min_separation(points)

    # mirror alignment on the identity chamber: on a wall iff s stabilizes
    walls = np.abs(emb.chamber_images @ datum.gram)
    on = np.array([[s in chain[0] for s in datum.generators] for chain in emb.chains])
    max_on = float(np.max(walls[on], initial=0.0))
    min_off = float(np.min(walls[~on], initial=np.inf))

    max_iso = float(np.max(np.sum(points @ datum.gram * points, axis=1)))

    return EmbeddingReport(
        chambers=len(ball.elements),
        samples=emb.canonical.size,
        equivariance_ok=max_equi < WALL_TOL and max_gap < WALL_TOL,
        injectivity_ok=bool(min_sep > SEPARATION_TOL),
        mirror_ok=max_on < WALL_TOL <= min_off,
        isotropy_ok=max_iso <= ISOTROPY_TOL,
        max_equivariance_violation=max(max_equi, max_gap),
        min_separation=min_sep,
        max_on_wall_violation=max_on,
        min_off_wall_margin=min_off,
        max_isotropy=max_iso,
    )


def embedded_complex_to_json(datum: CoxeterDatum, ball: DavisBall,
                             table: VertexImageTable) -> list[dict]:
    """Every barycenter cell (w, chain) of the ball, chamber by chamber:
    its canonical word, carrier, weights, image and isotropy B(x, x)."""
    emb = _embed_ball(datum, ball, table)
    isotropy = np.sum(emb.images @ datum.gram * emb.images, axis=2)
    carriers = [[ball.chamber.subset_key(t) for t in chain] for chain in emb.chains]
    weights = [list(uniform_point(chain).weights) for chain in emb.chains]
    return [{
        "word": list(ball.elements[e].word),
        "carrier": [list(key) for key in carriers[c]],
        "barycentric": list(weights[c]),
        "image": emb.images[w, c].tolist(),
        "isotropy": float(isotropy[w, c]),
    } for w, row in enumerate(emb.canonical) for c, e in enumerate(row)]
