"""The imaginary cone: fundamental domain, orbit samples, and its invariants.

The fundamental domain is the set of nonnegative root combinations whose
inner product with every simple root is nonpositive.  Pushing it around
by the group sweeps out the imaginary cone; all the structural facts used
by the embedding (displacement, averaging onto walls, stabilizers, which
wall intersections are nonempty, positive independence) live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .datum import CoxeterDatum, in_positive_cone
from .errors import (
    Infeasible,
    InvariantViolation,
    NotApplicable,
    NotSpherical,
    PreconditionViolated,
)
from .feasible import solve_lp
from .normalize import normalize
from .numeric import EPS, WALL_TOL, frozen
from .parabolic import ParabolicKind, classify_parabolic, is_connected
from .reflections import (
    GroupElement,
    act,
    enumerate_ball,
    parabolic_closure,
)


@dataclass(frozen=True)
class ConePoint:
    coords: np.ndarray
    in_interior: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coords", frozen(self.coords))


class ChamberMembership(NamedTuple):
    member: bool
    interior: bool

    def __bool__(self) -> bool:
        return self.member


def in_fundamental_chamber(datum: CoxeterDatum, v: np.ndarray,
                           interior_margin: float = EPS) -> ChamberMembership:
    """Membership and interiority of v in the fundamental domain.

    Membership needs nonnegative coordinates (not all zero) and every wall
    value at most EPS.  Interiority needs every coordinate above the margin
    and every wall value below minus the margin; pass a larger margin to
    insist on robustly interior points.
    """
    v = np.asarray(v, dtype=float)
    walls = datum.wall_values(v)
    member = in_positive_cone(v, EPS) and bool(np.max(walls) <= EPS)
    interior = (member
                and bool(np.min(v) > interior_margin)
                and bool(np.max(walls) < -interior_margin))
    return ChamberMembership(member, interior)


def make_cone_point(datum: CoxeterDatum, coords: np.ndarray) -> ConePoint:
    coords = np.asarray(coords, dtype=float)
    membership = in_fundamental_chamber(datum, coords)
    if not membership.member:
        raise PreconditionViolated("point is outside the fundamental domain")
    return ConePoint(coords, membership.interior)


def _require_applicable(datum: CoxeterDatum) -> None:
    """Interior points exist only for irreducible infinite non-affine groups."""
    if not is_connected(datum, datum.generators):
        raise NotApplicable("the group is reducible; the interior may be empty")
    kind = classify_parabolic(datum, datum.generators).kind
    if kind is ParabolicKind.FINITE:
        raise NotApplicable("the group is finite; the fundamental domain is {0}")
    if kind is ParabolicKind.AFFINE:
        raise NotApplicable("the group is affine; the fundamental domain is a ray")


def find_interior_basepoint(datum: CoxeterDatum) -> ConePoint:
    """A point with all coordinates positive and all wall values negative,
    scaled to coordinate sum 1.

    First tries the linear system (gram) x = -1; a strictly positive
    solution is kept.  Otherwise maximizes the two-sided margin t subject
    to wall values <= -t, coordinates >= t, coordinate sum 1.
    """
    _require_applicable(datum)
    n = datum.rank
    ones = np.ones(n)
    try:
        x = np.linalg.solve(datum.gram, -ones)
        if np.min(x) > EPS:
            return ConePoint(normalize(x), True)
    except np.linalg.LinAlgError:
        pass
    # variables (v, t): maximize t with  gram v + t 1 <= 0,  -v + t 1 <= 0
    a_ub = np.block([[datum.gram, ones[:, None]],
                     [-np.eye(n), ones[:, None]]])
    b_ub = np.zeros(2 * n)
    a_eq = np.concatenate([ones, [0.0]])[None, :]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    result = solve_lp(c, a_ub, b_ub, a_eq, np.array([1.0]))
    if not result.ok or result.x[-1] <= EPS:
        raise Infeasible("no strictly interior point was found")
    return ConePoint(result.x[:-1], True)


def check_displacement(datum: CoxeterDatum, v: np.ndarray,
                       ball_radius: int) -> bool:
    """Whether wv - v stays in the closed positive cone (or is zero) for
    every w in the length ball.

    Requires every wall value of v to be nonpositive; under that hypothesis
    the difference is a nonnegative combination of simple roots.
    """
    v = np.asarray(v, dtype=float)
    if np.max(datum.wall_values(v)) > EPS:
        raise PreconditionViolated("v has a positive wall value")
    for w in enumerate_ball(datum, ball_radius):
        if np.min(act(w, v) - v) < -EPS:
            return False
    return True


def displacement_violation(datum: CoxeterDatum, v: np.ndarray,
                           ball_radius: int) -> float:
    """Most negative coordinate of wv - v over the ball (0 when clean)."""
    v = np.asarray(v, dtype=float)
    if np.max(datum.wall_values(v)) > EPS:
        raise PreconditionViolated("v has a positive wall value")
    worst = 0.0
    for w in enumerate_ball(datum, ball_radius):
        worst = min(worst, float(np.min(act(w, v) - v)))
    return worst


def average_over_parabolic(datum: CoxeterDatum, subset: Iterable[str],
                           v0: ConePoint | np.ndarray) -> np.ndarray:
    """Average of the orbit of v0 under the finite parabolic on `subset`,
    using the linear action.

    The average lands on every wall of the subset (inner product 0 within
    WALL_TOL), stays strictly off the other walls, and remains in the
    fundamental domain; these facts are asserted before returning.
    """
    members = datum.sort_subset(subset)
    base = v0.coords if isinstance(v0, ConePoint) else np.asarray(v0, dtype=float)
    if not classify_parabolic(datum, members).is_spherical:
        raise NotSpherical(f"subset {members!r} generates an infinite subgroup")
    orbit = [act(w, base) for w in parabolic_closure(datum, members)]
    averaged = np.mean(orbit, axis=0)
    walls = datum.wall_values(averaged)
    inside = [datum.index(s) for s in members]
    outside = [i for i in range(datum.rank) if i not in inside]
    if inside and np.max(np.abs(walls[inside])) > WALL_TOL:
        raise InvariantViolation("averaged point missed a subset wall")
    if outside and np.max(walls[outside]) >= -EPS:
        raise InvariantViolation("averaged point touched a wall outside the subset")
    if not in_fundamental_chamber(datum, averaged).member:
        raise InvariantViolation("averaged point left the fundamental domain")
    return averaged


def stabilizer_generators(datum: CoxeterDatum, v: np.ndarray,
                          tol: float = EPS) -> frozenset[str]:
    """Generators whose wall passes through v; they generate the full
    stabilizer of any point of the fundamental domain."""
    v = np.asarray(v, dtype=float)
    walls = datum.wall_values(v)
    if np.max(walls) > tol:
        raise PreconditionViolated("v has a positive wall value")
    return frozenset(
        s for s in datum.generators if abs(walls[datum.index(s)]) <= tol)


def verify_stabilizer(datum: CoxeterDatum, v: np.ndarray,
                      ball_radius: int) -> bool:
    """Exhaustively confirm that the wall generators generate the stabilizer:
    over the whole ball, w fixes v exactly when w lies in the subgroup they
    generate."""
    v = np.asarray(v, dtype=float)
    gens = stabilizer_generators(datum, v)
    scale = max(1.0, float(np.max(np.abs(v))))
    for w in enumerate_ball(datum, ball_radius):
        fixes = bool(np.max(np.abs(act(w, v) - v)) <= EPS * scale)
        # every reduced word of w uses the same letters (Humphreys 5.10)
        generated = set(w.word) <= gens
        if fixes != generated:
            return False
    return True


def isotropic_boundary_structure(datum: CoxeterDatum,
                                 x: np.ndarray) -> frozenset[str]:
    """For a nonzero isotropic point of the fundamental domain, the set of
    generators whose wall contains it.

    The point must be supported on that set and must lie in the radical of
    the form restricted to it; both facts are asserted.
    """
    x = np.asarray(x, dtype=float)
    membership = in_fundamental_chamber(datum, x)
    if not membership.member:
        raise PreconditionViolated("x is outside the fundamental domain")
    if abs(datum.bilinear(x, x)) > EPS:
        raise PreconditionViolated("x is not isotropic")
    walls = datum.wall_values(x)
    touched = frozenset(
        s for s in datum.generators if abs(walls[datum.index(s)]) <= EPS)
    support_idx = [datum.index(s) for s in touched]
    off = [i for i in range(datum.rank) if i not in support_idx]
    if off and np.max(np.abs(x[off])) > WALL_TOL:
        raise InvariantViolation("isotropic point is not supported on its walls")
    sub = datum.gram[np.ix_(support_idx, support_idx)]
    if np.max(np.abs(sub @ x[support_idx])) > WALL_TOL:
        raise InvariantViolation(
            "isotropic point is not in the radical of the restricted form")
    return touched


@dataclass(frozen=True)
class WallIntersection:
    meets: bool
    witness: np.ndarray | None = None  # normalized point on all the walls

    def __post_init__(self):
        if self.witness is not None:
            object.__setattr__(self, "witness", frozen(self.witness))

    def __bool__(self) -> bool:
        return self.meets


def hyperplane_meets_chamber(datum: CoxeterDatum,
                             subset: Iterable[str]) -> WallIntersection:
    """Whether the walls of `subset` meet the normalized fundamental domain.

    They do exactly when the subset generates a finite or irreducible
    affine subgroup; the witness is the normalized orbit average of an
    interior basepoint (finite case) or the normalized radical (affine
    case).
    """
    members = datum.sort_subset(subset)
    if not members:
        raise PreconditionViolated("subset must be nonempty")
    classified = classify_parabolic(datum, members)
    if classified.kind is ParabolicKind.FINITE:
        base = find_interior_basepoint(datum)
        return WallIntersection(True, normalize(
            average_over_parabolic(datum, members, base)))
    if classified.kind is ParabolicKind.AFFINE:
        return WallIntersection(True, normalize(classified.radical_vector))
    return WallIntersection(False)


def positively_independent(points: Sequence[np.ndarray]) -> bool:
    """Whether no nonzero nonnegative combination of the points vanishes.

    Points inside the positive cone all have positive coordinate sum, so
    any such family is independent outright; otherwise feasibility of
    sum(l_i p_i) = 0, l >= 0, sum(l) = 1 is decided by linear programming.
    """
    if not points:
        raise PreconditionViolated("need at least one point")
    stacked = np.column_stack([np.asarray(p, dtype=float) for p in points])
    if all(in_positive_cone(stacked[:, j]) for j in range(stacked.shape[1])):
        return True
    k = stacked.shape[1]
    a_eq = np.vstack([stacked, np.ones((1, k))])
    b_eq = np.concatenate([np.zeros(stacked.shape[0]), [1.0]])
    # lambda >= 0 is modeled as ub: -lambda <= 0
    result = solve_lp(np.zeros(k), -np.eye(k), np.zeros(k), a_eq, b_eq)
    return not result.ok


def sample_wall_dominated(datum: CoxeterDatum, count: int,
                          seed: int) -> list[np.ndarray]:
    """Seeded random vectors with every wall value nonpositive.

    When the form is invertible, solve (gram) v = -y for positive random y.
    A singular form only arises here for affine groups, where the solution
    set is the radical line; random multiples of the radical are used.
    """
    rng = np.random.default_rng(seed)
    radical = None
    try:
        np.linalg.solve(datum.gram, np.ones(datum.rank))
        singular = False
    except np.linalg.LinAlgError:
        singular = True
        full = classify_parabolic(datum, datum.generators)
        if full.kind is not ParabolicKind.AFFINE:
            raise NotApplicable(
                "the form is singular but not affine; no sampler is provided")
        radical = full.radical_vector
    out: list[np.ndarray] = []
    for _ in range(count):
        if singular:
            out.append(rng.uniform(-2.0, 2.0) * radical)
        else:
            y = rng.uniform(0.1, 1.0, datum.rank)
            out.append(np.linalg.solve(datum.gram, -y))
    return out


@dataclass(frozen=True)
class ConeSample:
    base: ConePoint
    element: GroupElement
    image: np.ndarray
    normalized_image: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "image", frozen(self.image))
        object.__setattr__(self, "normalized_image", frozen(self.normalized_image))


def _sample_pool(datum: CoxeterDatum, base: ConePoint) -> list[np.ndarray]:
    """Interior basepoint plus its wall averages over the singletons; convex
    combinations of these stay in the (convex) fundamental domain."""
    pool = [np.asarray(base.coords, dtype=float)]
    for s in datum.generators:
        if classify_parabolic(datum, (s,)).is_spherical:
            pool.append(average_over_parabolic(datum, (s,), base))
    return pool


def sample_imaginary_cone(datum: CoxeterDatum, ball_radius: int,
                          samples_per_chamber: int,
                          seed: int) -> list[ConeSample]:
    """Seeded random points of the fundamental domain pushed through every
    ball element.

    Each sample records the displaced image and its normalization; the
    displacement property guarantees image minus base stays in the closed
    positive cone, and form invariance keeps every normalized image
    isotropically nonpositive.
    """
    base = find_interior_basepoint(datum)
    pool = _sample_pool(datum, base)
    rng = np.random.default_rng(seed)
    samples: list[ConeSample] = []
    for w in enumerate_ball(datum, ball_radius):
        for _ in range(samples_per_chamber):
            weights = rng.dirichlet(np.ones(len(pool)))
            point = np.sum([c * p for c, p in zip(weights, pool)], axis=0)
            image = act(w, point)
            samples.append(ConeSample(
                make_cone_point(datum, point), w, image, normalize(image)))
    return samples


def cone_samples_to_json(datum: CoxeterDatum,
                         samples: Sequence[ConeSample]) -> list[dict]:
    return [
        {
            "word": list(s.element.word),
            "base": [float(c) for c in s.base.coords],
            "image": [float(c) for c in s.image],
            "normalized_image": [float(c) for c in s.normalized_image],
            "isotropy": float(datum.bilinear(s.normalized_image,
                                             s.normalized_image)),
        }
        for s in samples
    ]
