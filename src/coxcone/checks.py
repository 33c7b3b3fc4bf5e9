"""Runnable invariant suites over a datum, one result row per property.

Checks that need an interior basepoint (averaging, wall intersections,
embedding) are skipped with a notice for finite, affine or reducible
groups instead of failing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cone import (
    average_over_parabolic,
    displacement_violation,
    find_interior_basepoint,
    hyperplane_meets_chamber,
    sample_wall_dominated,
    verify_stabilizer,
)
from .datum import CoxeterDatum
from .davis import build_davis_ball
from .embedding import build_vertex_image_table, verify_embedding
from .errors import NotApplicable
from .numeric import EPS, WALL_TOL
from .parabolic import (
    ParabolicKind,
    classify_parabolic,
    enumerate_spherical_poset,
)
from .reflections import act, enumerate_ball, generate_roots, parabolic_closure

PROBE_RADIUS = 8  # parabolic subgroups of the test data close up well inside


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass", "fail" or "skip"
    violation: float | None = None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _result(name: str, ok: bool, violation: float | None = None,
            detail: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", violation, detail)


def _skip(name: str, reason: str) -> CheckResult:
    return CheckResult(name, "skip", None, reason)


def _nonempty_subsets(datum: CoxeterDatum) -> list[tuple[str, ...]]:
    gens = datum.generators
    return [c for k in range(1, len(gens) + 1)
            for c in itertools.combinations(gens, k)]


def check_sign_dichotomy(datum: CoxeterDatum, depth: int) -> CheckResult:
    """Every simple-reflection image of every root is entirely nonnegative
    or entirely nonpositive."""
    worst = 0.0
    for record in generate_roots(datum, depth):
        for m in datum.simple_reflections:
            image = m @ record.coords
            mixed = min(max(0.0, -float(np.min(image))),
                        max(0.0, float(np.max(image))))
            worst = max(worst, mixed)
    return _result("root-sign-dichotomy", worst <= EPS, worst,
                   f"depth {depth}")


def check_root_norms(datum: CoxeterDatum, depth: int) -> CheckResult:
    """The form is reflection-invariant, so every root has self-pairing 1."""
    worst = max(abs(datum.bilinear(r.coords, r.coords) - 1.0)
                for r in generate_roots(datum, depth))
    return _result("root-norm-invariance", worst <= 1e-8, worst,
                   f"depth {depth}")


def check_classification_vs_enumeration(datum: CoxeterDatum) -> CheckResult:
    """Positive definiteness of the restricted form must agree with the
    subgroup enumeration closing up."""
    mismatches = []
    for subset in _nonempty_subsets(datum):
        spherical = classify_parabolic(datum, subset).is_spherical
        ball = enumerate_ball(datum, PROBE_RADIUS, subset)
        closes = max(w.length for w in ball) < PROBE_RADIUS
        if spherical != closes:
            mismatches.append(subset)
    return _result("classification-vs-enumeration", not mismatches,
                   detail=f"mismatches: {mismatches}" if mismatches else
                   f"{len(_nonempty_subsets(datum))} subsets")


def check_displacement(datum: CoxeterDatum, radius: int, seed: int,
                       count: int = 50) -> CheckResult:
    """Group images of wall-dominated points never lose a coordinate."""
    worst = 0.0
    for v in sample_wall_dominated(datum, count, seed):
        worst = min(worst, displacement_violation(datum, v, radius))
    return _result("displacement", worst >= -EPS, -worst,
                   f"{count} samples, radius {radius}")


def check_averaging(datum: CoxeterDatum) -> CheckResult:
    """Orbit averages of the basepoint land exactly on their subset walls,
    and the closed form agrees with the mean over the listed orbit."""
    try:
        base = find_interior_basepoint(datum)
    except NotApplicable as exc:
        return _skip("averaging", str(exc))
    poset = enumerate_spherical_poset(datum)
    worst = 0.0
    gap = 0.0
    for subset in poset.elements:
        if not subset:
            continue
        averaged = average_over_parabolic(datum, subset, base)
        walls = datum.wall_values(averaged)
        worst = max(worst, max(abs(walls[datum.index(s)]) for s in subset))
        orbit = np.mean([act(w, base.coords)
                         for w in parabolic_closure(datum, datum.sort_subset(subset))],
                        axis=0)
        gap = max(gap, float(np.max(np.abs(orbit - averaged))))
    ok = worst <= 1e-8 and gap <= WALL_TOL * float(np.max(np.abs(base.coords)))
    return _result("averaging", ok, max(worst, gap),
                   f"{len(poset.elements) - 1} spherical subsets")


def check_wall_intersections(datum: CoxeterDatum) -> CheckResult:
    """Wall intersections meet the normalized domain exactly for finite or
    affine subsets."""
    try:
        mismatches = []
        for subset in _nonempty_subsets(datum):
            expected = classify_parabolic(datum, subset).kind in (
                ParabolicKind.FINITE, ParabolicKind.AFFINE)
            if bool(hyperplane_meets_chamber(datum, subset)) != expected:
                mismatches.append(subset)
    except NotApplicable as exc:
        return _skip("wall-intersections", str(exc))
    return _result("wall-intersections", not mismatches,
                   detail=f"mismatches: {mismatches}" if mismatches else
                   f"{len(_nonempty_subsets(datum))} subsets")


def check_stabilizers(datum: CoxeterDatum, radius: int) -> CheckResult:
    """Wall generators generate the full stabilizer, over the whole ball."""
    points: list[np.ndarray] = []
    try:
        base = find_interior_basepoint(datum)
        points.append(np.asarray(base.coords))
        points.append(average_over_parabolic(
            datum, (datum.generators[0],), base))
    except NotApplicable:
        pass
    for subset in _nonempty_subsets(datum):
        classified = classify_parabolic(datum, subset)
        if classified.kind is ParabolicKind.AFFINE:
            points.append(np.asarray(classified.radical_vector))
            break
    if not points:
        return _skip("stabilizers", "no interior, wall or radical point exists")
    ok = all(verify_stabilizer(datum, v, radius) for v in points)
    return _result("stabilizers", ok,
                   detail=f"{len(points)} points, radius {radius}")


def check_davis_ball(datum: CoxeterDatum, radius: int) -> CheckResult:
    """Chamber count, closure for finite groups, and shared mirrors: when
    chambers i and j share the mirror of s, M(w_i) r_s equals M(w_j)."""
    ball = build_davis_ball(datum, radius)
    problems = []
    if len(ball.elements) != len(enumerate_ball(datum, radius)):
        problems.append("chamber count differs from ball size")
    for i, j, s in ball.adjacency:
        w, target = ball.elements[i], ball.elements[j].matrix
        gap = np.max(np.abs(w.matrix @ datum.simple_reflections[datum.index(s)] - target))
        if gap > EPS * max(1.0, np.max(np.abs(target))):
            problems.append(f"mirror {s}: {w!r} r_{s} != {ball.elements[j]!r}")
    if classify_parabolic(datum, datum.generators).is_spherical:
        whole = enumerate_ball(datum, PROBE_RADIUS)
        closed = build_davis_ball(datum, max(w.length for w in whole))
        if not closed.is_closed or len(closed.elements) != len(whole):
            problems.append("finite group complex did not close up")
    return _result("davis-ball", not problems,
                   detail="; ".join(problems) if problems else
                   f"{len(ball.elements)} chambers")


def check_embedding(datum: CoxeterDatum, radius: int) -> CheckResult:
    """Full embedding verification: equivariance, injectivity, mirrors,
    isotropy, and the stabilizer match on chamber samples."""
    try:
        table = build_vertex_image_table(datum)
    except NotApplicable as exc:
        return _skip("embedding", str(exc))
    report = verify_embedding(datum, build_davis_ball(datum, radius), table)
    worst = max(report.max_equivariance_violation,
                report.max_on_wall_violation,
                max(0.0, report.max_isotropy))
    detail = (f"{report.chambers} chambers, {report.samples} samples, "
              f"min separation {report.min_separation:.2e}")
    return _result("embedding", report.all_passed, worst, detail)


def run_all_checks(datum: CoxeterDatum, *, depth: int = 6, radius: int = 3,
                   seed: int = 0) -> list[CheckResult]:
    return [
        check_sign_dichotomy(datum, depth),
        check_root_norms(datum, depth),
        check_classification_vs_enumeration(datum),
        check_displacement(datum, radius + 1, seed),
        check_averaging(datum),
        check_wall_intersections(datum),
        check_stabilizers(datum, radius),
        check_davis_ball(datum, radius),
        check_embedding(datum, radius),
    ]


def render_check_table(results: list[CheckResult]) -> str:
    lines = [f"{'check':<34} {'status':<6} {'max violation':<14} detail"]
    for r in results:
        violation = "-" if r.violation is None else f"{r.violation:.3e}"
        lines.append(f"{r.name:<34} {r.status.upper():<6} {violation:<14} {r.detail}")
    return "\n".join(lines) + "\n"
