"""Acceptance criteria: one test and one printed pass/fail line per criterion.

Criteria needing an interior basepoint run on the four applicable standing
datums (irreducible, infinite, not affine); the rank-2 finite and affine
datums are excluded there because the operations raise NotApplicable on
them by design.
"""

import itertools
import math

import numpy as np

from conftest import APPLICABLE, FIXTURE_BUILDERS, record_criterion

from coxcone import (
    ParabolicKind,
    approximate_limit_roots,
    average_over_parabolic,
    build_davis_ball,
    build_fundamental_chamber,
    build_vertex_image_table,
    chain_simplex_check,
    classify_parabolic,
    dihedral_orbit_closed_form,
    enumerate_ball,
    enumerate_spherical_poset,
    find_interior_basepoint,
    generate_roots,
    hyperplane_meets_chamber,
    in_fundamental_chamber,
    make_datum,
    normalized_roots_by_level,
    sample_wall_dominated,
    simple_reflection_matrix,
    verify_embedding,
    verify_stabilizer,
)
from coxcone.embedding import affine_independence_margin

INF = math.inf
DATUMS = {name: build() for name, build in FIXTURE_BUILDERS.items()}


def dihedral_datum(m, c):
    values = [] if c is None else [("s", "t", c)]
    return make_datum(["s", "t"], [("s", "t", m)], values)


def test_criterion_1_dihedral_closed_form():
    # closed-form orbit coefficients against independent rotation powers,
    # m in {3, 4, 5, 7} and c in {-1, -1.5}, i <= 20, relative error 1e-7
    worst = 0.0
    cases = [(3, None), (4, None), (5, None), (7, None), (INF, -1.0), (INF, -1.5)]
    for m, c in cases:
        datum = dihedral_datum(m, c)
        rot = simple_reflection_matrix(datum, "s") @ simple_reflection_matrix(datum, "t")
        root = datum.simple_root("s")
        for i in range(21):
            expect = np.array(dihedral_orbit_closed_form(m, c, i))
            scale = np.maximum(1.0, np.abs(expect))
            worst = max(worst, float(np.max(np.abs(root - expect) / scale)))
            root = rot @ root
    passed = worst <= 1e-7
    record_criterion(1, "dihedral closed form matches rotation orbits", passed,
                     f"{len(cases)} bonds, i<=20, worst relative error {worst:.2e}")
    assert passed


def test_criterion_2_integer_orbit():
    # at the degenerate value c = -1 the coefficients are the integers
    # (2i + 1, 2i), exact after rounding
    datum = dihedral_datum(INF, -1.0)
    rot = simple_reflection_matrix(datum, "s") @ simple_reflection_matrix(datum, "t")
    root = datum.simple_root("s")
    passed = True
    for i in range(21):
        closed = dihedral_orbit_closed_form(INF, -1.0, i)
        if closed != (float(2 * i + 1), float(2 * i)):
            passed = False
        if tuple(np.rint(root)) != (2 * i + 1, 2 * i):
            passed = False
        if np.max(np.abs(root - np.rint(root))) > 1e-9:
            passed = False
        root = rot @ root
    record_criterion(2, "degenerate infinite bond gives integer orbits", passed,
                     "i<=20, exact after rounding")
    assert passed


def test_criterion_3_sign_dichotomy():
    # every simple-reflection image of every depth-10 root has one sign
    worst = 0.0
    total = 0
    for datum in DATUMS.values():
        roots = np.array([r.coords for r in generate_roots(datum, 10)])
        total += len(roots)
        for s in datum.generators:
            images = roots @ simple_reflection_matrix(datum, s).T
            mixed = np.minimum(np.maximum(-images.min(axis=1), 0.0),
                               np.maximum(images.max(axis=1), 0.0))
            worst = max(worst, float(mixed.max()))
    passed = worst <= 1e-9
    record_criterion(3, "root images never mix signs", passed,
                     f"{len(DATUMS)} datums, {total} roots at depth 10, "
                     f"worst mix {worst:.2e}")
    assert passed


def test_criterion_4_classification_matches_enumeration():
    # positive-definite restriction iff the subgroup ball stops growing
    radius = 8
    mismatches = []
    checked = 0
    for name, datum in DATUMS.items():
        gens = datum.generators
        for k in range(1, len(gens) + 1):
            for subset in itertools.combinations(gens, k):
                checked += 1
                spherical = classify_parabolic(datum, subset).is_spherical
                ball = enumerate_ball(datum, radius, subset)
                closes = max(w.length for w in ball) < radius
                if spherical != closes:
                    mismatches.append((name, subset))
    passed = not mismatches
    record_criterion(4, "classification agrees with subgroup enumeration", passed,
                     f"{checked} subsets across {len(DATUMS)} datums"
                     + (f"; mismatches {mismatches}" if mismatches else ""))
    assert passed


def test_criterion_5_displacement():
    # group images of wall-dominated vectors never lose a coordinate:
    # min over the length-6 ball and 200 seeded samples per datum
    worst = 0.0
    for seed, datum in enumerate(DATUMS.values()):
        samples = np.array(sample_wall_dominated(datum, 200, seed=seed))
        matrices = np.array([w.matrix for w in enumerate_ball(datum, 6)])
        images = np.einsum("kij,mj->kmi", matrices, samples)
        worst = min(worst, float((images - samples[None, :, :]).min()))
    passed = worst >= -1e-9
    record_criterion(5, "displacement stays in the positive cone", passed,
                     f"200 samples per datum, word length <= 6, "
                     f"worst coordinate {worst:.2e}")
    assert passed


def test_criterion_6_averaging_postconditions():
    # orbit averages land on their walls, stay off the others, and remain
    # in the fundamental domain, for every spherical subset
    worst_on = 0.0
    subsets = 0
    passed = True
    for name in APPLICABLE:
        datum = DATUMS[name]
        base = find_interior_basepoint(datum)
        for subset in enumerate_spherical_poset(datum).elements:
            if not subset:
                continue
            subsets += 1
            averaged = average_over_parabolic(datum, subset, base)
            walls = datum.wall_values(averaged)
            inside = [datum.index(s) for s in subset]
            outside = [i for i in range(datum.rank) if i not in inside]
            worst_on = max(worst_on, float(np.max(np.abs(walls[inside]))))
            if np.max(np.abs(walls[inside])) > 1e-8:
                passed = False
            if outside and np.max(walls[outside]) >= 0.0:
                passed = False
            if not in_fundamental_chamber(datum, averaged).member:
                passed = False
    record_criterion(6, "orbit averages satisfy the wall postconditions", passed,
                     f"{subsets} spherical subsets on {len(APPLICABLE)} datums, "
                     f"worst wall value {worst_on:.2e}")
    assert passed


def test_criterion_7_wall_intersections():
    # the walls of a subset meet the normalized domain iff the subset is
    # finite or irreducible affine
    mismatches = []
    checked = 0
    for name in APPLICABLE:
        datum = DATUMS[name]
        gens = datum.generators
        for k in range(1, len(gens) + 1):
            for subset in itertools.combinations(gens, k):
                checked += 1
                kind = classify_parabolic(datum, subset).kind
                expected = kind in (ParabolicKind.FINITE, ParabolicKind.AFFINE)
                if bool(hyperplane_meets_chamber(datum, subset)) != expected:
                    mismatches.append((name, subset))
    passed = not mismatches
    record_criterion(7, "wall intersections match the classification", passed,
                     f"{checked} subsets on {len(APPLICABLE)} datums"
                     + (f"; mismatches {mismatches}" if mismatches else ""))
    assert passed


def test_criterion_8_stabilizers():
    # wall generators generate the stabilizer over the radius-5 ball, for an
    # interior point, a one-wall point, and an affine radical point
    points = 0
    passed = True
    for name in APPLICABLE:
        datum = DATUMS[name]
        base = find_interior_basepoint(datum)
        cases = [np.asarray(base.coords),
                 average_over_parabolic(datum, (datum.generators[0],), base)]
        for subset in itertools.combinations(datum.generators, 2):
            classified = classify_parabolic(datum, subset)
            if classified.kind is ParabolicKind.AFFINE:
                cases.append(np.asarray(classified.radical_vector))
                break
        for v in cases:
            points += 1
            if not verify_stabilizer(datum, v, 5):
                passed = False
    record_criterion(8, "wall generators generate the stabilizer", passed,
                     f"{points} points on {len(APPLICABLE)} datums, radius 5")
    assert passed


def test_criterion_9_hexagon():
    # the order-3 dihedral group tiles a closed hexagon at radius 3
    ball = build_davis_ball(DATUMS["rank2_m3"], 3)
    degrees = [0] * len(ball.elements)
    for i, j, _ in ball.adjacency:
        degrees[i] += 1
        degrees[j] += 1
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for i, j, _ in ball.adjacency:
            for nxt in ((j,) if i == node else (i,) if j == node else ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
    passed = (len(ball.elements) == 6 and ball.is_closed
              and len(ball.adjacency) == 6 and degrees == [2] * 6
              and len(reached) == 6)
    record_criterion(9, "the finite dihedral complex closes into a hexagon",
                     passed,
                     f"{len(ball.elements)} chambers, {len(ball.adjacency)} "
                     f"shared mirrors, closed={ball.is_closed}")
    assert passed


def test_criterion_10_embedding():
    # full verification at radius 4: equivariance below 1e-8, separation
    # above 1e-7, exact mirror alignment, isotropy at most 1e-9
    passed = True
    details = []
    for name in ("universal3", "triangle334"):
        datum = DATUMS[name]
        report = verify_embedding(datum, build_davis_ball(datum, 4),
                                  build_vertex_image_table(datum))
        ok = (report.max_equivariance_violation < 1e-8
              and report.min_separation > 1e-7
              and report.mirror_ok
              and report.max_isotropy <= 1e-9
              and report.all_passed)
        passed = passed and ok
        details.append(
            f"{name}: {report.chambers} chambers, "
            f"equivariance {report.max_equivariance_violation:.2e}, "
            f"separation {report.min_separation:.2e}, "
            f"isotropy {report.max_isotropy:.2e}")
    record_criterion(10, "the complex embeds equivariantly in the cone",
                     passed, "; ".join(details))
    assert passed


def test_criterion_11_chain_simplices():
    # vertex images along every maximal chain are affinely independent
    worst = np.inf
    chains = 0
    passed = True
    for name in APPLICABLE:
        datum = DATUMS[name]
        table = build_vertex_image_table(datum)
        poset = enumerate_spherical_poset(datum)
        chamber = build_fundamental_chamber(poset)
        simplices = set(chamber.simplices)
        for chain in chamber.simplices:
            is_maximal = not any(
                other != chain and set(chain) <= set(other)
                for other in simplices)
            if not is_maximal:
                continue
            chains += 1
            margin = affine_independence_margin(
                [table.image(t) for t in chain])
            if margin != np.inf:
                worst = min(worst, margin)
            if not chain_simplex_check([table.image(t) for t in chain]):
                passed = False
    record_criterion(11, "maximal chains span nondegenerate simplices", passed,
                     f"{chains} maximal chains on {len(APPLICABLE)} datums, "
                     f"smallest singular value {worst:.2e}")
    assert passed


def test_criterion_12_limit_roots():
    # (a) affine: the deepest normalized roots at depth 12 sit within 0.03
    # of the radical point (1/2, 1/2); (b) universal: depth-10 estimates
    # exist and are near-isotropic
    aff = DATUMS["rank2_affine"]
    levels = normalized_roots_by_level(aff, 12)
    deepest = levels[max(levels)]
    target = np.array([0.5, 0.5])
    worst_dist = max(float(np.linalg.norm(r.coords - target)) for r in deepest)

    uni = DATUMS["universal3"]
    estimates = approximate_limit_roots(uni, 10)
    worst_iso = max((abs(e.isotropy) for e in estimates), default=np.inf)

    passed = worst_dist < 0.03 and len(estimates) > 0 and worst_iso <= 1e-3
    record_criterion(12, "deep roots accumulate on the isotropic boundary",
                     passed,
                     f"affine distance {worst_dist:.4f} at depth 12; "
                     f"{len(estimates)} universal estimates at depth 10, "
                     f"worst isotropy {worst_iso:.2e}")
    assert passed
