"""Fundamental domain membership, basepoints, averaging, and cone sampling."""

import math

import numpy as np
import pytest

from conftest import APPLICABLE, applicable_datums, r4
from hypothesis import given

from coxcone import (
    ConePoint,
    act,
    average_over_parabolic,
    check_displacement,
    classify_parabolic,
    displacement_violation,
    enumerate_spherical_poset,
    find_interior_basepoint,
    hyperplane_meets_chamber,
    in_fundamental_chamber,
    make_datum,
    parabolic_closure,
    sample_imaginary_cone,
    sample_wall_dominated,
    verify_stabilizer,
)
from coxcone.cone import cone_samples_to_json, make_cone_point, stabilizer_generators
from coxcone.errors import (
    Infeasible,
    InvariantViolation,
    NotApplicable,
    NotSpherical,
    PreconditionViolated,
)
from coxcone.feasible import solve_lp

INF = math.inf


def test_membership_interior(uni):
    got = in_fundamental_chamber(uni, np.array([1.0, 1.0, 1.0]))
    assert got.member and got.interior
    assert bool(got)


def test_membership_on_wall(uni):
    # (2, 1, 1) sits on the s-wall: member but not interior
    got = in_fundamental_chamber(uni, np.array([2.0, 1.0, 1.0]))
    assert got.member and not got.interior


def test_membership_outside(uni):
    assert not in_fundamental_chamber(uni, np.array([1.0, 0.0, 0.0])).member
    assert not in_fundamental_chamber(uni, np.array([0.0, 0.0, 0.0])).member
    assert not in_fundamental_chamber(uni, np.array([-1.0, 1.0, 1.0])).member


def test_membership_margin(uni):
    v = np.array([1.0, 1.0, 1.0]) / 3.0
    assert in_fundamental_chamber(uni, v, interior_margin=0.3).interior
    assert not in_fundamental_chamber(uni, v, interior_margin=0.4).interior


def test_make_cone_point(uni):
    p = make_cone_point(uni, [1.0, 1.0, 1.0])
    assert p.in_interior
    assert not make_cone_point(uni, [2.0, 1.0, 1.0]).in_interior
    with pytest.raises(PreconditionViolated):
        make_cone_point(uni, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        p.coords[0] = 7.0


def test_basepoint_universal(uni):
    base = find_interior_basepoint(uni)
    assert base.in_interior
    assert np.allclose(base.coords, [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(uni.wall_values(base.coords), [-1 / 3] * 3)


def test_basepoint_hyper(hyp):
    base = find_interior_basepoint(hyp)
    assert np.allclose(base.coords, [0.5, 0.5])
    assert np.allclose(hyp.wall_values(base.coords), [-0.25, -0.25])


def test_basepoint_mixed(mix):
    base = find_interior_basepoint(mix)
    assert np.allclose(base.coords, np.array([4.0, 4.0, 5.0]) / 13.0)
    assert np.allclose(mix.wall_values(base.coords), [-3 / 13] * 3)


def test_basepoint_triangle(tri):
    base = find_interior_basepoint(tri)
    assert np.allclose(base.coords, [0.349414700889, 0.301170598222, 0.349414700889])
    walls = tri.wall_values(base.coords)
    assert np.allclose(walls, -0.048244102667)


def test_basepoint_not_applicable(m3, aff):
    with pytest.raises(NotApplicable, match="finite"):
        find_interior_basepoint(m3)
    with pytest.raises(NotApplicable, match="affine"):
        find_interior_basepoint(aff)
    with pytest.raises(NotApplicable, match="reducible"):
        find_interior_basepoint(make_datum(["s", "t"], []))


def test_margin_program_formulation(uni):
    # the fallback program of the basepoint search: maximize the two-sided
    # margin t over the unit-sum slice; for the symmetric form t* = 1/3
    n = uni.rank
    ones = np.ones(n)
    a_ub = np.block([[uni.gram, ones[:, None]], [-np.eye(n), ones[:, None]]])
    a_eq = np.concatenate([ones, [0.0]])[None, :]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = solve_lp(c, a_ub, np.zeros(2 * n), a_eq, np.array([1.0]))
    assert res.ok
    assert np.allclose(res.x, [1 / 3, 1 / 3, 1 / 3, 1 / 3])


def test_displacement_on_chamber_points(uni):
    base = find_interior_basepoint(uni)
    assert check_displacement(uni, base.coords, 4)
    assert displacement_violation(uni, base.coords, 4) == 0.0


def test_displacement_on_radical(aff):
    assert check_displacement(aff, np.array([1.0, 1.0]), 6)
    assert displacement_violation(aff, np.array([1.0, 1.0]), 6) == 0.0


def test_displacement_precondition(uni):
    with pytest.raises(PreconditionViolated):
        check_displacement(uni, np.array([1.0, 0.0, 0.0]), 2)
    with pytest.raises(PreconditionViolated):
        displacement_violation(uni, np.array([1.0, 0.0, 0.0]), 2)


def test_average_over_parabolic(uni):
    out = average_over_parabolic(uni, ["s"], np.array([1.0, 1.0, 1.0]))
    assert np.allclose(out, [2.0, 1.0, 1.0])
    assert abs(uni.bilinear(out, uni.simple_root("s"))) < 1e-12


def test_average_accepts_cone_points(uni):
    base = find_interior_basepoint(uni)
    out = average_over_parabolic(uni, ["t"], base)
    assert np.allclose(out, [1 / 3, 2 / 3, 1 / 3])


def test_average_empty_subset_is_identity(uni):
    v = np.array([1.0, 1.0, 1.0])
    assert np.allclose(average_over_parabolic(uni, [], v), v)


def test_average_rejects_infinite_subsets(uni):
    with pytest.raises(NotSpherical):
        average_over_parabolic(uni, ["s", "t"], np.ones(3))


def test_average_rejects_degenerate_base(aff):
    # the radical point already lies on the t-wall, breaking strictness there
    with pytest.raises(InvariantViolation):
        average_over_parabolic(aff, ["s"], np.array([1.0, 1.0]))


def orbit_mean(datum, subset, v):
    """Reference average: the mean over the listed orbit of v."""
    return np.mean([act(w, v) for w in parabolic_closure(datum, datum.sort_subset(subset))],
                   axis=0)


def assert_average_is_orbit_mean(datum):
    base = find_interior_basepoint(datum)
    for subset in enumerate_spherical_poset(datum).elements:
        got = average_over_parabolic(datum, subset, base)
        assert np.max(np.abs(got - orbit_mean(datum, subset, base.coords))) <= 1e-12, subset


def h4_subset():
    # a-b-c-d spans H4, of order 14400; the infinite bond d-e makes the
    # group applicable
    return make_datum(["a", "b", "c", "d", "e"],
                      [("a", "b", 5), ("b", "c", 3), ("c", "d", 3), ("d", "e", INF)])


@pytest.mark.parametrize("name", APPLICABLE + ["r4", "h4_subset"])
def test_average_is_orbit_mean(datums, name):
    # the finite and affine fixtures have no interior basepoint to average
    builders = {"r4": r4, "h4_subset": h4_subset}
    assert_average_is_orbit_mean(builders[name]() if name in builders else datums[name])


@given(applicable_datums())
def test_average_is_orbit_mean_on_random_datums(datum):
    assert_average_is_orbit_mean(datum)


def test_stabilizer_generators(uni):
    assert stabilizer_generators(uni, np.array([2.0, 1.0, 1.0])) == {"s"}
    assert stabilizer_generators(uni, np.array([1.0, 1.0, 1.0])) == frozenset()
    assert stabilizer_generators(uni, np.array([1.0, 1.0, 0.0])) == {"s", "t"}
    with pytest.raises(PreconditionViolated):
        stabilizer_generators(uni, np.array([1.0, 0.0, 0.0]))


def test_verify_stabilizer(uni):
    assert verify_stabilizer(uni, np.array([2.0, 1.0, 1.0]), 4)
    assert verify_stabilizer(uni, np.array([1.0, 1.0, 1.0]), 3)
    assert verify_stabilizer(uni, np.array([1.0, 1.0, 0.0]), 3)


def test_ball_fixers_match_wall_subgroup(uni):
    from coxcone import act, enumerate_ball

    v = np.array([2.0, 1.0, 1.0])
    fixers = [w.word for w in enumerate_ball(uni, 3)
              if np.max(np.abs(act(w, v) - v)) <= 1e-9]
    assert fixers == [(), ("s",)]


def test_hyperplane_meets_chamber_finite(tri):
    hit = hyperplane_meets_chamber(tri, ["s", "t"])
    assert hit.meets and bool(hit)
    walls = tri.wall_values(hit.witness)
    assert abs(walls[0]) < 1e-8 and abs(walls[1]) < 1e-8
    assert walls[2] < -1e-8
    assert np.sum(hit.witness) == pytest.approx(1.0)


def test_hyperplane_meets_chamber_affine(uni):
    hit = hyperplane_meets_chamber(uni, ["s", "t"])
    assert hit.meets
    assert np.allclose(hit.witness, [0.5, 0.5, 0.0])


def test_hyperplane_misses_chamber(uni, tri, mix):
    for datum in (uni, tri, mix):
        miss = hyperplane_meets_chamber(datum, datum.generators)
        assert not miss.meets and miss.witness is None


def test_hyperplane_agreement_with_classification(uni, tri, mix):
    from itertools import combinations

    from coxcone import ParabolicKind, classify_parabolic

    for datum in (uni, tri, mix):
        gens = datum.generators
        for r in (1, 2, 3):
            for subset in combinations(gens, r):
                kind = classify_parabolic(datum, subset).kind
                expect = kind is not ParabolicKind.OTHER_INFINITE
                assert hyperplane_meets_chamber(datum, subset).meets == expect


def test_hyperplane_requires_nonempty_subset(uni):
    with pytest.raises(PreconditionViolated):
        hyperplane_meets_chamber(uni, [])


def test_sample_wall_dominated(uni):
    samples = sample_wall_dominated(uni, 20, seed=0)
    assert len(samples) == 20
    for v in samples:
        assert np.max(uni.wall_values(v)) <= 1e-9
    again = sample_wall_dominated(uni, 20, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(samples, again))


def test_sample_wall_dominated_affine(aff):
    for v in sample_wall_dominated(aff, 10, seed=1):
        # the solution set collapses to the radical line
        assert abs(v[0] - v[1]) < 1e-12
        assert np.max(np.abs(aff.wall_values(v))) < 1e-12
    # G~2, C~2, A~2: the forms of the first two are singular only up to
    # rounding, so a solver would return huge vectors off the radical line
    for bonds in ([("a", "b", 6), ("b", "c", 3)],
                  [("a", "b", 4), ("b", "c", 4)],
                  [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)]):
        datum = make_datum(["a", "b", "c"], bonds)
        radical = classify_parabolic(datum, datum.generators).radical_vector
        for v in sample_wall_dominated(datum, 10, seed=1):
            assert np.max(np.abs(v - (v @ radical) / (radical @ radical) * radical)) < 1e-12
            assert np.max(np.abs(datum.wall_values(v))) < 1e-12


def test_sample_wall_dominated_singular_not_affine():
    # hand-built exactly singular form whose group is a product of two
    # affine pairs: singular but not irreducible affine
    from coxcone import CoxeterDatum, CoxeterMatrix, GramForm

    matrix = CoxeterMatrix(
        ("a", "b", "c", "d"), {("a", "b"): INF, ("c", "d"): INF})
    block = np.array([[1.0, -1.0], [-1.0, 1.0]])
    gram = np.block([[block, np.zeros((2, 2))], [np.zeros((2, 2)), block]])
    datum = CoxeterDatum(matrix, GramForm(gram))
    with pytest.raises(NotApplicable):
        sample_wall_dominated(datum, 5, seed=0)


def test_sample_imaginary_cone(uni):
    samples = sample_imaginary_cone(uni, 2, 3, seed=7)
    assert len(samples) == 30
    for s in samples:
        assert in_fundamental_chamber(uni, s.base.coords).member
        assert np.min(s.image - np.zeros(3)) >= 0.0  # images stay in the cone
        assert np.min(s.image - s.base.coords) >= -1e-9
        assert uni.bilinear(s.normalized_image, s.normalized_image) <= 1e-9
    again = sample_imaginary_cone(uni, 2, 3, seed=7)
    assert all(np.array_equal(a.image, b.image) for a, b in zip(samples, again))


def test_cone_samples_to_json(uni):
    samples = sample_imaginary_cone(uni, 1, 2, seed=3)
    doc = cone_samples_to_json(uni, samples)
    assert len(doc) == len(samples)
    assert set(doc[0]) == {"word", "base", "image", "normalized_image", "isotropy"}
    assert all(entry["isotropy"] <= 1e-9 for entry in doc)


def test_cone_point_is_frozen(uni):
    base = find_interior_basepoint(uni)
    with pytest.raises(ValueError):
        base.coords[0] = 2.0
