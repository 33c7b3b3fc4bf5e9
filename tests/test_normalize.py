"""Normalization to the affine slice and empirical limit-root estimates."""

import numpy as np
import pytest

from coxcone import (
    approximate_limit_roots,
    dot_act,
    element_from_word,
    identity_element,
    isotropy_defect,
    normalize,
    normalized_roots_by_level,
    phi,
)
from coxcone.errors import FiniteGroup, LeftDomain, OnV0
from coxcone.normalize import LimitRootEstimate


def test_phi_is_coordinate_sum():
    assert phi(np.array([1.0, 2.0, -0.5])) == pytest.approx(2.5)
    assert phi(np.zeros(4)) == 0.0


def test_normalize_scales_to_unit_sum():
    out = normalize(np.array([2.0, 2.0]))
    assert np.allclose(out, [0.5, 0.5])
    assert phi(out) == pytest.approx(1.0)


def test_normalize_accepts_negative_sums():
    # a ray and its opposite land on the same slice point
    assert np.allclose(normalize(np.array([-1.0, -1.0])), [0.5, 0.5])


def test_normalize_rejects_zero_sum():
    with pytest.raises(OnV0):
        normalize(np.array([1.0, -1.0]))


def test_dot_act_example(uni):
    r_s = element_from_word(uni, "s")
    out = dot_act(uni, r_s, np.array([1.0, 1.0, 1.0]) / 3.0)
    assert np.allclose(out, [0.6, 0.2, 0.2])


def test_dot_act_identity_fixes_slice_points(uni):
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(dot_act(uni, identity_element(uni), v), v)


def test_dot_act_allows_negative_sums(aff):
    # r_s sends alpha_s to -alpha_s: sum -1, still renormalizable
    out = dot_act(aff, element_from_word(aff, "s"), aff.simple_root("s"))
    assert np.allclose(out, [1.0, 0.0])


def test_dot_act_left_domain(hyp):
    # for this form r_s(a, b) = (-a + 3b, b), so the image of (0.8, 0.2)
    # has coordinate sum zero
    with pytest.raises(LeftDomain):
        dot_act(hyp, element_from_word(hyp, "s"), np.array([0.8, 0.2]))


def test_normalized_roots_by_level(m3):
    levels = normalized_roots_by_level(m3, 2)
    assert {d: len(recs) for d, recs in levels.items()} == {0: 2, 1: 1}
    for recs in levels.values():
        for rec in recs:
            assert phi(rec.coords) == pytest.approx(1.0)
    assert np.allclose(levels[1][0].coords, [0.5, 0.5])


def test_isotropy_defect(aff, uni):
    assert isotropy_defect(aff, np.array([1.0, 1.0])) == pytest.approx(0.0)
    assert isotropy_defect(uni, np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0)


def test_limit_roots_affine(aff):
    # normalized roots approach the radical ray at (1/2, 1/2) like 1/depth^2,
    # so estimates appear once the depth pushes the defect under the tolerance
    estimates = approximate_limit_roots(aff, 16)
    assert len(estimates) == 2
    points = sorted(tuple(e.point) for e in estimates)
    assert np.allclose(points, [(16 / 33, 17 / 33), (17 / 33, 16 / 33)], atol=1e-9)
    for e in estimates:
        assert abs(e.isotropy) < 1e-3
        assert e.source_depth == 16


def test_limit_roots_affine_shallow_is_empty(aff):
    # at depth 12 the deepest isotropy defect is 1/625, above the default cut
    assert approximate_limit_roots(aff, 12) == []


def test_limit_roots_universal(uni):
    estimates = approximate_limit_roots(uni, 6)
    assert len(estimates) == 270
    assert all(abs(e.isotropy) <= 1e-3 for e in estimates)
    assert all(e.source_depth in (5, 6) for e in estimates)
    assert all(phi(e.point) == pytest.approx(1.0) for e in estimates)


def test_limit_roots_finite_group(m3):
    with pytest.raises(FiniteGroup):
        approximate_limit_roots(m3, 10)


def test_limit_roots_validation(uni):
    with pytest.raises(ValueError):
        approximate_limit_roots(uni, 0)


def test_normalized_isotropy_decays_with_depth(uni):
    # the smallest isotropy defect per level shrinks monotonically
    levels = normalized_roots_by_level(uni, 6)
    mins = [
        min(isotropy_defect(uni, rec.coords) for rec in levels[d])
        for d in range(2, 7)
    ]
    assert mins == sorted(mins, reverse=True)
    assert mins[0] == pytest.approx(0.012346, abs=1e-6)
    assert mins[-1] < 1e-5


def test_limit_root_estimate_is_frozen(aff):
    est = approximate_limit_roots(aff, 16)[0]
    assert isinstance(est, LimitRootEstimate)
    with pytest.raises(ValueError):
        est.point[0] = 5.0
