"""Reflections, canonical words, dihedral orbits, and root generation."""

import math
import time
from collections import Counter

import numpy as np
import pytest

from coxcone import (
    act,
    dihedral_orbit_closed_form,
    element_from_word,
    enumerate_ball,
    enumerate_spherical_poset,
    generate_roots,
    identity_element,
    inverse_element,
    length_and_descents,
    make_datum,
    multiply,
    parabolic_closure,
    roots_by_level,
    simple_reflection_matrix,
)
from coxcone.errors import (
    BudgetExceeded,
    DimensionMismatch,
    InvalidBond,
    IsotropicMirror,
)
from coxcone.reflections import (
    _canonical_word,
    ball_to_json,
    reflect,
    reflection_matrix,
    roots_to_json,
)

INF = math.inf


def test_reflect_simple_examples(m3):
    a_s, a_t = np.eye(2)
    assert np.allclose(reflect(m3, a_s, a_t), [1.0, 1.0])
    assert np.allclose(reflect(m3, a_s, a_s), [-1.0, 0.0])


def test_reflect_commuting_pair_fixes_other_root():
    datum = make_datum(["s", "t"], [])
    a_s, a_t = np.eye(2)
    assert np.allclose(reflect(datum, a_s, a_t), a_t)


def test_reflection_matrix_is_involution(tri):
    for root in np.eye(3):
        m = reflection_matrix(tri, root)
        assert np.allclose(m @ m, np.eye(3))


def test_reflection_preserves_form(tri):
    v = np.array([0.3, -1.2, 2.0])
    w = np.array([1.0, 0.5, -0.7])
    image_v = reflect(tri, tri.simple_root("u"), v)
    image_w = reflect(tri, tri.simple_root("u"), w)
    assert tri.bilinear(image_v, image_w) == pytest.approx(tri.bilinear(v, w))


def test_isotropic_mirror_rejected(aff):
    # (1, 1) is in the radical of the affine form, so (x, x) = 0
    with pytest.raises(IsotropicMirror):
        reflect(aff, np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    with pytest.raises(IsotropicMirror):
        reflection_matrix(aff, np.array([1.0, 1.0]))


def test_reflect_shape_checks(m3):
    with pytest.raises(DimensionMismatch):
        reflect(m3, np.ones(3), np.ones(2))
    with pytest.raises(DimensionMismatch):
        reflection_matrix(m3, np.ones(3))


def test_simple_reflection_matrix_matches_reflect(mix):
    for s in mix.generators:
        m = simple_reflection_matrix(mix, s)
        for v in np.eye(3):
            assert np.allclose(m @ v, reflect(mix, mix.simple_root(s), v))


def test_act_examples(m3, aff):
    w = element_from_word(m3, ["s", "t"])
    assert np.allclose(act(w, m3.simple_root("s")), [0.0, 1.0])
    w = element_from_word(aff, ["s", "t"])
    assert np.allclose(act(w, aff.simple_root("s")), [3.0, 2.0])


def test_act_shape_check(m3):
    with pytest.raises(DimensionMismatch):
        act(identity_element(m3), np.ones(3))


def test_canonical_words(m3):
    assert element_from_word(m3, "tst").word == ("s", "t", "s")
    assert element_from_word(m3, "ss").word == ()
    assert element_from_word(m3, []).word == ()


def test_length_and_descents(m3):
    info = length_and_descents(m3, "sts")
    assert info.length == 3
    assert info.descents == frozenset({"s", "t"})
    assert info.word == ("s", "t", "s")
    info = length_and_descents(m3, "ss")
    assert info.length == 0
    assert info.descents == frozenset()
    info = length_and_descents(m3, "s")
    assert info.descents == frozenset({"s"})


def test_length_and_descents_accepts_elements(m3):
    w = element_from_word(m3, "st")
    assert length_and_descents(m3, w).descents == frozenset({"t"})


def test_descents_match_length_drop(mix):
    # a is a descent of w exactly when appending a shortens the word
    for w in enumerate_ball(mix, 4):
        info = length_and_descents(mix, w.word)
        for a in mix.generators:
            longer = length_and_descents(mix, w.word + (a,))
            assert (a in info.descents) == (longer.length < info.length)


def test_descent_sign_dichotomy(mix):
    # every column of an action matrix is all-nonneg or all-nonpos
    for w in enumerate_ball(mix, 4):
        for j in range(mix.rank):
            col = w.matrix[:, j]
            assert np.min(col) >= -1e-9 or np.max(col) <= 1e-9


def test_element_equality_across_words(m3):
    assert element_from_word(m3, "sts") == element_from_word(m3, "tst")
    assert element_from_word(m3, "st") != element_from_word(m3, "ts")
    assert element_from_word(m3, "st") != "st"


def test_multiply_and_inverse(tri):
    u = element_from_word(tri, "su")
    v = element_from_word(tri, "ut")
    prod = multiply(tri, u, v)
    assert prod == element_from_word(tri, "st")
    assert prod.word == ("s", "t")
    w = element_from_word(tri, "sut")
    assert multiply(tri, w, inverse_element(tri, w)) == identity_element(tri)
    assert inverse_element(tri, w).word == ("t", "u", "s")


def test_word_reduction_budget(m3):
    # a matrix that is not in the group has no descent to strip
    with pytest.raises(BudgetExceeded):
        _canonical_word(m3, 2.0 * np.eye(2), budget=5)


def test_unknown_generator_in_word(m3):
    with pytest.raises(ValueError):
        element_from_word(m3, "sx")


def test_dihedral_orbit_values():
    assert dihedral_orbit_closed_form(3, None, 0) == pytest.approx((1.0, 0.0))
    assert dihedral_orbit_closed_form(3, None, 1) == pytest.approx((0.0, 1.0))
    assert dihedral_orbit_closed_form(INF, -1.0, 2) == pytest.approx((5.0, 4.0))
    assert dihedral_orbit_closed_form(INF, None, 1) == pytest.approx((3.0, 2.0))
    assert dihedral_orbit_closed_form(INF, -1.5, 1) == pytest.approx((8.0, 3.0))


def test_dihedral_orbit_matches_matrix_powers():
    # images of the first simple root under powers of the rotation r_s r_t
    for m, c in [(3, None), (4, None), (5, None), (7, None), (INF, -1.0), (INF, -1.7)]:
        values = [] if c is None else [("s", "t", c)]
        datum = make_datum(["s", "t"], [("s", "t", m)], values)
        rot = simple_reflection_matrix(datum, "s") @ simple_reflection_matrix(datum, "t")
        root = datum.simple_root("s")
        for i in range(12):
            expect = np.array(dihedral_orbit_closed_form(m, c, i))
            scale = np.maximum(1.0, np.abs(expect))
            assert np.max(np.abs((root - expect) / scale)) < 1e-9
            root = rot @ root


def test_dihedral_orbit_validation():
    with pytest.raises(InvalidBond):
        dihedral_orbit_closed_form(1, None, 0)
    with pytest.raises(InvalidBond):
        dihedral_orbit_closed_form(2.5, None, 0)
    with pytest.raises(InvalidBond):
        dihedral_orbit_closed_form(INF, -0.5, 0)


def test_rotation_order_matches_bond():
    for m in (3, 4, 5, 7):
        datum = make_datum(["s", "t"], [("s", "t", m)])
        rot = element_from_word(datum, "st")
        power = identity_element(datum)
        for k in range(1, m + 1):
            power = multiply(datum, power, rot)
            assert (power == identity_element(datum)) == (k == m)


def test_infinite_rotation_never_returns(aff, hyp):
    for datum in (aff, hyp):
        rot = element_from_word(datum, "st").matrix
        power = np.eye(2)
        for _ in range(50):
            power = power @ rot
            assert np.max(np.abs(power - np.eye(2))) > 1e-6


def test_generate_roots_depth_zero(uni):
    records = generate_roots(uni, 0)
    assert [r.depth for r in records] == [0, 0, 0]
    assert np.allclose([r.coords for r in records], np.eye(3))


def test_generate_roots_m3(m3):
    records = generate_roots(m3, 2)
    assert [(round(r.coords[0]), round(r.coords[1]), r.depth) for r in records] == [
        (1, 0, 0),
        (0, 1, 0),
        (1, 1, 1),
    ]
    # the finite root system is exhausted: deeper passes add nothing
    assert len(generate_roots(m3, 10)) == 3


def test_generate_roots_affine(aff):
    records = generate_roots(aff, 2)
    got = {(round(r.coords[0]), round(r.coords[1]), r.depth) for r in records}
    assert got == {
        (1, 0, 0),
        (0, 1, 0),
        (1, 2, 1),
        (2, 1, 1),
        (2, 3, 2),
        (3, 2, 2),
    }


def test_generate_roots_b2():
    datum = make_datum(["s", "t"], [("s", "t", 4)])
    records = generate_roots(datum, 5)
    assert len(records) == 4
    assert max(r.depth for r in records) == 1
    coeffs = sorted(round(float(max(r.coords)), 6) for r in records)
    assert coeffs == [1.0, 1.0, 1.414214, 1.414214]


def test_generate_roots_h2():
    datum = make_datum(["s", "t"], [("s", "t", 5)])
    records = generate_roots(datum, 5)
    assert len(records) == 5
    deepest = max(records, key=lambda r: r.depth)
    assert deepest.depth == 2
    golden = (1 + math.sqrt(5)) / 2
    assert np.allclose(deepest.coords, [golden, golden])


def test_generate_roots_counts(uni, tri, mix):
    assert len(generate_roots(uni, 4)) == 93
    assert len(generate_roots(tri, 10)) == 191
    assert len(generate_roots(mix, 4)) == 65


def test_generate_roots_validation(m3, uni):
    with pytest.raises(ValueError):
        generate_roots(m3, -1)
    with pytest.raises(BudgetExceeded):
        generate_roots(uni, 10, cap=50)


def test_roots_by_level(aff):
    levels = roots_by_level(generate_roots(aff, 3))
    assert sorted(levels) == [0, 1, 2, 3]
    assert all(rec.depth == d for d, recs in levels.items() for rec in recs)
    assert [len(levels[d]) for d in range(4)] == [2, 2, 2, 2]


def test_root_normalization_invariant(tri):
    # every root is a unit vector for the form
    for rec in generate_roots(tri, 6):
        assert tri.bilinear(rec.coords, rec.coords) == pytest.approx(1.0)


def test_enumerate_ball_sizes(datums):
    expected = {
        "rank2_m3": [1, 3, 5, 6, 6],
        "rank2_affine": [1, 3, 5, 7, 9],
        "rank2_hyper": [1, 3, 5, 7, 9],
        "universal3": [1, 4, 10, 22, 46],
        "triangle334": [1, 4, 10, 20, 35],
        "mixed3": [1, 4, 10, 21, 41],
    }
    for name, sizes in expected.items():
        datum = datums[name]
        assert [len(enumerate_ball(datum, r)) for r in range(5)] == sizes


def m3inf(c):
    return make_datum(["s", "t", "u"],
                      [("s", "t", 3), ("t", "u", 3), ("s", "u", INF)],
                      [("s", "u", c)])


def _series_inverse(poly, order):
    """1/poly up to t^order, for an integer polynomial with constant term 1."""
    inv = [1] + [0] * order
    for k in range(1, order + 1):
        inv[k] = -sum(poly[i] * inv[k - i]
                      for i in range(1, min(k, len(poly) - 1) + 1))
    return inv


def steinberg_growth(datum, order):
    """Elements of each length 0..order from Steinberg's formula
    1/W(t) = sum over spherical J of (-1)^|J| t^N_J / W_J(t), with N_J the
    length of the longest element of W_J (rank <= 2 subsets only)."""
    reciprocal = [0] * (order + 1)
    for subset in enumerate_spherical_poset(datum).elements:
        poly = [1]
        if len(subset) == 1:
            poly = [1, 1]
        elif len(subset) == 2:
            m = int(datum.matrix.order(*sorted(subset)))
            poly = [1] + [2] * (m - 1) + [1]   # (1 + t)(1 + t + ... + t^(m-1))
        assert len(subset) <= 2
        shift = len(poly) - 1
        inverse = _series_inverse(poly, order)
        for k in range(order + 1 - shift):
            reciprocal[k + shift] += (-1) ** len(subset) * inverse[k]
    return _series_inverse(reciprocal, order)


@pytest.mark.parametrize("name", [
    "rank2_m3", "rank2_affine", "rank2_hyper", "universal3", "triangle334",
    "mixed3", "m3inf@-1", "m3inf@-1.5", "m3inf@-20"])
def test_ball_growth_matches_steinberg(datums, name):
    if name.startswith("m3inf@"):
        datum = m3inf(float(name.split("@")[1]))
    else:
        datum = datums[name]
    lengths = Counter(w.length for w in enumerate_ball(datum, 12))
    assert [lengths[k] for k in range(13)] == steinberg_growth(datum, 12)


def test_large_form_value_counts():
    # at c = -20 root coordinates reach 1e22; counts must not depend on c
    datum = m3inf(-20.0)
    start = time.perf_counter()
    lengths = Counter(w.length for w in enumerate_ball(datum, 12))
    roots = generate_roots(datum, 14)
    elapsed = time.perf_counter() - start
    assert (lengths[7], lengths[12]) == (68, 754)
    assert len(roots) == 5165
    assert elapsed < 1.0


def test_enumerate_ball_ordering(m3):
    ball = enumerate_ball(m3, 3)
    assert [w.word for w in ball] == [
        (),
        ("s",),
        ("t",),
        ("s", "t"),
        ("t", "s"),
        ("s", "t", "s"),
    ]


def test_enumerate_ball_subset(uni):
    ball = enumerate_ball(uni, 3, generators=["s", "t"])
    assert len(ball) == 7
    assert all(set(w.word) <= {"s", "t"} for w in ball)


def test_enumerate_ball_validation(uni):
    with pytest.raises(ValueError):
        enumerate_ball(uni, -1)
    with pytest.raises(InvalidBond):
        enumerate_ball(uni, 2, generators=["s", "x"])
    with pytest.raises(BudgetExceeded):
        enumerate_ball(uni, 5, cap=20)


def test_parabolic_closure(m3, aff, mix):
    assert len(parabolic_closure(m3, ["s", "t"])) == 6
    assert len(parabolic_closure(mix, ["s", "t"])) == 6
    assert parabolic_closure(m3, []) == [identity_element(m3)]
    with pytest.raises(BudgetExceeded):
        parabolic_closure(aff, ["s", "t"], cap=30)


def test_ball_to_json(m3):
    doc = ball_to_json(enumerate_ball(m3, 2))
    assert doc[0] == {"word": [], "length": 0}
    assert doc[-1] == {"word": ["t", "s"], "length": 2}
    assert len(doc) == 5


def test_roots_to_json(m3):
    doc = roots_to_json(generate_roots(m3, 2))
    assert doc[0] == {"coords": [1.0, 0.0], "depth": 0}
    assert doc[-1]["depth"] == 1
    assert np.allclose(doc[-1]["coords"], [1.0, 1.0])


def test_group_element_repr(m3):
    assert repr(identity_element(m3)) == "GroupElement(1)"
    assert repr(element_from_word(m3, "st")) == "GroupElement(s.t)"
