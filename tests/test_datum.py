"""Datum construction, validation, the Gram form, and document round trips."""

import json
import math

import numpy as np
import pytest

from coxcone import (
    CoxeterDatum,
    CoxeterMatrix,
    GramForm,
    datum_from_document,
    datum_to_document,
    enumerate_ball,
    make_datum,
    parse_datum,
    serialize_datum,
    simple_reflection_matrix,
)
from coxcone.datum import INFINITE, in_positive_cone
from coxcone.errors import (
    AsymmetricEntry,
    DatumError,
    DimensionMismatch,
    DuplicateGenerator,
    InvalidBond,
    InvalidInfiniteBondValue,
)

INF = math.inf


def test_gram_entries_m3(m3):
    assert np.allclose(m3.gram, [[1.0, -0.5], [-0.5, 1.0]])


def test_gram_default_commuting_pair():
    datum = make_datum(["s", "t"], [])
    assert np.allclose(datum.gram, np.eye(2))


def test_gram_infinite_default(aff):
    assert aff.matrix.form_value("s", "t") == -1.0


def test_gram_infinite_custom(hyp):
    assert hyp.matrix.form_value("s", "t") == -1.5
    assert hyp.matrix.form_value("t", "s") == -1.5
    assert hyp.matrix.infinite_values == {("s", "t"): -1.5}


def test_gram_triangle_entries(tri):
    assert tri.matrix.form_value("s", "t") == pytest.approx(-0.5)
    assert tri.matrix.form_value("t", "u") == pytest.approx(-0.5)
    assert tri.matrix.form_value("s", "u") == pytest.approx(-math.cos(math.pi / 4))


def test_generator_order_and_index(tri):
    assert tri.generators == ("s", "t", "u")
    assert tri.index("u") == 2
    with pytest.raises(ValueError):
        tri.index("x")


def test_simple_roots_are_standard_basis(uni):
    assert np.array_equal(uni.simple_roots, np.eye(3))
    assert np.array_equal(uni.simple_root("t"), [0.0, 1.0, 0.0])


def test_bilinear_values(m3):
    e_s, e_t = np.eye(2)
    assert m3.bilinear(e_s, e_s) == pytest.approx(1.0)
    assert m3.bilinear(e_s, e_t) == pytest.approx(-0.5)
    assert m3.bilinear(e_s + e_t, e_s + e_t) == pytest.approx(1.0)


def test_bilinear_shape_check(m3):
    with pytest.raises(DimensionMismatch):
        m3.bilinear([1.0, 0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        m3.wall_values([1.0, 0.0, 0.0])


def test_wall_values_is_gram_product(mix):
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(mix.wall_values(v), mix.gram @ v)


def test_sort_subset(tri):
    assert tri.sort_subset(["u", "s"]) == ("s", "u")
    assert tri.sort_subset([]) == ()
    with pytest.raises(InvalidBond):
        tri.sort_subset(["s", "x"])


def test_order_accessors(tri, aff):
    assert tri.matrix.order("s", "t") == 3
    assert tri.matrix.order("t", "s") == 3
    assert tri.matrix.order("s", "s") == 1
    assert tri.matrix.order("t", "u") == 3
    assert aff.matrix.order("s", "t") == INFINITE


def test_unspecified_bond_defaults_to_two():
    datum = make_datum(["s", "t", "u"], [("s", "t", 3)])
    assert datum.matrix.order("s", "u") == 2
    assert datum.matrix.form_value("s", "u") == pytest.approx(0.0, abs=1e-15)


def test_commuting_reflections_commute_exactly():
    datum = make_datum(["s", "t", "u"], [("s", "t", 3)])
    assert datum.matrix.form_value("s", "u") == 0.0
    r_s = simple_reflection_matrix(datum, "s")
    r_u = simple_reflection_matrix(datum, "u")
    assert np.array_equal(r_s @ r_u, r_u @ r_s)


def test_integral_float_order_accepted():
    datum = make_datum(["s", "t"], [("s", "t", 3.0)])
    assert datum.matrix.order("s", "t") == 3


def test_duplicate_generator_rejected():
    with pytest.raises(DuplicateGenerator):
        make_datum(["s", "s"], [])


def test_empty_generator_list_rejected():
    with pytest.raises(InvalidBond):
        make_datum([], [])


def test_unknown_generator_in_bond_rejected():
    with pytest.raises(InvalidBond):
        make_datum(["s", "t"], [("s", "x", 3)])


def test_bad_orders_rejected():
    for bad in (1, 0, 2.5, -3):
        with pytest.raises(InvalidBond):
            make_datum(["s", "t"], [("s", "t", bad)])


def test_diagonal_bond_must_be_one():
    with pytest.raises(InvalidBond):
        make_datum(["s", "t"], [("s", "s", 3)])


def test_conflicting_duplicate_bond_rejected():
    with pytest.raises(AsymmetricEntry):
        make_datum(["s", "t"], [("s", "t", 3), ("t", "s", 4)])
    # a consistent duplicate is fine
    make_datum(["s", "t"], [("s", "t", 3), ("t", "s", 3)])


def test_infinite_value_must_be_at_most_minus_one():
    with pytest.raises(InvalidInfiniteBondValue):
        make_datum(["s", "t"], [("s", "t", INF)], [("s", "t", -0.5)])
    # c = -1 exactly is allowed
    make_datum(["s", "t"], [("s", "t", INF)], [("s", "t", -1.0)])


def test_infinite_value_on_finite_bond_rejected():
    with pytest.raises(InvalidInfiniteBondValue):
        make_datum(["s", "t"], [("s", "t", 3)], [("s", "t", -1.5)])


def test_gram_form_validation():
    with pytest.raises(AsymmetricEntry):
        GramForm(np.array([[1.0, -0.5], [-0.4, 1.0]]))
    with pytest.raises(InvalidBond):
        GramForm(np.array([[2.0, -0.5], [-0.5, 1.0]]))
    with pytest.raises(InvalidBond):
        GramForm(np.array([[1.0, 0.3], [0.3, 1.0]]))
    with pytest.raises(InvalidBond):
        GramForm(np.ones((2, 3)))


def test_gram_form_equality(m3):
    assert m3.form == GramForm(np.array(m3.gram))
    assert m3.form != GramForm(np.eye(2))
    assert m3.form != "not a form"


def test_datum_rejects_mismatched_parts():
    matrix = CoxeterMatrix(("s", "t"), {("s", "t"): 3})
    with pytest.raises(DimensionMismatch):
        CoxeterDatum(matrix, GramForm(np.eye(3)))


def test_coxeter_matrix_key_must_be_canonical():
    with pytest.raises(AsymmetricEntry):
        CoxeterMatrix(("s", "t"), {("t", "s"): 3})


def test_document_round_trip(hyp):
    doc = datum_to_document(hyp)
    again = datum_from_document(doc)
    assert again.generators == hyp.generators
    assert np.array_equal(again.gram, hyp.gram)
    assert again.matrix.form_value("s", "t") == -1.5


def test_serialize_is_stable(tri):
    text = serialize_datum(tri)
    assert text == serialize_datum(parse_datum(text))
    doc = json.loads(text)
    assert list(doc) == ["generators", "bonds"]
    assert text.endswith("\n")


def test_serialize_keeps_infinite_values(hyp):
    doc = json.loads(serialize_datum(hyp))
    assert list(doc) == ["generators", "bonds", "infinite_bond_values"]
    assert doc["bonds"] == [["s", "t", "inf"]]
    assert doc["infinite_bond_values"] == [["s", "t", -1.5]]


def test_parse_accepts_infinity_tokens():
    for token in ("inf", "infinity", "INF"):
        datum = parse_datum(
            json.dumps({"generators": ["s", "t"], "bonds": [["s", "t", token]]}))
        assert datum.matrix.order("s", "t") == INFINITE


def test_parse_rejects_malformed_text():
    with pytest.raises(DatumError):
        parse_datum("not json at all")
    with pytest.raises(DatumError):
        parse_datum("[1, 2, 3]")
    with pytest.raises(DatumError):
        parse_datum(json.dumps({"bonds": []}))
    with pytest.raises(DatumError):
        parse_datum(json.dumps({"generators": ["s", "t"], "bonds": [["s", "t"]]}))
    with pytest.raises(DatumError):
        parse_datum(json.dumps({"generators": ["s", "t"], "bonds": [["s", "t", "seven"]]}))


def test_in_positive_cone():
    assert in_positive_cone(np.array([1.0, 0.0]))
    assert in_positive_cone(np.array([-1e-12, 1.0]))
    assert not in_positive_cone(np.array([0.0, 0.0]))
    assert not in_positive_cone(np.array([-1.0, 2.0]))


def test_form_is_invariant_under_the_group(uni, hyp):
    # the bilinear form is preserved by every element of the reflection group
    for datum in (uni, hyp):
        gram = datum.gram
        worst = 0.0
        for w in enumerate_ball(datum, 6):
            worst = max(worst, np.max(np.abs(w.matrix.T @ gram @ w.matrix - gram)))
        assert worst < 1e-9
