"""The chamber complex over word balls: chains, mirrors, cells, adjacency."""

from collections import Counter

import numpy as np
import pytest
from conftest import applicable_datums
from hypothesis import given, settings

from coxcone import (
    ball_cells,
    build_davis_ball,
    build_fundamental_chamber,
    canonicalize_cell,
    datum_from_document,
    datum_to_document,
    element_from_word,
    enumerate_ball,
    enumerate_spherical_poset,
    generate_roots,
    mirror,
    point_stabilizer,
    uniform_point,
)
from coxcone.davis import (
    ChamberPoint,
    DavisCell,
    davis_ball_to_json,
    minimal_coset_matrix,
)
from coxcone.errors import PreconditionViolated


def chamber_of(datum):
    return build_fundamental_chamber(enumerate_spherical_poset(datum))


def test_chamber_m3_structure(m3):
    chamber = chamber_of(m3)
    assert len(chamber.vertices) == 4
    assert len(chamber.simplices) == 11
    keyed = [tuple(chamber.subset_key(t) for t in chain)
             for chain in chamber.simplices]
    assert keyed == [
        ((),),
        (("s",),),
        (("s", "t"),),
        (("t",),),
        ((), ("s",)),
        ((), ("s", "t")),
        ((), ("t",)),
        (("s",), ("s", "t")),
        (("t",), ("s", "t")),
        ((), ("s",), ("s", "t")),
        ((), ("t",), ("s", "t")),
    ]


def test_chamber_counts(uni, tri):
    chamber = chamber_of(uni)
    assert len(chamber.vertices) == 4
    assert len(chamber.simplices) == 7
    chamber = chamber_of(tri)
    assert len(chamber.vertices) == 7
    assert len(chamber.simplices) == 25


def test_chamber_faces_are_simplices(tri):
    # the face of a chain (drop any element) is again a simplex
    chamber = chamber_of(tri)
    have = set(chamber.simplices)
    for chain in chamber.simplices:
        for k in range(len(chain)):
            face = chain[:k] + chain[k + 1:]
            if face:
                assert face in have


def test_mirror_m3(m3):
    chamber = chamber_of(m3)
    fixed = mirror(chamber, "s")
    keyed = [tuple(chamber.subset_key(t) for t in chain) for chain in fixed]
    assert keyed == [
        (("s",),),
        (("s", "t"),),
        (("s",), ("s", "t")),
    ]
    with pytest.raises(PreconditionViolated):
        mirror(chamber, "x")


def test_mirror_never_contains_base_vertex(uni):
    chamber = chamber_of(uni)
    for s in "stu":
        for chain in mirror(chamber, s):
            assert s in chain[0]
            assert frozenset() not in chain


def test_chamber_point_validation():
    empty = frozenset()
    s = frozenset("s")
    ChamberPoint((empty, s), (0.5, 0.5))
    with pytest.raises(PreconditionViolated, match="one weight"):
        ChamberPoint((empty, s), (1.0,))
    with pytest.raises(PreconditionViolated, match="increasing"):
        ChamberPoint((s, empty), (0.5, 0.5))
    with pytest.raises(PreconditionViolated, match="positive"):
        ChamberPoint((empty, s), (1.0, 0.0))
    with pytest.raises(PreconditionViolated, match="sum to 1"):
        ChamberPoint((empty, s), (0.5, 0.6))


def test_uniform_point_and_stabilizer():
    chain = (frozenset(), frozenset("s"), frozenset(("s", "t")))
    point = uniform_point(chain)
    assert point.weights == (1 / 3, 1 / 3, 1 / 3)
    assert point_stabilizer(point) == frozenset()
    deeper = uniform_point(chain[1:])
    assert point_stabilizer(deeper) == frozenset("s")


def test_minimal_coset_matrix(m3):
    w = element_from_word(m3, "s")
    reduced, stripped = minimal_coset_matrix(m3, w.matrix, ("s",))
    assert stripped == ("s",)
    assert np.allclose(reduced, np.eye(2))
    # an element with no right descent in the subset is untouched
    reduced, stripped = minimal_coset_matrix(
        m3, element_from_word(m3, "ts").matrix, ("t",))
    assert stripped == ()


def test_canonicalize_cell(mix):
    point = uniform_point((frozenset("s"),))
    cell = DavisCell(element_from_word(mix, "s"), point)
    canonical = canonicalize_cell(mix, cell)
    assert canonical.element.word == ()
    # canonicalization is idempotent
    again = canonicalize_cell(mix, canonical)
    assert again.element == canonical.element


def test_canonicalize_ignores_free_points(mix):
    # a carrier starting at the empty set has trivial stabilizer
    point = uniform_point((frozenset(), frozenset("s")))
    cell = DavisCell(element_from_word(mix, "t"), point)
    assert canonicalize_cell(mix, cell) is cell


def test_hexagon(m3):
    ball = build_davis_ball(m3, 3)
    assert len(ball.elements) == 6
    assert ball.is_closed
    assert ball.frontier == ()
    assert ball.adjacency == (
        (0, 1, "s"),
        (0, 2, "t"),
        (1, 3, "t"),
        (2, 4, "s"),
        (3, 5, "s"),
        (4, 5, "t"),
    )
    degrees = [0] * 6
    for i, j, _ in ball.adjacency:
        degrees[i] += 1
        degrees[j] += 1
    assert degrees == [2] * 6


def test_open_ball_has_frontier(m3):
    ball = build_davis_ball(m3, 2)
    assert len(ball.elements) == 5
    assert not ball.is_closed
    assert ball.frontier == ((3, "s"), (4, "t"))


def test_affine_ball_is_a_path(aff):
    ball = build_davis_ball(aff, 4)
    assert len(ball.elements) == 9
    assert len(ball.adjacency) == 8
    assert ball.frontier == ((7, "s"), (8, "t"))
    degrees = [0] * 9
    for i, j, _ in ball.adjacency:
        degrees[i] += 1
        degrees[j] += 1
    assert sorted(degrees) == [1, 1] + [2] * 7


def test_adjacency_matches_right_multiplication(tri):
    ball = build_davis_ball(tri, 3)
    for i, j, s in ball.adjacency:
        expect = element_from_word(tri, ball.elements[i].word + (s,))
        assert expect == ball.elements[j]


def test_universal_ball_counts(uni):
    ball = build_davis_ball(uni, 4)
    assert len(ball.elements) == 46
    assert len(ball.chamber.simplices) == 7
    assert len(ball.adjacency) == 45
    assert len(ball.frontier) == 48
    # every mirror of every chamber is either shared or frontier
    assert 2 * len(ball.adjacency) + len(ball.frontier) == 3 * 46


def test_ball_cells(uni):
    ball = build_davis_ball(uni, 2)
    cells = ball_cells(uni, ball)
    assert len(cells) == len(ball.elements) * len(ball.chamber.simplices)
    for cell in cells:
        assert canonicalize_cell(uni, cell) == cell


def test_davis_ball_to_json(m3):
    doc = davis_ball_to_json(build_davis_ball(m3, 3))
    assert len(doc["chambers"]) == 6
    assert doc["chambers"][0] == {"word": [], "length": 0}
    assert len(doc["simplices"]) == 11
    assert doc["adjacency"][0] == {"a": 0, "b": 1, "generator": "s"}
    assert doc["frontier"] == []


def combinatorics(datum):
    """Ball words at r <= 4, root counts per depth at depth <= 6, and
    Davis adjacency and frontier at r <= 3."""
    ball = build_davis_ball(datum, 3)
    return ([w.word for w in enumerate_ball(datum, 4)],
            Counter(r.depth for r in generate_roots(datum, 6)),
            ball.adjacency, ball.frontier)


def with_every_c(datum, c):
    doc = datum_to_document(datum)
    doc["infinite_bond_values"] = [
        [s, t, c] for s, t, _ in doc.get("infinite_bond_values", ())]
    return datum_from_document(doc)


@settings(max_examples=50)
@given(applicable_datums())
def test_combinatorics_do_not_depend_on_c(datum):
    expected = combinatorics(datum)
    for c in (-1.0, -7.5):
        assert combinatorics(with_every_c(datum, c)) == expected
