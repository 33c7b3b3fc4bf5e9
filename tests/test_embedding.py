"""Vertex images, barycentric extension, and the embedding verification."""

import numpy as np
import pytest

from coxcone import (
    ConePoint,
    build_vertex_image_table,
    chain_simplex_check,
    element_from_word,
    embed_cell,
    enumerate_spherical_poset,
    find_interior_basepoint,
    identity_element,
    uniform_point,
    verify_embedding,
    vertex_image,
)
from coxcone.davis import DavisCell, build_davis_ball
from coxcone.embedding import (
    EmbeddingReport,
    VertexImageTable,
    _validate_table,
    affine_independence_margin,
    embed_chamber_point,
    embedded_complex_to_json,
)
from coxcone.errors import (
    DegenerateSimplex,
    InvariantViolation,
    NotInterior,
    NotSpherical,
)

EMPTY = frozenset()


def test_vertex_images_universal(uni):
    base = find_interior_basepoint(uni)
    assert np.allclose(vertex_image(uni, [], base), [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(vertex_image(uni, ["s"], base), [0.5, 0.25, 0.25])
    assert np.allclose(vertex_image(uni, ["t"], base), [0.25, 0.5, 0.25])
    assert np.allclose(vertex_image(uni, ["u"], base), [0.25, 0.25, 0.5])


def test_vertex_image_lands_on_its_walls(mix):
    img = vertex_image(mix, ["s", "t"], find_interior_basepoint(mix))
    assert np.allclose(img, [0.4, 0.4, 0.2])
    walls = mix.wall_values(img)
    assert abs(walls[0]) < 1e-12 and abs(walls[1]) < 1e-12
    assert walls[2] == pytest.approx(-0.6)


def test_vertex_image_rejects_boundary_basepoints(uni):
    with pytest.raises(NotInterior):
        vertex_image(uni, ["s"], np.array([2.0, 1.0, 1.0]))
    with pytest.raises(NotInterior):
        vertex_image(uni, ["s"], ConePoint(np.array([2.0, 1.0, 1.0]), False))


def test_vertex_image_rejects_infinite_subsets(uni):
    base = find_interior_basepoint(uni)
    with pytest.raises(NotSpherical):
        vertex_image(uni, ["s", "t"], base)


def test_build_vertex_image_table(uni):
    table = build_vertex_image_table(uni)
    assert np.allclose(table.basepoint.coords, [1 / 3, 1 / 3, 1 / 3])
    assert set(table.images) == set(enumerate_spherical_poset(uni).elements)
    assert np.allclose(table.image(frozenset("s")), [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        table.image(EMPTY)[0] = 9.0


def test_table_accepts_custom_basepoint(uni):
    table = build_vertex_image_table(uni, v0=np.array([0.4, 0.3, 0.3]))
    assert np.allclose(table.basepoint.coords, [0.4, 0.3, 0.3])
    img = table.image(frozenset("s"))
    assert abs(uni.wall_values(img)[0]) < 1e-12


def test_table_validation_catches_bad_tables(uni):
    good = build_vertex_image_table(uni)
    bad_images = dict(good.images)
    bad_images[EMPTY] = np.array([0.5, 0.25, 0.25])
    with pytest.raises(InvariantViolation, match="basepoint"):
        _validate_table(uni, VertexImageTable(good.basepoint, bad_images))


def test_affine_independence_margin():
    v = np.array([1.0, 0.0])
    assert affine_independence_margin([v]) == np.inf
    assert affine_independence_margin([v, v]) == pytest.approx(0.0)
    margin = affine_independence_margin([v, np.array([0.0, 1.0])])
    assert margin == pytest.approx(np.sqrt(2.0))


def test_chain_simplex_check(uni):
    table = build_vertex_image_table(uni)
    assert chain_simplex_check([table.image(EMPTY), table.image(frozenset("s"))])
    assert not chain_simplex_check([table.image(EMPTY), table.image(EMPTY)])


def test_embed_chamber_point_midpoint(uni):
    table = build_vertex_image_table(uni)
    point = uniform_point((EMPTY, frozenset("s")))
    out = embed_chamber_point(point, table)
    assert np.allclose(out, [5 / 12, 7 / 24, 7 / 24])


def test_embed_chamber_point_degenerate(uni):
    base = find_interior_basepoint(uni)
    normalized = ConePoint(base.coords, True)
    images = {EMPTY: base.coords, frozenset("s"): base.coords}
    table = VertexImageTable(normalized, images)
    with pytest.raises(DegenerateSimplex):
        embed_chamber_point(uniform_point((EMPTY, frozenset("s"))), table)


def test_embed_cell_identity_and_reflection(uni):
    table = build_vertex_image_table(uni)
    cell = DavisCell(identity_element(uni), uniform_point((EMPTY,)))
    assert np.allclose(embed_cell(uni, cell, table).image, [1 / 3, 1 / 3, 1 / 3])
    moved = DavisCell(element_from_word(uni, "s"), uniform_point((EMPTY,)))
    assert np.allclose(embed_cell(uni, moved, table).image, [0.6, 0.2, 0.2])


def test_embed_cell_is_well_defined(mix):
    # two representatives of the same cell produce the same image
    table = build_vertex_image_table(mix)
    point = uniform_point((frozenset("s"),))
    a = embed_cell(mix, DavisCell(element_from_word(mix, "s"), point), table)
    b = embed_cell(mix, DavisCell(identity_element(mix), point), table)
    assert np.array_equal(a.image, b.image)
    assert a.source.element.word == ()


def test_verify_embedding_universal(uni):
    table = build_vertex_image_table(uni)
    report = verify_embedding(uni, build_davis_ball(uni, 3), table)
    assert report.chambers == 22
    assert report.samples == 154
    assert report.all_passed
    assert report.equivariance_ok and report.injectivity_ok
    assert report.mirror_ok and report.isotropy_ok
    assert report.max_equivariance_violation < 1e-8
    assert report.min_separation > 1e-7
    assert report.max_on_wall_violation < 1e-8
    assert report.min_off_wall_margin > 0.01
    assert report.max_isotropy <= 1e-9


def test_verify_embedding_report_json(uni):
    table = build_vertex_image_table(uni)
    doc = verify_embedding(uni, build_davis_ball(uni, 2), table).to_json()
    assert doc["all_passed"] is True
    assert doc["chambers"] == 10
    assert set(doc) == {
        "chambers", "samples", "equivariance_ok", "injectivity_ok",
        "mirror_ok", "isotropy_ok", "max_equivariance_violation",
        "min_separation", "max_on_wall_violation", "min_off_wall_margin",
        "max_isotropy", "all_passed",
    }


def test_vertex_off_its_wall_fails_verification(uni):
    table = build_vertex_image_table(uni)
    images = dict(table.images)
    moved = images[frozenset("s")] + 1e-6 * uni.simple_root("s")
    images[frozenset("s")] = moved / moved.sum()
    assert uni.wall_values(images[frozenset("s")])[0] > 1e-7
    report = verify_embedding(uni, build_davis_ball(uni, 2),
                              VertexImageTable(table.basepoint, images))
    assert not (report.mirror_ok and report.equivariance_ok)
    assert not report.all_passed


def test_all_passed_requires_every_check():
    base = EmbeddingReport(
        chambers=1, samples=1, equivariance_ok=True, injectivity_ok=True,
        mirror_ok=True, isotropy_ok=True, max_equivariance_violation=0.0,
        min_separation=1.0, max_on_wall_violation=0.0,
        min_off_wall_margin=1.0, max_isotropy=0.0)
    assert base.all_passed
    from dataclasses import replace

    for flag in ("equivariance_ok", "injectivity_ok", "mirror_ok", "isotropy_ok"):
        assert not replace(base, **{flag: False}).all_passed


def test_embedded_complex_to_json(uni):
    table = build_vertex_image_table(uni)
    ball = build_davis_ball(uni, 2)
    doc = embedded_complex_to_json(uni, ball, table)
    assert len(doc) == len(ball.elements) * len(ball.chamber.simplices)
    assert set(doc[0]) == {"word", "carrier", "barycentric", "image", "isotropy"}
    assert all(entry["isotropy"] <= 1e-9 for entry in doc)
    assert doc[0]["carrier"] == [[]]
    assert np.allclose(doc[0]["image"], [1 / 3, 1 / 3, 1 / 3])
