"""The batched embedding verifier against a per-pair reference.

The reference walks every (element, cell) pair with one Python call each,
through `ball_cells`, `embed_cell` and `minimal_coset_matrix`.  It is slow
(|ball| x |cells| coset reductions and an N x N x rank separation array),
so it runs on small balls only.
"""

import numpy as np
import pytest

from conftest import r4

from coxcone.davis import (
    ball_cells,
    build_davis_ball,
    minimal_coset_matrix,
    point_stabilizer,
    uniform_point,
)
from coxcone.embedding import (
    ISOTROPY_TOL,
    SEPARATION_TOL,
    EmbeddingReport,
    build_vertex_image_table,
    embed_cell,
    embed_chamber_point,
    embedded_complex_to_json,
    verify_embedding,
)
from coxcone.normalize import dot_act, normalize
from coxcone.numeric import WALL_TOL

TOL = 1e-12


def reference_verify(datum, ball, table) -> EmbeddingReport:
    cells = ball_cells(datum, ball)
    embedded = [embed_cell(datum, c, table) for c in cells]
    chamber_image = {chain: embed_chamber_point(uniform_point(chain), table)
                     for chain in ball.chamber.simplices}

    max_equi = 0.0
    for u in ball.elements:
        for cell, emb in zip(cells, embedded):
            chain = cell.point.carrier
            product = u.matrix @ cell.element.matrix
            reduced, _ = minimal_coset_matrix(datum, product, datum.sort_subset(chain[0]))
            direct = normalize(reduced @ chamber_image[chain])
            acted = dot_act(datum, u, emb.image)
            max_equi = max(max_equi, float(np.max(np.abs(direct - acted))))

    first: dict[tuple, np.ndarray] = {}
    max_dup = 0.0
    for cell, emb in zip(cells, embedded):
        key = (cell.element.word, cell.point.carrier)
        if key in first:
            max_dup = max(max_dup, float(np.max(np.abs(emb.image - first[key]))))
        else:
            first[key] = emb.image
    reps = np.array(list(first.values()))
    gaps = np.max(np.abs(reps[:, None, :] - reps[None, :, :]), axis=2)
    gaps[np.diag_indices(len(reps))] = np.inf
    min_sep = float(np.min(gaps)) if len(reps) > 1 else np.inf

    max_on, min_off = 0.0, np.inf
    for chain in ball.chamber.simplices:
        walls = datum.wall_values(chamber_image[chain])
        stab = point_stabilizer(uniform_point(chain))
        for s in datum.generators:
            value = abs(float(walls[datum.index(s)]))
            if s in stab:
                max_on = max(max_on, value)
            else:
                min_off = min(min_off, value)

    max_iso = max(datum.bilinear(e.image, e.image) for e in embedded)
    return EmbeddingReport(
        chambers=len(ball.elements),
        samples=len(cells),
        equivariance_ok=max_equi < WALL_TOL and max_dup < WALL_TOL,
        injectivity_ok=bool(min_sep > SEPARATION_TOL),
        mirror_ok=max_on < WALL_TOL <= min_off,
        isotropy_ok=max_iso <= ISOTROPY_TOL,
        max_equivariance_violation=max(max_equi, max_dup),
        min_separation=min_sep,
        max_on_wall_violation=max_on,
        min_off_wall_margin=float(min_off),
        max_isotropy=max_iso,
    )


def reference_json(datum, ball, table) -> list[dict]:
    out = []
    for cell in ball_cells(datum, ball):
        emb = embed_cell(datum, cell, table)
        out.append({
            "word": list(cell.element.word),
            "carrier": [list(ball.chamber.subset_key(t)) for t in cell.point.carrier],
            "barycentric": list(cell.point.weights),
            "image": [float(c) for c in emb.image],
            "isotropy": float(datum.bilinear(emb.image, emb.image)),
        })
    return out


CASES = ([(name, r) for name in ("universal3", "triangle334", "mixed3")
          for r in (1, 2, 3)] + [("r4", 2)])


@pytest.fixture(params=CASES, ids=[f"{name}-r{r}" for name, r in CASES])
def case(request, datums):
    name, radius = request.param
    datum = r4() if name == "r4" else datums[name]
    return datum, build_davis_ball(datum, radius), build_vertex_image_table(datum)


def assert_reports_match(new: EmbeddingReport, ref: EmbeddingReport) -> None:
    for field in ("chambers", "samples", "equivariance_ok", "injectivity_ok",
                  "mirror_ok", "isotropy_ok", "all_passed"):
        assert getattr(new, field) == getattr(ref, field), field
    for field in ("min_separation", "max_on_wall_violation",
                  "min_off_wall_margin", "max_isotropy"):
        assert getattr(new, field) == pytest.approx(getattr(ref, field), abs=TOL), field


def test_report_matches_reference(case):
    datum, ball, table = case
    new = verify_embedding(datum, ball, table)
    assert_reports_match(new, reference_verify(datum, ball, table))
    assert new.max_equivariance_violation < 1e-8


def test_json_matches_reference(case):
    datum, ball, table = case
    new = embedded_complex_to_json(datum, ball, table)
    ref = reference_json(datum, ball, table)
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        assert (a["word"], a["carrier"], a["barycentric"]) == \
            (b["word"], b["carrier"], b["barycentric"])
        assert np.max(np.abs(np.subtract(a["image"], b["image"]))) <= TOL
        assert abs(a["isotropy"] - b["isotropy"]) <= TOL


def test_nudged_table_matches_reference(uni):
    # a vertex image 1e-6 off its wall fails both verifiers the same way
    table = build_vertex_image_table(uni)
    images = dict(table.images)
    images[frozenset("s")] = normalize(images[frozenset("s")] + 1e-6 * uni.simple_root("s"))
    nudged = type(table)(table.basepoint, images)
    ball = build_davis_ball(uni, 2)
    new = verify_embedding(uni, ball, nudged)
    assert not new.all_passed
    assert_reports_match(new, reference_verify(uni, ball, nudged))
