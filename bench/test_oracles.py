"""Self-tests of the benchmark's oracles and verdicts.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

import pytest

import datums
import oracles
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coxcone import cli, enumerate_ball, generate_roots, parse_datum  # noqa: E402


def _degrees(doc):
    m = oracles.order_matrix(doc)
    return oracles.subset_degrees(m, range(len(m)))


def _doc(bonds, gens="abcd"):
    return datums._doc(gens, bonds)


# --- degree table and growth series ---------------------------------------

@pytest.mark.parametrize("name, order, roots", [("B3", 48, 9), ("H3", 120, 15), ("A4", 120, 10)])
def test_degree_table_orders(name, order, roots):
    degrees = _degrees(datums.NAMED[name])
    assert oracles.group_order(degrees) == order
    assert oracles.positive_root_count(degrees) == roots


@pytest.mark.parametrize("bonds, order", [
    ([("a", "b", 3), ("b", "c", 4), ("c", "d", 3)], 1152),            # F4
    ([("a", "b", 5), ("b", "c", 3), ("c", "d", 3)], 14400),           # H4
    ([("a", "b", 3), ("a", "c", 3), ("a", "d", 3)], 192),             # D4
    ([("a", "b", 4), ("b", "c", 3), ("c", "d", 3)], 384),             # B4
    ([("a", "b", 7)], 14 * 2 * 2),                                    # I2(7) x A1 x A1
])
def test_degree_table_rank4(bonds, order):
    assert oracles.group_order(_degrees(_doc(bonds))) == order


@pytest.mark.parametrize("bonds", [
    [("a", "b", 3), ("b", "c", 3), ("a", "c", 3)],                    # affine A2
    [("a", "b", 3), ("b", "c", 6)],                                   # affine G2
    [("a", "b", 4), ("b", "c", 4)],                                   # affine C2
    [("a", "b", 3), ("b", "c", 5), ("c", "d", 3)],                    # hyperbolic
    [("a", "b", "inf")],
])
def test_infinite_groups_have_no_degrees(bonds):
    assert _degrees(_doc(bonds)) is None


def test_affine_detection():
    assert oracles.is_affine(_doc([("a", "b", 3), ("b", "c", 6)], "abc"), range(3))
    assert oracles.is_affine(datums.NAMED["rank2_affine"], range(2))
    assert not oracles.is_affine(datums.NAMED["rank2_hyper"], range(2))
    assert not oracles.is_applicable(datums.NAMED["rank2_affine"])
    assert oracles.is_applicable(datums.NAMED["triangle334"])


@pytest.mark.parametrize("name", ["B3", "H3", "A4"])
def test_growth_series_of_finite_group_is_poincare(name):
    doc = datums.NAMED[name]
    poly = oracles.poincare(_degrees(doc))
    assert oracles.growth_series(doc, len(poly) + 2) == poly + [0, 0, 0]


def test_steinberg_matches_seed_balls_on_triangle334_to_radius_10():
    doc = datums.NAMED["triangle334"]
    counts = [0] * 11
    for w in enumerate_ball(parse_datum(json.dumps(doc)), 10):
        counts[w.length] += 1
    assert oracles.growth_series(doc, 10) == counts


def test_chain_count():
    assert oracles.chain_count(datums.NAMED["rank2_affine"]) == 5   # {}, s, t and 2 edges
    assert oracles.chain_count(datums.NAMED["rank2_m3"]) == 11


# --- exact roots ----------------------------------------------------------

@pytest.mark.parametrize("name", ["B3", "H3", "A4"])
def test_exact_roots_of_finite_groups(name):
    doc = datums.NAMED[name]
    counts, _ = oracles.exact_roots(doc, 20)
    assert sum(counts) == oracles.positive_root_count(_degrees(doc))


@pytest.mark.parametrize("name", ["universal3", "triangle334", "mixed3", "r4", "m3inf@-1"])
def test_exact_roots_match_seed_where_precision_holds(name):
    doc = datums.NAMED[name]
    levels: dict[int, int] = {}
    for r in generate_roots(parse_datum(json.dumps(doc)), 8):
        levels[r.depth] = levels.get(r.depth, 0) + 1
    assert oracles.exact_roots(doc, 8)[0] == [levels[d] for d in sorted(levels)]


def test_c_does_not_change_exact_counts():
    a, gauge_a = oracles.exact_roots(datums.NAMED["m3inf"], 10)
    b, gauge_b = oracles.exact_roots(datums.NAMED["m3inf@-1"], 10)
    assert a == b
    assert gauge_a > 1e6 * gauge_b


def test_headroom_exceeds_one_wherever_m3inf_counts_go_wrong():
    doc = datums.NAMED["m3inf"]
    datum = parse_datum(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for depth in range(2, 11):
            exact, biggest = oracles.exact_roots(doc, depth)
            levels = [0] * (depth + 1)
            for r in generate_roots(datum, depth):
                levels[r.depth] += 1
            assert (levels != exact) <= (oracles.headroom(biggest, 3) > 1), depth
    assert oracles.headroom(oracles.exact_roots(doc, 12)[1], 3) > 1
    assert oracles.headroom(oracles.exact_roots(datums.NAMED["m3inf@-1"], 12)[1], 3) < 1


# --- verdicts on seed outputs ---------------------------------------------

def _outputs(tmp_path, job: workloads.Job, doc: dict) -> tuple[int, str, str]:
    """Exit code, output text and stderr of one job on the seed code."""
    datum = tmp_path / f"{job.datum}.json"
    datum.write_text(json.dumps(doc))
    out = tmp_path / "out.txt" if job.writes_file else None
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(job.argv(str(datum), None if out is None else str(out)))
    text = out.read_text() if out is not None and code == 0 else stdout.getvalue()
    return code, text, stderr.getvalue()


def _verdict(job: workloads.Job, doc: dict, code: int, text: str, err: str) -> workloads.Verdict:
    facts = workloads.Facts(doc, [job])
    verdict = workloads.verify(job, facts, code, text, err)
    workloads.settle(verdict, job, facts)
    return verdict


def _run(tmp_path, job: workloads.Job, doc: dict) -> workloads.Verdict:
    return _verdict(job, doc, *_outputs(tmp_path, job, doc))


def _check_job(name: str) -> workloads.Job:
    return workloads.Job(f"check:{name}", name, "check",
                         {"depth": workloads.CHECK_DEPTH, "radius": 1})


@pytest.mark.parametrize("job", [
    workloads.Job("roots:m3inf", "m3inf", "roots", {"depth": 12}),
    workloads.Job("davis:m3inf", "m3inf", "davis", {"radius": 9}),
])
def test_seed_precision_failures_are_counted_as_known(tmp_path, job):
    verdict = _run(tmp_path, job, datums.NAMED["m3inf"])
    assert not verdict.ok and verdict.known == "precision"


@pytest.mark.parametrize("name", ["B3", "H3", "A4"])
def test_seed_check_fails_on_finite_groups_as_known(tmp_path, name):
    verdict = _run(tmp_path, _check_job(name), datums.NAMED[name])
    assert not verdict.ok and verdict.known == "probe-radius"


def test_seed_root_norm_failure_on_a_random_datum_is_known(tmp_path):
    doc = datums._doc("abc", [("a", "b", 4), ("a", "c", 3), ("b", "c", "inf")],
                      [("b", "c", -2.9)])
    verdict = _run(tmp_path, _check_job("rand"), doc)
    assert not verdict.ok and verdict.known == "root-precision"
    assert verdict.failures() == ["row:root-norm-invariance: fail, oracle expects pass"]


def test_fail_ratio_counts_known_failures(tmp_path):
    """A pass over the named check jobs fails exactly the four known jobs."""
    failed = []
    for name, doc in datums.NAMED.items():
        verdict = _run(tmp_path, _check_job(name), doc)
        if not verdict.ok:
            assert verdict.known is not None, verdict.failures()
            failed.append(name)
    assert failed == ["m3inf", "B3", "H3", "A4"]


def test_root_row_fail_on_small_c_is_unexpected(tmp_path):
    """triangle334 has no infinite bond and a tiny gauge: a failing root row
    there is a new defect, not root-precision."""
    doc = datums.NAMED["triangle334"]
    job = _check_job("triangle334")
    code, text, err = _outputs(tmp_path, job, doc)
    assert code == 0
    row = next(line for line in text.splitlines() if line.startswith("root-norm-invariance"))
    text = text.replace(row, row.replace(" PASS ", " FAIL "))
    verdict = _verdict(job, doc, 1, text, err)
    assert verdict.failures() == ["row:root-norm-invariance: fail, oracle expects pass"]
    assert verdict.known is None


@pytest.mark.parametrize("code, text, err", [
    (-1, "", "Traceback (most recent call last):\nRuntimeError: boom"),
    (2, "", "error: PreconditionViolated"),
])
def test_crash_on_m3inf_is_unexpected(code, text, err):
    """m3inf's gauge is far above 1, but only wrong counts are put down to
    precision: a job that raises or exits nonzero is a new defect."""
    job = workloads.Job("roots:m3inf", "m3inf", "roots", {"depth": 12})
    verdict = _verdict(job, datums.NAMED["m3inf"], code, text, err)
    assert not verdict.ok and verdict.known is None


def test_wrong_counts_on_small_gauge_are_unexpected(tmp_path):
    """Counts that disagree with the oracle where the gauge is below 1 are
    a new defect."""
    doc = datums.NAMED["m3inf@-1"]
    job = workloads.Job("roots:m3inf@-1", "m3inf@-1", "roots", {"depth": 8})
    code, text, err = _outputs(tmp_path, job, doc)
    out = json.loads(text)
    out["roots"] = out["roots"][:-1]
    verdict = _verdict(job, doc, code, json.dumps(out), err)
    assert [f.split(":")[0] for f in verdict.failures()] == ["counts=exact"]
    assert verdict.known is None


def test_passing_outputs_pass(tmp_path):
    for job in (workloads.Job("roots:mixed3", "mixed3", "roots", {"depth": 8}),
                workloads.Job("davis:triangle334", "triangle334", "davis", {"radius": 5}),
                workloads.Job("embed:universal3", "universal3", "embed", {"radius": 2}),
                workloads.Job("limit-roots:universal3", "universal3", "limit-roots", {"depth": 7})):
        verdict = _run(tmp_path, job, datums.NAMED[job.datum])
        assert verdict.ok, verdict.failures()


def test_workload_inputs_follow_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 3) == workloads.build(workload, 3)
        assert workloads.build(workload, 3)[0] != workloads.build(workload, 4)[0]
