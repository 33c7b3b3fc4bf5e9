"""The runnable invariant suites and their table rendering."""

import dataclasses

import pytest

from coxcone import build_davis_ball, checks, run_all_checks
from coxcone.checks import CheckResult, render_check_table

CHECK_NAMES = [
    "root-sign-dichotomy",
    "root-norm-invariance",
    "classification-vs-enumeration",
    "displacement",
    "averaging",
    "wall-intersections",
    "stabilizers",
    "davis-ball",
    "embedding",
]


def by_name(results):
    return {r.name: r for r in results}


def test_check_names_and_order(uni):
    results = run_all_checks(uni)
    assert [r.name for r in results] == CHECK_NAMES


def test_all_checks_pass_on_applicable_fixtures(datums):
    for name in ("rank2_hyper", "universal3", "triangle334", "mixed3"):
        results = run_all_checks(datums[name])
        assert all(r.status == "pass" for r in results), (name, results)


def test_finite_group_skips_basepoint_checks(m3):
    results = by_name(run_all_checks(m3))
    for name in ("averaging", "wall-intersections", "embedding"):
        assert results[name].status == "skip"
        assert "finite" in results[name].detail
    assert results["stabilizers"].status == "skip"
    assert results["stabilizers"].detail == "no interior, wall or radical point exists"
    for name in ("root-sign-dichotomy", "root-norm-invariance",
                 "classification-vs-enumeration", "displacement", "davis-ball"):
        assert results[name].status == "pass"
    assert not any(r.failed for r in results.values())


def test_affine_group_skips_interior_checks(aff):
    results = by_name(run_all_checks(aff))
    for name in ("averaging", "wall-intersections", "embedding"):
        assert results[name].status == "skip"
        assert "affine" in results[name].detail
    # the radical point still exercises the stabilizer check
    assert results["stabilizers"].status == "pass"
    assert "1 points" in results["stabilizers"].detail
    assert not any(r.failed for r in results.values())


def test_check_details_mention_sizes(uni):
    results = by_name(run_all_checks(uni))
    assert "22 chambers" in results["embedding"].detail
    assert results["davis-ball"].detail == "22 chambers"
    assert "7 subsets" in results["classification-vs-enumeration"].detail


def test_check_result_failed_property():
    assert CheckResult("x", "fail").failed
    assert not CheckResult("x", "pass").failed
    assert not CheckResult("x", "skip").failed


def test_render_check_table(m3):
    text = render_check_table(run_all_checks(m3))
    lines = text.splitlines()
    assert lines[0].split() == ["check", "status", "max", "violation", "detail"]
    assert len(lines) == 10
    assert text.endswith("\n")
    assert any(line.split()[1] == "PASS" for line in lines[1:])
    assert any(line.split()[1] == "SKIP" for line in lines[1:])
    assert not any(line.split()[1] == "FAIL" for line in lines[1:])
    skipped = [line for line in lines[1:] if "SKIP" in line]
    assert all(" - " in line for line in skipped)


def test_custom_depth_and_radius(uni):
    results = by_name(run_all_checks(uni, depth=3, radius=2, seed=4))
    assert results["root-sign-dichotomy"].detail == "depth 3"
    assert "radius 3" in results["displacement"].detail
    assert all(r.status in ("pass", "skip") for r in results.values())


def test_davis_ball_row_names_a_wrong_shared_mirror(uni, monkeypatch):
    ball = build_davis_ball(uni, 2)
    assert checks.check_davis_ball(uni, 2).status == "pass"
    i, j, s = ball.adjacency[3]
    t = next(g for g in uni.generators if g != s)
    tampered = dataclasses.replace(
        ball, adjacency=ball.adjacency[:3] + ((i, j, t),) + ball.adjacency[4:])
    monkeypatch.setattr(checks, "build_davis_ball", lambda datum, radius: tampered)
    result = checks.check_davis_ball(uni, 2)
    assert result.failed
    assert result.detail == (f"mirror {t}: {ball.elements[i]!r} r_{t} "
                             f"!= {ball.elements[j]!r}")
