"""Command-line interface: payload shapes, exit codes, and output routing."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxcone
from coxcone import (
    build_davis_ball,
    build_vertex_image_table,
    find_interior_basepoint,
    generate_roots,
    make_datum,
    serialize_datum,
)
from coxcone.cli import main
from coxcone.embedding import embedded_complex_to_json


@pytest.fixture()
def datum_path(tmp_path, datums):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(serialize_datum(datums[name]), encoding="utf-8")
        return str(path)

    return write


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_roots_json(datum_path):
    code, out, err = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                              "--depth", "6"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["generators"] == ["s", "t"]
    assert len(doc["roots"]) == 3
    assert doc["roots"][0] == {"coords": [1.0, 0.0], "depth": 0}
    assert doc["roots"][-1]["depth"] == 1
    assert doc["roots"][-1]["coords"] == pytest.approx([1.0, 1.0])


def test_roots_csv(datum_path):
    code, out, _ = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                            "--depth", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_s,x_t,depth"
    assert lines[1] == "1.0,0.0,0"
    assert len(lines) == 4


def test_normalized_roots_csv(datum_path):
    for depth, count in ((1, 5), (2, 7)):
        code, out, _ = run_cli(["normalized-roots", "--datum",
                                datum_path("rank2_affine"), "--depth", str(depth),
                                "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x_s,x_t,depth,isotropy"
        assert lines[1].startswith("1.0,0.0,0,")
        assert len(lines) == count


def test_normalized_roots_json(datum_path):
    code, out, _ = run_cli(["normalized-roots", "--datum",
                            datum_path("rank2_affine"), "--depth", "1"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["roots"]) == 4
    assert set(doc["roots"][0]) == {"coords", "depth", "isotropy"}
    assert all(abs(sum(r["coords"]) - 1.0) < 1e-9 for r in doc["roots"])


def test_limit_roots_universal(datum_path):
    code, out, _ = run_cli(["limit-roots", "--datum", datum_path("universal3"),
                            "--depth", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == ["s", "t", "u"]
    assert len(doc["estimates"]) == 270
    assert all(abs(e["isotropy"]) <= 1e-3 for e in doc["estimates"])


def test_limit_roots_tol_flag_tightens(datum_path):
    path = datum_path("universal3")
    code, out, _ = run_cli(["limit-roots", "--datum", path, "--depth", "6",
                            "--tol", "1e-4"])
    assert code == 0
    estimates = json.loads(out)["estimates"]
    assert 0 < len(estimates) < 270
    assert all(abs(e["isotropy"]) <= 1e-4 for e in estimates)


def test_limit_roots_affine_json(datum_path):
    code, out, _ = run_cli(["limit-roots", "--datum", datum_path("rank2_affine"),
                            "--depth", "16"])
    assert code == 0
    doc = json.loads(out)
    assert doc["generators"] == ["s", "t"]
    assert len(doc["estimates"]) == 2
    assert set(doc["estimates"][0]) == {"point", "isotropy", "source_depth"}
    assert doc["estimates"][0]["source_depth"] == 16


def test_limit_roots_csv(datum_path):
    code, out, _ = run_cli(["limit-roots", "--datum", datum_path("rank2_affine"),
                            "--depth", "16", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_s,x_t,isotropy,source_depth"
    assert len(lines) == 3


def test_limit_roots_finite_group_is_input_error(datum_path):
    code, out, err = run_cli(["limit-roots", "--datum", datum_path("rank2_m3"),
                              "--depth", "6"])
    assert code == 2 and out == ""
    assert "FiniteGroup" in err


def test_parabolics(datum_path):
    code, out, _ = run_cli(["parabolics", "--datum", datum_path("universal3")])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["poset"]["nodes"]) == 4
    classes = doc["classification"]
    assert [c["subset"] for c in classes] == [
        ["s"], ["t"], ["u"], ["s", "t"], ["s", "u"], ["t", "u"], ["s", "t", "u"]]
    assert [c["kind"] for c in classes] == (
        ["finite"] * 3 + ["affine-irreducible"] * 3 + ["other-infinite"])
    assert classes[3]["radical"] == [1.0, 1.0, 0.0]
    assert "radical" not in classes[6]


def test_cone_samples(datum_path):
    argv = ["cone-samples", "--datum", datum_path("universal3"),
            "--radius", "2", "--samples", "3", "--seed", "7"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 30
    assert all(entry["isotropy"] <= 1e-9 for entry in doc)
    # seeded: byte-identical across runs
    assert run_cli(argv)[1] == out


def test_davis(datum_path):
    code, out, _ = run_cli(["davis", "--datum", datum_path("rank2_m3"),
                            "--radius", "3"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["chambers"]) == 6
    assert doc["frontier"] == []
    assert len(doc["adjacency"]) == 6


def test_embed_universal(datum_path):
    argv = ["embed", "--datum", datum_path("universal3"), "--radius", "3"]
    code, out, _ = run_cli(argv)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"basepoint", "cells", "verification"}
    assert doc["basepoint"] == pytest.approx([1 / 3] * 3)
    assert doc["verification"]["all_passed"] is True
    assert len(doc["cells"]) == 22 * 7
    assert run_cli(argv)[1] == out


def test_embed_custom_basepoint(datum_path):
    code, out, _ = run_cli(["embed", "--datum", datum_path("universal3"),
                            "--radius", "2", "--basepoint", "0.4,0.3,0.3"])
    assert code == 0
    assert json.loads(out)["basepoint"] == pytest.approx([0.4, 0.3, 0.3])


def test_embed_finite_group_is_input_error(datum_path):
    code, _, err = run_cli(["embed", "--datum", datum_path("rank2_m3")])
    assert code == 2
    assert "NotApplicable" in err and "finite" in err


def test_check_m3(datum_path):
    code, out, _ = run_cli(["check", "--datum", datum_path("rank2_m3")])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("check")
    assert len(lines) == 10
    assert "the group is finite; the fundamental domain is {0}" in out
    assert "no interior, wall or radical point exists" in out
    assert "FAIL" not in out


def test_check_universal(datum_path):
    code, out, _ = run_cli(["check", "--datum", datum_path("universal3")])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 9
    assert all(row.split()[1] == "PASS" for row in rows)


def test_check_affine(datum_path, tmp_path):
    # the form of G~2 is singular only up to rounding
    g2 = tmp_path / "g2.json"
    g2.write_text(serialize_datum(make_datum(["a", "b", "c"],
                                             [("a", "b", 6), ("b", "c", 3)])),
                  encoding="utf-8")
    for path in (datum_path("rank2_affine"), str(g2)):
        code, out, _ = run_cli(["check", "--datum", path])
        assert code == 0
        assert "the group is affine; the fundamental domain is a ray" in out
        assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["roots", "--depth", "4"],
    ["normalized-roots", "--depth", "4"],
    ["limit-roots", "--depth", "5"],
    ["parabolics"],
    ["cone-samples", "--radius", "1"],
    ["davis", "--radius", "2"],
    ["embed", "--radius", "2"],
])
def test_json_output_is_one_sorted_line(datum_path, argv):
    code, out, _ = run_cli(argv + ["--datum", datum_path("universal3")])
    assert code == 0
    assert out.endswith("\n") and out.count("\n") == 1
    # parsing and re-encoding with sorted keys gives the same text back, so
    # keys are sorted at every level and every float prints in shortest
    # round-trip form
    assert json.dumps(json.loads(out), sort_keys=True) + "\n" == out


def test_json_floats_round_trip(datum_path, datums):
    uni = datums["universal3"]
    path = datum_path("universal3")
    roots = json.loads(run_cli(["roots", "--datum", path, "--depth", "5"])[1])
    assert [r["coords"] for r in roots["roots"]] == [
        r.coords.tolist() for r in generate_roots(uni, 5)]
    embed = json.loads(run_cli(["embed", "--datum", path, "--radius", "2"])[1])
    table = build_vertex_image_table(uni, v0=find_interior_basepoint(uni))
    cells = embedded_complex_to_json(uni, build_davis_ball(uni, 2), table)
    assert [c["image"] for c in embed["cells"]] == [c["image"] for c in cells]


@pytest.mark.parametrize("argv, text", [
    (["roots", "--depth", "3"],
     "x_s,x_t,depth\n1.0,0.0,0\n0.0,1.0,0\n1.0,3.0,1\n3.0,1.0,1\n"
     "3.0,8.0,2\n8.0,3.0,2\n8.0,21.0,3\n21.0,8.0,3\n"),
    (["normalized-roots", "--depth", "2"],
     "x_s,x_t,depth,isotropy\n1.0,0.0,0,1.0\n0.0,1.0,0,1.0\n"
     "0.25,0.75,1,0.0625\n0.75,0.25,1,0.0625\n"
     "0.2727272727272727,0.7272727272727273,2,0.008264462809917392\n"
     "0.7272727272727273,0.2727272727272727,2,0.008264462809917423\n"),
    (["limit-roots", "--depth", "8"],
     "x_s,x_t,isotropy,source_depth\n"
     "0.2763929618768328,0.7236070381231672,5.374910777008541e-07,7\n"
     "0.7236070381231672,0.2763929618768328,5.374910777008541e-07,7\n"
     "0.2763931671800616,0.7236068328199384,7.841881938446892e-08,8\n"
     "0.7236068328199384,0.2763931671800616,7.84188194257564e-08,8\n"),
])
def test_csv_output_is_unchanged(datum_path, argv, text):
    # the isotropy column keeps the bits of a per-root datum.bilinear call
    code, out, _ = run_cli(argv + ["--datum", datum_path("rank2_hyper"),
                                   "--format", "csv"])
    assert code == 0
    assert out == text


@pytest.mark.parametrize("name", ["rank2_hyper", "universal3"])
@pytest.mark.parametrize("argv, key, columns", [
    (["roots", "--depth", "5"], "roots", ["coords", "depth"]),
    (["normalized-roots", "--depth", "5"], "roots", ["coords", "depth", "isotropy"]),
    (["limit-roots", "--depth", "8"], "estimates",
     ["point", "isotropy", "source_depth"]),
])
def test_csv_cells_are_the_json_values(datum_path, name, argv, key, columns):
    path = datum_path(name)
    code, out, _ = run_cli(argv + ["--datum", path])
    assert code == 0
    doc = json.loads(out)
    rows = doc[key]
    code, out, _ = run_cli(argv + ["--datum", path, "--format", "csv"])
    assert code == 0
    header, *lines = csv.reader(io.StringIO(out))
    point, *scalars = columns
    assert header == [f"x_{g}" for g in doc["generators"]] + scalars
    assert len(lines) == len(rows) > 0
    # the same float text in both formats: every cell parses to the JSON value
    assert [[json.loads(cell) for cell in line] for line in lines] == [
        row[point] + [row[c] for c in scalars] for row in rows]


def test_missing_datum_file():
    code, out, err = run_cli(["roots", "--datum", "/nonexistent/datum.json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_invalid_datum_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": ["s", "s"], "bonds": []}', encoding="utf-8")
    code, _, err = run_cli(["roots", "--datum", str(bad)])
    assert code == 2
    assert "listed twice" in err
    bad.write_text("not json", encoding="utf-8")
    assert run_cli(["roots", "--datum", str(bad)])[0] == 2


def test_bad_tolerance(datum_path):
    path = datum_path("universal3")
    assert run_cli(["limit-roots", "--datum", path, "--tol", "1"])[0] == 2
    assert run_cli(["limit-roots", "--datum", path, "--tol", "1e-13"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["davis", "--radius", "1", "--tol", "1e-6"],
    ["embed", "--radius", "1", "--format", "csv"],
    ["embed", "--radius", "1", "--vt-mode", "linear"],
])
def test_flags_rejected_where_unused(datum_path, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--datum", datum_path("universal3")])
    assert exc.value.code == 2


def test_negative_depth(datum_path):
    code, _, err = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                            "--depth", "-1"])
    assert code == 2
    assert "--depth" in err


def test_bad_basepoints(datum_path):
    path = datum_path("universal3")
    for text in ("a,b,c", "1,0", "1,0,0"):
        code, _, err = run_cli(["embed", "--datum", path,
                                "--radius", "2", "--basepoint", text])
        assert code == 2
        assert "--basepoint" in err


def test_out_flag_writes_file(datum_path, tmp_path):
    target = tmp_path / "artifacts" / "roots.json"
    code, out, err = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                              "--depth", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert err == ""
    assert json.loads(target.read_text(encoding="utf-8"))["generators"] == ["s", "t"]


def test_output_dir_env(datum_path, tmp_path, monkeypatch):
    outdir = tmp_path / "emitted"
    monkeypatch.setenv("COXCONE_OUTPUT_DIR", str(outdir))
    code, out, _ = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                            "--depth", "2"])
    assert code == 0 and out == ""
    assert (outdir / "roots.json").exists()
    # an explicit --out wins over the directory variable
    target = tmp_path / "explicit.json"
    run_cli(["davis", "--datum", datum_path("rank2_m3"), "--radius", "1",
             "--out", str(target)])
    assert target.exists()
    assert not (outdir / "davis.json").exists()


def test_module_entrypoint(datum_path):
    # the child imports the same coxcone as this process, installed or not
    package_root = str(Path(coxcone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "coxcone.cli", "roots",
         "--datum", datum_path("rank2_m3"), "--depth", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == ["s", "t"]
