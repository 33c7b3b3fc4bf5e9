"""Command-line interface: payload shapes, exit codes, and output routing."""

import contextlib
import io
import json
import subprocess
import sys

import pytest

from coxcone import serialize_datum
from coxcone.cli import main


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


def test_roots_csv(datum_path):
    code, out, _ = run_cli(["roots", "--datum", datum_path("rank2_m3"),
                            "--depth", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_s,x_t,depth"
    assert lines[1] == "1.0,0.0,0"
    assert len(lines) == 4


def test_normalized_roots_csv(datum_path):
    code, out, _ = run_cli(["normalized-roots", "--datum",
                            datum_path("rank2_affine"), "--depth", "2",
                            "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x_s,x_t,depth,isotropy"
    assert len(lines) == 7


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
    assert set(doc) == {"basepoint", "vt_mode", "cells", "verification"}
    assert doc["basepoint"] == pytest.approx([1 / 3] * 3)
    assert doc["vt_mode"] == "linear"
    assert doc["verification"]["all_passed"] is True
    assert len(doc["cells"]) == 22 * 7
    assert run_cli(argv)[1] == out


def test_embed_custom_basepoint(datum_path):
    code, out, _ = run_cli(["embed", "--datum", datum_path("universal3"),
                            "--radius", "2", "--basepoint", "0.4,0.3,0.3"])
    assert code == 0
    assert json.loads(out)["basepoint"] == pytest.approx([0.4, 0.3, 0.3])


def test_embed_dot_mode_fails_verification(datum_path):
    code, out, _ = run_cli(["embed", "--datum", datum_path("universal3"),
                            "--radius", "2", "--vt-mode", "dot"])
    assert code == 1
    doc = json.loads(out)
    assert doc["vt_mode"] == "dot"
    assert doc["verification"]["all_passed"] is False


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


def test_check_affine(datum_path):
    code, out, _ = run_cli(["check", "--datum", datum_path("rank2_affine")])
    assert code == 0
    assert "the group is affine; the fundamental domain is a ray" in out
    assert "FAIL" not in out


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
    assert f"wrote {target}" in err
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
    proc = subprocess.run(
        [sys.executable, "-m", "coxcone.cli", "roots",
         "--datum", datum_path("rank2_m3"), "--depth", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators"] == ["s", "t"]
