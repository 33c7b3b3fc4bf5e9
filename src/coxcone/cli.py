"""Command-line interface: computations, verification suites, exports.

Each subcommand loads a datum document, runs one computation and emits a
JSON or CSV artifact (stdout by default, a file with --out, or a file in
the directory named by COXCONE_OUTPUT_DIR).  Exit status: 0 on success,
1 when the check suite reports a failure, 2 on input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from .checks import render_check_table, run_all_checks
from .cone import (
    cone_samples_to_json,
    find_interior_basepoint,
    in_fundamental_chamber,
    sample_imaginary_cone,
)
from .datum import CoxeterDatum, parse_datum
from .davis import build_davis_ball, davis_ball_to_json
from .embedding import (
    build_vertex_image_table,
    embedded_complex_to_json,
    verify_embedding,
)
from .errors import CoxconeError
from .normalize import (
    LIMIT_ISOTROPY_TOL,
    approximate_limit_roots,
    normalized_roots_by_level,
    self_pairings,
)
from .parabolic import classify_parabolic, enumerate_spherical_poset, poset_to_json
from .reflections import generate_roots

OUTPUT_DIR_VAR = "COXCONE_OUTPUT_DIR"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxcone",
        description="Root systems, imaginary cones and Davis complexes "
                    "for finitely generated Coxeter groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, depth=False, radius=False,
            seed=False, basepoint=False, samples=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--datum", required=True, help="path to a datum JSON file")
        p.add_argument("--out", help="output file path (default: stdout or "
                       f"${OUTPUT_DIR_VAR}/{name}.<ext>)")
        if depth:
            p.add_argument("--depth", type=int, default=6)
        if radius:
            p.add_argument("--radius", type=int, default=3)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if basepoint:
            p.add_argument("--basepoint", default=None,
                           help="interior basepoint as 'c1,c2,...'")
        if samples:
            p.add_argument("--samples", type=int, default=3,
                           help="samples per chamber")
        return p

    tables = [add("roots", "positive roots by breadth-first depth", depth=True),
              add("normalized-roots", "roots scaled to coordinate sum 1", depth=True),
              add("limit-roots", "clustered deep normalized roots", depth=True)]
    for p in tables:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    tables[-1].add_argument("--tol", type=float, default=LIMIT_ISOTROPY_TOL,
                            help="isotropy tolerance, within [1e-12, 1e-3]")
    add("parabolics", "spherical poset and subset classification")
    add("cone-samples", "seeded samples of the imaginary cone",
        radius=True, seed=True, samples=True)
    add("davis", "Davis complex over a word-ball", radius=True)
    add("embed", "embed the Davis complex into the normalized cone",
        radius=True, basepoint=True)
    add("check", "run all invariant suites", depth=True, radius=True, seed=True)
    return parser


def _validate_args(args: argparse.Namespace) -> None:
    for field in ("depth", "radius", "seed", "samples"):
        value = getattr(args, field, None)
        if value is not None and value < 0:
            raise ValueError(f"--{field} must be nonnegative")


def _load_datum(path: str) -> CoxeterDatum:
    return parse_datum(Path(path).read_text(encoding="utf-8"))


def _parse_basepoint(datum: CoxeterDatum, text: str) -> np.ndarray:
    try:
        coords = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ValueError(f"bad --basepoint {text!r}: {exc}") from None
    if coords.shape != (datum.rank,):
        raise ValueError(f"--basepoint needs {datum.rank} coordinates")
    if not in_fundamental_chamber(datum, coords).interior:
        raise ValueError("--basepoint is not interior to the fundamental domain")
    return coords


def _emit(args: argparse.Namespace, text: str, extension: str) -> None:
    if args.out:
        target = Path(args.out)
    elif os.environ.get(OUTPUT_DIR_VAR):
        target = Path(os.environ[OUTPUT_DIR_VAR]) / f"{args.command}.{extension}"
    else:
        sys.stdout.write(text)
        return
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")


def _to_json_text(payload) -> str:
    # no indent: an indent sends CPython's json to its pure-Python encoder
    return json.dumps(payload, sort_keys=True) + "\n"


def _csv_from_records(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _emit_table(args, datum: CoxeterDatum, key: str, columns: list[str],
                rows: list[dict]) -> None:
    """Write `{"generators": [...], key: rows}` as JSON, or as CSV with the
    point column (columns[0]) spread over one x_<g> column per generator,
    then the scalar columns.  Rows hold Python numbers (`.tolist()`, not
    numpy scalars), so each float prints as its repr in both formats."""
    if args.format == "csv":
        point, *scalars = columns
        text = _csv_from_records(
            [f"x_{g}" for g in datum.generators] + scalars,
            [row[point] + [row[c] for c in scalars] for row in rows])
    else:
        text = _to_json_text({"generators": list(datum.generators), key: rows})
    _emit(args, text, args.format)


def _cmd_roots(args, datum: CoxeterDatum) -> int:
    rows = [{"coords": r.coords.tolist(), "depth": r.depth}
            for r in generate_roots(datum, args.depth)]
    _emit_table(args, datum, "roots", ["coords", "depth"], rows)
    return 0


def _cmd_normalized_roots(args, datum: CoxeterDatum) -> int:
    levels = normalized_roots_by_level(datum, args.depth)
    records = [r for depth in sorted(levels) for r in levels[depth]]
    isotropy = self_pairings(datum, np.array([r.coords for r in records]))
    rows = [{"coords": r.coords.tolist(), "depth": r.depth, "isotropy": q}
            for r, q in zip(records, isotropy.tolist())]
    _emit_table(args, datum, "roots", ["coords", "depth", "isotropy"], rows)
    return 0


def _cmd_limit_roots(args, datum: CoxeterDatum) -> int:
    if not 1e-12 <= args.tol <= 1e-3:
        raise ValueError("--tol must lie within [1e-12, 1e-3]")
    rows = [{"point": e.point.tolist(), "isotropy": e.isotropy,
             "source_depth": e.source_depth}
            for e in approximate_limit_roots(datum, args.depth, args.tol)]
    _emit_table(args, datum, "estimates",
                ["point", "isotropy", "source_depth"], rows)
    return 0


def _cmd_parabolics(args, datum: CoxeterDatum) -> int:
    poset = enumerate_spherical_poset(datum)
    classification = []
    for k in range(1, datum.rank + 1):
        for subset in itertools.combinations(datum.generators, k):
            result = classify_parabolic(datum, subset)
            entry = {"subset": list(result.subset), "kind": result.kind.value}
            if result.radical_vector is not None:
                entry["radical"] = [float(c) for c in result.radical_vector]
            classification.append(entry)
    text = _to_json_text({"poset": poset_to_json(poset),
                          "classification": classification})
    _emit(args, text, "json")
    return 0


def _cmd_cone_samples(args, datum: CoxeterDatum) -> int:
    samples = sample_imaginary_cone(datum, args.radius, args.samples, args.seed)
    text = _to_json_text(cone_samples_to_json(datum, samples))
    _emit(args, text, "json")
    return 0


def _cmd_davis(args, datum: CoxeterDatum) -> int:
    ball = build_davis_ball(datum, args.radius)
    text = _to_json_text(davis_ball_to_json(ball))
    _emit(args, text, "json")
    return 0


def _cmd_embed(args, datum: CoxeterDatum) -> int:
    if args.basepoint is not None:
        v0 = _parse_basepoint(datum, args.basepoint)
    else:
        v0 = find_interior_basepoint(datum)
    table = build_vertex_image_table(datum, v0=v0)
    ball = build_davis_ball(datum, args.radius)
    report = verify_embedding(datum, ball, table)
    text = _to_json_text({
        "basepoint": [float(c) for c in table.basepoint.coords],
        "cells": embedded_complex_to_json(datum, ball, table),
        "verification": report.to_json(),
    })
    _emit(args, text, "json")
    return 0 if report.all_passed else 1


def _cmd_check(args, datum: CoxeterDatum) -> int:
    results = run_all_checks(datum, depth=args.depth, radius=args.radius,
                             seed=args.seed)
    sys.stdout.write(render_check_table(results))
    return 1 if any(r.failed for r in results) else 0


_COMMANDS = {
    "roots": _cmd_roots,
    "normalized-roots": _cmd_normalized_roots,
    "limit-roots": _cmd_limit_roots,
    "parabolics": _cmd_parabolics,
    "cone-samples": _cmd_cone_samples,
    "davis": _cmd_davis,
    "embed": _cmd_embed,
    "check": _cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        datum = _load_datum(args.datum)
    except (OSError, ValueError, json.JSONDecodeError, CoxconeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, datum)
    except CoxconeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
