"""Spans and counters recorded around calls into coxcone's public functions.

No file of coxcone changes: `install` rebinds each listed function, in
every coxcone module that has bound it, to a wrapper that records a span,
and `uninstall` puts the originals back.  A span's self time is its
duration minus the time its child spans cover, so the self times of all
layers, with the tracer's own work counting (`count_s`), add up to the
time spent inside the outermost spans.

Spans of the listed coarse functions are kept one by one and written as
JSON lines; the fine functions (called thousands of times per job) are
kept as one aggregate line per job and function.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "datum", "reflections", "normalize", "parabolic", "cone",
          "davis", "embedding", "checks")


# (module, function, layer, group, kind)
#   group: the per-layer metric prefix; nested calls within one group are
#   counted once, by their outermost call.
#   kind: "span" keeps every call as a span line; "agg" and "leaf" keep one
#   aggregate line per job.  A leaf calls no other listed function, so its
#   wrapper needs no frame of its own, which keeps the cost of functions
#   called ~10^5 times per pass low.
SPECS = (
    ("cli", "main", "cli", "main", "span"),
    ("cli", "_emit", "cli", "emit", "span"),
    ("cli", "_to_json_text", "cli", "emit", "span"),
    ("cli", "_csv_from_records", "cli", "emit", "span"),
    ("datum", "parse_datum", "datum", "parse", "span"),
    ("reflections", "generate_roots", "reflections", "roots", "span"),
    ("reflections", "enumerate_ball", "reflections", "ball", "span"),
    ("reflections", "parabolic_closure", "reflections", "ball", "span"),
    ("reflections", "element_from_word", "reflections", "word", "agg"),
    ("reflections", "length_and_descents", "reflections", "word", "agg"),
    ("normalize", "normalized_roots_by_level", "normalize", "normalized_roots", "span"),
    ("normalize", "approximate_limit_roots", "normalize", "limit_roots", "span"),
    ("normalize", "dot_act", "normalize", "dot_act", "leaf"),
    ("parabolic", "classify_parabolic", "parabolic", "classify", "leaf"),
    ("parabolic", "enumerate_spherical_poset", "parabolic", "poset", "span"),
    ("parabolic", "enumerate_finite_parabolic_elements", "parabolic", "finite_elements", "span"),
    ("cone", "find_interior_basepoint", "cone", "basepoint", "span"),
    ("feasible", "solve_lp", "cone", "lp", "span"),
    ("cone", "average_over_parabolic", "cone", "average", "span"),
    ("cone", "verify_stabilizer", "cone", "stabilizer", "span"),
    ("cone", "displacement_violation", "cone", "displacement", "span"),
    ("cone", "check_displacement", "cone", "displacement", "span"),
    ("cone", "sample_wall_dominated", "cone", "sample", "span"),
    ("cone", "hyperplane_meets_chamber", "cone", "wall_meet", "span"),
    ("cone", "sample_imaginary_cone", "cone", "sample", "span"),
    ("davis", "build_davis_ball", "davis", "build", "span"),
    ("davis", "ball_cells", "davis", "cells", "span"),
    ("davis", "canonicalize_cell", "davis", "canonicalize", "agg"),
    ("davis", "minimal_coset_matrix", "davis", "coset", "leaf"),
    ("embedding", "build_vertex_image_table", "embedding", "table", "span"),
    ("embedding", "verify_embedding", "embedding", "verify", "span"),
    ("embedding", "embedded_complex_to_json", "embedding", "json", "span"),
    ("embedding", "embed_cell", "embedding", "embed_cell", "agg"),
    ("checks", "check_sign_dichotomy", "checks", "root-sign-dichotomy", "span"),
    ("checks", "check_root_norms", "checks", "root-norm-invariance", "span"),
    ("checks", "check_classification_vs_enumeration", "checks",
     "classification-vs-enumeration", "span"),
    ("checks", "check_displacement", "checks", "displacement", "span"),
    ("checks", "check_averaging", "checks", "averaging", "span"),
    ("checks", "check_wall_intersections", "checks", "wall-intersections", "span"),
    ("checks", "check_stabilizers", "checks", "stabilizers", "span"),
    ("checks", "check_davis_ball", "checks", "davis-ball", "span"),
    ("checks", "check_embedding", "checks", "embedding", "span"),
)

CHECK_ROWS = tuple(group for _, _, layer, group, _ in SPECS if layer == "checks")


class Tracer:
    """Spans and counters of the traced passes, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []   # frames: [start, child time, span id]
        self._open: dict[str, int] = defaultdict(int)
        self._aggregates: dict[str, tuple[str, str, list]] = {}  # name -> layer, key, stat
        self._next_id = 0
        self._pass = -1
        self.job = None
        self.reset()

    # -- per pass and per job ----------------------------------------------

    def reset(self) -> None:
        """Start a new pass: zero every counter (spans are kept)."""
        self._pass += 1
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.count_s = 0.0   # the tracer's own work counting, inside cli.main
        self._distinct_cells = 0

    def start_job(self, job: str | None) -> None:
        """Fold the aggregated calls of the previous job into the pass
        counters and its span lines, then label later spans with `job`."""
        for name, (layer, key, stat) in self._aggregates.items():
            calls, outer_calls, busy, own = stat
            if not calls:
                continue
            self.spans.append({"pass": self._pass, "job": self.job, "name": name,
                               "layer": layer, "calls": calls, "busy_s": busy,
                               "self_s": own, "aggregate": True})
            self.layer_self[layer] += own
            self.calls[key] += outer_calls
            self.busy[key] += busy
            stat[:] = [0, 0, 0.0, 0.0]
        self.job = job

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        package = [m for name, m in sys.modules.items()
                   if name == "coxcone" or name.startswith("coxcone.")]
        for module_name, func_name, layer, group, kind in SPECS:
            original = getattr(sys.modules[f"coxcone.{module_name}"], func_name)
            name = f"{module_name}.{func_name}"
            wrapper = (self._leaf(original, name, layer, group) if kind == "leaf"
                       else self._frame(original, name, layer, group, kind == "span"))
            wrapper.__wrapped__ = original
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    # -- wrappers ---------------------------------------------------------

    def _leaf(self, func, name: str, layer: str, group: str):
        stat = [0, 0, 0.0, 0.0]   # calls, outermost calls, busy, self
        self._aggregates[name] = (layer, f"{layer}.{group}", stat)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - start
                stat[0] += 1
                stat[1] += 1
                stat[2] += duration
                stat[3] += duration
                if stack:
                    stack[-1][1] += duration

        return traced

    def _frame(self, func, name: str, layer: str, group: str, keep: bool):
        key = f"{layer}.{group}"
        clock = time.perf_counter
        stack = self._stack
        opened = self._open
        stat = None
        if not keep:
            stat = [0, 0, 0.0, 0.0]
            self._aggregates[name] = (layer, key, stat)

        def traced(*args, **kwargs):
            outermost = opened[key] == 0
            opened[key] += 1
            parent = stack[-1][2] if stack else None
            if keep:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[key] -= 1
                duration = end - frame[0]
                own = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if keep:
                    self.layer_self[layer] += own
                    if outermost:
                        self.calls[key] += 1
                        self.busy[key] += duration
                    self.spans.append({"pass": self._pass, "job": self.job,
                                       "id": span_id, "parent": parent,
                                       "name": name, "layer": layer,
                                       "start": frame[0], "end": end,
                                       "self_s": own})
                else:
                    stat[0] += 1
                    stat[1] += outermost
                    stat[2] += duration if outermost else 0.0
                    stat[3] += own
            if keep:
                # work counting is the tracer's own cost: it is charged to
                # count_s, not to the caller's self time
                start = clock()
                self._count(key, args, result)
                cost = clock() - start
                self.count_s += cost
                if stack:
                    stack[-1][1] += cost
            return result

        return traced

    def _count(self, key: str, args, result) -> None:
        """Work counts, taken from what the call returned."""
        work = self.work
        if key == "reflections.roots":
            work["reflections.roots"] += len(result)
        elif key == "reflections.ball":
            work["reflections.ball_elements"] += len(result)
        elif key == "normalize.limit_roots":
            work["normalize.limit_estimates"] += len(result)
        elif key == "parabolic.poset":
            work["parabolic.spherical_subsets"] += len(result.elements)
        elif key == "davis.build":
            work["davis.chambers"] += len(result.elements)
        elif key == "davis.cells":
            work["davis.cells"] += len(result)
            self._distinct_cells = len({(c.element.word, c.point.carrier)
                                        for c in result})
        elif key == "embedding.verify":
            n = self._distinct_cells
            rank = args[0].rank
            work["embedding.verified_pairs"] += result.chambers * result.samples
            work["embedding.separation_pairs"] += n * n
            work["embedding.separation_bytes"] += n * n * rank * 8
        elif key.startswith("checks."):
            work["checks.fail_rows"] += result.status == "fail"
            work["checks.skip_rows"] += result.status == "skip"

    # -- per-pass metrics -------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass since the last reset."""
        out: dict[str, float] = {}
        c, b, w = self.calls, self.busy, self.work
        out["datum.parse_s"] = b["datum.parse"]
        out["datum.parse_calls"] = c["datum.parse"]
        out["reflections.roots_s"] = b["reflections.roots"]
        out["reflections.roots"] = w["reflections.roots"]
        out["reflections.ball_s"] = b["reflections.ball"]
        out["reflections.ball_elements"] = w["reflections.ball_elements"]
        out["reflections.word_calls"] = c["reflections.word"]
        out["reflections.word_s"] = b["reflections.word"]
        out["normalize.limit_roots_s"] = b["normalize.limit_roots"]
        out["normalize.limit_estimates"] = w["normalize.limit_estimates"]
        out["normalize.dot_act_calls"] = c["normalize.dot_act"]
        out["normalize.dot_act_s"] = b["normalize.dot_act"]
        out["parabolic.classify_calls"] = c["parabolic.classify"]
        out["parabolic.classify_s"] = b["parabolic.classify"]
        out["parabolic.poset_s"] = b["parabolic.poset"]
        out["parabolic.spherical_subsets"] = w["parabolic.spherical_subsets"]
        out["cone.basepoint_s"] = b["cone.basepoint"]
        out["cone.lp_fallbacks"] = c["cone.lp"]
        out["cone.average_s"] = b["cone.average"]
        out["cone.stabilizer_s"] = b["cone.stabilizer"]
        out["cone.displacement_s"] = b["cone.displacement"]
        out["davis.build_s"] = b["davis.build"]
        out["davis.chambers"] = w["davis.chambers"]
        out["davis.cells"] = w["davis.cells"]
        out["davis.canonicalize_calls"] = c["davis.canonicalize"]
        out["davis.coset_calls"] = c["davis.coset"]
        out["davis.coset_s"] = b["davis.coset"]
        out["embedding.table_s"] = b["embedding.table"]
        out["embedding.verify_s"] = b["embedding.verify"]
        out["embedding.verified_pairs"] = w["embedding.verified_pairs"]
        out["embedding.separation_pairs"] = w["embedding.separation_pairs"]
        out["embedding.separation_bytes"] = w["embedding.separation_bytes"]
        out["embedding.json_s"] = b["embedding.json"]
        for row in CHECK_ROWS:
            out[f"checks.{row}_s"] = b[f"checks.{row}"]
        out["checks.fail_rows"] = w["checks.fail_rows"]
        out["checks.skip_rows"] = w["checks.skip_rows"]
        out["cli.emit_s"] = b["cli.emit"]
        out["trace.count_s"] = self.count_s
        total = sum(self.layer_self.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.self_share"] = self.layer_self[layer] / total if total else 0.0
        return out

    def write(self, path) -> None:
        """All spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
