"""Job lists of the three workloads and the oracle verdict on each output.

A job is one `coxcone <command> --datum <file> ...` call.  Its verdict is a
list of assertions, each checked against the oracles in `oracles.py`; a job
fails when any assertion fails.  Failures that match a defect of the seed
code listed in KNOWN_DEFECTS are still counted, but do not make the run
incorrect.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

import datums
import oracles

WORKLOADS = ("enumerate", "embed", "check")

# Defects of the seed code that the workloads exercise on purpose.  They are
# counted as failures, never dropped.
KNOWN_DEFECTS = {
    "precision": "float dedup loses or invents roots and ball elements once "
                 "the headroom gauge passes 1 (m3inf at c=-20, random c at "
                 "depth 11)",
    "root-precision": "root-sign-dichotomy / root-norm-invariance rows FAIL "
                      "on datums with |c| above ROOT_C_LARGE or headroom "
                      "above 1 at the check depth",
    "probe-radius": "check treats 'closes within radius 8' as finiteness, so "
                    "it FAILs when a spherical subset's longest element has "
                    "length >= 8 (B3, H3, A4)",
    "affine-displacement": "check exits 2 (PreconditionViolated) when the "
                           "displacement sampler draws off the radical line "
                           "of an affine datum",
}

# Assertions a float-dedup error breaks: a lost or doubled root or element
# changes the counts, and a doubled chamber also leaves mirrors unpaired and
# frontier chambers inside the ball.  Only these, on an exit code of 0, are
# put down to `precision`.
PRECISION_ASSERTIONS = ("counts=exact", "ball=steinberg", "counts=twin",
                        "mirror-count", "frontier-outermost")
# The seed's root-norm-invariance row compares B(r, r) with 1 to 1e-8, an
# error that grows with the square of the root coordinates.  Over the first
# 160 seeds of the check workload (1,878 distinct random datums) it fails on
# random datums with some |c| >= 2.25 only.
ROOT_C_LARGE = 2.0
CHECK_DEPTH = 6   # root depth of the check rows (coxcone's default)


@dataclass
class Job:
    id: str
    datum: str            # key into the run's datum documents
    command: str
    size: dict            # {"depth": d} or {"radius": r}

    def argv(self, datum_path: str, out_path: str | None) -> list[str]:
        argv = [self.command, "--datum", datum_path]
        for key, value in self.size.items():
            argv += [f"--{key}", str(value)]
        if out_path is not None:
            argv += ["--out", out_path]
        return argv

    @property
    def writes_file(self) -> bool:
        return self.command != "check"


@dataclass
class Verdict:
    job: str
    assertions: list[tuple[str, bool, str]] = field(default_factory=list)
    known: str | None = None   # defect class explaining the failure, if any
    counts: list[int] | None = None   # per depth or length, for cross_check

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.assertions.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.assertions)

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" if detail else name
                for name, ok, detail in self.assertions if not ok]


# --- sizes, fixed from the datum alone ------------------------------------

def davis_radius(doc: dict) -> int:
    return 9 if len(doc["generators"]) == 3 and datums.infinite_bonds(doc) <= 1 else 8


# --- workloads --------------------------------------------------------------

# Depth of the roots jobs (limit-roots go one less): a pass then takes
# 5-7 s on the 2-vCPU host, so a 40 s run holds four passes or more.
ROOT_DEPTH = 11
ENUMERATE_NAMED = ("universal3", "mixed3", "triangle334", "r4", "m3inf", "m3inf@-1")
FINITE_NAMED = ("B3", "H3", "A4")
# r4 at radius 2, not 3: at 3 the job alone takes 4-6 s, longer than the
# reference probes around it can follow the host's speed (worker.py).  At 2
# it takes about 1.2 s and its separation array still sets the peak RSS.
EMBED_NAMED = (("triangle334", 4), ("universal3", 4), ("mixed3", 3), ("r4", 2))
CHECK_RANDOM = {3: 16, 4: 4}   # random datums of each rank in the check workload
# Draws are redrawn when they are bigger than these two sizes, so that the
# named grid, not the seed, sets the pass time and the peak memory:
#  - elements in the radius-8 subset balls the check suite's finiteness
#    probe enumerates (rank-4 draws above this range over 10x in time);
#  - cells of the radius-1 Davis ball, which the embedding row compares
#    pairwise (r4, in the named grid, has 455).
CHECK_PROBE_WORK = 1500
CHECK_CELLS = 455


def _check_sized(doc: dict) -> bool:
    rank = len(doc["generators"])
    return (oracles.subset_ball_elements(doc, oracles.PROBE_RADIUS) <= CHECK_PROBE_WORK
            and (rank + 1) * oracles.chain_count(doc) <= CHECK_CELLS)


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[Job]]:
    """Datum documents and the job list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    docs: dict[str, dict] = {}
    jobs: list[Job] = []
    if workload == "enumerate":
        for name in ENUMERATE_NAMED:
            docs[name] = datums.NAMED[name]
        for k, n_inf in enumerate((1, 2)):
            docs[f"rand{k}"] = datums.random_infinite_rank3(rng, n_inf)
        for name, doc in docs.items():
            jobs += [Job(f"roots:{name}", name, "roots", {"depth": ROOT_DEPTH}),
                     Job(f"limit-roots:{name}", name, "limit-roots", {"depth": ROOT_DEPTH - 1}),
                     Job(f"davis:{name}", name, "davis", {"radius": davis_radius(doc)})]
        for name in FINITE_NAMED:
            docs[name] = datums.NAMED[name]
            size = datums.finite_longest(docs[name]) + 1   # the whole group
            jobs += [Job(f"roots:{name}", name, "roots", {"depth": size}),
                     Job(f"davis:{name}", name, "davis", {"radius": size})]
    elif workload == "embed":
        for name, radius in EMBED_NAMED:
            docs[name] = datums.NAMED[name]
            jobs.append(Job(f"embed:{name}", name, "embed", {"radius": radius}))
        docs["rand0"] = datums.random_applicable(rng, 3)
        jobs.append(Job("embed:rand0", "rand0", "embed", {"radius": 3}))
    elif workload == "check":
        for name in datums.NAMED:
            docs[name] = datums.NAMED[name]
        k = 0
        for rank, count in CHECK_RANDOM.items():
            while count:
                doc = datums.random_datum(rng, rank)
                if _check_sized(doc):
                    docs[f"rand{k}"] = doc
                    k += 1
                    count -= 1
        for name in docs:
            jobs.append(Job(f"check:{name}", name, "check",
                            {"depth": CHECK_DEPTH, "radius": 1}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, jobs


# --- oracle facts per datum, computed once per run ---------------------------

class Facts:
    """Everything the verdicts need to know about one datum, from oracles."""

    def __init__(self, doc: dict, jobs: list[Job]):
        self.rank = len(doc["generators"])
        self.max_c = max((abs(c) for _, _, c in doc.get("infinite_bond_values", ())),
                         default=1.0 if datums.infinite_bonds(doc) else 0.0)
        self.gram = oracles.gram_matrix(doc)
        m = oracles.order_matrix(doc)
        degrees = oracles.subset_degrees(m, range(self.rank))
        self.order = None if degrees is None else oracles.group_order(degrees)
        self.positive_roots = None if degrees is None else oracles.positive_root_count(degrees)
        spherical = oracles.spherical_subsets(doc)
        self.longest_spherical = max(oracles.positive_root_count(d) for d in spherical.values())
        self.chains = oracles.chain_count(doc)
        self.applicable = oracles.is_applicable(doc)
        self.has_affine_subset = any(
            oracles.is_affine(doc, s) for k in range(1, self.rank + 1)
            for s in itertools.combinations(range(self.rank), k))
        self.full_affine = oracles.is_affine(doc, range(self.rank))
        radius = max([j.size.get("radius", 0) for j in jobs] + [1])
        self.growth = oracles.growth_series(doc, radius)
        # ball matrices of radius r hold root coordinates of depth <= r
        depth = max([j.size.get("depth", j.size.get("radius", 1)) for j in jobs] + [1])
        exact = oracles.exact_roots(doc, depth)
        self.root_counts, biggest = exact if exact else (None, math.nan)
        self.headroom = oracles.headroom(biggest, self.rank)


# --- verdicts ---------------------------------------------------------------

def _bilinear(gram, v, w) -> float:
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(v)) for j in range(len(w)))


def verify(job: Job, facts: Facts, code: int, text: str, err: str) -> Verdict:
    v = Verdict(job.id)
    check = {"roots": _verify_roots, "limit-roots": _verify_limit_roots,
             "davis": _verify_davis, "embed": _verify_embed,
             "check": _verify_check}[job.command]
    check(v, job, facts, code, text, err)
    return v


def settle(v: Verdict, job: Job, facts: Facts) -> None:
    """Name the known defect behind failed counts, once every assertion
    (the cross-job ones included) is in."""
    failed = [name for name, ok, _ in v.assertions if not ok]
    if failed and v.known is None and job.command in ("roots", "davis") \
            and facts.headroom > 1 \
            and all(name.split(":")[0] in PRECISION_ASSERTIONS for name in failed):
        v.known = "precision"


def _load(v: Verdict, code: int, text: str, err: str):
    v.add("exit", code == 0, f"exit {code}: {err.strip()[-200:]}")
    if code != 0:
        return None
    return json.loads(text)


def _histogram(values) -> list[int]:
    counts: list[int] = []
    for value in values:
        counts += [0] * (value + 1 - len(counts))
        counts[value] += 1
    return counts


def _verify_roots(v, job, facts, code, text, err):
    out = _load(v, code, text, err)
    if out is None:
        return
    roots = out["roots"]
    counts = v.counts = _histogram(r["depth"] for r in roots)
    v.add("depths-sorted", all(a["depth"] <= b["depth"] for a, b in zip(roots, roots[1:])))
    v.add("nonnegative", all(min(r["coords"]) >= -1e-9 * max(1.0, max(r["coords"]))
                             for r in roots))
    if facts.root_counts is not None:
        exact = facts.root_counts[:job.size["depth"] + 1]
        v.add("counts=exact", counts == exact, f"got {counts}, exact {exact}")
    if facts.positive_roots is not None:
        v.add("total=sum(d-1)", len(roots) == facts.positive_roots,
              f"got {len(roots)}, degrees give {facts.positive_roots}")


def _verify_limit_roots(v, job, facts, code, text, err):
    out = _load(v, code, text, err)
    if out is None:
        return
    estimates = out["estimates"]
    depth = job.size["depth"]
    v.add("nonempty", len(estimates) > 0)
    v.add("on-slice", all(abs(sum(e["point"]) - 1.0) <= 1e-9 for e in estimates))
    v.add("near-isotropic", all(abs(e["isotropy"]) <= 1e-3 for e in estimates))
    v.add("isotropy-recomputed", all(
        abs(_bilinear(facts.gram, e["point"], e["point"]) - e["isotropy"]) <= 1e-9
        for e in estimates))
    v.add("source-depth", all(e["source_depth"] in (depth - 1, depth) for e in estimates))
    if facts.root_counts is not None:
        deepest = sum(facts.root_counts[depth - 1:depth + 1])
        v.add("at-most-deep-roots", len(estimates) <= deepest,
              f"{len(estimates)} estimates from {deepest} roots")


def _verify_davis(v, job, facts, code, text, err):
    out = _load(v, code, text, err)
    if out is None:
        return
    radius = job.size["radius"]
    chambers = out["chambers"]
    counts = v.counts = _histogram(c["length"] for c in chambers)
    expected = list(facts.growth[:radius + 1])
    while expected and expected[-1] == 0:
        expected.pop()
    v.add("ball=steinberg", counts == expected, f"got {counts}, Steinberg {expected}")
    v.add("word-lengths", all(len(c["word"]) == c["length"] for c in chambers))
    v.add("simplices=chains", len(out["simplices"]) == facts.chains,
          f"{len(out['simplices'])} simplices, {facts.chains} chains")
    v.add("mirror-count",
          2 * len(out["adjacency"]) + len(out["frontier"]) == len(chambers) * facts.rank)
    top = max(c["length"] for c in chambers)
    v.add("frontier-outermost",
          all(chambers[f["chamber"]]["length"] == top for f in out["frontier"]))
    if facts.order is not None:
        v.add("order=prod(d)", len(chambers) == facts.order and not out["frontier"],
              f"{len(chambers)} chambers, degrees give {facts.order}")


def _verify_embed(v, job, facts, code, text, err):
    out = _load(v, code, text, err)
    if out is None:
        return
    radius = job.size["radius"]
    chambers = sum(facts.growth[:radius + 1])
    report = out["verification"]
    cells = out["cells"]
    v.add("verified", report["all_passed"])
    v.add("chambers=steinberg", report["chambers"] == chambers,
          f"{report['chambers']} chambers, Steinberg {chambers}")
    v.add("cells=chambers*chains",
          len(cells) == report["samples"] == chambers * facts.chains,
          f"{len(cells)} cells, {chambers} x {facts.chains} expected")
    base = out["basepoint"]
    walls = [sum(facts.gram[i][j] * base[j] for j in range(facts.rank))
             for i in range(facts.rank)]
    v.add("basepoint-interior", min(base) > 0 and max(walls) < 0
          and abs(sum(base) - 1.0) <= 1e-9)
    v.add("images-on-slice", all(abs(sum(c["image"]) - 1.0) <= 1e-9 for c in cells))
    v.add("images-nonpositive", all(
        _bilinear(facts.gram, c["image"], c["image"]) <= 1e-9 for c in cells))


def _expected_rows(facts: Facts) -> dict[str, str]:
    interior = "pass" if facts.applicable else "skip"
    return {
        "root-sign-dichotomy": "pass",
        "root-norm-invariance": "pass",
        "classification-vs-enumeration": "pass",
        "displacement": "pass",
        "averaging": interior,
        "wall-intersections": interior,
        "stabilizers": "pass" if facts.applicable or facts.has_affine_subset else "skip",
        "davis-ball": "pass",
        "embedding": interior,
    }


def _known_row_defect(row: str, facts: Facts) -> str | None:
    if row in ("root-sign-dichotomy", "root-norm-invariance"):
        return "root-precision" if facts.max_c > ROOT_C_LARGE or facts.headroom > 1 else None
    if row == "classification-vs-enumeration" and facts.longest_spherical >= oracles.PROBE_RADIUS:
        return "probe-radius"
    if row == "davis-ball" and facts.order is not None \
            and facts.positive_roots > oracles.PROBE_RADIUS:
        return "probe-radius"
    return None


def _verify_check(v, job, facts, code, text, err):
    expected = _expected_rows(facts)
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) >= 2:
            rows[parts[0]] = parts[1].lower()
    if code == 2:
        v.add("exit", False, f"exit 2: {err.strip()[-200:]}")
        if facts.full_affine and "PreconditionViolated" in err:
            v.known = "affine-displacement"
        return
    v.add("exit", code == (1 if "fail" in rows.values() else 0), f"exit {code}")
    v.add("rows", list(rows) == list(expected), f"rows {list(rows)}")
    known = set()
    for row, status in expected.items():
        got = rows.get(row)
        v.add(f"row:{row}", got == status, f"{got}, oracle expects {status}")
        if got != status:
            known.add(_known_row_defect(row, facts) if got == "fail" else None)
    if known and None not in known:
        v.known = "+".join(sorted(known))


def cross_check(verdicts: dict[str, Verdict]) -> None:
    """c-invariance: counts of a datum must equal those of its c = -1 twin."""
    for name, twin in datums.C_TWINS.items():
        for command in ("roots", "davis"):
            a = verdicts.get(f"{command}:{name}")
            b = verdicts.get(f"{command}:{twin}")
            if a is None or b is None:
                continue
            a.add(f"counts=twin:{twin}", a.counts == b.counts, f"{a.counts} vs {b.counts}")
