"""Shared fixtures: the six standing datums, r4, a random-datum strategy
and the acceptance line recorder."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import assume, note, settings
from hypothesis import strategies as st

from coxcone import find_interior_basepoint, make_datum, serialize_datum
from coxcone.errors import NotApplicable

INF = math.inf

# reproducible runs that leave no example database behind
settings.register_profile("coxcone", derandomize=True, database=None, deadline=None)
settings.load_profile("coxcone")


def rank2_m3():
    return make_datum(["s", "t"], [("s", "t", 3)])


def rank2_affine():
    return make_datum(["s", "t"], [("s", "t", INF)])


def rank2_hyper():
    return make_datum(["s", "t"], [("s", "t", INF)], [("s", "t", -1.5)])


def universal3():
    return make_datum(
        ["s", "t", "u"],
        [("s", "t", INF), ("s", "u", INF), ("t", "u", INF)],
    )


def triangle334():
    return make_datum(
        ["s", "t", "u"],
        [("s", "t", 3), ("t", "u", 3), ("s", "u", 4)],
    )


def mixed3():
    return make_datum(
        ["s", "t", "u"],
        [("s", "t", 3), ("s", "u", INF), ("t", "u", INF)],
    )


FIXTURE_BUILDERS = {
    "rank2_m3": rank2_m3,
    "rank2_affine": rank2_affine,
    "rank2_hyper": rank2_hyper,
    "universal3": universal3,
    "triangle334": triangle334,
    "mixed3": mixed3,
}

# Fixtures whose group is infinite, irreducible, and not affine: these are the
# ones with an interior basepoint, hence the ones cone/embedding work applies to.
APPLICABLE = ["rank2_hyper", "universal3", "triangle334", "mixed3"]


def r4():
    return make_datum(["a", "b", "c", "d"],
                      [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", INF)])


def _has_interior(datum) -> bool:
    try:
        find_interior_basepoint(datum)
    except NotApplicable:
        return False
    return True


@st.composite
def applicable_datums(draw):
    """Random datums with an interior basepoint, drawn like the benchmark's
    `random_applicable`: rank 3 or 4, every bond from {2, ..., 6, inf}, and
    c in [-50, -1] on each infinite bond.  A failing example prints the
    datum as JSON, ready for `coxcone check --datum`."""
    gens = "abcd"[:draw(st.integers(3, 4))]
    bonds = [(s, t, draw(st.sampled_from((2, 3, 4, 5, 6, INF))))
             for s, t in itertools.combinations(gens, 2)]
    values = [(s, t, draw(st.floats(-50.0, -1.0))) for s, t, m in bonds if m == INF]
    datum = make_datum(gens, [b for b in bonds if b[2] != 2], values)
    assume(_has_interior(datum))
    note(serialize_datum(datum))
    return datum


@pytest.fixture(scope="session")
def datums():
    return {name: build() for name, build in FIXTURE_BUILDERS.items()}


@pytest.fixture(scope="session")
def m3(datums):
    return datums["rank2_m3"]


@pytest.fixture(scope="session")
def aff(datums):
    return datums["rank2_affine"]


@pytest.fixture(scope="session")
def hyp(datums):
    return datums["rank2_hyper"]


@pytest.fixture(scope="session")
def uni(datums):
    return datums["universal3"]


@pytest.fixture(scope="session")
def tri(datums):
    return datums["triangle334"]


@pytest.fixture(scope="session")
def mix(datums):
    return datums["mixed3"]


ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d} [{status}] {title}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
