"""Datum documents for the benchmark: the named grid and seeded random draws.

Every document is in coxcone's JSON datum format.  Sizes (depth, radius)
are fixed from the datum alone, by its rank and its number of infinite
bonds, never from a program output.
"""

from __future__ import annotations

import itertools
import random

import oracles

BOND_CHOICES = (2, 3, 4, 5, 6, "inf")
C_RANGE = (-3.0, -1.0)   # infinite-bond values c of the random datums


def _doc(generators: str, bonds, values=()) -> dict:
    doc = {"generators": list(generators),
           "bonds": [[s, t, m] for s, t, m in bonds]}
    if values:
        doc["infinite_bond_values"] = [[s, t, c] for s, t, c in values]
    return doc


# The six test fixtures, then the rank-4 and finite datums of the roadmap.
NAMED = {
    "rank2_m3": _doc("st", [("s", "t", 3)]),
    "rank2_affine": _doc("st", [("s", "t", "inf")]),
    "rank2_hyper": _doc("st", [("s", "t", "inf")], [("s", "t", -1.5)]),
    "universal3": _doc("stu", [("s", "t", "inf"), ("s", "u", "inf"), ("t", "u", "inf")]),
    "triangle334": _doc("stu", [("s", "t", 3), ("t", "u", 3), ("s", "u", 4)]),
    "mixed3": _doc("stu", [("s", "t", 3), ("s", "u", "inf"), ("t", "u", "inf")]),
    "r4": _doc("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3), ("a", "d", "inf")]),
    "m3inf": _doc("stu", [("s", "t", 3), ("t", "u", 3), ("s", "u", "inf")],
                  [("s", "u", -20.0)]),
    "m3inf@-1": _doc("stu", [("s", "t", 3), ("t", "u", 3), ("s", "u", "inf")]),
    "B3": _doc("abc", [("a", "b", 4), ("b", "c", 3)]),
    "H3": _doc("abc", [("a", "b", 5), ("b", "c", 3)]),
    "A4": _doc("abcd", [("a", "b", 3), ("b", "c", 3), ("c", "d", 3)]),
}

# c-invariance pairs: the first datum's counts must equal the second's
C_TWINS = {"m3inf": "m3inf@-1"}


def infinite_bonds(doc: dict) -> int:
    return sum(1 for _, _, m in doc["bonds"] if m == "inf")


def random_datum(rng: random.Random, rank: int) -> dict:
    """Bonds drawn from BOND_CHOICES, c uniform in C_RANGE on infinite bonds."""
    gens = "abcd"[:rank]
    bonds = [(s, t, rng.choice(BOND_CHOICES)) for s, t in itertools.combinations(gens, 2)]
    values = [(s, t, round(rng.uniform(*C_RANGE), 6)) for s, t, m in bonds if m == "inf"]
    return _doc(gens, [b for b in bonds if b[2] != 2], values)


def random_infinite_rank3(rng: random.Random, n_infinite: int) -> dict:
    """Rank 3 with `n_infinite` infinite bonds, c uniform in C_RANGE, and
    order-3 bonds elsewhere, so the root and ball counts equal those of the
    c = -1 datum with the same bonds (m3inf@-1 or mixed3) whatever c is."""
    gens = "stu"
    pairs = list(itertools.combinations(gens, 2))
    infinite = set(rng.sample(range(3), n_infinite))
    bonds = [(s, t, "inf" if k in infinite else 3) for k, (s, t) in enumerate(pairs)]
    values = [(s, t, round(rng.uniform(*C_RANGE), 6)) for s, t, m in bonds if m == "inf"]
    return _doc(gens, bonds, values)


def random_applicable(rng: random.Random, rank: int) -> dict:
    """A random datum with an interior basepoint (irreducible, infinite,
    not affine), redrawn until it has one."""
    while True:
        doc = random_datum(rng, rank)
        if oracles.is_applicable(doc):
            return doc


def finite_longest(doc: dict) -> int | None:
    """Length of the longest element when the group is finite, else None."""
    m = oracles.order_matrix(doc)
    degrees = oracles.subset_degrees(m, range(len(m)))
    return None if degrees is None else oracles.positive_root_count(degrees)
