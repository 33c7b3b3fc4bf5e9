"""Coxeter data: generator set, bond matrix and the associated bilinear form.

The simple roots are always realized as the standard basis of R^n, so they
are linearly independent and the zero vector is never a nonnegative
combination of them.  The form has unit diagonal, entry -cos(pi/m) for a
finite bond of order m, and a user-supplied value c <= -1 (default -1) for
an infinite bond.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    AsymmetricEntry,
    DimensionMismatch,
    DuplicateGenerator,
    InvalidBond,
    InvalidInfiniteBondValue,
)
from .numeric import EPS, FORM_TOL, frozen

INFINITE = math.inf


def _pair(s: str, t: str) -> tuple[str, str]:
    return (s, t) if s <= t else (t, s)


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric bond matrix over a finite ordered generator set.

    `orders` maps unordered generator pairs to m_st (an int >= 2 or
    math.inf); omitted pairs default to 2.  `infinite_values` optionally
    overrides the form entry of an infinite bond with some c <= -1.
    """

    generators: tuple[str, ...]
    orders: Mapping[tuple[str, str], float] = field(default_factory=dict)
    infinite_values: Mapping[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if g in seen:
                raise DuplicateGenerator(f"generator {g!r} listed twice")
            seen.add(g)
        if not self.generators:
            raise InvalidBond("at least one generator is required")
        for (s, t), m in self.orders.items():
            if s not in seen or t not in seen:
                raise InvalidBond(f"bond ({s!r}, {t!r}) names an unknown generator")
            if (s, t) != _pair(s, t):
                raise AsymmetricEntry(f"bond key ({s!r}, {t!r}) is not in canonical order")
            if s == t:
                if m != 1:
                    raise InvalidBond(f"diagonal order for {s!r} must be 1, got {m}")
                continue
            if m != INFINITE and (not float(m).is_integer() or m < 2):
                raise InvalidBond(f"bond order m({s!r},{t!r}) = {m} must be an integer >= 2 or infinite")
        for (s, t), c in self.infinite_values.items():
            if self.order(s, t) != INFINITE:
                raise InvalidInfiniteBondValue(
                    f"form value given for ({s!r}, {t!r}) but the bond is finite")
            if c > -1.0:
                raise InvalidInfiniteBondValue(
                    f"infinite-bond form value c({s!r},{t!r}) = {c} must be <= -1")

    @property
    def rank(self) -> int:
        return len(self.generators)

    def order(self, s: str, t: str) -> float:
        """Bond order m_st; 1 on the diagonal, 2 when unspecified."""
        if s == t:
            return 1
        return self.orders.get(_pair(s, t), 2)

    def form_value(self, s: str, t: str) -> float:
        """Entry of the bilinear form for the pair (s, t)."""
        if s == t:
            return 1.0
        m = self.order(s, t)
        if m == INFINITE:
            return self.infinite_values.get(_pair(s, t), -1.0)
        if m == 2:
            return 0.0  # not -cos(pi/2) = -6.1e-17: commuting pairs commute exactly
        return -math.cos(math.pi / m)


@dataclass(frozen=True, eq=False)
class GramForm:
    """The symmetric bilinear form in the simple-root basis."""

    matrix: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, GramForm):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)

    def __post_init__(self):
        object.__setattr__(self, "matrix", frozen(self.matrix))
        b = self.matrix
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise InvalidBond("form matrix must be square")
        if np.max(np.abs(b - b.T)) > FORM_TOL:
            raise AsymmetricEntry("form matrix must be symmetric")
        if np.max(np.abs(np.diag(b) - 1.0)) > FORM_TOL:
            raise InvalidBond("form matrix must have unit diagonal")
        off = b[~np.eye(b.shape[0], dtype=bool)]
        if off.size and np.max(off) > FORM_TOL:
            raise InvalidBond("off-diagonal form entries must be <= 0")

    @classmethod
    def from_matrix(cls, cox: CoxeterMatrix) -> "GramForm":
        gens = cox.generators
        n = len(gens)
        b = np.empty((n, n))
        for i, s in enumerate(gens):
            for j, t in enumerate(gens):
                b[i, j] = cox.form_value(s, t)
        return cls(b)


@dataclass(frozen=True)
class CoxeterDatum:
    """A bond matrix together with its bilinear form and simple roots."""

    matrix: CoxeterMatrix
    form: GramForm

    def __post_init__(self):
        if self.form.matrix.shape[0] != self.matrix.rank:
            raise DimensionMismatch("form size does not match generator count")

    @property
    def rank(self) -> int:
        return self.matrix.rank

    @property
    def generators(self) -> tuple[str, ...]:
        return self.matrix.generators

    @property
    def gram(self) -> np.ndarray:
        return self.form.matrix

    def index(self, s: str) -> int:
        return self.generators.index(s)

    def simple_root(self, s: str) -> np.ndarray:
        e = np.zeros(self.rank)
        e[self.index(s)] = 1.0
        return e

    @cached_property
    def simple_reflections(self) -> np.ndarray:
        """Read-only stack of the simple reflection matrices, in generator
        order: r_s v = v - 2 (alpha_s, v) alpha_s changes coordinate s only."""
        eye = np.eye(self.rank)
        return frozen(eye - 2.0 * eye[:, :, None] * self.gram[:, None, :])

    @property
    def simple_roots(self) -> np.ndarray:
        """Rows are the simple roots (the standard basis)."""
        return np.eye(self.rank)

    def bilinear(self, v: np.ndarray, w: np.ndarray) -> float:
        """Evaluate the form; symmetric in its arguments."""
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        if v.shape != (self.rank,) or w.shape != (self.rank,):
            raise DimensionMismatch(
                f"expected vectors of length {self.rank}, got {v.shape} and {w.shape}")
        return float(v @ self.gram @ w)

    def wall_values(self, v: np.ndarray) -> np.ndarray:
        """All inner products (v, alpha_s) at once, in generator order."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.rank,):
            raise DimensionMismatch(f"expected a vector of length {self.rank}")
        return self.gram @ v

    def sort_subset(self, subset: Iterable[str]) -> tuple[str, ...]:
        """Subset as a tuple ordered like the generator list."""
        members = set(subset)
        unknown = members - set(self.generators)
        if unknown:
            raise InvalidBond(f"unknown generators {sorted(unknown)!r}")
        return tuple(g for g in self.generators if g in members)


def datum_from_coxeter_matrix(cox: CoxeterMatrix) -> CoxeterDatum:
    return CoxeterDatum(cox, GramForm.from_matrix(cox))


def make_datum(
    generators: Sequence[str],
    bonds: Iterable[tuple[str, str, float]] = (),
    infinite_bond_values: Iterable[tuple[str, str, float]] = (),
) -> CoxeterDatum:
    """Build a datum from bond triples; the programmatic twin of parse_datum."""
    doc = {
        "generators": list(generators),
        "bonds": [[s, t, ("inf" if m == INFINITE else m)] for s, t, m in bonds],
        "infinite_bond_values": [[s, t, c] for s, t, c in infinite_bond_values],
    }
    return datum_from_document(doc)


def _read_order(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return INFINITE
        raise InvalidBond(f"unrecognized bond order token {raw!r}")
    if raw == INFINITE:
        return INFINITE
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InvalidBond(f"bond order {raw!r} must be an integer or 'inf'")
    if isinstance(raw, float) and not raw.is_integer():
        raise InvalidBond(f"bond order {raw} must be an integer or 'inf'")
    return int(raw)


def datum_from_document(doc: Mapping) -> CoxeterDatum:
    """Build a datum from the key-value document format.

    Expected fields: `generators` (list of labels), `bonds` (triples
    [s, t, m] with m an integer >= 2 or the token "inf"), and optionally
    `infinite_bond_values` (triples [s, t, c] with c <= -1).
    """
    if "generators" not in doc:
        raise InvalidBond("document is missing the 'generators' field")
    generators = tuple(str(g) for g in doc["generators"])

    orders: dict[tuple[str, str], float] = {}
    for entry in doc.get("bonds", ()):
        if len(entry) != 3:
            raise InvalidBond(f"bond entry {entry!r} must be a triple [s, t, m]")
        s, t, raw = str(entry[0]), str(entry[1]), entry[2]
        m = _read_order(raw)
        key = _pair(s, t)
        if key in orders and orders[key] != m:
            raise AsymmetricEntry(
                f"bond ({s!r}, {t!r}) given twice with orders {orders[key]} and {m}")
        if s == t and m != 1:
            raise InvalidBond(f"diagonal order for {s!r} must be 1, got {m}")
        if s != t:
            orders[key] = m

    values: dict[tuple[str, str], float] = {}
    for entry in doc.get("infinite_bond_values", ()):
        if len(entry) != 3:
            raise InvalidInfiniteBondValue(
                f"form-value entry {entry!r} must be a triple [s, t, c]")
        s, t, c = str(entry[0]), str(entry[1]), float(entry[2])
        key = _pair(s, t)
        if key in values and values[key] != c:
            raise AsymmetricEntry(
                f"form value for ({s!r}, {t!r}) given twice: {values[key]} and {c}")
        values[key] = c

    cox = CoxeterMatrix(generators, orders, values)
    return datum_from_coxeter_matrix(cox)


def datum_to_document(datum: CoxeterDatum) -> dict:
    """Inverse of datum_from_document, in canonical field order."""
    cox = datum.matrix
    bonds = []
    for i, s in enumerate(cox.generators):
        for t in cox.generators[i + 1:]:
            m = cox.order(s, t)
            if m == 2:
                continue
            bonds.append([*_pair(s, t), "inf" if m == INFINITE else int(m)])
    values = [[s, t, float(c)] for (s, t), c in sorted(cox.infinite_values.items())]
    doc: dict = {"generators": list(cox.generators), "bonds": bonds}
    if values:
        doc["infinite_bond_values"] = values
    return doc


def parse_datum(text: str) -> CoxeterDatum:
    """Parse the JSON document format into a validated datum."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidBond(f"datum document is not valid JSON: {exc}") from exc
    if not isinstance(doc, Mapping):
        raise InvalidBond("datum document must be a JSON object")
    return datum_from_document(doc)


def serialize_datum(datum: CoxeterDatum) -> str:
    """Render a datum back to its document form; stable byte-for-byte."""
    return json.dumps(datum_to_document(datum), indent=2, sort_keys=False) + "\n"


def in_positive_cone(v: np.ndarray, tol: float = EPS) -> bool:
    """Whether v is a nonnegative combination of the simple roots with some
    strictly positive coefficient."""
    v = np.asarray(v, dtype=float)
    return bool(np.min(v) >= -tol and np.max(v) > tol)
