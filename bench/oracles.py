"""Independent oracles for coxcone outputs.

Nothing here imports coxcone.  Finiteness and Poincare polynomials come
from the degree table of finite irreducible Coxeter groups, ball sizes from
Steinberg's growth series, and root counts per depth from an exact
enumeration over Z[theta] (theta one of sqrt 2, sqrt 3, the golden ratio).  Root
depths are the same for every infinite-bond value c <= -1 (roots are in
bijection with reflections, and a simple reflection acts on them by
conjugation), so the exact enumeration always uses c = -1.

A datum here is a plain dict in coxcone's document format:
``{"generators": [...], "bonds": [[s, t, m], ...],
"infinite_bond_values": [[s, t, c], ...]}`` with m an int or "inf".
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

INF = math.inf
EPS = 1e-9          # coxcone's equality tolerance, which the gauge compares to
ULP = 2.0 ** -52
PROBE_RADIUS = 8    # radius at which the seed's check suite decides finiteness
AFFINE_TOL = 1e-10  # smallest eigenvalue of an affine form, up to rounding
ROOT_CAP = 100_000  # exact enumeration stops past this many roots


# --- Coxeter graph --------------------------------------------------------

def order_matrix(doc: dict) -> list[list[float]]:
    gens = list(doc["generators"])
    n = len(gens)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for s, t, raw in doc.get("bonds", ()):
        i, j = gens.index(s), gens.index(t)
        value = INF if raw == "inf" else int(raw)
        m[i][j] = m[j][i] = value
    return m


def gram_matrix(doc: dict) -> list[list[float]]:
    """The form: 1 on the diagonal, -cos(pi/m), or c on an infinite bond."""
    gens = list(doc["generators"])
    m = order_matrix(doc)
    n = len(gens)
    c = {}
    for s, t, value in doc.get("infinite_bond_values", ()):
        i, j = gens.index(s), gens.index(t)
        c[(i, j)] = c[(j, i)] = float(value)
    return [[1.0 if i == j else
             (c.get((i, j), -1.0) if m[i][j] == INF else -math.cos(math.pi / m[i][j]))
             for j in range(n)] for i in range(n)]


def components(m: list[list[float]], subset) -> list[list[int]]:
    """Connected components of the bond graph (edges where m >= 3)."""
    left = list(subset)
    out = []
    while left:
        comp = [left.pop(0)]
        grew = True
        while grew:
            grew = False
            for v in list(left):
                if any(m[v][u] >= 3 for u in comp):
                    comp.append(v)
                    left.remove(v)
                    grew = True
        out.append(sorted(comp))
    return out


# --- degree table ---------------------------------------------------------

def degrees_of_type(kind: str, n: int, m: int | None = None) -> tuple[int, ...]:
    """Degrees of the finite irreducible Coxeter group of the given type."""
    if kind == "A":
        return tuple(range(2, n + 2))
    if kind == "B":
        return tuple(range(2, 2 * n + 1, 2))
    if kind == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    if kind == "I":
        return (2, m)
    table = {("F", 4): (2, 6, 8, 12), ("H", 3): (2, 6, 10), ("H", 4): (2, 12, 20, 30)}
    return table[(kind, n)]


def irreducible_type(m: list[list[float]], comp: list[int]):
    """(kind, rank, m) of a connected finite Coxeter graph, or None when the
    group it generates is infinite.  Covers A_n, B_n, D_n, F4, H3, H4, I2(m),
    which is every finite type up to rank 5."""
    n = len(comp)
    if n == 1:
        return ("A", 1, None)
    edges = [(u, v, m[u][v]) for u, v in itertools.combinations(comp, 2) if m[u][v] >= 3]
    if any(label == INF for _, _, label in edges):
        return None
    if n == 2:
        label = int(edges[0][2])
        return ("A", 2, None) if label == 3 else ("I", 2, label)
    if len(edges) != n - 1:
        return None  # a connected graph with a cycle is never finite
    degree = {v: sum(v in (a, b) for a, b, _ in edges) for v in comp}
    heavy = [e for e in edges if e[2] > 3]
    if max(degree.values()) > 3 or sum(d == 3 for d in degree.values()) > 1:
        return None
    if max(degree.values()) == 3:
        if heavy:
            return None
        centre = next(v for v in comp if degree[v] == 3)
        arms = sorted(_arm_length(edges, centre, nb) for nb in _neighbours(edges, centre))
        if arms[0] == 1 and arms[1] == 1:
            return ("D", n, None)
        return None  # E6-E8 need rank >= 6; this table stops at rank 5
    # a path
    if not heavy:
        return ("A", n, None)
    if len(heavy) > 1:
        return None
    u, v, label = heavy[0]
    at_end = degree[u] == 1 or degree[v] == 1
    if label == 4 and at_end:
        return ("B", n, None)
    if label == 4 and n == 4:
        return ("F", 4, None)
    if label == 5 and at_end and n in (3, 4):
        return ("H", n, None)
    return None


def _neighbours(edges, v):
    return [b if a == v else a for a, b, _ in edges if v in (a, b)]


def _arm_length(edges, centre, start) -> int:
    length, prev, cur = 1, centre, start
    while True:
        nxt = [w for w in _neighbours(edges, cur) if w != prev]
        if not nxt:
            return length
        prev, cur, length = cur, nxt[0], length + 1


def subset_degrees(m: list[list[float]], subset) -> tuple[int, ...] | None:
    """Degrees of the parabolic subgroup on `subset`, or None if infinite."""
    out: list[int] = []
    for comp in components(m, subset):
        kind = irreducible_type(m, comp)
        if kind is None:
            return None
        out.extend(degrees_of_type(*kind))
    return tuple(out)


def group_order(degrees) -> int:
    return reduce(lambda a, b: a * b, degrees, 1)


def positive_root_count(degrees) -> int:
    """|Phi+| = sum(d_i - 1), which is also the length of the longest element."""
    return sum(d - 1 for d in degrees)


def spherical_subsets(doc: dict) -> dict[frozenset[int], tuple[int, ...]]:
    """Every subset (the empty one included) generating a finite group,
    with its degrees."""
    m = order_matrix(doc)
    n = len(m)
    out = {}
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            degrees = subset_degrees(m, subset)
            if degrees is not None:
                out[frozenset(subset)] = degrees
    return out


# --- integer power series -------------------------------------------------

def poincare(degrees) -> list[int]:
    """W(t) = prod (1 + t + ... + t^(d-1)) as a coefficient list."""
    poly = [1]
    for d in degrees:
        nxt = [0] * (len(poly) + d - 1)
        for i, a in enumerate(poly):
            for j in range(d):
                nxt[i + j] += a
        poly = nxt
    return poly


def series_inverse(poly: list[int], order: int) -> list[int]:
    """1/poly to t^order, for an integer polynomial with constant term 1."""
    inv = [0] * (order + 1)
    inv[0] = 1
    for k in range(1, order + 1):
        inv[k] = -sum(poly[i] * inv[k - i] for i in range(1, min(k, len(poly) - 1) + 1))
    return inv


def growth_series(doc: dict, order: int) -> list[int]:
    """Number of group elements of each length 0..order, from Steinberg's
    formula  1/W(t) = sum over spherical J of (-1)^|J| t^L_J / W_J(t),
    where L_J = deg W_J is the length of the longest element of W_J."""
    recip = [0] * (order + 1)
    for subset, degrees in spherical_subsets(doc).items():
        wj = poincare(degrees)
        shift = len(wj) - 1
        if shift > order:
            continue
        term = series_inverse(wj, order - shift)
        sign = -1 if len(subset) % 2 else 1
        for k, a in enumerate(term):
            recip[k + shift] += sign * a
    return series_inverse(recip, order)


def restrict(doc: dict, subset) -> dict:
    """The datum of the standard parabolic subgroup on `subset` (indices)."""
    gens = [doc["generators"][i] for i in sorted(subset)]
    keep = set(gens)
    return {"generators": gens,
            "bonds": [b for b in doc.get("bonds", ()) if b[0] in keep and b[1] in keep],
            "infinite_bond_values": [b for b in doc.get("infinite_bond_values", ())
                                     if b[0] in keep and b[1] in keep]}


def subset_ball_elements(doc: dict, radius: int) -> int:
    """Elements in the radius balls of every nonempty standard parabolic
    subgroup: the work of a finiteness probe at that radius."""
    n = len(doc["generators"])
    return sum(sum(growth_series(restrict(doc, subset), radius))
               for k in range(1, n + 1)
               for subset in itertools.combinations(range(n), k))


def chain_count(doc: dict) -> int:
    """Simplices of the fundamental chamber: chains of spherical subsets
    under strict inclusion."""
    subsets = sorted(spherical_subsets(doc), key=len)
    ending: dict[frozenset[int], int] = {}
    for j in subsets:
        ending[j] = 1 + sum(ending[i] for i in ending if i < j)
    return sum(ending.values())


# --- classification used by the check suite -------------------------------

def _min_eigenvalue(gram: list[list[float]], subset) -> float:
    idx = list(subset)
    sub = np.array([[gram[i][j] for j in idx] for i in idx])
    return float(np.linalg.eigvalsh(sub)[0])


def is_affine(doc: dict, subset) -> bool:
    """Irreducible affine: connected, infinite and positive semidefinite."""
    m = order_matrix(doc)
    subset = list(subset)
    if len(components(m, subset)) != 1 or subset_degrees(m, subset) is not None:
        return False
    return _min_eigenvalue(gram_matrix(doc), subset) >= -AFFINE_TOL


def is_applicable(doc: dict) -> bool:
    """Irreducible, infinite and not affine: an interior basepoint exists."""
    m = order_matrix(doc)
    everything = range(len(m))
    return (len(components(m, everything)) == 1
            and subset_degrees(m, everything) is None
            and not is_affine(doc, everything))


# --- exact roots over Z[theta] --------------------------------------------

class Ring:
    """Z[theta] with theta^2 = p + q theta; elements are (a, b) = a + b theta."""

    def __init__(self, p: int, q: int, radicand: int):
        self.p, self.q, self.radicand = p, q, radicand

    def mul(self, x, y):
        a, b = x
        c, d = y
        bd = b * d
        return (a * c + self.p * bd, a * d + b * c + self.q * bd)

    def sign(self, x) -> int:
        """Exact sign of a + b theta."""
        a, b = x
        if self.q:  # theta = (1 + sqrt r)/2:  2x = (2a + b) + b sqrt r
            a, b = 2 * a + b, b
        if a >= 0 and b >= 0:
            return 0 if a == b == 0 else 1
        if a <= 0 and b <= 0:
            return -1
        lhs, rhs = a * a, self.radicand * b * b
        if lhs == rhs:
            return 0
        return (1 if a > 0 else -1) if lhs > rhs else (1 if b > 0 else -1)


_RINGS = {4: Ring(2, 0, 2), 6: Ring(3, 0, 3), 5: Ring(1, 1, 5)}


def _twice_cos(m: float, ring: Ring | None):
    """2 cos(pi/m) in the ring, or None if it does not lie there."""
    if m == 2:
        return (0, 0)
    if m == 3:
        return (1, 0)
    if m == INF:
        return (2, 0)
    if ring is not None and _RINGS.get(m) is ring:
        return (0, 1)  # sqrt 2, the golden ratio or sqrt 3
    return None


def exact_ring(doc: dict) -> Ring | None:
    """The ring holding every 2 cos(pi/m), or None when bonds need two rings."""
    labels = {int(x) for row in order_matrix(doc) for x in row if x not in (1, 2, 3, INF)}
    if not labels:
        return _RINGS[4]  # plain integers; any ring holds them
    if len(labels) == 1 and next(iter(labels)) in _RINGS:
        return _RINGS[next(iter(labels))]
    return None


def exact_roots(doc: dict, depth: int):
    """Positive roots by breadth-first depth, found in exact arithmetic.

    Returns (counts per depth, largest |coordinate| under the datum's own
    form), or None when the bonds need two of sqrt 2, sqrt 3 and the golden
    ratio.  The levels
    are those of coxcone's generate_roots: level 0 holds the simple roots,
    level d the positive images of level d-1 under simple reflections that
    were not seen before.  The search runs at c = -1, which has the same
    levels; each root also carries a float twin reached by the same
    reflections under the datum's own c, whose size is the precision gauge.
    """
    ring = exact_ring(doc)
    if ring is None:
        return None
    m = order_matrix(doc)
    gram = gram_matrix(doc)
    n = len(m)
    # 2 (alpha_i, alpha_j) at c = -1 as ring elements, and under the real form
    form = [[(2, 0) if i == j else tuple(-x for x in _twice_cos(m[i][j], ring))
             for j in range(n)] for i in range(n)]
    twice = [[2.0 * g for g in row] for row in gram]
    zero = (0, 0)
    frontier = []
    for i in range(n):
        frontier.append((tuple((1, 0) if k == i else zero for k in range(n)),
                         tuple(1.0 if k == i else 0.0 for k in range(n))))
    seen = {beta for beta, _ in frontier}
    counts = [n]
    biggest = 1.0
    for _ in range(depth):
        fresh = []
        for beta, twin in frontier:
            for i in range(n):
                k = zero
                for j in range(n):
                    if beta[j] != zero:
                        prod = ring.mul(form[i][j], beta[j])
                        k = (k[0] + prod[0], k[1] + prod[1])
                if k == zero:
                    continue
                gamma = list(beta)
                gamma[i] = (beta[i][0] - k[0], beta[i][1] - k[1])
                gamma = tuple(gamma)
                if gamma in seen or any(ring.sign(x) < 0 for x in gamma):
                    continue
                seen.add(gamma)
                shifted = list(twin)
                shifted[i] -= sum(twice[i][j] * twin[j] for j in range(n))
                fresh.append((gamma, tuple(shifted)))
        if not fresh:
            break
        counts.append(len(fresh))
        if sum(counts) > ROOT_CAP:
            raise OverflowError(f"exact root enumeration passed {ROOT_CAP} roots")
        biggest = max(biggest, max(abs(x) for _, twin in fresh for x in twin))
        frontier = fresh
    return counts, biggest


def headroom(max_abs: float, rank: int) -> float:
    """Rounding error of a coordinate of size max_abs after rank-term
    products, over the equality tolerance.  Above 1, two computations of
    one root or element can disagree by more than EPS."""
    return max_abs * rank * ULP / EPS
