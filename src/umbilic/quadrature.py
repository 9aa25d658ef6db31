"""Deterministic quadrature on the unit sphere S^{n-1}.

`QuadratureRule.sphere(n, degree)` integrates polynomials of total degree
<= `degree` essentially to machine precision, in any dimension n >= 2: the
rule of degree d is the rule of half-degree d // 2, exact to 2 (d // 2) + 1,
in both families.  Below SYMMETRIC_FROM it is a product rule in spherical
coordinates: Gauss-Jacobi nodes in each polar angle (the sin-power
surface-measure factor is absorbed exactly into the Jacobi weight), from one
eigendecomposition of the Jacobi matrix (Golub-Welsch), and a trapezoid rule
in the final azimuth, exact for trigonometric polynomials of degree below
the point count.  From SYMMETRIC_FROM on it is a fully symmetric rule
(Stroud, Approximate Calculation of Multiple Integrals, 1971; Genz,
J. Comput. Appl. Math. 157, 2003): the orbits under coordinate permutations
and sign changes of the points (sqrt(p_1/k), ..., sqrt(p_m/k), 0, ...) for
the partitions p of k, one exact rational weight per orbit, some negative.
Each rule is built once per process and shared as read-only arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np


def sphere_area(n: int) -> float:
    """|S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def sphere_directions(n: int, count: int = 32, seed: int = 0) -> np.ndarray:
    """Deterministic direction grid on S^{n-1}: the signed coordinate axes
    plus `count` seeded pseudo-random unit directions."""
    axes = np.vstack([np.eye(n), -np.eye(n)])
    rng = np.random.default_rng(seed)
    extra = rng.standard_normal((count, n))
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    return np.vstack([axes, extra])


def _gauss_jacobi(m: int, alpha: float):
    """The m-point Gauss rule for the weight (1 - u^2)^alpha on [-1, 1].

    Golub-Welsch: one eigendecomposition of the symmetric tridiagonal Jacobi
    matrix gives the nodes (its eigenvalues) and the weights (the squared
    first components of its unit eigenvectors, times
    mu_0 = 2^(2 alpha + 1) Gamma(alpha + 1)^2 / Gamma(2 alpha + 2)).  Nodes
    and weights are symmetrized about 0, as the rule is, and the weights
    scaled to sum to mu_0.
    """
    k = np.arange(1.0, m)
    off = np.sqrt(k * (k + 2 * alpha) / ((2 * k + 2 * alpha + 1) * (2 * k + 2 * alpha - 1)))
    u, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    u, w = (u - u[::-1]) / 2.0, (w + w[::-1]) / 2.0
    mu0 = 2.0 ** (2 * alpha + 1) * math.gamma(alpha + 1) ** 2 / math.gamma(2 * alpha + 2)
    return u, w * (mu0 / w.sum())


def _product_rule(n: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (N, n) and weights (N,) of the product rule of half-degree j,
    exact to degree 2j + 1: 2 (j + 1)^(n - 1) nodes."""
    m = j + 1  # Gauss points per polar angle
    # Azimuth count: even (so odd monomials cancel exactly by symmetry)
    # and > 2j + 1 (trapezoid exactness for trigonometric polynomials).
    M = 2 * (j + 1)
    # Start from the azimuth circle in the last two coordinates.
    phi = 2.0 * math.pi * np.arange(M) / M
    nodes = np.column_stack([np.cos(phi), np.sin(phi)])
    weights = np.full(M, 2.0 * math.pi / M)
    # Prepend polar angles: x = (cos(t), sin(t) * previous), with the
    # measure factor sin(t)^{d-1} for current sphere dimension d.
    dim = 2
    while dim < n:
        # u = cos t: sin(t)^(dim-1) dt = (1-u^2)^alpha du, alpha = (dim-2)/2
        u, w = _gauss_jacobi(m, (dim - 2) / 2.0)
        s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        # one block of the previous nodes per polar node u_i
        new_nodes = np.empty((len(u), len(nodes), dim + 1))
        new_nodes[:, :, 0] = u[:, None]
        np.multiply(s[:, None, None], nodes, out=new_nodes[:, :, 1:])
        nodes = new_nodes.reshape(-1, dim + 1)
        weights = np.outer(w, weights).ravel()
        dim += 1
    return nodes, weights


def _partitions(k: int, parts: int, largest: Optional[int] = None) -> Iterator[Tuple[int, ...]]:
    """The partitions of k into at most `parts` parts, as descending tuples."""
    if k == 0:
        yield ()
    elif parts:
        for first in range(min(k, largest or k), 0, -1):
            for rest in _partitions(k - first, parts - 1, first):
                yield (first,) + rest


def _distinct_permutations(values: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Every distinct ordering of the multiset of values, in lexicographic
    order: each distinct value in turn, ahead of the orderings of the rest."""
    if len(values) <= 1:
        return [values]
    out = []
    for v in sorted(set(values)):
        i = values.index(v)
        out += [(v,) + rest for rest in _distinct_permutations(values[:i] + values[i + 1:])]
    return out


def _bareiss_solve(a: List[List[int]], b: List[int]) -> Tuple[List[int], int]:
    """(x, det) with a x = b det, for a nonsingular integer matrix a: the
    fraction-free Gauss-Jordan elimination of Bareiss, in which every entry
    stays an integer (a minor of [a | b]), so each division is exact, and
    the last pivot is det a up to the sign of the row swaps."""
    rows = [list(r) + [bi] for r, bi in zip(a, b)]
    prev = 1
    for k in range(len(rows)):
        pivot = next(i for i in range(k, len(rows)) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        p, top = rows[k][k], rows[k]
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
    return [r[-1] for r in rows], prev


def _symmetric_orbits(n: int, k: int) -> Dict[Tuple[int, ...], Tuple[np.ndarray, Fraction]]:
    """The fully symmetric rule of degree 2k + 1 on S^{n-1}, by generator.

    For each partition p of k with at most n parts: the distinct
    coordinate permutations of (p, 0, ...) as integer rows (the squared
    coordinates of the generator, times k), and the weight of each node of
    its orbit in units of |S^{n-1}|.  The weights solve the square system
    that matches avg(x^(2q)) for every partition q of k with at most n
    parts, in integers over k^k; on the sphere |x|^2 = 1 lifts every lower
    even degree to 2k, and odd monomials cancel by sign symmetry, so the
    rule is exact to degree 2k + 1.
    """
    parts = list(_partitions(k, n))
    pad = [p + (0,) * (n - len(p)) for p in parts]
    # Entries are at most 2^n |orbit| k^k: int64 holds them for k <= 10.
    dtype = np.int64 if k <= 10 else object
    rows = [np.array(_distinct_permutations(p), dtype=dtype) for p in pad]
    expo = np.array(pad, dtype=dtype)
    # matrix[q][p] = k^k * (the sum of x^(2q) over the orbit of p)
    cols = [2 ** len(p) * (r[:, None, :] ** expo[None, :, :]).prod(axis=2).sum(axis=0)
            for p, r in zip(parts, rows)]
    matrix = [[int(c[i]) for c in cols] for i in range(len(parts))]
    # avg(x^(2q)) = prod_i (2 q_i - 1)!! / prod_{j=1}^{k} (n + 2j - 2), the
    # closed form of obstruction.sphere_integral; the denominator is common
    den = math.prod(n + 2 * j - 2 for j in range(1, k + 1))
    rhs = [k ** k * math.prod(math.prod(range(2 * qi - 1, 0, -2)) for qi in q) for q in parts]
    x, det = _bareiss_solve(matrix, rhs)
    return {p: (r, Fraction(xi, det * den)) for p, r, xi in zip(parts, rows, x)}


def _symmetric_rule(n: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes (N, n) and weights (N,) of the fully symmetric rule of degree
    2k + 1, k >= 1."""
    area = sphere_area(n)
    nodes, weights = [], []
    for p, (rows, w) in _symmetric_orbits(n, k).items():
        m, z = len(rows), len(p)
        rows = rows.astype(float)
        at = np.nonzero(rows)[1].reshape(m, z)  # the nonzero coordinates of each row
        signs = 1.0 - 2.0 * ((np.arange(2 ** z)[:, None] >> np.arange(z)) & 1)
        orbit = np.zeros((m, 2 ** z, n))
        orbit[np.arange(m)[:, None, None], np.arange(2 ** z)[None, :, None], at[:, None, :]] = \
            np.sqrt(np.take_along_axis(rows, at, axis=1) / k)[:, None, :] * signs
        nodes.append(orbit.reshape(-1, n))
        weights.append(np.full(m * 2 ** z, float(w) * area))
    return np.concatenate(nodes), np.concatenate(weights)


# The family sphere() builds, by dimension.  Node counts of the rule at the
# default_degree cap, and for the symmetric rule sum|w| / |S^{n-1}|, the
# factor by which its signed weights amplify rounding:
#
#   n   product rule   symmetric rule
#   3            578   1,026 (212)
#   4          9,826   11,008 (383)
#   5         29,282   14,002 (20.4)
#   6        118,098   20,256 (10.24)
#   7        235,298   12,642 (5.55)
#
# Below n = 6 the symmetric rule is larger or too ill-conditioned to pay.
SYMMETRIC_FROM = 6


@functools.lru_cache(maxsize=None)
def _rule_arrays(n: int, j: int) -> Tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the rule of half-degree j, built once per
    process and read-only, so every rule handed out can share them."""
    build = _symmetric_rule if n >= SYMMETRIC_FROM else _product_rule
    nodes, weights = build(n, j)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@dataclass
class QuadratureRule:
    """Nodes and weights on S^{n-1} with sum(weights) = |S^{n-1}|, exact to
    at least `degree`.  The weights are positive for n < SYMMETRIC_FROM and
    signed above it."""

    n: int
    nodes: np.ndarray  # (N, n)
    weights: np.ndarray  # (N,)
    degree: int

    @staticmethod
    def sphere(n: int, degree: Optional[int] = None) -> "QuadratureRule":
        """The rule of degree d (by default `default_degree(n)`) is the rule
        of half-degree d // 2, exact to 2 (d // 2) + 1, in both families: the
        product rule below SYMMETRIC_FROM, the fully symmetric rule from it
        on.  The symmetric family starts at half-degree 1, so there d < 4
        takes the rule of half-degree 1.  Its read-only arrays are shared by
        every rule of that n and half-degree."""
        if n < 2:
            raise ValueError("sphere quadrature needs n >= 2")
        if degree is None:
            degree = default_degree(n)
        if degree < 0:
            raise ValueError("quadrature degree must be nonnegative")
        j = degree // 2
        if n >= SYMMETRIC_FROM:
            j = max(1, j)
        return QuadratureRule(n, *_rule_arrays(n, j), degree)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum over the nodes; values[i] = f(nodes[i])."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def default_degree(n: int) -> int:
    """Node-count-aware default quadrature degree per dimension: the cap of
    `mass.mass_sweep`'s walk, which stops on a rule of lower half-degree
    wherever two consecutive steps between neighbouring rules are small."""
    return {2: 32, 3: 32, 4: 32, 5: 20, 6: 16, 7: 12}.get(n, 10)
