"""Deterministic quadrature on the unit sphere S^{n-1}.

Product rule in spherical coordinates: Gauss-Jacobi nodes in each polar
angle (the sin-power surface-measure factor is absorbed exactly into the
Jacobi weight) and a trapezoid rule in the final azimuth, which is exact
for trigonometric polynomials of degree below the point count.  The
Gauss-Jacobi rules come from one eigendecomposition of the Jacobi matrix
(Golub-Welsch), in numpy alone.  The rule integrates polynomials of total
degree <= `degree` essentially to machine precision, in any dimension n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


@dataclass
class QuadratureRule:
    """Nodes and positive weights on S^{n-1} with sum(weights) = |S^{n-1}|."""

    n: int
    nodes: np.ndarray  # (N, n)
    weights: np.ndarray  # (N,)
    degree: int

    @staticmethod
    def sphere(n: int, degree: Optional[int] = None) -> "QuadratureRule":
        """The product rule of the given degree, by default `default_degree(n)`."""
        if n < 2:
            raise ValueError("sphere quadrature needs n >= 2")
        if degree is None:
            degree = default_degree(n)
        if degree < 0:
            raise ValueError("quadrature degree must be nonnegative")
        m = degree // 2 + 1  # Gauss points per polar angle
        # Azimuth count: even (so odd monomials cancel exactly by symmetry)
        # and > degree (trapezoid exactness for trigonometric polynomials).
        M = 2 * (degree // 2 + 1)
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
        return QuadratureRule(n, nodes, weights, degree)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum over the nodes; values[i] = f(nodes[i])."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def default_degree(n: int) -> int:
    """Node-count-aware default quadrature degree per dimension: the cap of
    `mass.mass_sweep`'s walk, which stops on a lower even degree wherever
    two consecutive steps between neighbouring rules are small."""
    return {2: 32, 3: 32, 4: 32, 5: 20, 6: 16, 7: 12}.get(n, 10)
