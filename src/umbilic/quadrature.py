"""Deterministic quadrature on the unit sphere S^{n-1}.

Product rule in spherical coordinates: Gauss-Jacobi nodes in each polar
angle (the sin-power surface-measure factor is absorbed exactly into the
Jacobi weight) and a trapezoid rule in the final azimuth, which is exact
for trigonometric polynomials of degree below the point count.  The rule
integrates polynomials of total degree <= `degree` essentially to machine
precision, in any dimension n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi


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


@dataclass
class QuadratureRule:
    """Nodes and positive weights on S^{n-1} with sum(weights) = |S^{n-1}|."""

    n: int
    nodes: np.ndarray  # (N, n)
    weights: np.ndarray  # (N,)
    degree: int

    @staticmethod
    def sphere(n: int, degree: int = 32) -> "QuadratureRule":
        if n < 2:
            raise ValueError("sphere quadrature needs n >= 2")
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
            a = (dim - 1) / 2.0  # Jacobi exponent: (1-u^2)^a du, u = cos t
            u, w = roots_jacobi(m, a - 0.5, a - 0.5)
            new_nodes = np.empty((len(u) * nodes.shape[0], dim + 1))
            new_weights = np.empty(len(u) * nodes.shape[0])
            s = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
            for i, (ui, wi) in enumerate(zip(u, w)):
                block = slice(i * nodes.shape[0], (i + 1) * nodes.shape[0])
                new_nodes[block, 0] = ui
                new_nodes[block, 1:] = s[i] * nodes
                new_weights[block] = wi * weights
            nodes, weights = new_nodes, new_weights
            dim += 1
        return QuadratureRule(n, nodes, weights, degree)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum over the nodes; values[i] = f(nodes[i])."""
        return float(np.dot(self.weights, np.asarray(values, dtype=float)))


def default_degree(n: int) -> int:
    """Node-count-aware default quadrature degree per dimension."""
    return {2: 32, 3: 32, 4: 32, 5: 20, 6: 16, 7: 12}.get(n, 10)
