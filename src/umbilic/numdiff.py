"""Finite-difference helpers: derivatives of scalar fields and curvature of
a numerically given metric.

Central differences with one Richardson extrapolation step are the default;
second derivatives use a larger step than first derivatives because their
roundoff error scales like eps/h^2.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np


def _central(f: Callable, x: np.ndarray, i: int, h: float) -> float:
    xp = x.copy()
    xm = x.copy()
    xp[i] += h
    xm[i] -= h
    return (f(xp) - f(xm)) / (2.0 * h)


def gradient(f: Callable, x, h: float = 1e-5, richardson: bool = True) -> np.ndarray:
    """Central-difference gradient, Richardson-extrapolated once by default."""
    x = np.asarray(x, dtype=float)
    g1 = np.array([_central(f, x, i, h) for i in range(x.size)])
    if not richardson:
        return g1
    g2 = np.array([_central(f, x, i, h / 2.0) for i in range(x.size)])
    return (4.0 * g2 - g1) / 3.0


def hessian(f: Callable, x, h: float = 3e-4, richardson: bool = True) -> np.ndarray:
    """Central-difference Hessian (step chosen for the eps/h^2 tradeoff)."""
    x = np.asarray(x, dtype=float)

    def hess_at(step: float) -> np.ndarray:
        n = x.size
        out = np.empty((n, n))
        f0 = f(x)
        for i in range(n):
            xp = x.copy()
            xm = x.copy()
            xp[i] += step
            xm[i] -= step
            out[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / step**2
        for i in range(n):
            for j in range(i + 1, n):
                xpp = x.copy()
                xpm = x.copy()
                xmp = x.copy()
                xmm = x.copy()
                xpp[[i, j]] += step
                xmm[[i, j]] -= step
                xpm[i] += step
                xpm[j] -= step
                xmp[i] -= step
                xmp[j] += step
                out[i, j] = out[j, i] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (
                    4.0 * step**2
                )
        return out

    h1 = hess_at(h)
    if not richardson:
        return h1
    h2 = hess_at(h / 2.0)
    return (4.0 * h2 - h1) / 3.0


def metric_derivatives(metric: Callable, x, h: float):
    """First and second coordinate derivatives of a matrix field.

    metric(x) -> (n, n) array.  Returns (g, dg, ddg) with dg[k, i, j] =
    d_k g_ij and ddg[k, l, i, j] = d_k d_l g_ij.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    g0 = np.asarray(metric(x), dtype=float)
    dg = np.empty((n, n, n))
    ddg = np.empty((n, n, n, n))
    for k in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[k] += h
        xm[k] -= h
        gp = np.asarray(metric(xp), dtype=float)
        gm = np.asarray(metric(xm), dtype=float)
        dg[k] = (gp - gm) / (2.0 * h)
        ddg[k, k] = (gp - 2.0 * g0 + gm) / h**2
    for k in range(n):
        for l in range(k + 1, n):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[k, l]] += h
            xmm[[k, l]] -= h
            xpm[k] += h
            xpm[l] -= h
            xmp[k] -= h
            xmp[l] += h
            mixed = (
                np.asarray(metric(xpp), dtype=float)
                - np.asarray(metric(xpm), dtype=float)
                - np.asarray(metric(xmp), dtype=float)
                + np.asarray(metric(xmm), dtype=float)
            ) / (4.0 * h**2)
            ddg[k, l] = ddg[l, k] = mixed
    return g0, dg, ddg


def christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[c, a, b] = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab)."""
    ginv = np.linalg.inv(g)
    n = g.shape[0]
    gamma = np.empty((n, n, n))
    for c in range(n):
        for a in range(n):
            for b in range(n):
                s = 0.0
                for d in range(n):
                    s += ginv[c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                gamma[c, a, b] = 0.5 * s
    return gamma


def scalar_curvature_fd(metric: Callable, x, h: float = 1e-3) -> float:
    """Scalar curvature of a metric field via finite differences.

    Uses the coordinate formula R = g^{ab}(d_c Gamma^c_ab - d_a Gamma^c_cb
    + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb) assembled from second
    derivatives of the metric components.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    g, dg, ddg = metric_derivatives(metric, x, h)
    ginv = np.linalg.inv(g)
    gamma = christoffel(g, dg)

    # d_k Gamma^c_ab from d(g^{-1}) and ddg.
    dginv = np.empty((n, n, n))
    for k in range(n):
        dginv[k] = -ginv @ dg[k] @ ginv
    dgamma = np.empty((n, n, n, n))  # [k, c, a, b] = d_k Gamma^c_ab
    for k in range(n):
        for c in range(n):
            for a in range(n):
                for b in range(n):
                    s = 0.0
                    for d in range(n):
                        s += dginv[k, c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                        s += ginv[c, d] * (
                            ddg[k, a, d, b] + ddg[k, b, d, a] - ddg[k, d, a, b]
                        )
                    dgamma[k, c, a, b] = 0.5 * s

    ricci = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            s = 0.0
            for c in range(n):
                s += dgamma[c, c, a, b] - dgamma[a, c, c, b]
                for d in range(n):
                    s += gamma[c, c, d] * gamma[d, a, b] - gamma[c, a, d] * gamma[d, c, b]
            ricci[a, b] = s
    return float(np.einsum("ab,ab->", ginv, ricci))


def power_law_fit(radii: Sequence[float], mags: Sequence[float]):
    """Least-squares slope of log(mag) against log(radius).

    Returns (slope, intercept, r_squared); magnitudes below 1e-14 make the
    fit degenerate and are reported as (-inf slope, r2=1) by the caller.
    """
    lx = np.log(np.asarray(radii, dtype=float))
    ly = np.log(np.asarray(mags, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = A @ coef
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2
