"""Derivative helpers: finite differences of array-valued fields, forward-mode
dual numbers for closed forms, and curvature of a numerically given metric.

`_stencil` is the one central-difference stencil.  Its points are one
array x + h O, O a fixed offset table per dimension and order
(`stencil_points`, or `richardson_points` for steps h and h / 2), so a
batch of points, each at its own step, stacks all its stencils; from the
values there `differences` and `richardson` form the derivatives in
whole-array expressions.  A numeric surface takes every derivative of f
this way, from one call of f (`GraphSurface._fd`).  `metric_derivatives`,
`gradient` and `hessian` call their field once per row of one point's
stencil: the per-point references for that path.
`Dual` carries a closed form's derivatives exactly, with no step to
choose, along one parameter or along several directions in one pass.
Duals may nest: a Dual whose parts are Duals carries second derivatives.
Both mass fluxes and the decay fits take their metric derivatives from it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np


class Dual:
    """A value and its derivatives (forward-mode differentiation): + - * /
    apply the sum, product and quotient rules.  Both parts are floats or
    numpy arrays and broadcast like them; plain numbers and arrays act as
    constants.  The derivative part may carry several directions at once
    on extra leading axes, d[k] the derivative along direction k, so one
    pass computes each value once for all of them.  Indexing, sum and sqrt
    act on both parts as on an array, and <= compares the value part, so
    array code runs on Duals unchanged provided it indexes and reduces
    trailing axes only ([..., None], axis=-1), which the two parts share.
    Both parts may be Duals themselves: then d.d holds the outer
    derivatives of the inner ones, each kind of direction on its own
    leading axis."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # ndarray <op> Dual defers to the reflected method

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v + o.v, self.d + o.d)
        return Dual(self.v + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.v, -self.d)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.v * o.v, self.d * o.v + self.v * o.d)
        return Dual(self.v * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual):
            q = self.v / o.v
            return Dual(q, (self.d - q * o.d) / o.v)
        return Dual(self.v / o, self.d / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return Dual(q, -q * self.d / self.v)

    def __le__(self, o):
        return self.v <= o

    def __getitem__(self, index):
        return Dual(self.v[index], self.d[index])

    def sum(self, axis=None):
        return Dual(self.v.sum(axis=axis), self.d.sum(axis=axis))

    def sqrt(self):
        r = sqrt(self.v)
        return Dual(r, self.d / (2.0 * r))


def sqrt(u):
    """The square root of an array or of a Dual."""
    return u.sqrt() if isinstance(u, Dual) else np.sqrt(u)


def metric_derivatives(F: Callable, x, h: float, order: int = 2):
    """Central differences of an array-valued field F at one point x (n,)
    with step h: (F0, dF, ddF), derivative axes first, dF[k] = d_k F and
    ddF[k, l] = d_k d_l F; order 1 gives F0 = ddF = None.  F is called
    once per row of `stencil_points` and `differences` takes the values."""
    return differences([F(y) for y in stencil_points(_one_point(x), h, order)], h, order)


def stencil_points(x, h, order: int = 2) -> np.ndarray:
    """The rows x + h O of the stencil, O the offset table of `_stencil`:
    (m, n) for one point x (n,).  Points x (..., n) with steps h of shape
    x.shape[:-1] (or one float) give (m, ..., n), each point's stencil
    at its own step, offset row first."""
    x = np.asarray(x, dtype=float)
    O = _stencil(x.shape[-1], order)
    h = np.asarray(h, dtype=float)[..., None]
    return x + h * O.reshape(O.shape[:1] + (1,) * (x.ndim - 1) + O.shape[1:])


def differences(Y, h, order: int = 2):
    """(F0, dF, ddF) as `metric_derivatives` returns them, from the values
    Y[i] = F(stencil_points(x, h, order)[i]), stencil row first.  Trailing
    axes pass through, so Y (m, N) holds the stencils of N points; h is one
    float or an array that broadcasts against one value, F0."""
    Y = np.asarray(Y, dtype=float)
    if order == 1:
        return None, (Y[0::2] - Y[1::2]) / (2.0 * h), None
    n = math.isqrt((Y.shape[0] - 1) // 2)
    Fp, Fm = Y[1: 1 + 2 * n: 2], Y[2: 1 + 2 * n: 2]
    dF = (Fp - Fm) / (2.0 * h)
    F0 = Y[0]
    ddF = np.empty((n, n) + F0.shape)
    ddF[np.diag_indices(n)] = (Fp - 2.0 * F0 + Fm) / (h * h)
    Fpp, Fpm, Fmp, Fmm = (Y[1 + 2 * n + j:: 4] for j in range(4))
    mixed = (Fpp - Fpm - Fmp + Fmm) / (4.0 * (h * h))
    for (k, l), d in zip(combinations(range(n), 2), mixed):  # np.triu_indices: 14 us a call
        ddF[k, l] = ddF[l, k] = d
    return F0, dF, ddF


def _one_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"the stencil takes one point, not shape {x.shape}")
    return x


@lru_cache(maxsize=None)
def _stencil(n: int, order: int) -> np.ndarray:
    """The offset table: rows 0, then e_k, -e_k for each k, then
    e_k + e_l, e_k - e_l, e_l - e_k, -e_k - e_l for each k < l; order 1
    keeps only the +-e_k rows."""
    e = np.eye(n)
    rows = [np.zeros(n)] if order == 2 else []
    for k in range(n):
        rows += [e[k], -e[k]]
    if order == 2:
        for k, l in combinations(range(n), 2):
            rows += [e[k] + e[l], e[k] - e[l], e[l] - e[k], -e[k] - e[l]]
    O = np.array(rows)
    O.flags.writeable = False
    return O


def richardson_points(x, h, order: int) -> np.ndarray:
    """The stencil points of one Richardson step: those of step h, then
    those of step h / 2, as `stencil_points` shapes them."""
    return np.concatenate([stencil_points(x, h, order), stencil_points(x, h / 2.0, order)])


def richardson(Y, h, order: int) -> np.ndarray:
    """The order-th derivative, extrapolated once, (4 D(h/2) - D(h)) / 3,
    from the values Y at `richardson_points(x, h, order)`."""
    Y = np.asarray(Y, dtype=float)
    coarse, fine = Y[: len(Y) // 2], Y[len(Y) // 2:]
    return (4.0 * differences(fine, h / 2.0, order)[order]
            - differences(coarse, h, order)[order]) / 3.0


def gradient(f: Callable, x, h: float = 1e-5) -> np.ndarray:
    """Richardson-extrapolated central-difference gradient, f called once
    per row of `richardson_points`."""
    return richardson([f(y) for y in richardson_points(_one_point(x), h, 1)], h, 1)


def hessian(f: Callable, x, h: float = 3e-4) -> np.ndarray:
    """Richardson-extrapolated central-difference Hessian, f called once
    per row of `richardson_points`."""
    return richardson([f(y) for y in richardson_points(_one_point(x), h, 2)], h, 2)


def _lowered(dg: np.ndarray) -> np.ndarray:
    """T[..., d, a, b] = d_a g_db + d_b g_da - d_d g_ab from dg[..., k] = d_k g;
    leading axes (a further derivative) pass through."""
    return np.einsum("...adb->...dab", dg) + np.einsum("...bda->...dab", dg) - dg


def christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[c, a, b] = 1/2 g^{cd} (d_a g_db + d_b g_da - d_d g_ab)."""
    return 0.5 * np.einsum("cd,dab->cab", np.linalg.inv(g), _lowered(dg))


def scalar_curvature_fd(metric: Callable, x, h: float = 1e-3) -> float:
    """Scalar curvature of a metric field via finite differences.

    Uses the coordinate formula R = g^{ab}(d_c Gamma^c_ab - d_a Gamma^c_cb
    + Gamma^c_cd Gamma^d_ab - Gamma^c_ad Gamma^d_cb) assembled from second
    derivatives of the metric components.
    """
    g, dg, ddg = metric_derivatives(metric, np.asarray(x, dtype=float), h)
    ginv = np.linalg.inv(g)
    gamma = christoffel(g, dg)
    # d_k Gamma^c_ab, with d_k g^{-1} = -g^{-1} (d_k g) g^{-1}.
    dginv = -np.einsum("ce,kef,fd->kcd", ginv, dg, ginv)
    dgamma = 0.5 * (
        np.einsum("kcd,dab->kcab", dginv, _lowered(dg))
        + np.einsum("cd,kdab->kcab", ginv, _lowered(ddg))
    )
    ricci = (
        np.einsum("ccab->ab", dgamma)
        - np.einsum("accb->ab", dgamma)
        + np.einsum("ccd,dab->ab", gamma, gamma)
        - np.einsum("cad,dcb->ab", gamma, gamma)
    )
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
