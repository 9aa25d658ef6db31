"""Conformal change of metric by the inverse squared distance factor:
scalar curvature of rho^{-2} g, its density against the original volume,
leading-order extraction near the distinguished point, and the
L^1-integrability classifier with a numeric annulus probe."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import obstruction
from .asymptotic import check_decay_radii
from .numdiff import power_law_fit
from .polyjet import SphericalSeries
from .quadrature import sphere_area, sphere_directions
from .surface import GraphSurface, point_geometry

INTEGRABLE = "integrable"
NOT_INTEGRABLE = "not_integrable"
INCONCLUSIVE = "inconclusive"

# The probe's rounding floor, c eps: a shell whose mean |density| is at most
# this times the mean size of the terms that cancel in it is noise.  Over
# seeds 0, 1, 7 that ratio is <= 5.9e-14 on every sphere shell (n = 3..7,
# exactly 0 in exact arithmetic) and >= 1.0e-9 on every cubic_x1 shell.
ZERO_SHELL = 1e-12


def _conformal_scalar_at(
    S: GraphSurface, x
) -> Tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """The conformal scalar at x, one point (n,) or points (N, n), the sum
    of the absolute values of its three terms, and rho, all from one point
    geometry."""
    x = np.asarray(x, dtype=float)
    if np.any(np.vecdot(x, x) == 0.0):
        raise ValueError("the conformal factor is singular at the origin")
    n = S.n
    geo = point_geometry(S, x)
    scalar = geo.rho**2 * (
        geo.R_g
        + 4.0 * (n - 1) * geo.H * geo.eta / geo.rho
        + 4.0 * n * (n - 1) * geo.eta**2 / geo.rho**2
    )
    size = (
        np.abs(geo.rho**2 * geo.R_g)
        + 4.0 * (n - 1) * np.abs(geo.H * geo.eta) * geo.rho
        + 4.0 * n * (n - 1) * geo.eta**2
    )
    return scalar, size, geo.rho


def conformal_scalar(S: GraphSurface, x) -> float | np.ndarray:
    """Scalar curvature of rho^{-2} g at the surface point over x:
    rho^2 (R_g + 4(n-1) H eta / rho + 4 n (n-1) eta^2 / rho^2).  A float
    for one point (n,), an (N,) array for points (N, n)."""
    return _conformal_scalar_at(S, x)[0]


def curvature_density_factor(
    S: GraphSurface, x
) -> Tuple[float | np.ndarray, float | np.ndarray]:
    """Density of (scalar curvature) x (volume) of the conformal metric
    against the original volume element, rho^{2-n} (R_g + ...), and the
    size of the terms that cancel in it, rho^{-n} (|rho^2 R_g| +
    4(n-1)|H eta| rho + 4n(n-1) eta^2), as the pair (density, size): floats
    for one point (n,), (N,) arrays for points (N, n)."""
    scalar, size, rho = _conformal_scalar_at(S, x)
    weight = rho ** (-S.n)
    return weight * scalar, weight * size


@dataclass
class LeadingOrder:
    """Lowest nonvanishing order of the curvature expansion: the quantity
    behaves like c(theta) |x|^k + o(|x|^k) near the point.  A series that
    is zero through its certified top order W has k >= W + 1."""

    k: Optional[int]
    c: Optional[SphericalSeries]  # total-order-0 representation of c(theta)
    is_zero: bool
    order_max: Optional[int] = None  # W, or None if the window is unbounded


def leading_order(series: SphericalSeries) -> LeadingOrder:
    """The lowest nonvanishing order of an exact curvature series and its
    coefficient."""
    if series.is_zero:
        return LeadingOrder(None, None, True, series.order_max)
    k = series.leading_order()
    return LeadingOrder(k, series.coefficient(k), False, series.order_max)


def leading_order_of_R(S: GraphSurface, W: int = 3) -> LeadingOrder:
    """Leading order of the expansion of the curvature quantity around the
    umbilical point, from the exact symbolic series through total order W."""
    if not S.symbolic:
        raise ValueError("leading-order extraction needs a symbolic surface")
    return leading_order(obstruction.script_R_series(S.f_jet, W))


def classify_integrability(n: int, L: LeadingOrder) -> str:
    """Near-point L^1 integrability of the conformal curvature density:
    integrable iff the leading order k satisfies k > n - 4.  A series zero
    through order W has k >= W + 1 > n - 4 when W >= n - 4; a shorter window
    is inconclusive."""
    if L.is_zero:
        return INTEGRABLE if L.order_max is not None and L.order_max >= n - 4 else INCONCLUSIVE
    return INTEGRABLE if L.k > n - 4 else NOT_INTEGRABLE


@dataclass
class IntegrabilityProbe:
    radii: list
    shell_values: list  # approximate shell integrals of |density|
    slope: float
    r_squared: float
    verdict: str


def integrability_probe(
    S: GraphSurface,
    radii: Sequence[float] = (1e-1, 10**-1.75, 10**-2.5, 10**-3.25, 1e-4),
    seed: int = 0,
) -> IntegrabilityProbe:
    """Numeric divergence test: the shell integral of |density| at radius s
    scales like s^{k+3-n}; the annulus integral converges iff the log-log
    slope exceeds -1.  Slopes within 0.1 of -1 are treated as divergent
    (marginal orders diverge logarithmically).  Each shell is one density
    call on all the directions; `check_decay_radii` vets the radii first.
    Every shell is reported, but those at or below the `ZERO_SHELL` floor
    are not fit; fewer than two distinct radii above it are inconclusive."""
    check_decay_radii(radii)
    dirs = sphere_directions(S.n, seed=seed)
    area = sphere_area(S.n)
    rs = sorted(radii, reverse=True)
    shells, fit = [], []
    for s in rs:
        density, size = curvature_density_factor(S, s * dirs)
        mean = float(np.mean(np.abs(density)))
        shells.append(mean * area * s ** (S.n - 1))
        if mean > ZERO_SHELL * float(np.mean(size)):
            fit.append((s, shells[-1]))
    if len({s for s, _ in fit}) < 2:
        return IntegrabilityProbe(rs, shells, 0.0, 1.0, INCONCLUSIVE)
    slope, _, r2 = power_law_fit(*zip(*fit))
    return IntegrabilityProbe(rs, shells, slope, r2,
                              INTEGRABLE if slope > -0.9 else NOT_INTEGRABLE)
