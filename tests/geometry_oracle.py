"""Independent numeric geometry, kept as test oracles: a sphere given only
by a black-box height function, the intrinsic scalar curvature of a graph
from finite differences of its metric alone, the numeric rho identities
one point of the metric's stencil at a time, the integrability probe one
point at a time, and the principal curvatures of an inverted cylinder, a
closed form checked against a finite-difference shape operator.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from umbilic import conformal, numdiff
from umbilic.quadrature import sphere_area, sphere_directions
from umbilic.surface import GraphSurface, RhoIdentityResiduals, point_geometry


def sphere_numeric(n: int, radius: float = 1.0, fd_step: float = 1e-5) -> GraphSurface:
    """The radius-R sphere tangent at the origin, f = R - sqrt(R^2 - |x|^2),
    as a numeric surface differentiated by finite differences."""
    R = float(radius)

    def f(x):
        return R - np.sqrt(R * R - np.einsum("...i,...i->...", x, x))

    return GraphSurface(n, f_num=f, fd_step=fd_step, name=f"sphere_num(R={R})")


def _metric_field(S: GraphSurface) -> Callable[[np.ndarray], np.ndarray]:
    """The induced metric g = I + grad f grad f^T as a function of x."""

    def metric(p):
        grad = S.f_derivatives_batch(p, 1)[1][0]
        return np.eye(S.n) + np.outer(grad, grad)

    return metric


def intrinsic_scalar_curvature(S: GraphSurface, x, h: float = 1e-3) -> float:
    """Scalar curvature of the induced metric from its Christoffel symbols /
    Riemann tensor, by finite differences of the metric field.  Cross-check
    for the Gauss-equation value in PointGeometry."""
    return numdiff.scalar_curvature_fd(_metric_field(S), x, h)


def rho_residuals_pointwise(S: GraphSurface, x) -> RhoIdentityResiduals:
    """The numeric rho identities at x from the per-point paths: f, grad f
    and Hess f from `point_geometry`, Gamma from `numdiff.gradient` of the
    metric field, one gradient call per point of its stencil.  The
    reference for the batched check in `surface`, which evaluates the same
    points in one call."""
    x = np.asarray(x, dtype=float)
    geo = point_geometry(S, x)
    f, grad, hess = geo.f, geo.grad, geo.hess
    rho_grad = 2.0 * x + 2.0 * f * grad
    rho_hess = 2.0 * np.eye(S.n) + 2.0 * np.outer(grad, grad) + 2.0 * f * hess
    h = 1e-3 * max(1.0, float(np.linalg.norm(x)))
    gamma = numdiff.christoffel(geo.g, numdiff.gradient(_metric_field(S), x, h))
    cov_hess = rho_hess - np.einsum("cab,c->ab", gamma, rho_grad)
    res1 = float(rho_grad @ geo.g_inv @ rho_grad) - (4.0 * geo.rho - 4.0 * geo.eta**2)
    res2 = float(np.max(np.abs(cov_hess - 2.0 * geo.g - 2.0 * geo.eta * geo.II)))
    res3 = float(np.trace(geo.g_inv @ cov_hess)) - (2.0 * S.n + 2.0 * geo.eta * geo.H)
    return RhoIdentityResiduals(res1, res2, res3, exact=False)


@dataclass
class PlaneCurve:
    """Arc-length plane curve t -> (x, y) with derivatives through order 2."""

    eval2: Callable[[float], Tuple[Tuple[float, float], ...]]
    name: str = ""

    def __call__(self, t: float):
        return self.eval2(t)

    @staticmethod
    def line() -> "PlaneCurve":
        return PlaneCurve(lambda t: ((t, 1.0), (1.0, 0.0), (0.0, 0.0)), "line")

    @staticmethod
    def circle_through_origin(R: float = 1.0) -> "PlaneCurve":
        def ev(t):
            a = t / R
            return (
                (R * math.sin(a), R * (1.0 - math.cos(a))),
                (math.cos(a), math.sin(a)),
                (-math.sin(a) / R, math.cos(a) / R),
            )

        return PlaneCurve(ev, f"circle(R={R})")


@dataclass
class CylinderCurvatures:
    lam: float          # closed form, multiplicity >= n-1
    mu: float           # closed form, the remaining curvature
    eigenvalues: np.ndarray  # numeric spectrum of the shape operator
    sign: int           # global normal sign used to match the spectrum


def cylinder_inversion_curvatures(
    curve: PlaneCurve, t: float, z: np.ndarray, h: float = 1e-5
) -> CylinderCurvatures:
    """Principal curvatures of the inverted cylinder over a plane curve.

    The cylinder (x(t), y(t), z) is inverted through the origin; the result
    has closed-form principal curvatures lam = -2(x y' - x' y) with
    multiplicity >= n-1 and mu = lam - k(t)(x^2 + y^2 + |z|^2), where k is
    the signed curvature with respect to the plane normal (y', -x'), the
    orientation consistent with the lam formula: k = y' x'' - x' y''.
    The numeric spectrum comes from a finite-difference
    shape operator and is matched up to a global orientation sign.
    """
    z = np.asarray(z, dtype=float)
    n = z.size + 1

    (x, y), (xp, yp), (xpp, ypp) = curve(t)
    if abs(xp * xp + yp * yp - 1.0) > 1e-8:
        raise ValueError("curve is not parametrized by arc length at t")
    q = x * x + y * y + float(z @ z)
    if q < 1e-12:
        raise ValueError("inversion center lies on the surface")
    lam = -2.0 * (x * yp - xp * y)
    k = yp * xpp - xp * ypp
    mu = lam - k * q

    def F(u):
        (cx, cy), _, _ = curve(u[0])
        amb = np.concatenate([[cx, cy], u[1:]])
        return amb / float(amb @ amb)

    # Step 2h: at step h the spectrum is 2-5x less accurate.
    _, J, ddF = numdiff.metric_derivatives(F, np.concatenate([[t], z]), 2.0 * h)
    # unit normal: the null vector of the tangent rows J[i] = d_i F
    _, _, vt = np.linalg.svd(J, full_matrices=True)
    II = ddF @ vt[-1]
    # generalized eigenvalues of (II, I): those of L^{-1} II L^{-T}, I = L L^T
    L = np.linalg.cholesky(J @ J.T)
    C = np.linalg.solve(L, np.linalg.solve(L, II).T)
    eigs = np.linalg.eigvalsh((C + C.T) / 2.0)
    expect = np.sort(np.concatenate([np.full(n - 1, lam), [mu]]))
    if np.sum(np.abs(np.sort(eigs) - expect)) <= np.sum(np.abs(np.sort(-eigs) - expect)):
        sign = 1
    else:
        sign = -1
        eigs = -eigs
    return CylinderCurvatures(lam, mu, np.sort(eigs), sign)


def integrability_probe_pointwise(S: GraphSurface, radii, seed: int = 0):
    """`conformal.integrability_probe` one density call per point: the
    reference for the probe, which takes each shell in one call."""
    dirs = sphere_directions(S.n, seed=seed)
    rs = sorted(radii, reverse=True)
    shells, fit = [], []
    for s in rs:
        pairs = [conformal.curvature_density_factor(S, s * d) for d in dirs]
        mean = float(np.mean([abs(density) for density, _ in pairs]))
        shells.append(mean * sphere_area(S.n) * s ** (S.n - 1))
        if mean > conformal.ZERO_SHELL * float(np.mean([size for _, size in pairs])):
            fit.append((s, shells[-1]))
    if len({s for s, _ in fit}) < 2:
        return conformal.IntegrabilityProbe(rs, shells, 0.0, 1.0, conformal.INCONCLUSIVE)
    slope, _, r2 = numdiff.power_law_fit(*zip(*fit))
    verdict = conformal.INTEGRABLE if slope > -0.9 else conformal.NOT_INTEGRABLE
    return conformal.IntegrabilityProbe(rs, shells, slope, r2, verdict)
