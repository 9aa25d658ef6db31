"""Coordinate charts at infinity for the inverted graph hypersurface.

The surface is inverted through the distinguished point, so a neighborhood
of that point maps to a neighborhood of infinity.  Two charts appear:

  inverted_y  y = x |x|^{-2} (the inversion itself),
  corrected_z z = y sqrt(1 - c / |y|^2) with c = H^2 / (2 n^2),

where H is the mean curvature at the point.  The corrected chart absorbs
the order-2 deviation of the metric, improving the decay rate to 4 when
the cubic coefficient of the height function vanishes.

The module computes the components of the rescaled metric rho^{-2} g in
each chart numerically, with the deviation from the flat metric in closed
form: in the inverted chart no precision is lost to cancellation at large
radius, in the corrected chart O(t^-2) pieces cancel to the O(t^-4)
deviation.  The radial component and the trace, with their exact radial
derivatives, also come in closed form without the full matrix, and as
exact symbolic descending series in the radius.  A least-squares
decay-order estimator certifies the asymptotic flatness orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .numdiff import Dual, power_law_fit, sqrt
from .obstruction import umbilical_decompose
from .polyjet import Jet, MultiPoly, SphericalSeries
from .quadrature import sphere_directions
from .surface import GraphSurface

INVERTED_Y = "inverted_y"
CORRECTED_Z = "corrected_z"
_KINDS = (INVERTED_Y, CORRECTED_Z)


class ChartDomainError(ValueError):
    """A point lies outside the chart's domain of definition."""


class ChartRequirementError(ValueError):
    """The corrected chart requires the cubic coefficient of the height
    function to vanish and a numeric mean curvature."""


# -- charts ------------------------------------------------------------------


@dataclass(frozen=True)
class Chart:
    """A named coordinate chart at infinity; _inverse_point maps its points
    to the graph coordinates x.  H is only used by the corrected chart."""

    kind: str
    n: int
    H: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown chart kind {self.kind!r}")

    @staticmethod
    def inverted(n: int) -> "Chart":
        return Chart(INVERTED_Y, n)

    @staticmethod
    def corrected(n: int, H) -> "Chart":
        return Chart(CORRECTED_Z, n, float(H))

    @property
    def c(self) -> float:
        """The radial correction constant H^2 / (2 n^2)."""
        return self.H * self.H / (2.0 * self.n * self.n)


def chart_for(S: GraphSurface, flag: str) -> Chart:
    """Resolve a chart flag ('y'/'z' or a kind name) for a surface.

    The corrected chart demands a symbolic surface with numeric mean
    curvature and vanishing cubic coefficient; violations raise
    ChartRequirementError (a usage error, not a verification failure).
    """
    if flag in ("y", INVERTED_Y):
        return Chart.inverted(S.n)
    if flag in ("z", CORRECTED_Z):
        if not S.symbolic:
            raise ChartRequirementError(
                "the corrected chart needs an explicit jet surface"
            )
        H, parts = umbilical_decompose(S.f_jet.poly)
        if H.param_names():
            raise ChartRequirementError(
                "the corrected chart needs a numeric mean curvature"
            )
        _require_no_cubic(parts)
        return Chart.corrected(S.n, float(H.constant_term()))
    raise ValueError(f"unknown chart flag {flag!r}")


# -- numeric metric components ----------------------------------------------
#
# In the inverted chart the rescaled metric has the closed form
#
#   g^y = (1 + s f^2)^{-2} (I + v v^T),   v = (I - 2 yhat yhat^T) grad f,
#
# with s = |y|^2 and f, grad f evaluated at x = y/s.  The deviation from
# the flat metric is assembled from the small quantities s f^2 and v
# directly, so its relative accuracy does not degrade as |y| grows.
#
# The corrected chart has dy/dz = phi P with phi^2 = 1 + a, a = c/t^2 and
# P = I - gamma zhat zhat^T, gamma = a/(1+a).  Conjugating g^y by it gives
#
#   g^z - I = A I - k conf zhat zhat^T + (1+a) conf w w^T,   w = P v,
#
# with conf = (1 + s f^2)^{-2}, A = (1+a) (conf - 1) + a and
# k = (1+a) gamma (2 - gamma) = a (2+a)/(1+a).  A and k are O(t^-2) and
# cancel to the O(t^-4) deviation, so in this chart the relative error
# grows like t^2 times the rounding error.
#
# Both charts share one pull-back, ghat_deviation_form: _inverse_point maps
# chart points to x, _rank_one_form builds the diagonal and rank-one terms
# from f and grad f.  Both index and reduce trailing axes only, so they run
# unchanged on arrays, on Duals carrying all n chart directions on a
# leading axis (d[k] along e_k), and on Duals of Duals.


def _conformal(eps):
    """conf - 1 and conf = (1 + eps)^{-2}, eps = s f^2; the difference is
    formed without rounding.  eps is an array or a Dual."""
    conf = 1.0 / ((1.0 + eps) * (1.0 + eps))
    return -eps * (2.0 + eps) * conf, conf


def _corrected_scalars(confm1, a):
    """gamma, k and A of the corrected-chart closed form from conf - 1 and
    a = c/t^2 (arrays or Duals; a = 0 gives the inverted chart)."""
    gamma = a / (1.0 + a)
    k = (1.0 + a) * gamma * (2.0 - gamma)
    A = (1.0 + a) * confm1 + a
    return gamma, k, A


def _inverse_point(chart: Chart, zs):
    """a = c/t^2, y, s = |y|^2 and x = y/s at the chart points zs (a = 0
    in the inverted chart, where y = z).  zs is an (N, n) array, or a Dual
    with that value part, or a Dual of Duals."""
    t2 = (zs * zs).sum(axis=-1)
    if np.any(t2 <= 0.0):
        raise ChartDomainError("chart points must be nonzero")
    if chart.kind == INVERTED_Y:
        return 0.0, zs, t2, zs / t2[..., None]
    a = chart.c / t2
    ys = sqrt(1.0 + a)[..., None] * zs
    s = (ys * ys).sum(axis=-1)
    return a, ys, s, ys / s[..., None]


def _rank_one_form(chart: Chart, a, ys, s, f, gr):
    """diag, coefs and vecs with g - I = diag I + sum_m coefs[m] vecs[m]
    vecs[m]^T, from _inverse_point's a, y and s and from f and grad f at
    x = y/s.  All are arrays, or all Duals."""
    confm1, conf = _conformal(s * f * f)
    yhat = ys / sqrt(s)[..., None]
    v = gr - 2.0 * (yhat * gr).sum(axis=-1)[..., None] * yhat
    if chart.kind == INVERTED_Y:
        return confm1, [conf], [v]
    gamma, k, A = _corrected_scalars(confm1, a)
    w = v - (gamma * (yhat * v).sum(axis=-1))[..., None] * yhat
    return A, [-k * conf, (1.0 + a) * conf], [yhat, w]


def _assemble_form(diag: np.ndarray, lefts, rights, n: int) -> np.ndarray:
    """diag I + sum_m lefts[m] rights[m]^T, shape diag.shape + (n, n), from
    one stacked (..., n, K) @ (..., K, n) product, which is diag I alone
    when K = 0.  The vectors broadcast to diag.shape + (n,)."""
    shape, K = np.shape(diag) + (n,), len(lefts)
    L, R = np.empty(shape + (K,)), np.empty(shape[:-1] + (K, n))
    for m, (u, w) in enumerate(zip(lefts, rights)):
        L[..., m], R[..., m, :] = u, w
    out = L @ R
    out.reshape(-1, n * n)[:, :: n + 1] += np.reshape(diag, (-1, 1))
    return out


def ghat_deviation_batch(S: GraphSurface, chart: Chart, pts: np.ndarray) -> np.ndarray:
    """Components of (rescaled metric - identity) at chart points, shape
    (N, n, n), assembled from ghat_deviation_form at depth 0.  In the
    inverted chart they keep their relative accuracy at any radius; in the
    corrected chart O(t^-2) pieces cancel to the O(t^-4) deviation, so the
    relative error grows like t^2 times the rounding error."""
    diag, coefs, vecs = ghat_deviation_form(S, chart, pts, depth=0)
    return _assemble_form(diag, [c[:, None] * u for c, u in zip(coefs, vecs)], vecs, S.n)


def ghat_deviation_form(S: GraphSurface, chart: Chart, pts: np.ndarray, depth: int = 1):
    """diag, coefs and vecs with g - I = diag I + sum_m coefs[m] vecs[m]
    vecs[m]^T at the chart points pts, the one pull-back of the metric:
    arrays at depth 0; at depth 1 Duals carrying the n chart derivatives
    on a leading axis (diag.d[k] = d_k diag, shape (n, N); vecs[m].d has
    shape (n, N, n)); at depth 2 Duals of Duals, z seeded with e_j on the
    inner Dual's leading axis and e_k on the outer one's, so x.d.v[k] =
    d_k x and x.d.d[j, k] = d_j d_k x.  One evaluator call of order
    depth + 1 gives f and its derivatives at x, `_lift` the chain rule, and
    the value parts are the depth-0 arrays, formed by the same arithmetic."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    N, n = pts.shape
    e = np.broadcast_to(np.eye(n)[:, None, :], (n, N, n))
    zs = (pts, Dual(pts, e), Dual(Dual(pts, e[:, None]), Dual(e, np.zeros(n))))[depth]
    a, ys, s, xs = _inverse_point(chart, zs)
    F = S.f_derivatives_batch(xs if depth == 0 else xs.v if depth == 1 else xs.v.v,
                              order=depth + 1)
    return _rank_one_form(chart, a, ys, s, _lift(xs, *F[:-1]), _lift(xs, *F[1:]))


def ghat_deviation_derivatives(S: GraphSurface, chart: Chart, pts: np.ndarray):
    """h = g - I at the chart points pts and its exact chart derivatives
    dh[k] = d_k h and ddh[j, k] = d_j d_k h, shapes (N, n, n), (n, N, n, n)
    and (n, n, N, n, n), on a jet surface, assembled from
    ghat_deviation_form at depth 2.  Each of its terms w u^T, w = c u, is
    bilinear: d_k (w u^T) = w_k u^T + w u_k^T and d_j d_k (w u^T) =
    w_jk u^T + w_j u_k^T + w_k u_j^T + w u_jk^T."""
    n = S.n
    diag, coefs, vecs = ghat_deviation_form(S, chart, pts, depth=2)
    W = [(w.v.v, w.d.v, w.d.d) for w in (c[..., None] * u for c, u in zip(coefs, vecs))]
    U = [(u.v.v, u.d.v, u.d.d) for u in vecs]
    h = _assemble_form(diag.v.v, [w[0] for w in W], [u[0] for u in U], n)
    dh = _assemble_form(diag.d.v, [x for w0, w1, _ in W for x in (w1, w0)],
                        [x for u0, u1, _ in U for x in (u0, u1)], n)
    ddh = np.empty((n,) + dh.shape)
    for j in range(n):  # one (n, N, n, n) block at a time keeps the stacks small
        ddh[j] = _assemble_form(diag.d.d[j],
                                [x for w0, w1, w2 in W for x in (w2[j], w1[j], w1, w0)],
                                [x for u0, u1, u2 in U for x in (u0, u1, u1[j], u2[j])], n)
    return h, dh, ddh


def _lift(xs, F: np.ndarray, dF: np.ndarray = None, ddF: np.ndarray = None):
    """F at x, xs's value part, as a value like xs (an array, a Dual or a
    Dual of Duals), from F, its gradient dF and its Hessian ddF (trailing
    axes) at x: d_k F = dF . d_k x and d_j d_k F = ddF(d_j x, d_k x) +
    dF . d_j d_k x.  The inner and outer first derivatives of a Dual of
    Duals are equal: both were seeded alike."""
    if not isinstance(xs, Dual):
        return F
    nested = isinstance(xs.v, Dual)
    dx = xs.d.v if nested else xs.d
    dF_x = np.einsum("p...l,kpl->kp...", dF, dx)
    if not nested:
        return Dual(F, dF_x)
    ddF_x = np.einsum("kp...l,jpl->jkp...", np.einsum("p...lm,kpm->kp...l", ddF, dx), dx)
    ddF_x += np.einsum("p...l,jkpl->jkp...", dF, xs.d.d)
    return Dual(Dual(F, dF_x[:, None]), Dual(dF_x, ddF_x))


def _rowdot(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, n) arrays (no (N, n) temporary)."""
    return np.einsum("pi,pi->p", u, w)


def ghat_radial_trace_batch(
    S: GraphSurface, chart: Chart, t: float, dirs: np.ndarray
) -> Tuple[Dual, Dual]:
    """The radial component g_tt = zhat . (g - I) zhat and the trace
    tr(g - I) of the deviation on the sphere of chart radius t, at the
    points t * dirs (unit rows), each a Dual carrying its t-derivative
    along the rays.  One evaluator call and O(N n) memory.

    With p = zhat . grad f the rank-one form gives zhat . w = -p/(1+a) and
    |w|^2 = |grad f|^2 - p^2 gamma (2 - gamma), so

      g_tt = A - k conf + conf p^2/(1+a),
      tr   = n A - k conf + (1+a) conf |w|^2,

    the inverted chart being the case c = 0.  Along a ray x = rho xhat a
    polynomial P has dP/drho = (E P)(x)/rho, E = x . grad, so the
    t-derivatives are exact."""
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    n = dirs.shape[1]
    t = float(t)
    if t <= 0.0:
        raise ChartDomainError("chart points must be nonzero")
    T = Dual(t, 1.0)
    c = chart.c if chart.kind == CORRECTED_Z else 0.0
    s = T * T + c  # |y|^2; x = yhat / |y| and d rho/dt = -t rho^3
    xs, dlog = dirs / math.sqrt(s.v), -t / s.v
    fv, gr, ef, egr = S.f_radial_batch(xs)
    f = Dual(fv, dlog * ef)
    p = Dual(_rowdot(dirs, gr), dlog * _rowdot(dirs, egr))
    G = Dual(_rowdot(gr, gr), 2.0 * dlog * _rowdot(gr, egr))
    confm1, conf = _conformal(s * f * f)
    a = c / (T * T)
    gamma, k, A = _corrected_scalars(confm1, a)
    g_tt = A - k * conf + conf * p * p / (1.0 + a)
    trace = n * A - k * conf + (1.0 + a) * conf * (G - p * p * gamma * (2.0 - gamma))
    return g_tt, trace


# -- symbolic descending series ----------------------------------------------
#
# All series are exact SphericalSeries in the chart radius with windowed
# orders [order_min, 0]; coefficients may carry parameters (symbolic mean
# curvature and generic quartic/quintic coefficients).


def _require_no_cubic(parts: Dict[int, MultiPoly]) -> None:
    A3 = parts.get(3)
    if A3 is not None and not A3.is_zero:
        raise ChartRequirementError(
            "the corrected chart requires the cubic coefficient of the "
            "height function to vanish"
        )


def _series_pieces(poly: MultiPoly, LO: int):
    """The unit series and, as descending series in |y| at x = y / |y|^2,
    the conformal factor (1 + |y|^2 f^2)^{-2}, p = yhat . grad f and
    G = |grad f|^2.  With f = sum_k A_k and Euler's identity
    y . grad A_k = k A_k, p = sum_k k A_k(y) |y|^{1-2k} and
    G = sum_{k,l} (grad A_k . grad A_l)(y) |y|^{4-2(k+l)}, each summed as
    polynomials and canonicalized once; the pair (k, l) enters at total
    order 2 - k - l.

    The height series carries two extra orders because it is only used
    squared and multiplied by the square of the radius."""
    n = poly.n
    parts = poly.homogeneous_parts()
    f_ser = SphericalSeries.canonicalize(n, [(-2 * k, P) for k, P in parts.items()], LO - 2, 0)
    p = SphericalSeries.canonicalize(n, [(1 - 2 * k, P.scale(k)) for k, P in parts.items()], LO, 0)
    grads = {k: P.grad() for k, P in parts.items()}
    G_terms = []
    for k, gk in grads.items():
        for l, gl in grads.items():
            if k <= l and k + l <= 2 - LO:
                dot = MultiPoly.dot(n, zip(gk, gl), weights=[2 - (k == l)] * n)
                G_terms.append((4 - 2 * (k + l), dot))
    G = SphericalSeries.canonicalize(n, G_terms, LO, 0)
    one = SphericalSeries.one(n, LO, 0)
    eps = (f_ser * f_ser).shift(2).with_window(LO, 0)
    conf = (one + eps).power_unit(-2, at_infinity=True)
    return one, conf, p, G


class _RadialSubstitution:
    """Composition with y = z sqrt(1 + c / t^2): a term r^m P(y) of total
    order w = m + deg P becomes t^m P(z) (1 + c t^{-2})^{w/2}."""

    def __init__(self, n: int, c_poly: MultiPoly, LO: int):
        self.n = n
        self.LO = LO
        terms = [(0, MultiPoly.const(n, 1))]
        if not c_poly.is_zero:
            terms.append((-2, c_poly))
        self.base = SphericalSeries.canonicalize(n, terms, LO, 0)
        self._powers: Dict[Fraction, SphericalSeries] = {}

    def power(self, e: Fraction) -> SphericalSeries:
        if e not in self._powers:
            self._powers[e] = self.base.power_unit(e, at_infinity=True)
        return self._powers[e]

    def __call__(self, series: SphericalSeries) -> SphericalSeries:
        """The substituted series, the products' terms canonicalized once."""
        raw = []
        for m, P in series.terms:
            term = SphericalSeries.from_term(m, P, self.LO, 0)
            raw += (term * self.power(Fraction(m + P.degree(), 2))).terms
        return SphericalSeries.canonicalize(self.n, raw, self.LO, 0)


def ghat_radial_trace_series(
    f: Jet, chart_kind: str = CORRECTED_Z, order_min: int = -5
) -> Tuple[SphericalSeries, SphericalSeries]:
    """The radial component g_tt = sum g_ij zhat_i zhat_j and the trace
    sum g_ii of the full rescaled metric, as descending series.

    In the inverted chart g = conf (I + v v^T) with the reflected gradient
    v = (I - 2 yhat yhat^T) grad f.  The reflection flips the radial part
    and keeps the norm, yhat . v = -p and |v|^2 = G with p = yhat . grad f
    and G = |grad f|^2, so g_yy = conf (1 + p^2) and tr g = conf (n + G)
    follow from the gradient without forming v.  The corrected-chart
    Jacobian phi (I - gamma zhat zhat^T) fixes the radial direction, so
    these two scalar series also give g_tt and the trace there; this keeps
    symbolic runs with generic quartic/quintic coefficients cheap.  The
    corrected chart refuses a nonzero cubic (ChartRequirementError).
    """
    if chart_kind not in (INVERTED_Y, CORRECTED_Z):
        raise ValueError("series are available in the inverted charts only")
    LO = order_min
    n = f.n
    H, parts = umbilical_decompose(f.poly)
    if chart_kind == CORRECTED_Z:
        _require_no_cubic(parts)
    one, conf, p, G = _series_pieces(f.poly, LO)
    S_rr = conf * (one + p * p)
    S_tr = conf * (one.scale(n) + G)
    if chart_kind == INVERTED_Y:
        return S_rr, S_tr
    c_poly = (H * H).scale(Fraction(1, 2 * n * n))
    sub = _RadialSubstitution(n, c_poly, LO)
    srr = sub(S_rr)
    stt = sub(S_tr)
    a_ser = SphericalSeries.canonicalize(n, [(-2, c_poly)], LO, 0)
    inv_base = sub.power(-1)
    # The Jacobian scales the radial direction by phi (1 - gamma), whose
    # square is 1/(1+a); the trace picks up tr(g^y J^2).
    g_tt = inv_base * srr
    trace = sub.base * stt - a_ser * (one.scale(2) + a_ser) * inv_base * srr
    return g_tt, trace


# -- numeric decay-order estimation -------------------------------------------


@dataclass
class DecayFit:
    """Power-law fit of the metric deviation and its first two derivatives
    against the chart radius; tau_hat = -slope of the deviation itself."""

    chart_kind: str
    radii: List[float]
    max_h: List[float]
    max_dh: List[float]
    max_ddh: List[float]
    slope_h: float
    slope_dh: float
    slope_ddh: float
    tau_hat: float
    r_squared: float

    def to_json(self) -> dict:
        return _report(self)

    def csv_rows(self) -> List[List[object]]:
        rows = [["radius", "max_h", "max_dh", "max_ddh"]]
        for r, a, b, c in zip(self.radii, self.max_h, self.max_dh, self.max_ddh):
            rows.append([r, a, b, c])
        return rows


def _report(fit) -> dict:
    """A report dataclass's fields as its JSON object, chart_kind as "chart".
    The values are shared, not deep-copied as by asdict, which fails on a MultiPoly."""
    out = {f.name: getattr(fit, f.name) for f in fields(fit)}
    out["chart"] = out.pop("chart_kind")
    return out


def check_decay_radii(radii: Sequence[float]) -> None:
    """Raise ValueError unless the log-log fits (decay_order_estimate, the
    integrability probe) can take the radii: two distinct positive ones at
    least, and none whose square overflows or underflows float64."""
    if not all(0.0 < r < math.inf for r in radii):
        raise ValueError("radii must be finite and positive")
    if len(set(radii)) < 2:
        raise ValueError("at least two distinct radii are required")
    r = max(float(r) for r in radii)
    if math.isinf(r * r):
        raise ValueError(f"radius {r:g} is too large: its square overflows float64")
    r = min(float(r) for r in radii)
    if r * r == 0.0:
        raise ValueError(f"radius {r:g} is too small: its square underflows float64")


def decay_order_estimate(
    S: GraphSurface,
    chart: Chart,
    radii: Sequence[float],
    seed: int = 0,
) -> DecayFit:
    """Fit log max|deviation| (and its exact first and second derivatives
    in chart coordinates, from ghat_deviation_derivatives) against log
    radius on a fixed angular grid.  Needs a jet surface and two distinct
    radii (check_decay_radii); all magnitudes below 1e-14 reports
    tau_hat = inf.  Otherwise a magnitude that underflows to 0 (or is not
    finite) at some radius raises ValueError: its logarithm cannot be fit."""
    radii = sorted(float(r) for r in radii)
    check_decay_radii(radii)
    dirs = sphere_directions(S.n, seed=seed)
    mags = h_max, dh_max, ddh_max = [], [], []
    for r in radii:
        h_max.append(float(np.max(np.abs(ghat_deviation_batch(S, chart, r * dirs)))))
        _, d1, d2 = ghat_deviation_derivatives(S, chart, r * dirs)
        dh_max.append(float(np.max(np.abs(d1))))
        ddh_max.append(float(np.max(np.abs(d2))))
    if max(h_max) < 1e-14:
        return DecayFit(chart.kind, radii, *mags, -math.inf, -math.inf, -math.inf, math.inf, 1.0)
    for name, values in zip(("h", "dh", "ddh"), mags):
        for r, m in zip(radii, values):
            if not 0.0 < m < math.inf:
                raise ValueError(f"max |{name}| is {m!r} at radius {r:g}, outside the "
                                 "float64 range a log-log fit needs; use smaller radii")
    (slope_h, _, r2), (slope_dh, _, _), (slope_ddh, _, _) = (
        power_law_fit(radii, m) for m in mags)
    return DecayFit(chart.kind, radii, *mags, slope_h, slope_dh, slope_ddh, -slope_h, r2)
