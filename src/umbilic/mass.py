"""ADM mass of the inverted hypersurface.

Two flux integrals at finite radius, extrapolated to infinity:

  standard_adm   g^{jk} (d_k g_ij - d_i g_jk) nu^i over the coordinate
                 sphere, the textbook ADM surface integral, with the metric
                 as a diagonal plus rank-one terms and its exact coordinate
                 derivatives (all n directions in one forward pass) from
                 one order-2 evaluation; g^{-1} acts on vectors only, as a
                 Woodbury operator, and the derivative directions are
                 contracted with nu and the rank-one vectors first (no
                 finite difference, no n x n array per node);
  lee_parker     the radial form  d_r(g_rr - sum_a g_aa)
                 + r^{-1} (n g_rr - sum_a g_aa), with g_rr, the trace and
                 the exact radial derivative in closed form from one
                 evaluation (no finite difference).

Both fill their integrand over the rule's nodes in blocks of BLOCK_NODES,
one evaluation per block, so memory stays flat as the rule grows; each
estimate still makes one quadrature sum over all nodes.  A sweep sizes the
rule per radius by measured error: it climbs the sphere rules by half-degree
and stops after two consecutive steps within QUAD_TOL (mass_sweep).

Both are normalized by [2(n-1) |S^{n-1}|]^{-1}, calibrated so the
conformally flat reference metric (1 + m/(2|y|))^4 delta in dimension 3
has mass m.  The two agree to linear order in the metric deviation; at
finite radius they differ at second order (for the reference family the
gap is about 2 m^2 / r), which the extrapolation removes.

The symbolic path assembles the radial-form integrand as an exact
descending series and certifies that every coefficient the truncation
window certifies vanishes, which forces the mass to be zero whenever the
uncontrolled remainder is already integrable against the sphere growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import asymptotic
from .asymptotic import CORRECTED_Z, INVERTED_Y, Chart, _report, _rowdot
from .numdiff import Dual
from .obstruction import sphere_integral_series
from .polyjet import Jet, MultiPoly, SphericalSeries, poly_to_json
from .quadrature import QuadratureRule, default_degree, sphere_area
from .surface import GraphSurface

STANDARD = "standard_adm"
LEE_PARKER = "lee_parker"

DEFAULT_RADII = (10.0, 10.0**1.5, 100.0, 10.0**2.5, 1000.0)

# Nodes per block of a flux integrand.  Both estimates fill their (N,)
# integrand one block at a time, so temporaries stay cache-sized whatever
# the rule.  On 2 cores, blocks of 2048..16384 nodes timed within noise of
# each other on the sphere n = 5 standard and quartic n = 6, 7 Lee-Parker
# radii and 1024 was 10-50% slower; 4096 keeps the largest temporary, the
# sphere n = 5 order-2 monomial table, at 7 MB.
BLOCK_NODES = 4096

# Relative step between two neighbouring rungs below which mass_sweep's
# walk may stop, after two such steps in a row: the difference of two rules
# of neighbouring degree estimates the error of the smaller (the embedded
# rules of Genz, J. Comput. Appl. Math. 157, 2003, and of Stroud, 1971),
# and one small step alone can be two rules agreeing by chance (a quintic
# n = 5 surface stopped 1.1e-5 off on it).  Measured against the cap rule:
# the chosen estimate is within 1.0e-6 relative of the cap's for the
# spheres n = 3-5, cubic_x1 n = 4-6 (chart y) and quartic_x1 n = 6, 7
# (chart z, r <= 100), where degree 6 is 6-8% off and the walk climbs to 12
# or 14.
QUAD_TOL = 1e-5


def mass_normalization(n: int) -> float:
    """The prefactor [2(n-1)|S^{n-1}|]^{-1} shared by both formulas."""
    return 1.0 / (2.0 * (n - 1) * sphere_area(n))


# -- metric sources -----------------------------------------------------------


@dataclass(frozen=True)
class SchwarzschildField:
    """The conformally flat reference metric (1 + m/(2|y|))^4 delta on
    R^3 minus a ball, whose mass is exactly m.  Used as a calibration
    fixture independent of any surface.  In other dimensions the
    calibrated metric has a different power, so only n = 3 is accepted."""

    mass: float = 1.0
    n: int = 3

    def __post_init__(self):
        if not math.isfinite(self.mass):
            raise ValueError(f"the fixture mass must be finite, not {self.mass}")
        if self.n != 3:
            raise ValueError(
                f"the Schwarzschild fixture is calibrated on R^3 only, not n = {self.n}"
            )

    @property
    def horizon_radius(self) -> float:
        """Points must lie outside the horizon sphere |y| = |m|/2."""
        return 0.5 * abs(self.mass)

    def _excess(self, r):
        """(1 + m/2r)^4 - 1, expanded so tiny deviations keep relative
        accuracy; r is an array or a Dual."""
        u = self.mass / (2.0 * r)
        return u * (4.0 + u * (6.0 + u * (4.0 + u)))

    def _radius(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The points as an (N, n) array and their norms, all outside the
        horizon sphere."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if np.any(r <= self.horizon_radius):
            raise ValueError("points must lie outside the horizon sphere")
        return pts, r

    def deviation_batch(self, pts: np.ndarray) -> np.ndarray:
        pts, r = self._radius(pts)
        return self._excess(r)[:, None, None] * np.eye(self.n)[None, :, :]

    def deviation_form(self, pts: np.ndarray):
        """The deviation excess(r) I in the form of
        asymptotic.ghat_deviation_form, with no rank-one term: diag is a
        Dual whose derivative part holds d_k excess = excess'(r) y_k / r
        on a leading axis."""
        pts, r = self._radius(pts)
        return self._excess(Dual(r, (pts / r[:, None]).T)), [], []

    def radial_trace_batch(self, t: float, dirs: np.ndarray) -> Tuple[Dual, Dual]:
        """g_rr and tr of the deviation at the points t * dirs, with their
        t-derivatives: the excess and n times it, the same on every ray."""
        if t <= self.horizon_radius:
            raise ValueError("points must lie outside the horizon sphere")
        fac = self._excess(Dual(float(t), 1.0)) * np.ones(len(dirs))
        return fac, self.n * fac


MetricSource = Union[GraphSurface, SchwarzschildField]


def _deviation_form(source: MetricSource, chart: Optional[Chart], pts: np.ndarray):
    if isinstance(source, GraphSurface):
        return asymptotic.ghat_deviation_form(source, chart, pts)
    return source.deviation_form(pts)


def _woodbury(alpha: np.ndarray, coefs, vecs) -> List[np.ndarray]:
    """The vectors W_a with g^{-1} = (I - sum_a u_a W_a^T) / alpha for
    g = alpha I + sum_m coefs[m] u_m u_m^T, K = len(vecs) <= 2.

    Woodbury (Hager, SIAM Rev. 31, 1989) gives W_a = sum_b X_ab u_b with
    X = M^{-1} C, M = alpha I + C U^T U, U = [u_1 .. u_K], C = diag(c):
    Sherman-Morrison for chart y (K = 1), a 2 x 2 solve per node for chart
    z (K = 2), none for the fixture (K = 0).  No C^{-1} is needed, so c = 0
    (chart z with H = 0) is fine."""
    K = len(vecs)
    M = [[coefs[a] * _rowdot(vecs[a], vecs[b]) + (alpha if a == b else 0.0)
          for b in range(K)] for a in range(K)]
    if K == 1:
        X = [[coefs[0] / M[0][0]]]
    if K == 2:
        det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        X = [[M[1][1] * coefs[0] / det, -M[0][1] * coefs[1] / det],
             [-M[1][0] * coefs[0] / det, M[0][0] * coefs[1] / det]]
    return [sum(X[a][b][:, None] * vecs[b] for b in range(K)) for a in range(K)]


def _standard_integrand(source: MetricSource, chart: Optional[Chart], r: float,
                        nu: np.ndarray) -> np.ndarray:
    """nu_i g^{jk} (d_k g_ij - d_i g_jk) at the points r nu, as tr(g^{-1} L)
    with L = J - d_nu g and J_jk = d_k (g nu)_j at fixed nu.

    With g - I = diag I + sum_m c_m u_m u_m^T and g^{-1} from _woodbury,
    tr(g^{-1} L) = (tr L - sum_a W_a . L u_a) / alpha, where

      W_a . L u_a = W_a . (d_{u_a} g) nu - W_a . (d_nu g) u_a,
      tr J        = d_nu diag + sum_m [d_{u_m} (c_m u_m . nu)
                                       + c_m (u_m . nu) div u_m],
      tr d_nu g   = n d_nu diag + sum_m [d_nu c_m |u_m|^2 + 2 c_m u_m . d_nu u_m].

    The forward pass's n chart directions are contracted with nu and with
    each u_a before any product, and g^{-1} and d g enter through dot
    products only, so nothing larger than (K + 1, N, n) is formed."""
    n = nu.shape[1]
    diag, coefs, vecs = _deviation_form(source, chart, r * nu)
    c = [q.v for q in coefs]
    u = [w.v for w in vecs]
    # derivatives along nu (row 0) and along each u_a (row 1 + a)
    rows = np.stack([nu] + u)
    along = lambda x: np.einsum("kp...,dpk->dp...", x.d, rows, optimize=True)  # noqa: E731
    dd, dc, du = along(diag), [along(q) for q in coefs], [along(w) for w in vecs]

    def dg(d: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """y . (d g) x, the derivative along rows[d]."""
        out = dd[d] * _rowdot(x, y)
        for m in range(len(u)):
            ux, uy = _rowdot(u[m], x), _rowdot(u[m], y)
            out += dc[m][d] * ux * uy + c[m] * (_rowdot(du[m][d], x) * uy
                                                + ux * _rowdot(du[m][d], y))
        return out

    tr_L = (1 - n) * dd[0]
    for m in range(len(u)):
        un = _rowdot(u[m], nu)
        tr_L += (dc[m][1 + m] * un + c[m] * _rowdot(du[m][1 + m], nu)
                 + c[m] * un * np.einsum("kpk->p", vecs[m].d)
                 - dc[m][0] * _rowdot(u[m], u[m]) - 2.0 * c[m] * _rowdot(u[m], du[m][0]))
    for a, W in enumerate(_woodbury(1.0 + diag.v, c, u)):
        tr_L -= dg(1 + a, nu, W) - dg(0, u[a], W)
    return tr_L / (1.0 + diag.v)


def lee_parker_pair(
    source: MetricSource, chart: Optional[Chart], t: float, dirs: np.ndarray
) -> Tuple[Dual, Dual]:
    """(g_rr - tr, n g_rr - tr) of the deviation at the points t * dirs
    (unit rows), each a Dual carrying its t-derivative along the rays."""
    if isinstance(source, GraphSurface):
        g_rr, tr = asymptotic.ghat_radial_trace_batch(source, chart, t, dirs)
    else:
        g_rr, tr = source.radial_trace_batch(t, dirs)
    return g_rr - tr, np.shape(dirs)[-1] * g_rr - tr


def _lee_parker_integrand(source: MetricSource, chart: Optional[Chart], t: float,
                          dirs: np.ndarray) -> np.ndarray:
    """d_t (g_rr - tr) + (n g_rr - tr) / t at the points t * dirs."""
    F1, F2 = lee_parker_pair(source, chart, t, dirs)
    return F1.d + F2.v / t


# -- finite-radius estimates ----------------------------------------------------


@dataclass
class MassEstimate:
    """One radius's quadrature value of a mass integral."""

    radius: float
    value: float
    formula: str
    chart_kind: str
    quad_degree: int
    quad_nodes: int

    def to_json(self) -> dict:
        return _report(self)


def _estimate(formula: str, integrand: Callable, source: MetricSource,
              chart: Optional[Chart], r: float, rule: QuadratureRule) -> MassEstimate:
    """The normalized integral of one formula at radius r.  The integrand
    is filled over the rule's nodes one slice of BLOCK_NODES rows at a
    time, so every temporary stays cache-sized, and summed once."""
    n = rule.n
    r = float(r)
    check_sweep_radii([r], n)
    if chart is None and isinstance(source, GraphSurface):
        raise ValueError("a chart is required for surface sources")
    nodes = rule.nodes
    vals = np.empty(len(nodes))
    # overflow or a zero divisor leaves a non-finite value; mass_sweep refuses it
    with np.errstate(all="ignore"):
        for lo in range(0, len(nodes), BLOCK_NODES):
            vals[lo:lo + BLOCK_NODES] = integrand(source, chart, r, nodes[lo:lo + BLOCK_NODES])
        value = mass_normalization(n) * r ** (n - 1) * rule.integrate(vals)
    kind = chart.kind if chart is not None else INVERTED_Y
    return MassEstimate(r, value, formula, kind, rule.degree, len(rule.weights))


def adm_mass_standard(
    source: MetricSource,
    chart: Optional[Chart],
    r: float,
    rule: QuadratureRule,
) -> MassEstimate:
    """The normalized flux integral at radius r.  The metric and its exact
    coordinate derivatives come in closed form from one evaluation per
    block of the rule's nodes (ghat_deviation_form), with no finite
    difference, and are contracted as vectors (_standard_integrand)."""
    return _estimate(STANDARD, _standard_integrand, source, chart, r, rule)


def adm_mass_lee_parker(
    source: MetricSource,
    chart: Optional[Chart],
    t: float,
    rule: QuadratureRule,
) -> MassEstimate:
    """The radial-form integral at radius t: g_rr - tr, n g_rr - tr and the
    exact t-derivative of the first come in closed form from one
    evaluation per block of the rule's nodes (lee_parker_pair)."""
    return _estimate(LEE_PARKER, _lee_parker_integrand, source, chart, t, rule)


def mass_sweep(
    source: MetricSource,
    chart: Optional[Chart],
    radii: Sequence[float],
    formula: str = STANDARD,
    rule: Optional[QuadratureRule] = None,
    degree: Optional[int] = None,
) -> List[MassEstimate]:
    """The estimates at the radii, smallest first, each on the smallest
    rule its measured error allows (_walk), else on the cap: `rule` if
    given, else `QuadratureRule.sphere(n, degree)` (by default of degree
    `default_degree(n)`), of half-degree J = degree // 2.  Once a radius
    ends on the cap, the larger radii go to the cap directly, so a sweep
    costs at most one walk more than the cap alone.  The first estimate
    that is not finite raises ValueError before the larger radii run."""
    fn = {STANDARD: adm_mass_standard, LEE_PARKER: adm_mass_lee_parker}[formula]
    n = source.n
    if rule is not None:
        degree = rule.degree
    elif degree is None:
        degree = default_degree(n)
    sweep: List[MassEstimate] = []
    for r in map(float, sorted(radii)):
        # skip the walk past a radius that needed the cap: without the skip
        # the quartic_x1 n = 7 mass benchmark job took 20-22 ms, not 17 (2 cores)
        top = 0 if sweep and sweep[-1].quad_degree == degree else degree // 2
        e = _walk(fn, source, chart, r, top)
        sweep.append(e or _finite(fn(source, chart, r, rule or QuadratureRule.sphere(n, degree))))
    return sweep


def _walk(fn: Callable, source: MetricSource, chart: Optional[Chart], r: float,
          top: int) -> Optional[MassEstimate]:
    """fn at radius r on the rules of half-degree j = 1, 2, ... below top,
    QuadratureRule.sphere(n, 2j), each built once per process: the first
    estimate within QUAD_TOL of its own size of the rung before it, when
    that rung was also within QUAD_TOL of its own predecessor (one close
    pair of neighbours can agree by chance); else None, for the cap.  A
    rung whose estimate is not finite raises ValueError at once (a NaN
    never compares close, so it would otherwise climb to the cap)."""
    prev, settled = None, False
    for j in range(1, top):
        e = _finite(fn(source, chart, r, QuadratureRule.sphere(source.n, 2 * j)))
        close = prev is not None and abs(e.value - prev) <= QUAD_TOL * abs(e.value)
        if close and settled:
            return e
        prev, settled = e.value, close
        # stop once no rung below the cap can stop the walk: without this
        # the quartic_x1 n = 7 mass benchmark job took 30 ms, not 17 (2 cores)
        if j + (1 if close else 2) >= top:
            break
    return None


def _finite(e: MassEstimate) -> MassEstimate:
    if not math.isfinite(e.value):
        raise ValueError(f"the mass estimate at radius {e.radius:g} is {e.value}, not finite")
    return e


# -- extrapolation --------------------------------------------------------------


@dataclass
class MassExtrapolation:
    """Fit value(r) = m_inf + a r^{-p}; fit_quality is the R^2 of the fit."""

    m_inf: float
    decay_exponent: float
    fit_quality: float
    formula: str
    chart_kind: str

    def to_json(self) -> dict:
        return _report(self)


def check_sweep_radii(radii: Sequence[float], n: int) -> None:
    """Raise ValueError unless every radius is finite and positive, its
    square (the chart's |y|^2) does not underflow to 0, and its area factor
    r^(n-1) in the normalized flux integral is a float64."""
    for r in radii:
        if not math.isfinite(r):
            raise ValueError("radii must be finite")
        if r <= 0.0:
            raise ValueError("radius must be positive")
        if float(r) * float(r) == 0.0:
            raise ValueError(f"radius {r:g} is too small: its square underflows float64")
        try:
            float(r) ** (n - 1)
        except OverflowError:
            raise ValueError(f"radius {r:g} is too large: r^{n - 1} overflows float64") from None


def check_fit_radii(radii: Sequence[float]) -> None:
    """Raise ValueError unless extrapolate_mass can fit the radii: at least
    four distinct ones, spanning about 1.5 decades (the gate sits slightly
    below, so schedules like {10, 30, 100, 300} qualify)."""
    if len(set(radii)) < 4:
        raise ValueError("at least four distinct radii are required")
    if max(radii) / min(radii) < 10.0**1.4:
        raise ValueError("radii must span at least 1.5 decades")


def extrapolate_mass(estimates: Sequence[MassEstimate]) -> MassExtrapolation:
    """Least squares for m_inf + a r^{-p}, p in [1e-3, 24], by variable
    projection: for each p the linear pair (m_inf, a) is solved exactly in
    closed form, so the sum of squared residuals is a function of p alone.
    It is scanned on a grid of 48 exponents, then minimized by golden
    section on the bracket around the best grid point until the bracket is
    1e-12 of p wide.  Raises ValueError, naming the smallest such radius,
    if any value is not finite."""
    check_fit_radii([e.radius for e in estimates])
    formulas = {e.formula for e in estimates}
    charts = {e.chart_kind for e in estimates}
    if len(formulas) != 1 or len(charts) != 1:
        raise ValueError("estimates must share one formula and one chart")
    est = sorted(estimates, key=lambda e: e.radius)
    rs = np.array([e.radius for e in est])
    vs = np.array([e.value for e in est])
    formula, chart_kind = formulas.pop(), charts.pop()
    for e in est:
        _finite(e)

    scale = max(np.max(np.abs(vs)), 1e-300)
    if np.ptp(vs) <= 1e-13 * scale:
        # constant series: m_inf is the common value, p is degenerate
        return MassExtrapolation(float(np.mean(vs)), 0.0, 1.0, formula, chart_kind)
    v_mean = float(np.mean(vs))
    vc = vs - v_mean
    sst = float(vc @ vc)

    def linear_fit(p):
        """(m_inf, ssr) of the exact fit at each exponent in p: the slope on
        the centered columns, the residual summed explicitly.  The column is
        (r / r_min)^-p <= 1, which cannot overflow; it only rescales a."""
        z = (rs / rs[0]) ** -np.asarray(p, dtype=float)[..., None]
        z_mean = z.mean(axis=-1)
        zc = z - z_mean[..., None]
        a = (zc @ vc) / (zc * zc).sum(axis=-1)
        res = vc - a[..., None] * zc
        return v_mean - a * z_mean, (res * res).sum(axis=-1)

    grid = np.linspace(0.25, 12.0, 48)
    i = int(np.argmin(linear_fit(grid)[1]))
    lo = grid[i - 1] if i > 0 else 1e-3
    hi = grid[i + 1] if i + 1 < len(grid) else 24.0
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = linear_fit(c)[1], linear_fit(d)[1]
    while hi - lo > 1e-12 * hi:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = linear_fit(c)[1]
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = linear_fit(d)[1]
    p = c if fc <= fd else d
    m_inf, ssr = linear_fit(p)
    quality = 1.0 - float(ssr) / sst if sst > 0.0 else 1.0
    return MassExtrapolation(float(m_inf), float(p), quality, formula, chart_kind)


# -- symbolic cancellation -------------------------------------------------------


def mass_integrand_series(
    f: Jet, chart_kind: str = CORRECTED_Z, order_min: int = -5
) -> SphericalSeries:
    """The radial-form integrand as an exact descending series in the
    chart radius, certified through order order_min - 1."""
    n = f.n
    gtt, tr = asymptotic.ghat_radial_trace_series(f, chart_kind, order_min)
    return (gtt - tr).radial_derivative() + (gtt.scale(n) - tr).shift(-1)


@dataclass
class MassCancellationReport:
    """Exact vanishing of the radial-form integrand coefficients.

    The integrand coefficient at order w contributes t^{n-1+w} times its
    unit-sphere integral, so the mass is certified zero when every order
    w >= -(n-1) inside the window vanishes and the remainder order is
    below -(n-1)."""

    n: int
    chart_kind: str
    window_min: int  # lowest certified integrand order
    integrand_orders: List[int]
    t5_coefficient_zero: bool
    t6_coefficient_zero: bool
    boundary_integrals: Dict[int, MultiPoly]  # exact, in units of |S^{n-1}|
    remainder_order: int
    mass_vanishes: bool

    def to_json(self) -> dict:
        out = _report(self)
        out["boundary_integrals"] = {
            str(w): poly_to_json(P) for w, P in self.boundary_integrals.items()
        }
        return out


def symbolic_mass_cancellation(
    f: Jet, chart_kind: str = CORRECTED_Z, order_min: int = -5
) -> MassCancellationReport:
    """Assemble the radial-form integrand symbolically and certify the
    cancellations that force the mass to vanish.

    In the corrected chart the t^{-5} and t^{-6} coefficients must cancel
    identically in the mean curvature and the quartic/quintic coefficient
    functions; the remainder is then O(t^{order_min - 1}), integrable
    against the sphere growth t^{n-1} whenever n - 1 < 1 - order_min.
    """
    n = f.n
    integrand = mass_integrand_series(f, chart_kind, order_min)
    window_min = order_min - 1
    orders = integrand.orders()
    boundary: Dict[int, MultiPoly] = {}
    clean = True
    for w in range(window_min, 0):
        c = integrand.coefficient(w)
        if c.is_zero:
            continue
        ang = sphere_integral_series(c)
        boundary[w] = ang
        if w >= -(n - 1) and not ang.is_zero:
            clean = False
    remainder_order = window_min - 1
    remainder_ok = (n - 1) + remainder_order < 0
    return MassCancellationReport(
        n,
        chart_kind,
        window_min,
        orders,
        integrand.coefficient(-5).is_zero,
        integrand.coefficient(-6).is_zero,
        boundary,
        remainder_order,
        clean and remainder_ok,
    )
