"""Geometry of a graph hypersurface M = {(x, f(x))} in R^(n+1).

A surface is described by the height function f with f(0) = 0 and
grad f(0) = 0, either as an exact truncated jet (symbolic mode) or as a
black-box evaluator differentiated by finite differences (numeric mode).
All curvature quantities follow the graph formulas with the inner-pointing
normal normalized so that the sphere tangent at the origin has H = +n/R:

    g_ab  = delta_ab + f_a f_b
    II_ab = f_ab / sqrt(1 + |grad f|^2)
    H     = tr_g(II)
    rho   = |x|^2 + f^2
    eta   = (f - x . grad f) / sqrt(1 + |grad f|^2)
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import numdiff
from .polyjet import Jet, MultiPoly, poly_from_json, poly_to_json, unpack_exponent


# -- fast batched polynomial evaluation -----------------------------------------


class BatchPoly:
    """Vectorized float evaluator for a list of K parameter-free MultiPolys.

    A monomial is the sorted tuple of its coordinate rows (x_0^2 x_2 is
    (1, 1, 3)).  Row 0 of the monomial table is 1, rows 1..n are the
    coordinates, and the rows after them are the monomials of degree
    d >= 2 that occur plus the halves they need, grouped by tree level
    (d <= 2, 4, 8, ...).  Each is the product of its head of degree
    floor(d/2) and its tail of degree ceil(d/2), both on lower levels.
    Rows that are only halves carry zero coefficients in the (rows, K)
    `coeffs`; zero polynomials alone give no rows.  A batch fills each
    level with one gather and one multiply, no powers; a single point,
    (n,) or (1, n), takes one product over each row's coordinate rows,
    padded with row 0, which is cheaper than three levels at N = 1.  The
    two multiply in different orders, so a point's values agree with its
    batch row to rounding, not bit for bit.  The (N, K) values are one
    matrix product, taken as (K, rows) @ (rows, N) and returned as its
    transpose: at 4096 points the (N, rows) @ (rows, K) form on the
    transposed table took 2x (sphere n = 3) to 3.5x (n = 5) as long.
    """

    def __init__(self, polys: Sequence[MultiPoly]):
        if any(P.param_names() for P in polys):
            raise ValueError("batch evaluation needs numeric coefficients")
        self.n = n = polys[0].n if polys else 0
        # one key per exponent for all polys; num / den rounds once, as float(Fraction)
        rows_of = functools.lru_cache(maxsize=None)(
            lambda k: sum(((i + 1,) * ei for i, ei in enumerate(unpack_exponent(k, n))), ()))
        terms = [{rows_of(k): c / P.den for (k, _), c in P.num.items()} for P in polys]
        needed, stack = set(), [m for t in terms for m in t]
        while stack:
            m = stack.pop()
            if len(m) > 1 and m not in needed:
                needed.add(m)
                stack += [m[: len(m) // 2], m[len(m) // 2:]]

        def level(m):
            return (len(m) - 1).bit_length()

        tree = sorted(needed, key=lambda m: (level(m), m))
        order = [()] + [(i,) for i in range(1, n + 1)] + tree if any(terms) else []
        row = {m: r for r, m in enumerate(order)}
        self.coeffs = np.zeros((len(order), len(polys)))
        for k, t in enumerate(terms):
            for m, c in t.items():
                self.coeffs[row[m], k] = c
        # per level: its row range and the (2, rows) rows of heads and tails
        self.levels = []
        start = n + 1
        for _, group in itertools.groupby(tree, key=level):
            group = list(group)
            halves = [[row[m[: len(m) // 2]] for m in group],
                      [row[m[len(m) // 2:]] for m in group]]
            self.levels.append((start, start + len(group), np.array(halves, dtype=np.intp)))
            start += len(group)
        width = max((len(m) for m in order), default=0)
        self.factors = np.array(
            [m + (0,) * (width - len(m)) for m in order], dtype=np.intp
        ).reshape(len(order), width)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != self.n:
            raise ValueError(f"points need {self.n} coordinates, got {pts.shape[-1]}")
        if pts.ndim == 1 or pts.shape[0] == 1:
            x = np.empty(self.n + 1)
            x[0] = 1.0
            x[1:] = pts.reshape(self.n)
            return np.multiply.reduce(x[self.factors], axis=1).dot(self.coeffs)[None, :]
        if self.coeffs.size == 0:
            return np.zeros((pts.shape[0], self.coeffs.shape[1]))
        mono = np.empty((self.coeffs.shape[0], pts.shape[0]))
        mono[0] = 1.0
        mono[1: pts.shape[1] + 1] = pts.T
        for start, stop, halves in self.levels:
            head, tail = mono[halves]
            np.multiply(head, tail, out=mono[start:stop])
        return (self.coeffs.T @ mono).T


# -- the surface ------------------------------------------------------------


@dataclass
class GraphSurface:
    """A hypersurface given as the graph of f over a neighborhood of 0."""

    n: int
    f_jet: Optional[Jet] = None
    f_num: Optional[Callable[[np.ndarray], float]] = None
    fd_step: float = 1e-5
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if (self.f_jet is None) == (self.f_num is None):
            raise ValueError("exactly one of f_jet / f_num is required")
        if self.f_jet is not None:
            p = self.f_jet.poly
            if not p.homogeneous_part(0).is_zero or not p.homogeneous_part(1).is_zero:
                raise ValueError("f must satisfy f(0) = 0 and grad f(0) = 0")

    @property
    def symbolic(self) -> bool:
        return self.f_jet is not None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def flat(n: int, order: int = 7) -> "GraphSurface":
        return GraphSurface(n, f_jet=Jet.const(n, 0, order), name="flat")

    @staticmethod
    def sphere(n: int, radius=Fraction(1), order: int = 7) -> "GraphSurface":
        """Graph of the radius-R sphere tangent to x_{n+1}=0 at the origin:
        f = R - sqrt(R^2 - |x|^2), expanded as an exact jet."""
        R = Fraction(radius)
        if R <= 0:
            raise ValueError(f"the sphere radius must be positive, not {R}")
        r2 = MultiPoly.x_norm_sq(n)
        u = Jet.of(MultiPoly.const(n, 1) - r2.scale(Fraction(1) / (R * R)), order)
        f = (Jet.const(n, 1, order) - u.power_unit(Fraction(1, 2))) * R
        return GraphSurface(n, f_jet=f, name=f"sphere(R={R})")

    @staticmethod
    def polynomial(poly: MultiPoly, order: int = 7, name: str = "") -> "GraphSurface":
        return GraphSurface(poly.n, f_jet=Jet.of(poly, order), name=name or "poly")

    @staticmethod
    def quartic_x1(n: int, order: int = 7) -> "GraphSurface":
        p = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 4
        return GraphSurface.polynomial(p, order, name="quartic_x1")

    @staticmethod
    def cubic_x1(n: int, order: int = 7) -> "GraphSurface":
        p = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 3
        return GraphSurface.polynomial(p, order, name="cubic_x1")

    @staticmethod
    def builtin(name: str, n: int, order: int = 7, radius=Fraction(1)):
        table = {
            "flat": lambda: GraphSurface.flat(n, order),
            "sphere": lambda: GraphSurface.sphere(n, radius, order),
            "quartic_x1": lambda: GraphSurface.quartic_x1(n, order),
            "cubic_x1": lambda: GraphSurface.cubic_x1(n, order),
        }
        if name not in table:
            raise ValueError(f"unknown builtin surface {name!r}")
        return table[name]()

    @staticmethod
    def from_json(data: dict, order: int = 7) -> "GraphSurface":
        """Raises ValueError, KeyError or TypeError on a malformed description."""
        if not isinstance(data, dict):
            raise ValueError("a JSON object is required")
        try:
            n = Fraction(data.get("n"))
        except (TypeError, ValueError, ArithmeticError):
            n = None
        if n is None or n.denominator != 1 or n < 2:
            raise ValueError(f"n must be an integer of at least 2, not {data.get('n')!r}")
        n = int(n)
        kind = data["kind"]
        if kind == "polynomial":
            poly = poly_from_json(data["poly"], n)
            s = GraphSurface.polynomial(poly, order, name=data.get("name", "poly"))
        elif kind == "sphere":
            s = GraphSurface.sphere(n, Fraction(data.get("radius", "1")), order)
        elif kind == "builtin":
            s = GraphSurface.builtin(data["name"], n, order,
                                     Fraction(data.get("radius", "1")))
        else:
            raise ValueError(f"unknown surface kind {kind!r}")
        if "fd_step" in data:
            step = float(data["fd_step"])
            if not 0.0 < step < math.inf:
                raise ValueError(f"fd_step must be a finite positive number, not {data['fd_step']!r}")
            s.fd_step = step
        return s

    def to_json(self) -> dict:
        if not self.symbolic:
            raise ValueError("numeric surfaces are not serializable")
        return {
            "n": self.n,
            "kind": "polynomial",
            "poly": poly_to_json(self.f_jet.poly),
            "fd_step": self.fd_step,
            "name": self.name,
        }

    # -- derivative access ----------------------------------------------------

    def _sym(self, order: int) -> BatchPoly:
        """The evaluator of [f], [f, grad f, E f, E grad f] or [f, grad f,
        Hess f] (the Hessian row-major) for derivative order 0, 1 or 2;
        order 3 appends the distinct third derivatives d_i d_j d_k f,
        i <= j <= k, in the order of `_third_index`.  E = x . grad is the
        Euler operator, d times each part of degree d, so the ray columns
        of order 1 add no monomial rows."""
        if order not in self._cache:
            n, polys = self.n, [self.f_jet.poly]
            if order > 0:
                polys += [polys[0].diff(i) for i in range(n)]
            if order == 1:
                polys += [sum((P.scale(d) for d, P in Q.homogeneous_parts().items()),
                              MultiPoly.zero(n)) for Q in polys]
            if order > 1:
                polys += [g.diff(j) for g in polys[1:] for j in range(n)]
            if order > 2:
                polys += [polys[1 + n + n * i + j].diff(k)
                          for i, j, k in itertools.combinations_with_replacement(range(n), 3)]
            self._cache[order] = BatchPoly(polys)
        return self._cache[order]

    def f_value(self, x) -> float:
        if self.symbolic:
            return float(self._sym(0)(x)[0, 0])
        return float(self.f_num(np.asarray(x, dtype=float)))

    def f_grad(self, x) -> np.ndarray:
        if self.symbolic:
            return self._sym(1)(x)[0, 1: self.n + 1]
        x = np.asarray(x, dtype=float)
        h = self.fd_step * max(1.0, float(np.linalg.norm(x)))
        return numdiff.gradient(self.f_num, x, h)

    def f_hess(self, x) -> np.ndarray:
        if self.symbolic:
            return self._sym(2)(x)[0, self.n + 1:].reshape(self.n, self.n)
        x = np.asarray(x, dtype=float)
        scale = max(1.0, float(np.linalg.norm(x)))
        h2 = 0.1 * math.sqrt(self.fd_step) * scale
        return numdiff.hessian(self.f_num, x, h2)

    def f_derivatives_batch(self, pts: np.ndarray, order: int = 1) -> tuple:
        """f, grad f and, up to the order, Hess f and grad^3 f at the rows
        of pts, shaped (N,), (N, n), (N, n, n) and (N, n, n, n): one
        evaluator call on a symbolic surface.  A numeric one takes order 2
        at most, from per-point finite differences."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        N, n = pts.shape
        if self.symbolic:
            # order 1's ray columns fall past the last end, in a part not returned
            ends = np.cumsum([n**k for k in range(order + 1)])
            parts = np.split(self._sym(order)(pts), ends, axis=1)
            if order > 2:
                parts[3] = parts[3][:, _third_index(n)]
        elif order > 2:
            raise ValueError("third derivatives need a jet surface")
        else:
            fns = (self.f_value, self.f_grad, self.f_hess)
            parts = [np.array([fn(p) for p in pts]) for fn in fns[: order + 1]]
        return tuple(v.reshape((N,) + (n,) * k) for k, v in enumerate(parts[: order + 1]))

    def f_radial_batch(self, pts: np.ndarray) -> tuple:
        """f, grad f, x . grad f and (x . grad) grad f at the rows of pts,
        shaped (N,), (N, n), (N,) and (N, n).  Along the ray x = rho xhat
        the last two are rho times the rho-derivatives of the first two.
        One call of the order-1 evaluator on a symbolic surface; on a
        numeric one they come from per-point finite differences of grad f
        and Hess f."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n = pts.shape[1]
        if self.symbolic:
            f, gr, ef, egr = np.split(self._sym(1)(pts), [1, n + 1, n + 2], axis=1)
            return f[:, 0], gr, ef[:, 0], egr
        f, gr, hess = self.f_derivatives_batch(pts, 2)
        return f, gr, np.sum(pts * gr, axis=1), np.einsum("pij,pj->pi", hess, pts)


@functools.lru_cache(maxsize=None)
def _third_index(n: int) -> np.ndarray:
    """The column of sorted (i, j, k) among the i <= j <= k, row-major."""
    combos = list(itertools.combinations_with_replacement(range(n), 3))
    return np.array([combos.index(tuple(sorted(t)))
                     for t in itertools.product(range(n), repeat=3)])


# -- pointwise geometry -------------------------------------------------------


@dataclass
class PointGeometry:
    g: np.ndarray
    g_inv: np.ndarray
    II: np.ndarray
    H: float
    R_g: float
    rho: float
    eta: float
    w: float  # sqrt(1 + |grad f|^2)
    f: float
    grad: np.ndarray
    hess: np.ndarray


def point_geometry(S: GraphSurface, x) -> PointGeometry:
    """Metric, second fundamental form, curvatures, rho and eta at x, with
    the f, grad f and Hess f they were computed from."""
    x = np.asarray(x, dtype=float)
    fs, grads, hesses = S.f_derivatives_batch(x, 2)
    f, grad, hess = float(fs[0]), grads[0], hesses[0]
    w2 = 1.0 + float(grad @ grad)
    w = math.sqrt(w2)
    g = np.eye(S.n) + np.outer(grad, grad)
    g_inv = np.eye(S.n) - np.outer(grad, grad) / w2
    II = hess / w
    H = float(np.trace(g_inv @ hess)) / w
    B = g_inv @ II
    II_norm_sq = float(np.trace(B @ B))
    R_g = H * H - II_norm_sq
    rho = float(x @ x) + f * f
    eta = (f - float(x @ grad)) / w
    return PointGeometry(g, g_inv, II, H, R_g, rho, eta, w, f, grad, hess)


@dataclass
class JetGeometry:
    """Exact graph quantities of f, each a jet truncated at order W.

    With inv_w2 = 1/(1 + |grad f|^2) the inverse metric is
    g^{-1} = I - inv_w2 grad f grad f^T (Sherman-Morrison), so every
    g-trace is rational in these jets: tr_g M = tr M - inv_w2 grad f.M grad f.
    """

    grad: List[Jet]  # grad f
    hess: List[List[Jet]]  # Hess f; hess[a][b] and hess[b][a] are one jet
    inv_w2: Jet  # 1/(1 + |grad f|^2)
    hess_grad: List[Jet]  # Hess f . grad f
    trace: Jet  # tr_g Hess f = Lap f - inv_w2 grad f . Hess f grad f


def jet_geometry(poly: MultiPoly, W: int) -> JetGeometry:
    """The exact counterpart of `point_geometry`: grad f, Hess f, inv_w2,
    Hess f . grad f and tr_g Hess f of the polynomial f, truncated at
    total order W."""
    n = poly.n
    zero = Jet.const(n, 0, W)
    first = poly.grad()
    grad = [Jet.of(p, W) for p in first]
    hess = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            hess[a][b] = hess[b][a] = Jet.of(first[a].diff(b), W)
    inv_w2 = (Jet.const(n, 1, W) + sum((g * g for g in grad), zero)).power_unit(-1)
    hess_grad = [sum((hess[a][c] * grad[c] for c in range(n)), zero) for a in range(n)]
    lap = sum((hess[a][a] for a in range(n)), zero)
    quad = sum((grad[a] * hess_grad[a] for a in range(n)), zero)
    return JetGeometry(grad, hess, inv_w2, hess_grad, lap - inv_w2 * quad)


def _metric_field(S: GraphSurface) -> Callable[[np.ndarray], np.ndarray]:
    """The induced metric g = I + grad f grad f^T as a function of x."""

    def metric(p):
        grad = S.f_grad(p)
        return np.eye(S.n) + np.outer(grad, grad)

    return metric


# -- the rho / eta identities ---------------------------------------------------


@dataclass
class RhoIdentityResiduals:
    """Residuals of the three position-vector identities on M:
    |grad_g rho|^2 = 4 rho - 4 eta^2,
    Hess_g rho = 2 g + 2 eta II,
    Lap_g rho = 2 n + 2 eta H."""

    grad_sq: float
    hessian: float
    laplacian: float
    exact: bool = False

    def max(self) -> float:
        """The largest |residual|, or NaN if any residual is not finite:
        a NaN must fail a `max() < tol` check, which Python's max, keeping
        its first argument, would let it pass."""
        res = (abs(self.grad_sq), abs(self.hessian), abs(self.laplacian))
        return max(res) if all(map(math.isfinite, res)) else math.nan


def verify_rho_identities(S: GraphSurface, x) -> RhoIdentityResiduals:
    if S.symbolic:
        return _verify_rho_symbolic(S)
    return _verify_rho_numeric(S, x)


def _verify_rho_numeric(S: GraphSurface, x) -> RhoIdentityResiduals:
    x = np.asarray(x, dtype=float)
    if x.shape != (S.n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be one finite point of {S.n} coordinates, got {x!r}")
    geo = point_geometry(S, x)
    f, grad, hess = geo.f, geo.grad, geo.hess

    rho_grad = 2.0 * x + 2.0 * f * grad
    rho_hess = 2.0 * np.eye(S.n) + 2.0 * np.outer(grad, grad) + 2.0 * f * hess

    # Christoffel symbols from finite differences of the metric field
    # (independent of the closed-form Gamma used in the symbolic path).
    # Gamma must come from this nested stencil, not from the product rule
    # on the Hessian above: the identities are algebraic in the 2-jet, so
    # with a Gamma built from the same Hessian they hold for any Hessian
    # (one off by 1e-3 read 5.6e-17 on the n = 3 sphere, against 6.0e-5
    # with this Gamma) and the check would test nothing.
    h = 1e-3 * max(1.0, float(np.linalg.norm(x)))
    gamma = numdiff.christoffel(geo.g, numdiff.gradient(_metric_field(S), x, h))

    cov_hess = rho_hess - np.einsum("cab,c->ab", gamma, rho_grad)
    res1 = float(rho_grad @ geo.g_inv @ rho_grad) - (4.0 * geo.rho - 4.0 * geo.eta**2)
    res2 = float(np.max(np.abs(cov_hess - 2.0 * geo.g - 2.0 * geo.eta * geo.II)))
    res3 = float(np.trace(geo.g_inv @ cov_hess)) - (2.0 * S.n + 2.0 * geo.eta * geo.H)
    return RhoIdentityResiduals(res1, res2, res3, exact=False)


def _verify_rho_symbolic(S: GraphSurface) -> RhoIdentityResiduals:
    """Exact jet computation; residuals are identically zero jets when the
    identities hold to the truncation order.

    f is certified to its jet order D, its Hessian only to D - 2, and
    products inherit the weakest certification, so everything is computed
    at W = D - 2.  Truncating at a total degree is a ring homomorphism, so
    this gives the same certified residuals as working at D.

    Square roots never appear: with w = 1/(1 + |grad f|^2) one has
    eta^2 = (f - x.grad f)^2 w,  eta II_ab = (f - x.grad f) f_ab w, and
    eta H = (f - x.grad f) w tr_g(Hess f), all rational in jets.
    """
    n, W = S.n, S.f_jet.order - 2
    geo = jet_geometry(S.f_jet.poly, W)
    grad, hess, w = geo.grad, geo.hess, geo.inv_w2
    zero = Jet.const(n, 0, W)
    f = S.f_jet.rejet(W)
    xs = [Jet.of(MultiPoly.var(n, i), W) for i in range(n)]

    u = f - sum((xs[i] * grad[i] for i in range(n)), zero)  # eta sqrt(1+|grad f|^2)
    uw = u * w
    rho = Jet.of(MultiPoly.x_norm_sq(n), W) + f * f
    rho_grad = [2 * xs[i] + 2 * f * grad[i] for i in range(n)]
    graddot = sum((grad[i] * rho_grad[i] for i in range(n)), zero)
    wgd = w * graddot

    # |grad_g rho|^2 with g^{-1} = I - w grad f grad f^T.
    lhs1 = sum((r * r for r in rho_grad), zero) - wgd * graddot
    res1 = lhs1 - (4 * rho - 4 * u * uw)

    def mag(j: Jet) -> float:
        return max(map(abs, j.poly.num.values()), default=0) / j.poly.den

    # Gamma^c_ab = (g^{-1} grad f)_c f_ab = w grad_c f_ab, so
    # Hess_ab = rho_ab - w (grad f . grad rho) f_ab.  The loop also sums
    # tr rho'' and grad f . rho'' grad f for the Laplacian.
    res2_max = 0.0
    tr_rho_hess, quad = zero, zero
    for a in range(n):
        for b in range(a, n):
            gg = grad[a] * grad[b]
            rho_ab = Jet.const(n, 2 if a == b else 0, W) + 2 * gg + 2 * f * hess[a][b]
            cov = rho_ab - wgd * hess[a][b]
            g_ab = Jet.const(n, 1 if a == b else 0, W) + gg
            res2_max = max(res2_max, mag(cov - 2 * g_ab - 2 * uw * hess[a][b]))
            quad = quad + (1 if a == b else 2) * (rho_ab * gg)
            if a == b:
                tr_rho_hess = tr_rho_hess + rho_ab

    # Laplacian: tr_g Cov = tr_g rho'' - w graddot tr_g f'', tr_g M = tr M - w grad f.M grad f.
    lap_lhs = tr_rho_hess - w * quad - wgd * geo.trace
    res3 = lap_lhs - (Jet.const(n, 2 * n, W) + 2 * uw * geo.trace)

    return RhoIdentityResiduals(mag(res1), res2_max, mag(res3), exact=True)
