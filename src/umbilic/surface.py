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

The exact counterparts for a jet, `jet_geometry` and the rho identities
`rho_identity_residuals`, are in `obstruction`.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import numdiff
from .obstruction import RhoIdentityResiduals, rho_identity_residuals
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
    `coeffs`; zero polynomials alone give no rows.  Points (N, n) fill
    each level with one gather and one multiply, no powers; one point
    (n,) is a batch of one.  The (N, K) values are one matrix product,
    taken as (K, rows) @ (rows, N) and returned as its transpose: at 4096
    points the (N, rows) @ (rows, K) form on the transposed table took 2x
    (sphere n = 3) to 3.5x (n = 5) as long.
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

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[-1] != self.n:
            raise ValueError(f"points need {self.n} coordinates, got {pts.shape[-1]}")
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


@dataclass(frozen=True)
class GraphSurface:
    """A hypersurface given as the graph of f over a neighborhood of 0.

    f is an exact jet (f_jet) or a black box (f_num).  f_num takes one
    point (n,) and returns a float; it may also take a batch (N, n) and
    return a float array of shape (N,), the values at the rows
    (`_f_num_rows` tells the two apart).  A numeric surface's derivatives
    are finite differences of one `f_value` call (`_fd`).  The fields are
    frozen, since the evaluators and the batch decision cached from them
    would go stale; `dataclasses.replace` makes a changed copy."""

    n: int
    f_jet: Optional[Jet] = None
    f_num: Optional[Callable[[np.ndarray], float]] = None
    fd_step: float = 1e-5
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False, init=False, compare=False)

    def __post_init__(self):
        if (self.f_jet is None) == (self.f_num is None):
            raise ValueError("exactly one of f_jet / f_num is required")
        if not 0.0 < self.fd_step < math.inf:
            raise ValueError(f"fd_step must be a finite positive number, not {self.fd_step!r}")
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
            s = replace(s, fd_step=float(data["fd_step"]))
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

    def f_value(self, x) -> float | np.ndarray:
        """f at one point x (n,) as a float, or at the rows of x (N, n) as
        an (N,) array from one call of the order-0 table or of f_num."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 2:
            return self._sym(0)(x)[:, 0] if self.symbolic else self._f_num_rows(x)
        if self.symbolic:
            return float(self._sym(0)(x)[0, 0])
        return float(self.f_num(x))

    def _f_num_rows(self, X: np.ndarray) -> np.ndarray:
        """f_num at the rows of X (N, n): one call if f_num takes a batch,
        else one per row.  The first batch decides, once per surface, padded
        to n + 1 rows with its first row so that a one-point f_num reading
        x[0], x[1], ... neither passes on (n, n) nor fails on one row.  A
        float array of one value per row says batch; any other result, a
        TypeError or a ValueError says one point; warnings are muted."""
        if "batch" not in self._cache:
            pad = self.n + 1 - len(X)
            probe = np.concatenate([X, np.repeat(X[:1], pad, axis=0)]) if pad > 0 else X
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                try:
                    out = self.f_num(probe)
                except (TypeError, ValueError):
                    out = None
            self._cache["batch"] = (isinstance(out, np.ndarray) and out.dtype.kind == "f"
                                    and out.shape == probe.shape[:1])
            if self._cache["batch"]:
                return out[: len(X)].astype(float)
        if self._cache["batch"]:
            return np.asarray(self.f_num(X), dtype=float)
        return np.array([float(self.f_num(x)) for x in X])

    def _fd(self, *wanted: tuple) -> list:
        """For each (pts, orders) of wanted, pts (N, n) or (n,): f at the
        rows for order 0, and for k = 1 or 2 its k-th derivatives there,
        derivative axes first, all from one `f_value` call.  Each is one
        Richardson step of max(1, |p|) times fd_step for k = 1, or times
        0.1 sqrt(fd_step) for k = 2, whose roundoff grows like eps/h^2."""
        jobs = []
        for pts, orders in wanted:
            # |p| from one dot product per row, as np.linalg.norm takes one point
            scale = np.maximum(1.0, np.sqrt(np.vecdot(pts, pts)))
            steps = (None, self.fd_step * scale, 0.1 * math.sqrt(self.fd_step) * scale)
            jobs += [(k, steps[k], numdiff.richardson_points(pts, steps[k], k) if k else pts)
                     for k in orders]
        rows = [p.reshape(-1, self.n) for _, _, p in jobs]
        ends = np.cumsum([len(r) for r in rows[:-1]])
        values = np.split(self.f_value(np.concatenate(rows)), ends)
        return [numdiff.richardson(v.reshape(p.shape[:-1]), h, k) if k else v
                for v, (k, h, p) in zip(values, jobs)]

    def f_grad(self, x) -> np.ndarray:
        return self.f_derivatives_batch(x, 1)[1][0]

    def f_hess(self, x) -> np.ndarray:
        return self.f_derivatives_batch(x, 2)[2][0]

    def f_derivatives_batch(self, pts: np.ndarray, order: int = 1) -> tuple:
        """f, grad f and, up to the order, Hess f and grad^3 f at the rows
        of pts, shaped (N,), (N, n), (N, n, n) and (N, n, n, n): one
        evaluator call on a symbolic surface.  A numeric one takes order 2
        at most, from one `f_value` call on all the stencils (`_fd`)."""
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
            # point axis first, C-ordered: einsum may round otherwise downstream
            parts = [np.ascontiguousarray(np.moveaxis(d, -1, 0))
                     for d in self._fd((pts, range(order + 1)))]
        return tuple(v.reshape((N,) + (n,) * k) for k, v in enumerate(parts[: order + 1]))

    def f_radial_batch(self, pts: np.ndarray) -> tuple:
        """f, grad f, x . grad f and (x . grad) grad f at the rows of pts,
        shaped (N,), (N, n), (N,) and (N, n).  Along the ray x = rho xhat
        the last two are rho times the rho-derivatives of the first two.
        One call of the order-1 evaluator on a symbolic surface; on a
        numeric one they come from grad f and Hess f of
        `f_derivatives_batch`, one `f_value` call."""
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
    H: float | np.ndarray
    R_g: float | np.ndarray
    rho: float | np.ndarray
    eta: float | np.ndarray
    w: float | np.ndarray  # sqrt(1 + |grad f|^2)
    f: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def point_geometry(S: GraphSurface, x) -> PointGeometry:
    """Metric, second fundamental form, curvatures, rho and eta at one
    point x (n,), the scalars floats, or at the points x (..., n), each
    field with their leading axes in front; with the f, grad f and Hess f
    they were computed from, all from one `f_derivatives_batch` call."""
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    parts = S.f_derivatives_batch(x.reshape(-1, x.shape[-1]), 2)
    f, grad, hess = (v.reshape(lead + v.shape[1:]) for v in parts)
    return _geometry(x, f[()], grad, hess)  # f[()]: a float for one point


def _geometry(x: np.ndarray, f, grad: np.ndarray, hess: np.ndarray) -> PointGeometry:
    """`point_geometry` from f, grad f and Hess f at the points x (..., n);
    a point (n,) with a float f gives float scalars."""
    eye = np.eye(x.shape[-1])
    w2 = 1.0 + np.vecdot(grad, grad)
    w = np.sqrt(w2)
    outer = grad[..., :, None] * grad[..., None, :]
    g_inv = eye - outer / w2[..., None, None]
    II = hess / w[..., None, None]
    H = np.trace(g_inv @ hess, axis1=-2, axis2=-1) / w
    B = g_inv @ II
    R_g = H * H - np.trace(B @ B, axis1=-2, axis2=-1)
    rho = np.vecdot(x, x) + f * f
    eta = (f - np.vecdot(x, grad)) / w
    return PointGeometry(eye + outer, g_inv, II, H, R_g, rho, eta, w, f, grad, hess)


# -- the rho / eta identities ---------------------------------------------------


def verify_rho_identities(S: GraphSurface, x) -> RhoIdentityResiduals:
    """The identities exactly on a jet surface, x unread
    (`obstruction.rho_identity_residuals`), else at x from finite
    differences of f.  Every point that check needs is known before f is
    called: x, the Richardson stencils of grad f and Hess f at x, and those
    of grad f around each point of the metric's gradient stencil.  `_fd`
    takes them, M = 20n^2 + 4n + 3 points, in one `f_value` call."""
    if S.symbolic:
        return rho_identity_residuals(S.f_jet)
    x = np.asarray(x, dtype=float)
    if x.shape != (S.n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x must be one finite point of {S.n} coordinates, got {x!r}")
    n = S.n
    hg = 1e-3 * max(1.0, float(np.linalg.norm(x)))
    outer = numdiff.richardson_points(x, hg, 1)
    (f,), grad, hess, dq = S._fd((x, (0, 1, 2)), (outer, (1,)))
    geo = _geometry(x, float(f), grad, hess)

    rho_grad = 2.0 * x + 2.0 * f * grad
    rho_hess = 2.0 * np.eye(n) + 2.0 * np.outer(grad, grad) + 2.0 * f * hess

    # Christoffel symbols from finite differences of the metric field
    # g = I + grad f grad f^T at the outer points, grad f there itself from
    # differences of f (independent of the closed-form Gamma used in the
    # symbolic path).  Gamma must come from this nested stencil, not from
    # the product rule on the Hessian above: the identities are algebraic
    # in the 2-jet, so with a Gamma built from the same Hessian they hold
    # for any Hessian (one off by 1e-3 read 5.6e-17 on the n = 3 sphere,
    # against 6.0e-5 with this Gamma) and the check would test nothing.
    gq = dq.T
    metric = np.eye(n) + gq[:, :, None] * gq[:, None, :]
    gamma = numdiff.christoffel(geo.g, numdiff.richardson(metric, hg, 1))

    cov_hess = rho_hess - np.einsum("cab,c->ab", gamma, rho_grad)
    res1 = float(rho_grad @ geo.g_inv @ rho_grad) - (4.0 * geo.rho - 4.0 * geo.eta**2)
    res2 = float(np.max(np.abs(cov_hess - 2.0 * geo.g - 2.0 * geo.eta * geo.II)))
    res3 = float(np.trace(geo.g_inv @ cov_hess)) - (2.0 * n + 2.0 * geo.eta * geo.H)
    return RhoIdentityResiduals(res1, res2, res3, exact=False)
