"""The central-difference stencil: exactness on low-degree polynomials,
agreement with a point-by-point loop, evaluation counts, array-valued
fields, and the Richardson-extrapolated gradient and Hessian built on it;
forward-mode Dual numbers, nested ones included."""

from itertools import combinations

import numpy as np
import pytest

from umbilic.numdiff import (
    Dual,
    christoffel,
    differences,
    gradient,
    hessian,
    metric_derivatives,
    richardson,
    richardson_points,
    scalar_curvature_fd,
    stencil_points,
)

RNG = np.random.default_rng(20250101)


class Cubic:
    """F(x) = a.x + x.B.x + C[x, x, x] for each output component, with the
    output shape `shape` and B, C symmetric in their coordinate axes; x is
    (n,) or (N, n)."""

    def __init__(self, n, shape=(), rng=RNG):
        self.shape = shape
        self.a = rng.normal(size=shape + (n,))
        B = rng.normal(size=shape + (n, n))
        self.B = (B + np.swapaxes(B, -1, -2)) / 2.0
        C = rng.normal(size=shape + (n, n, n))
        k = len(shape)
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        axes = lambda p: tuple(range(k)) + tuple(k + i for i in p)  # noqa: E731
        self.C = sum(np.transpose(C, axes(p)) for p in perms) / 6.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        X = np.atleast_2d(x)
        out = (
            np.einsum("...i,pi->p...", self.a, X)
            + np.einsum("...ij,pi,pj->p...", self.B, X, X)
            + np.einsum("...ijk,pi,pj,pk->p...", self.C, X, X, X)
        )
        return out if x.ndim == 2 else out[0]

    def grad(self, x):
        """d_k F at a single point, derivative axis first."""
        g = (
            self.a
            + 2.0 * np.einsum("...kj,j->...k", self.B, x)
            + 3.0 * np.einsum("...kij,i,j->...k", self.C, x, x)
        )
        return np.moveaxis(g, -1, 0)

    def hess(self, x):
        """d_k d_l F at a single point, derivative axes first."""
        H = 2.0 * self.B + 6.0 * np.einsum("...kli,i->...kl", self.C, x)
        return np.moveaxis(np.moveaxis(H, -1, 0), -1, 0)


def quadratic(n, shape=()):
    F = Cubic(n, shape)
    F.C[...] = 0.0
    return F


class Counted:
    """F with a log of the argument shape of each call."""

    def __init__(self, F):
        self.F = F
        self.shapes = []

    def __call__(self, x):
        self.shapes.append(np.shape(x))
        return self.F(x)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_first_derivatives_exact_on_quadratics(n):
    F = quadratic(n)
    x = RNG.uniform(-1, 1, n)
    F0, dF, ddF = metric_derivatives(F, x, 0.1, order=1)
    assert F0 is None and ddF is None
    assert dF.shape == (n,)
    assert np.max(np.abs(dF - F.grad(x))) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_second_derivatives_exact_on_cubics(n):
    F = Cubic(n)
    x = RNG.uniform(-1, 1, n)
    F0, dF, ddF = metric_derivatives(F, x, 0.1)
    assert F0 == pytest.approx(F(x), abs=0.0)
    assert ddF.shape == (n, n)
    assert np.max(np.abs(ddF - F.hess(x))) < 1e-9
    assert np.array_equal(ddF, ddF.T)


@pytest.mark.parametrize("order", [1, 2])
def test_evaluation_counts(order):
    for n in (1, 2, 3, 4, 6):
        F = Counted(Cubic(n))
        metric_derivatives(F, np.zeros(n), 1e-3, order=order)
        expect = 2 * n if order == 1 else 1 + 2 * n + 2 * n * (n - 1)
        assert len(F.shapes) == expect, n


def test_stencil_takes_one_point():
    with pytest.raises(ValueError, match="one point"):
        metric_derivatives(Cubic(3), RNG.uniform(-1, 1, (4, 3)), 1e-3)


def loop_stencil(F, x, h, order=2):
    """The single-point stencil as one loop over the points, each built and
    differenced on its own: the reference for `metric_derivatives`."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e = np.eye(n)

    def at(*offsets):
        return [np.asarray(F(x + h * o), dtype=float) for o in offsets]

    F0 = at(0.0)[0] if order == 2 else None
    dF = ddF = None
    for k in range(n):
        Fp, Fm = at(e[k], -e[k])
        if dF is None:
            dF = np.empty((n,) + Fp.shape)
            if order == 2:
                ddF = np.empty((n, n) + Fp.shape)
        dF[k] = (Fp - Fm) / (2.0 * h)
        if order == 2:
            ddF[k, k] = (Fp - 2.0 * F0 + Fm) / h**2
    if order == 2:
        for k, l in combinations(range(n), 2):
            Fpp, Fpm, Fmp, Fmm = at(e[k] + e[l], e[k] - e[l], e[l] - e[k], -e[k] - e[l])
            ddF[k, l] = ddF[l, k] = (Fpp - Fpm - Fmp + Fmm) / (4.0 * h**2)
    return F0, dF, ddF


class Logged:
    """F with a copy of each argument, to compare the points bit for bit."""

    def __init__(self, F):
        self.F = F
        self.args = []

    def __call__(self, x):
        self.args.append(np.array(x, copy=True))
        return self.F(x)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
def test_single_point_matches_loop_bitwise(order, n, shape):
    # the table x + h O and the whole-array formulas give the loop's points
    # in the loop's order and its results to the bit; a -0.0 coordinate
    # checks that the offsets carry the loop's signed zeros
    h = 1e-3
    for x in (RNG.uniform(-2, 2, n), np.r_[-0.0, RNG.uniform(-2, 2, n - 1)]):
        F, ref = Logged(Cubic(n, shape)), Logged(None)
        ref.F = F.F
        got, want = metric_derivatives(F, x, h, order), loop_stencil(ref, x, h, order)
        assert len(F.args) == len(ref.args)
        for a, b in zip(F.args, ref.args):
            assert np.array_equal(np.signbit(a), np.signbit(b)) and np.array_equal(a, b)
        for g, w in zip(got, want):
            if w is None:
                assert g is None
            else:
                assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 4])
def test_batched_stencils_match_one_point_bitwise(order, n):
    # the stencils of N points, each at its own step, as one (m, N, n)
    # array and one call of a batch field: each point's rows, values and
    # differences equal `metric_derivatives` at that point to the bit, and
    # the Richardson step equals `gradient` / `hessian`
    F = Cubic(n, (2,))
    X = RNG.uniform(-1, 1, (5, n))
    h = RNG.uniform(1e-4, 1e-2, 5)
    P = stencil_points(X, h, order)
    assert P.shape[1:] == (5, n)
    Y = F(P.reshape(-1, n)).reshape(P.shape[:2] + (2,))
    F0, dF, ddF = differences(Y, h[:, None], order)
    R = richardson(F(richardson_points(X, h, order).reshape(-1, n)).reshape(-1, 5, 2),
                   h[:, None], order)
    one = gradient if order == 1 else hessian
    for i, x in enumerate(X):
        assert np.array_equal(P[:, i], stencil_points(x, h[i], order))
        want = metric_derivatives(F, x, h[i], order)
        assert np.array_equal(dF[..., i, :], want[1])
        if order == 2:
            assert np.array_equal(F0[i], want[0]) and np.array_equal(ddF[..., i, :], want[2])
        assert np.array_equal(R[..., i, :], one(F, x, h[i]))


def test_vector_and_matrix_valued_fields():
    n = 4
    for shape in [(3,), (2, 3), (n, n)]:
        F = Cubic(n, shape)
        x = RNG.uniform(-1, 1, n)
        F0, dF, ddF = metric_derivatives(F, x, 0.1)
        assert F0.shape == shape
        assert dF.shape == (n,) + shape
        assert ddF.shape == (n, n) + shape
        assert np.max(np.abs(ddF - F.hess(x))) < 1e-9
        G = quadratic(n, shape)
        _, dG, _ = metric_derivatives(G, x, 0.1, order=1)
        assert np.max(np.abs(dG - G.grad(x))) < 1e-9


def test_richardson_gradient_and_hessian():
    def f(x):
        return float(np.exp(x[0]) * np.sin(x[1]) + x[0] * x[2] ** 3)

    x = np.array([0.3, -0.7, 0.5])
    e0, s1 = np.exp(x[0]), np.sin(x[1])
    c1 = np.cos(x[1])
    g = np.array([e0 * s1 + x[2] ** 3, e0 * c1, 3 * x[0] * x[2] ** 2])
    H = np.array([
        [e0 * s1, e0 * c1, 3 * x[2] ** 2],
        [e0 * c1, -e0 * s1, 0.0],
        [3 * x[2] ** 2, 0.0, 6 * x[0] * x[2]],
    ])
    assert np.max(np.abs(gradient(f, x) - g)) < 1e-9
    assert np.max(np.abs(hessian(f, x) - H)) < 1e-7
    # the gradient of a matrix field keeps the derivative axis first
    G = Cubic(3, (3, 3))
    assert np.max(np.abs(gradient(G, x, 1e-3) - G.grad(x))) < 1e-8


def test_dual_carries_exact_derivative():
    # q(t) = (3 - t)(1 + t^2)^{-2} / (t + 2) + 5 t on arrays and scalars,
    # with plain floats and arrays as constants on either side
    t = np.linspace(0.5, 4.0, 9)
    T = Dual(t, np.ones_like(t))
    q = (3.0 - T) * (1.0 / ((1.0 + T * T) * (1.0 + T * T))) / (T + 2.0) + 5.0 * T
    ref = (3.0 - t) / ((1.0 + t * t) ** 2 * (t + 2.0)) + 5.0 * t
    dref = (
        -1.0 / ((1.0 + t * t) ** 2 * (t + 2.0))
        - (3.0 - t) * 4.0 * t / ((1.0 + t * t) ** 3 * (t + 2.0))
        - (3.0 - t) / ((1.0 + t * t) ** 2 * (t + 2.0) ** 2)
        + 5.0
    )
    assert np.allclose(q.v, ref, rtol=1e-14, atol=0.0)
    assert np.allclose(q.d, dref, rtol=1e-13, atol=1e-15)
    # an ndarray on the left defers to the Dual instead of broadcasting it
    mixed = np.ones(3) * Dual(2.0, 1.0) - np.arange(3.0)
    assert isinstance(mixed, Dual)
    assert list(mixed.v) == [2.0, 1.0, 0.0] and list(mixed.d) == [1.0, 1.0, 1.0]


def test_dual_array_methods():
    # rows x(t) = (t, 2t, t^2): |x| = t sqrt(5 + t^2) with its t-derivative,
    # through indexing, sum and sqrt exactly as array code spells them
    t = np.linspace(0.5, 4.0, 9)
    u = 5.0 + t * t
    x = np.stack([t, 2.0 * t, t * t], axis=1)
    dx = np.stack([np.ones_like(t), 2.0 * np.ones_like(t), 2.0 * t], axis=1)
    X = Dual(x, dx)
    norm = (X * X).sum(axis=1).sqrt()
    assert np.allclose(norm.v, t * np.sqrt(u), rtol=1e-15, atol=0.0)
    assert np.allclose(norm.d, (5.0 + 2.0 * t * t) / np.sqrt(u), rtol=1e-14)
    col = (X / norm[:, None])[:, 2]
    assert np.allclose(col.v, t / np.sqrt(u), rtol=1e-15)
    assert np.allclose(col.d, 5.0 / u**1.5, rtol=1e-14)
    # the same rows as a Dual of Duals, with x'' = (0, 0, 2): the same code
    # gives the exact second t-derivatives, and the inner and the outer
    # first derivatives agree
    ddx = np.stack([0.0 * t, 0.0 * t, 2.0 + 0.0 * t], axis=1)
    X = Dual(Dual(x, dx), Dual(dx, ddx))
    norm = (X * X).sum(axis=1).sqrt()
    assert np.allclose(norm.v.v, t * np.sqrt(u), rtol=1e-15, atol=0.0)
    assert np.allclose(norm.d.v, (5.0 + 2.0 * t * t) / np.sqrt(u), rtol=1e-14)
    assert np.array_equal(norm.v.d, norm.d.v)
    assert np.allclose(norm.d.d, t * (15.0 + 2.0 * t * t) / u**1.5, rtol=1e-13)
    col = (X / norm[:, None])[:, 2]
    assert np.allclose(col.d.v, 5.0 / u**1.5, rtol=1e-14)
    assert np.allclose(col.d.d, -15.0 * t / u**2.5, rtol=1e-13)


def test_nested_dual_hessian_on_separate_axes():
    # f(x, y) = x^2 y / (1 + y) at N points: the inner directions sit on a
    # leading axis the outer ones broadcast against, so d.d[j, k] is the
    # Hessian entry f_jk
    P = RNG.uniform(0.5, 2.0, (7, 2))
    E = np.broadcast_to(np.eye(2)[:, None, :], (2, 7, 2))
    Z = Dual(Dual(P, E[:, None]), Dual(E, np.zeros(2)))
    x, y = Z[..., 0], Z[..., 1]
    f = x * x * y / (1.0 + y)
    x0, y0 = P[:, 0], P[:, 1]
    hess = [[2.0 * y0 / (1.0 + y0), 2.0 * x0 / (1.0 + y0) ** 2],
            [2.0 * x0 / (1.0 + y0) ** 2, -2.0 * x0 * x0 / (1.0 + y0) ** 3]]
    assert f.d.d.shape == (2, 2, 7)
    assert np.allclose(f.d.d, np.array(hess), rtol=1e-14, atol=0.0)
    grad = [2.0 * x0 * y0 / (1.0 + y0), x0 * x0 / (1.0 + y0) ** 2]
    assert np.allclose(f.d.v, grad, rtol=1e-14)


# -- curvature of a numeric metric -----------------------------------------------


def loop_christoffel(ginv, dg):
    """Reference: Gamma[c, a, b] summed index by index."""
    n = ginv.shape[0]
    gamma = np.zeros((n, n, n))
    for c, a, b, d in np.ndindex(n, n, n, n):
        gamma[c, a, b] += 0.5 * ginv[c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
    return gamma


def loop_scalar_curvature(g, dg, ddg):
    """Reference: R = g^{ab} Ric_ab from Christoffel symbols and their
    derivatives, summed index by index."""
    n = g.shape[0]
    ginv = np.linalg.inv(g)
    gamma = loop_christoffel(ginv, dg)
    dgamma = np.array(
        [loop_christoffel(-ginv @ dg[k] @ ginv, dg) + loop_christoffel(ginv, ddg[k]) for k in range(n)]
    )
    R = 0.0
    for a, b, c in np.ndindex(n, n, n):
        s = dgamma[c, c, a, b] - dgamma[a, c, c, b]
        for d in range(n):
            s += gamma[c, c, d] * gamma[d, a, b] - gamma[c, a, d] * gamma[d, c, b]
        R += ginv[a, b] * s
    return R


@pytest.mark.parametrize("n", [2, 3, 5])
def test_curvature_contractions_match_loops(n):
    # The einsum contractions sum in another order than the loops, so the
    # results agree to a few rounding errors of the largest term.
    rng = np.random.default_rng(60 + n)
    A, B, C = (rng.standard_normal((n,) * k) for k in (2, 3, 4))
    a0, a1, a2 = A @ A.T + n * np.eye(n), B + B.transpose(0, 2, 1), C + C.transpose(0, 1, 3, 2)

    def metric(x):
        return a0 + np.einsum("kij,k->ij", a1, x) + np.einsum("klij,k,l->ij", a2, x, x)

    g, dg, ddg = metric_derivatives(metric, np.zeros(n), 1e-3)
    ref = loop_christoffel(np.linalg.inv(g), dg)
    assert np.allclose(christoffel(g, dg), ref, rtol=0, atol=1e-13 * np.abs(ref).max())
    R = scalar_curvature_fd(metric, np.zeros(n), 1e-3)
    assert R == pytest.approx(loop_scalar_curvature(g, dg, ddg), rel=1e-12, abs=1e-12)
