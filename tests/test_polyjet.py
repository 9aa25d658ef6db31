"""Exact algebra layer: polynomials, jets, spherical series."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from umbilic.polyjet import (
    Jet,
    MultiPoly,
    SphericalSeries,
    extract_radial_factors,
    poly_divexact,
    poly_from_json,
    poly_to_json,
    radial_laplacian_term,
)


def x(n, i):
    return MultiPoly.var(n, i)


def rand_poly(rng, n, max_deg=3, nterms=4, with_param=False):
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(n)] += 1
        p = (("H", rng.randint(1, 2)),) if with_param and rng.random() < 0.4 else ()
        terms[(tuple(e), p)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly.make(n, terms)


# -- MultiPoly basics -----------------------------------------------------------


def test_constructors_and_eval():
    n = 3
    p = x(n, 0) * x(n, 0) + MultiPoly.const(n, 2) * x(n, 1)
    assert p.evaluate([Fraction(2), Fraction(3), Fraction(0)]) == Fraction(10)
    assert p.degree() == 2
    assert not p.is_homogeneous()
    assert p.homogeneous_part(2) == x(n, 0) * x(n, 0)


def test_param_has_zero_spatial_degree():
    n = 2
    H = MultiPoly.param(n, "H")
    p = H * H * x(n, 0)
    assert p.degree() == 1
    assert p.evaluate([Fraction(3), Fraction(0)], {"H": Fraction(2)}) == Fraction(12)
    assert p.subs_params({"H": Fraction(2)}) == x(n, 0).scale(4)


def test_laplacian_of_radial():
    n = 5
    r2 = MultiPoly.x_norm_sq(n)
    assert r2.laplacian() == MultiPoly.const(n, 2 * n)


# -- exact division -------------------------------------------------------------


def test_divexact_self_division():
    n = 2
    p = MultiPoly.x_norm_sq(n)
    assert poly_divexact(p, p) == MultiPoly.const(n, 1)


def test_divexact_constructed_product():
    n = 6
    r2 = MultiPoly.x_norm_sq(n)
    assert poly_divexact(r2 * x(n, 0), r2) == x(n, 0)


def test_divexact_not_divisible():
    # Oracle: long division of x1^3 by |x|^2 over graded lex leaves a nonzero
    # remainder (the first quotient step needs x1^3 / x1^2 = x1, and the
    # correction introduces x1*x2^2 terms whose leading monomial is not
    # divisible by any leading monomial of |x|^2).
    n = 6
    p = x(n, 0) ** 3
    assert poly_divexact(p, MultiPoly.x_norm_sq(n)) is None


def test_divexact_zero_divisor():
    n = 2
    with pytest.raises(ZeroDivisionError):
        poly_divexact(x(n, 0), MultiPoly.zero(n))


@pytest.mark.parametrize("seed", range(8))
def test_divexact_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    p = rand_poly(rng, n, with_param=True)
    q = rand_poly(rng, n)
    if q.is_zero:
        q = MultiPoly.const(n, 1) + x(n, 0)
    assert poly_divexact(p * q, q) == p


def test_extract_radial_factors():
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    k, core = extract_radial_factors(r2 * r2 * x(n, 1))
    assert (k, core) == (2, x(n, 1))


# -- jets -------------------------------------------------------------------


def test_jet_mul_truncates():
    n = 1
    one = Jet.const(n, 1, 2)
    xj = Jet.of(x(n, 0), 2)
    prod = (one + xj) * (one - xj)
    assert prod == one - xj * xj


def test_jet_radial_square_truncation():
    n = 3
    r2 = Jet.of(MultiPoly.x_norm_sq(n), 3)
    assert (r2 * r2).is_zero


def test_jet_sphere_square_by_hand():
    # f = |x|^2/2 + |x|^4/8 at D=6: f*f = |x|^4/4 + |x|^6/8.
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    f = Jet.of(r2.scale(Fraction(1, 2)) + (r2 * r2).scale(Fraction(1, 8)), 6)
    expect = Jet.of((r2 * r2).scale(Fraction(1, 4)) + (r2 * r2 * r2).scale(Fraction(1, 8)), 6)
    assert f * f == expect


def test_jet_invert_unit_geometric():
    n = 1
    u = Jet.const(n, 1, 3) + Jet.of(x(n, 0), 3)
    v = u.power_unit(-1)
    p = x(n, 0)
    expect = MultiPoly.const(n, 1) - p + p * p - p * p * p
    assert v.poly == expect
    assert (u * v) == Jet.const(n, 1, 3)


def test_jet_invert_grad_norm():
    # f = |x|^2/2 in n=3 has |grad f|^2 = |x|^2; 1/(1+|x|^2) = 1 - |x|^2 + |x|^4.
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    u = Jet.of(MultiPoly.const(n, 1) + r2, 4)
    expect = Jet.of(MultiPoly.const(n, 1) - r2 + r2 * r2, 4)
    assert u.power_unit(-1) == expect


def test_jet_power_unit_sqrt():
    n = 1
    u = Jet.const(n, 1, 2) + Jet.of(x(n, 0), 2)
    v = u.power_unit(Fraction(1, 2))
    p = x(n, 0)
    assert v.poly == MultiPoly.const(n, 1) + p.scale(Fraction(1, 2)) - (p * p).scale(
        Fraction(1, 8)
    )


def test_jet_power_unit_inverse_sqrt_pattern():
    # (1 + (H^2/2n^2) s)^(-1/2) = 1 - (H^2/4n^2) s + (3/8)(H^4/4n^4) s^2 + ...
    # with s a degree-2 placeholder; the k=1 case of the 1/r^k re-expansion.
    n = 2
    H = MultiPoly.param(n, "H")
    s = x(n, 0) * x(n, 1)
    u = Jet.of(MultiPoly.const(n, 1) + (H * H * s).scale(Fraction(1, 2 * n * n)), 4)
    v = u.power_unit(Fraction(-1, 2))
    H2 = H * H
    H4 = H2 * H2
    expect = (
        MultiPoly.const(n, 1)
        - (H2 * s).scale(Fraction(1, 4 * n * n))
        + (H4 * s * s).scale(Fraction(3, 8) * Fraction(1, 4 * n**4))
    )
    assert v.poly == expect


def test_jet_unit_preconditions():
    n = 2
    with pytest.raises(ValueError):
        Jet.of(x(n, 0), 3).power_unit(-1)
    with pytest.raises(ValueError):
        (Jet.const(n, 2, 3)).power_unit(Fraction(1, 2))


@pytest.mark.parametrize("seed", range(10))
def test_jet_unit_identities_random(seed):
    rng = random.Random(100 + seed)
    n = rng.randint(3, 7)
    D = rng.randint(3, 8)
    u = Jet.of(MultiPoly.const(n, 1) + rand_poly(rng, n, max_deg=D, with_param=True)
               - rand_poly(rng, n, max_deg=D, with_param=True).spatial_constant_part()
               + rand_poly(rng, n, max_deg=D).homogeneous_part(1), D)
    # Force unit constant part 1.
    u = Jet.of(MultiPoly.const(n, 1) + (u.poly - u.poly.spatial_constant_part()), D)
    assert u * u.power_unit(-1) == Jet.const(n, 1, D)
    s = u.power_unit(Fraction(1, 2))
    assert s * s == u


# -- spherical series --------------------------------------------------------


def test_canonicalize_single_extraction():
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    s = SphericalSeries.from_term(0, r2 * x(n, 0))
    assert s.terms == ((2, x(n, 0)),)


def test_canonicalize_merges_same_order():
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    s = SphericalSeries.canonicalize(
        n, [(0, x(n, 0) * x(n, 0)), (-2, r2 * x(n, 0) * x(n, 0))]
    )
    assert len(s.terms) == 1
    assert s.orders() == [2]
    assert s.terms[0] == (0, (x(n, 0) * x(n, 0)).scale(2))


def test_canonicalize_idempotent_and_value_preserving():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 4)
        raw = [(rng.randint(-2, 2), rand_poly(rng, n)) for _ in range(3)]
        s = SphericalSeries.canonicalize(n, raw)
        s2 = SphericalSeries.canonicalize(n, s.terms)
        assert s == s2
        pt = [rng.uniform(0.2, 1.0) for _ in range(n)]
        direct = 0.0
        r = math.sqrt(sum(v * v for v in pt))
        for m, P in raw:
            direct += r**m * float(P.evaluate(pt))
        assert abs(direct - s.evaluate(pt)) < 1e-12 * max(1.0, abs(direct))


def test_series_inverse_contract():
    # rho-like series: r^2 (1 + r^2/4): inverse must give exact 1.
    n = 3
    r2 = MultiPoly.x_norm_sq(n)
    rho = SphericalSeries.canonicalize(
        n, [(2, MultiPoly.const(n, 1)), (2, r2.scale(Fraction(1, 4)))], None, 8
    )
    inv = rho.power_unit(-1)
    assert rho * inv == SphericalSeries.one(n, None, 4)


def test_series_r2_times_rm2():
    n = 4
    a = SphericalSeries.from_term(2, MultiPoly.const(n, 1), None, 6)
    b = SphericalSeries.from_term(-2, MultiPoly.const(n, 1), None, 6)
    assert (a * b) == SphericalSeries.one(n, None, 4)


def test_series_power_unit_at_infinity():
    # (1 + c/t^2)^(-1/2) = 1 - c/2 t^-2 + 3c^2/8 t^-4 - ...
    n = 3
    c = Fraction(1, 3)
    u = SphericalSeries.canonicalize(
        n,
        [(0, MultiPoly.const(n, 1)), (-2, MultiPoly.const(n, c))],
        -6,
        0,
    )
    v = u.power_unit(Fraction(-1, 2), at_infinity=True)
    got = {m: P.constant_term() for m, P in v.terms}
    assert got[0] == 1
    assert got[-2] == -c / 2
    assert got[-4] == Fraction(3, 8) * c * c
    assert got[-6] == Fraction(-5, 16) * c**3
    assert u * v * v == SphericalSeries.one(n, -6, 0)


def test_series_radial_derivative():
    n = 2
    s = SphericalSeries.canonicalize(
        n, [(0, x(n, 0) * x(n, 1)), (3, MultiPoly.const(n, 1))], None, 5
    )
    d = s.radial_derivative()
    # r^2 P(theta) -> 2 r P(theta); r^3 -> 3 r^2.
    assert d.coefficient(1).terms == ((-2, (x(n, 0) * x(n, 1)).scale(2)),)
    assert d.coefficient(2).terms == ((0, MultiPoly.const(n, 3)),)


# -- radial Laplacian ---------------------------------------------------------


def test_radial_laplacian_matches_eigenvalue_form():
    # m=0, homogeneous degree k: Delta A = r^(k-2)[k(n+k-2) A(theta) + Lap_theta A]
    # which for the Euclidean Laplacian means Delta(A) itself; sanity: for
    # harmonic A = x1 x2 the r^m part must cancel the angular eigenvalue.
    n = 3
    A = x(n, 0) * x(n, 1)
    s = radial_laplacian_term(0, A, n)
    assert s.is_zero  # harmonic


def test_radial_laplacian_r2():
    n = 3
    s = radial_laplacian_term(2, MultiPoly.const(n, 1), n)
    assert s.terms == ((0, MultiPoly.const(n, 6)),)


@pytest.mark.parametrize("seed", range(6))
def test_radial_laplacian_finite_difference(seed):
    rng = random.Random(40 + seed)
    n = rng.randint(2, 5)
    d = rng.randint(0, 4)
    P = rand_poly(rng, n, max_deg=d, nterms=5).homogeneous_part(d)
    if P.is_zero:
        P = x(n, 0) ** d if d else MultiPoly.const(n, 1)
    m = rng.choice([-2, 0, 1, 2, 3])
    s = radial_laplacian_term(m, P, n)
    pt = [rng.uniform(0.4, 1.1) for _ in range(n)]
    h = 1e-4

    def func(q):
        r = math.sqrt(sum(v * v for v in q))
        return r**m * float(P.evaluate(q))

    lap = 0.0
    for i in range(n):
        qp = list(pt)
        qm = list(pt)
        qp[i] += h
        qm[i] -= h
        lap += (func(qp) - 2 * func(pt) + func(qm)) / h**2
    assert abs(lap - s.evaluate(pt)) < 1e-6 * max(1.0, abs(lap))


# -- ring axioms (property tests) ----------------------------------------------


@st.composite
def polys(draw, n):
    nt = draw(st.integers(0, 4))
    terms = {}
    for _ in range(nt):
        e = tuple(draw(st.integers(0, 2)) for _ in range(n))
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 5))
        terms[(e, ())] = Fraction(num, den)
    return MultiPoly.make(n, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 7), st.data())
def test_poly_ring_axioms(n, data):
    a = data.draw(polys(n))
    b = data.draw(polys(n))
    c = data.draw(polys(n))
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.integers(2, 8), st.data())
def test_jet_ring_axioms(n, D, data):
    a = Jet.of(data.draw(polys(n)), D)
    b = Jet.of(data.draw(polys(n)), D)
    c = Jet.of(data.draw(polys(n)), D)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 5), st.booleans(), st.data())
def test_series_ring_axioms(n, descending, data):
    # Truncated arithmetic is a quotient ring only when all orders sit on one
    # side of zero (expansion at the origin or at infinity), which is how
    # every pipeline here uses it.
    def mk():
        raw = [(data.draw(st.integers(0, 2)), data.draw(polys(n))) for _ in range(2)]
        s = SphericalSeries.canonicalize(n, raw, None, 6)
        if descending:
            s = SphericalSeries(n, tuple((-m - 2 * P.degree(), P) for m, P in s.terms), -6, None)
            s = SphericalSeries.canonicalize(n, s.terms, -6, None)
        return s

    a, b, c = mk(), mk(), mk()
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# -- JSON round trip ----------------------------------------------------------


def test_poly_json_roundtrip_with_H():
    n = 3
    H = MultiPoly.param(n, "H")
    p = (H * H * x(n, 0)).scale(Fraction(3, 7)) + MultiPoly.x_norm_sq(n)
    data = poly_to_json(p)
    assert all(len(e["exp"]) == n + 1 for e in data)
    assert poly_from_json(data, n) == p


def test_poly_json_plain():
    n = 2
    p = x(n, 0) * x(n, 1)
    data = poly_to_json(p)
    assert all(len(e["exp"]) == n for e in data)
    assert poly_from_json(data, n) == p
