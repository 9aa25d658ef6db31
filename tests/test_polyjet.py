"""Exact algebra layer: polynomials, jets, spherical series."""

import heapq
import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from umbilic.polyjet import (
    FIELD_BITS,
    Jet,
    MultiPoly,
    SphericalSeries,
    cone_value,
    extract_radial_factors,
    pack_exponent,
    poly_divexact,
    poly_from_json,
    poly_to_json,
    unpack_exponent,
)

from umbilic import asymptotic, mass, obstruction
from umbilic.obstruction import jet_geometry
from umbilic.surface import BatchPoly, GraphSurface

from poly_oracle import (
    TuplePoly,
    batch_table,
    evaluate,
    evaluate_series,
    jet_power_unit,
    series_power_unit,
    tuple_cone_value,
    tuple_divexact,
    tuple_sphere_integral,
    tuple_to_json,
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
    assert evaluate(p, [Fraction(2), Fraction(3), Fraction(0)]) == Fraction(10)
    assert p.degree() == 2
    assert not p.is_homogeneous()
    assert p.homogeneous_part(2) == x(n, 0) * x(n, 0)


def test_param_has_zero_spatial_degree():
    n = 2
    H = MultiPoly.param(n, "H")
    p = H * H * x(n, 0)
    assert p.degree() == 1
    assert evaluate(p, [Fraction(3), Fraction(0)], {"H": Fraction(2)}) == Fraction(12)


def test_laplacian_of_radial():
    n = 5
    r2 = MultiPoly.x_norm_sq(n)
    assert r2.laplacian() == MultiPoly.const(n, 2 * n)


# -- exact division -------------------------------------------------------------


def test_divexact_self_division():
    n = 2
    assert poly_divexact(MultiPoly.x_norm_sq(n)) == MultiPoly.const(n, 1)


def test_divexact_constructed_product():
    n = 6
    r2 = MultiPoly.x_norm_sq(n)
    assert poly_divexact(r2 * x(n, 0)) == x(n, 0)


def test_divexact_not_divisible():
    # Eliminating x1^2 = |x|^2 - (x2^2 + ... + x6^2) from x1^3 leaves the
    # remainder -x1 (x2^2 + ... + x6^2), of x1-degree 1 and nonzero.
    n = 6
    p = x(n, 0) ** 3
    assert poly_divexact(p) is None


def test_divexact_of_zero():
    n = 2
    assert poly_divexact(MultiPoly.zero(n)) == MultiPoly.zero(n)


def test_divexact_fills_a_power_absent_from_the_dividend():
    # x1^4 - x2^4 has no x1^2 term; the elimination of x1^4 creates one
    n = 2
    p = x(n, 0) ** 4 - x(n, 1) ** 4
    assert poly_divexact(p) == x(n, 0) ** 2 - x(n, 1) ** 2


def test_divexact_carries_parameters():
    n = 3
    H, a = MultiPoly.param(n, "H", 2), MultiPoly.param(n, "a_012")
    q = H * x(n, 0) ** 3 + (a * x(n, 1) * x(n, 2)).scale(Fraction(3, 7)) - H * a
    got = poly_divexact(q * MultiPoly.x_norm_sq(n))
    assert_canonical(got)
    assert got == q
    assert poly_divexact(q * x(n, 0) ** 2) is None


def test_divexact_one_variable():
    n = 1
    H = MultiPoly.param(n, "H")
    assert poly_divexact(x(n, 0) ** 5) == x(n, 0) ** 3
    assert poly_divexact(H * x(n, 0) ** 2 + x(n, 0) ** 3) == H + x(n, 0)
    assert poly_divexact(x(n, 0) ** 3 + x(n, 0)) is None


@pytest.mark.parametrize("seed", range(8))
def test_divexact_roundtrip_random(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    p = rand_poly(rng, n, with_param=True)
    q = rand_poly(rng, n)
    r2 = MultiPoly.x_norm_sq(n)
    assert poly_divexact(p * r2) == p
    assert poly_divexact(p * q * r2) == p * q


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
               - rand_poly(rng, n, max_deg=D, with_param=True).homogeneous_part(0)
               + rand_poly(rng, n, max_deg=D).homogeneous_part(1), D)
    # Force unit constant part 1.
    u = Jet.of(MultiPoly.const(n, 1) + (u.poly - u.poly.homogeneous_part(0)), D)
    assert u * u.power_unit(-1) == Jet.const(n, 1, D)
    s = u.power_unit(Fraction(1, 2))
    assert s * s == u


@pytest.mark.parametrize("with_param", [False, True])
@pytest.mark.parametrize("seed", range(8))
def test_jet_operations_equal_checked_jets(seed, with_param):
    # the ring operations build their results without Jet's degree pass;
    # each must equal the checked Jet(poly, order) of the polynomial it
    # stands for, and must already lie within its order
    rng = random.Random(300 + seed)
    n, D = rng.randint(1, 4), rng.randint(0, 5)

    def jet():
        # Jet(p, D) truncates p, which reaches degree D + 2
        return Jet(rand_poly(rng, n, max_deg=D + 2, nterms=6, with_param=with_param), D)

    def checked(poly, order=D):
        return Jet(poly, order)

    a, b = jet(), jet()
    c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    s = jet().poly
    unit = checked(MultiPoly.const(n, 1) + s - s.homogeneous_part(0))
    cases = [
        (a + b, checked(a.poly + b.poly)),
        (a - b, checked(a.poly - b.poly)),
        (-a, checked(-a.poly)),
        (a * b, checked(a.poly * b.poly)),
        (a * c, checked(a.poly.scale(c))),
        (c * a, checked(a.poly.scale(c))),
        (a * 0, checked(MultiPoly.zero(n))),
        (Jet.of(s, D), checked(s)),
    ]
    cases += [(a.diff(i), checked(a.poly.diff(i), D - 1)) for i in range(n)]
    cases += [(a.rejet(k), checked(a.poly, k)) for k in range(-1, D + 2)]
    for e in (Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(3)):
        # the binomial series through checked jets and full products
        ref = power = checked(MultiPoly.const(n, 1))
        coeff = Fraction(1)
        for k in range(1, D + 1):
            coeff = coeff * (e - k + 1) / k
            power = checked(power.poly * (unit.poly - MultiPoly.const(n, 1)))
            ref = checked(ref.poly + power.poly.scale(coeff))
        cases.append((unit.power_unit(e), ref))
    for got, want in cases:
        assert got == want
        assert got.order == want.order
        assert got.poly.degree() <= got.order


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
            direct += r**m * float(evaluate(P, pt))
        assert abs(direct - evaluate_series(s, pt)) < 1e-12 * max(1.0, abs(direct))


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


# -- the binomial series against the per-k loop ---------------------------------


@pytest.fixture
def unit_powers(monkeypatch):
    """Every Jet and SphericalSeries power_unit call made while the test
    runs, as (base, args, result)."""
    calls = []
    for cls in (Jet, SphericalSeries):
        def recorded(self, *args, _power_unit=cls.power_unit, **kwargs):
            out = _power_unit(self, *args, **kwargs)
            calls.append((self, args + tuple(kwargs.values()), out))
            return out
        monkeypatch.setattr(cls, "power_unit", recorded)
    return calls


def assert_same_unit_powers(calls, kinds):
    """Each recorded power equals the per-k loop's term for term, in the
    same term order; kinds lists the classes of the calls, in order."""
    assert [type(base) for base, _, _ in calls] == kinds
    for base, args, got in calls:
        if isinstance(base, Jet):
            want = jet_power_unit(base, *args)
            assert got.order == want.order
            assert list(got.poly.terms.items()) == list(want.poly.terms.items())
        else:
            want = series_power_unit(base, *args)
            assert (got.order_min, got.order_max) == (want.order_min, want.order_max)
            assert [(m, list(P.terms.items())) for m, P in got.terms] == [
                (m, list(P.terms.items())) for m, P in want.terms
            ]


def symbolic_umbilical_poly(n):
    """(H/2n)|x|^2 + x1^3 - x1 x2^2 + (3/7) x2^4 + a x1^2 x2^2 with H and a
    parameters."""
    H, a = MultiPoly.param(n, "H"), MultiPoly.param(n, "a")
    x1, x2 = x(n, 0), x(n, 1)
    return ((H * MultiPoly.x_norm_sq(n)).scale(Fraction(1, 2 * n)) + x1 ** 3 - x1 * x2 * x2
            + (x2 ** 4).scale(Fraction(3, 7)) + a * x1 * x1 * x2 * x2)


@pytest.mark.parametrize("R", [Fraction(1), Fraction(5, 3)])
@pytest.mark.parametrize("n", range(2, 8))
def test_sphere_jet_binomial_matches_per_k_loop(n, R, unit_powers):
    GraphSurface.sphere(n, R, 9)
    assert_same_unit_powers(unit_powers, [Jet])


@pytest.mark.parametrize("n", [3, 5])
def test_inv_w2_binomial_matches_per_k_loop(n, unit_powers):
    for poly in (GraphSurface.quartic_x1(n).f_jet.poly, symbolic_umbilical_poly(n)):
        jet_geometry(poly, 5)
    assert_same_unit_powers(unit_powers, [Jet, Jet])


@pytest.mark.parametrize("n", [3, 6])
def test_series_binomials_match_per_k_loop(n, unit_powers):
    # the conformal factor at infinity and 1/rho at the origin
    polys = (GraphSurface.sphere(n).f_jet.poly, symbolic_umbilical_poly(n))
    unit_powers.clear()
    for poly in polys:
        asymptotic._series_pieces(poly, -6)
        obstruction._series_quotient(poly, MultiPoly.x_norm_sq(n) + poly * poly, 3)
    assert_same_unit_powers(unit_powers, [SphericalSeries] * 4)


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


# -- the integer kernel against a Fraction-dict oracle -----------------------
#
# The oracle is the earlier kernel: one Fraction per term, written on plain
# {key: Fraction} dicts.  The integer kernel must give the same values and
# the same term order (which fixes the columns of the float evaluator).


def _o_merge(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, k in b:
        out[name] = out.get(name, 0) + k
    return tuple(sorted(out.items()))


def o_add(a, b):
    out = dict(a)
    for k, c in b.items():
        s = out.get(k, Fraction(0)) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def o_neg(a):
    return {k: -c for k, c in a.items()}


def o_mul(a, b, max_degree=None):
    """The product; truncated, it walks b by ascending degree and stops early."""
    b_items = list(b.items())
    if max_degree is not None:
        b_items.sort(key=lambda kv: sum(kv[0][0]))
    out = {}
    for (ea, pa), ca in a.items():
        for (eb, pb), cb in b_items:
            if max_degree is not None and sum(ea) + sum(eb) > max_degree:
                break
            k = (tuple(x + y for x, y in zip(ea, eb)), _o_merge(pa, pb))
            s = out.get(k, Fraction(0)) + ca * cb
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def o_scale(a, c):
    return {k: c * v for k, v in a.items()} if c else {}


def o_diff(a, i):
    out = {}
    for (e, p), c in a.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[(tuple(e2), p)] = c * e[i]
    return out


def o_truncate(a, d):
    return {k: c for k, c in a.items() if sum(k[0]) <= d}


def o_homogeneous_parts(a):
    out = {}
    for k, c in a.items():
        out.setdefault(sum(k[0]), {})[k] = c
    return dict(sorted(out.items()))


def o_divexact(a, q):
    slices = {}
    for (e, p), c in a.items():
        slices.setdefault(p, {})[e] = c
    q_lead = max(q, key=lambda k: (sum(k[0]), k[0], k[1]))
    q_lead_e, q_lead_c = q_lead[0], q[q_lead]
    q_rest = [(qe, qc) for (qe, _), qc in q.items() if qe != q_lead_e]

    def heap_key(e):
        return (-sum(e), tuple(-v for v in e), e)

    result = {}
    for pmono, rem in slices.items():
        heap = [heap_key(e) for e in rem]
        heapq.heapify(heap)
        while heap:
            lead_e = heapq.heappop(heap)[2]
            c = rem.pop(lead_e, None)
            if c is None:
                continue
            d = tuple(x - y for x, y in zip(lead_e, q_lead_e))
            if any(v < 0 for v in d):
                return None
            coeff = c / q_lead_c
            result[(d, pmono)] = coeff
            for qe, qc in q_rest:
                k = tuple(x + y for x, y in zip(d, qe))
                if k in rem:
                    s = rem[k] - coeff * qc
                    if s == 0:
                        del rem[k]
                    else:
                        rem[k] = s
                else:
                    rem[k] = -coeff * qc
                    heapq.heappush(heap, heap_key(k))
    return result


PARAM_NAMES = ("H", "a_012", "b")
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9, 10, 35, 128)


def seeded_poly(rng, n, nterms=None, max_deg=4, params=True):
    """Rational polynomial with mixed denominators, sometimes with
    parameters; few distinct monomials, so sums and products cancel."""
    terms = {}
    for _ in range(rng.randint(0, 7) if nterms is None else nterms):
        e = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(min(n, 4))] += 1
        p = ()
        if params and rng.random() < 0.4:
            p = tuple(sorted({name: rng.randint(1, 2)
                              for name in rng.sample(PARAM_NAMES, rng.randint(1, 2))}.items()))
        terms[(tuple(e), p)] = Fraction(rng.randint(-12, 12), rng.choice(DENOMINATORS))
    return MultiPoly(n, terms)


def assert_canonical(P):
    assert P.den > 0
    assert all(type(c) is int and c != 0 for c in P.num.values())
    assert math.gcd(P.den, *P.num.values()) == 1
    assert P.num or P.den == 1
    assert all(type(k) is int and k >= 0 for k, _ in P.num)
    assert dict(P.terms) == {(unpack_exponent(k, P.n), p): Fraction(c, P.den)
                             for (k, p), c in P.num.items()}
    assert {k for k, _ in P.num} == {pack_exponent(e, P.n) for e, _ in P.terms}


def same(P, oracle):
    """Equal coefficients in the same term order, in lowest terms."""
    assert_canonical(P)
    assert list(P.terms.items()) == list(oracle.items())


def equal(P, oracle):
    """Equal coefficients in lowest terms, in any term order."""
    assert_canonical(P)
    assert P == MultiPoly(P.n, oracle)


def test_constructor_is_canonical():
    n = 3
    zero_coeff = MultiPoly(n, {((1, 0, 0), ()): Fraction(0)})
    assert zero_coeff.is_zero
    assert zero_coeff == MultiPoly.zero(n)
    assert hash(zero_coeff) == hash(MultiPoly.zero(n))
    assert zero_coeff.degree() == -1
    mixed = MultiPoly(n, {((1, 0, 0), ()): Fraction(0), ((0, 2, 0), ()): Fraction(3, 6)})
    assert mixed == (x(n, 1) * x(n, 1)).scale(Fraction(1, 2)) and mixed.degree() == 2
    for bad in (0.5, 1.0, "1"):
        with pytest.raises(TypeError):
            MultiPoly(n, {((1, 0, 0), ()): bad})
        with pytest.raises(TypeError):
            MultiPoly.make(n, {((1, 0, 0), ()): bad})


def test_polynomials_are_immutable():
    p = x(3, 0)
    with pytest.raises(AttributeError):
        p.den = 2
    with pytest.raises(TypeError):
        p.terms[((1, 0, 0), ())] = Fraction(2)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_integer_kernel_matches_fraction_oracle(n, seed):
    rng = random.Random(seed)
    a, b = seeded_poly(rng, n), seeded_poly(rng, n)
    if rng.random() < 0.3:
        b = b - a  # forces cancellation in a + b
    ta, tb = dict(a.terms), dict(b.terms)
    same(a + b, o_add(ta, tb))
    same(a - b, o_add(ta, o_neg(tb)))
    same(-a, o_neg(ta))
    same(a * b, o_mul(ta, tb))
    D = rng.randint(0, 6)
    same(a.mul_truncated(b, D), o_mul(ta, tb, D))
    c = Fraction(rng.randint(-7, 7), rng.choice(DENOMINATORS))
    same(a.scale(c), o_scale(ta, c))
    i = rng.randrange(n)
    same(a.diff(i), o_diff(ta, i))
    same(a.truncate(D), o_truncate(ta, D))
    parts = a.homogeneous_parts()
    oparts = o_homogeneous_parts(ta)
    assert list(parts) == list(oparts)
    for d in parts:
        same(parts[d], oparts[d])
        same(a.homogeneous_part(d), oparts[d])
    assert a.constant_term() == ta.get(((0,) * n, ()), 0)


@settings(max_examples=120, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1), st.booleans())
def test_product_kernel_and_grading_match_fraction_oracle(n, seed, graded_first):
    # mul_truncated without a cap is `*`, in the same term order, whether or
    # not the operands' degree gradings were built before
    rng = random.Random(seed)
    a, b = seeded_poly(rng, n), seeded_poly(rng, n)
    ta, tb = dict(a.terms), dict(b.terms)
    if graded_first:
        a.degree(), b.degree()
    same(a.mul_truncated(b), o_mul(ta, tb))
    same(a * b, o_mul(ta, tb))
    degrees = [sum(e) for e, _ in ta]
    assert a.degree() == max(degrees, default=-1)
    assert a.is_homogeneous() == (len(set(degrees)) <= 1)
    oparts = o_homogeneous_parts(ta)
    parts = a.homogeneous_parts()
    assert list(parts) == list(oparts)
    for d, part in parts.items():
        same(part, oparts[d])
        assert part.degree() == d and part.is_homogeneous()
        assert part.homogeneous_parts() == {d: part}
    D = rng.randint(-1, 6)
    if D >= a.degree():
        assert a.truncate(D) is a
    same(a.truncate(D), o_truncate(ta, D))


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_divexact_matches_fraction_oracle(n, seed):
    rng = random.Random(seed)
    a = seeded_poly(rng, n)
    q = seeded_poly(rng, n, nterms=rng.randint(1, 3), max_deg=2, params=False)
    r2 = MultiPoly.x_norm_sq(n)
    r2_terms = dict(r2.terms)
    for b in (a, a * q, a.scale(Fraction(-5, 3))):
        for P in (b * r2, b * r2 + seeded_poly(rng, n), b, b * r2 * r2):
            got = poly_divexact(P)
            want = o_divexact(dict(P.terms), r2_terms)
            if want is None:
                assert got is None
            else:
                equal(got, want)
        assert poly_divexact(b * r2) == b


@st.composite
def gapped_multiples(draw):
    """(P, Q) with P = |x|^2 Q whose x1 powers skip every power between two:
    with s = x2^2 + ... + xn^2, x1^(2m) - (-s)^m = |x|^2 sum_i x1^(2(m-1-i)) (-s)^i,
    times x1^k c for a c free of x1, so P holds x1^k and x1^(k+2m) only and
    the division passes through the x1 powers P lacks.  c's terms have
    distinct keys and nonzero coefficients, so c != 0 and no term cancels."""
    n, k, m = draw(st.integers(2, 6)), draw(st.integers(0, 3)), draw(st.integers(2, 3))
    keys = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * (n - 1)),
                  st.sampled_from([(), (("H", 1),), (("a_012", 2), ("b", 1))])),
        min_size=1, max_size=3, unique=True))
    c = MultiPoly(n, {((0,) + e, p): Fraction(draw(st.integers(-9, 9).filter(bool)),
                                              draw(st.sampled_from(DENOMINATORS)))
                      for e, p in keys})
    x1, r2 = x(n, 0), MultiPoly.x_norm_sq(n)
    s = r2 - x1 * x1
    series = sum(((x1 * x1) ** (m - 1 - i) * (-s) ** i for i in range(m)), MultiPoly.zero(n))
    return x1**k * c * ((x1 * x1) ** m - (-s) ** m), x1**k * c * series


@settings(max_examples=60, deadline=None)
@given(gapped_multiples())
def test_divexact_through_absent_x1_powers(case):
    P, Q = case
    assert P == Q * MultiPoly.x_norm_sq(P.n)
    powers = {e[0] for e, _ in P.terms}
    assert len(powers) == 2 and max(powers) - min(powers) >= 4
    got = poly_divexact(P)
    assert got == Q
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_equal_values_have_equal_representations(n, seed):
    rng = random.Random(seed)
    a, b, c = (seeded_poly(rng, n) for _ in range(3))
    s = Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
    pairs = [
        ((a + b) * c, a * c + b * c),
        ((a * b).scale(s), a.scale(s) * b),
        (a.scale(s).scale(1 / s), a),
        ((a + b) - b, a),
        (MultiPoly(n, dict(a.terms)), a),
        (a.diff(0) + b.diff(0), (a + b).diff(0)),
    ]
    for u, v in pairs:
        assert_canonical(u)
        assert u == v
        assert hash(u) == hash(v)


def _to_sympy(P, syms):
    import sympy

    expr = sympy.Integer(0)
    for (e, p), c in P.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        for name, k in p:
            term *= sympy.Symbol(name) ** k
        expr += term
    return sympy.expand(expr)


@pytest.mark.parametrize("seed", range(4))
def test_kernel_against_sympy(seed):
    import sympy

    rng = random.Random(300 + seed)
    n = 3 + seed
    syms = sympy.symbols(f"x0:{n}")
    a, b = seeded_poly(rng, n, nterms=5), seeded_poly(rng, n, nterms=4)
    assert sympy.expand(_to_sympy(a * b, syms) - _to_sympy(a, syms) * _to_sympy(b, syms)) == 0
    assert sympy.expand(_to_sympy(a + b, syms) - _to_sympy(a, syms) - _to_sympy(b, syms)) == 0
    r2 = MultiPoly.x_norm_sq(n)
    gens = list(syms) + sorted({sympy.Symbol(nm) for nm in a.param_names()}, key=str)
    quo, rem = sympy.div(_to_sympy(a * r2 * r2, syms), _to_sympy(r2, syms), *gens)
    assert rem == 0
    assert sympy.expand(quo - _to_sympy(poly_divexact(a * r2 * r2), syms)) == 0


# -- the cone test ------------------------------------------------------------


def division_only(P):
    """extract_radial_factors without the cone test."""
    k = 0
    while not P.is_zero:
        q = poly_divexact(P)
        if q is None:
            break
        P, k = q, k + 1
    return k, P


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 9), st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_cone_test_never_rejects_a_multiple(n, k, seed):
    rng = random.Random(seed)
    Q = seeded_poly(rng, n, max_deg=5)
    if rng.random() < 0.5:
        Q = Q.homogeneous_part(max(Q.degree(), 0))
    if Q.is_zero:
        Q = MultiPoly.param(n, "H") + x(n, 0)
    P = MultiPoly.x_norm_sq(n) ** k * Q
    if k:
        assert cone_value(P) == 0
    kq, core = extract_radial_factors(Q)
    assert extract_radial_factors(P) == (k + kq, core) == division_only(P)


@pytest.mark.parametrize("n", range(1, 10))
def test_cone_point_is_isotropic(n):
    r2 = MultiPoly.x_norm_sq(n)
    assert cone_value(r2) == 0
    assert cone_value(r2 * MultiPoly.param(n, "H") + r2 * r2) == 0
    assert extract_radial_factors(r2 * x(n, 0)) == (1, x(n, 0))
    if n > 1:
        assert cone_value(x(n, 0) * x(n, 0)) != 0
        assert cone_value(r2 + x(n, n - 1)) != 0


_CONE_SCRIPT = """
import json, random
from fractions import Fraction
from umbilic import polyjet
from umbilic.obstruction import script_R_series
from umbilic.polyjet import Jet, MultiPoly

calls = [0]
divide = polyjet.poly_divexact
def counted(P):
    calls[0] += 1
    return divide(P)
polyjet.poly_divexact = counted

n = 4
H = MultiPoly.param(n, "H")
r2 = MultiPoly.x_norm_sq(n)
A3 = MultiPoly(n, {(tuple(int(i == j) + int(i == 0) + int(i == 2) for i in range(n)), ()): Fraction(j + 1, 3)
                   for j in range(n)})
polys = [r2 * H + MultiPoly.var(n, 0) ** 3, A3 * MultiPoly.param(n, "a_0123", 2), r2 * A3]
script_R_series(Jet.of(r2 * H.scale(Fraction(1, 2 * n)) + A3, 7))
print(json.dumps({"cone": [polyjet.cone_value(P) for P in polys], "divexact_calls": calls[0]}))
"""


def test_cone_test_is_deterministic_across_hash_seeds():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", _CONE_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    assert outs[0]["cone"][2] == 0 and all(outs[0]["cone"][:2])
    assert outs[0]["divexact_calls"] > 0


# -- packed keys against the tuple-key kernel ----------------------------------------

FIELD = 1 << FIELD_BITS
PARAM_MONOMIALS = ((), (), (("H", 1),), (("H", 2),), (("a_012", 1), ("b", 3)), (("b", 1),))


@st.composite
def wide_polys(draw, n, max_degree, params=PARAM_MONOMIALS, max_terms=6):
    """A polynomial of up to max_terms terms of total degree <= max_degree,
    each degree split at random over the n exponents or put on one of them.
    Half the draws keep to degrees <= 4 on few monomials, so sums and
    products cancel."""
    if draw(st.booleans()):
        max_degree = min(max_degree, 4)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        d = draw(st.integers(0, max_degree))
        if draw(st.booleans()):
            j = draw(st.integers(0, n - 1))
            e = tuple(d if i == j else 0 for i in range(n))
        else:
            cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
            e = tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))
        terms[(e, draw(st.sampled_from(params)))] = Fraction(
            draw(st.integers(-9, 9)), draw(st.sampled_from(DENOMINATORS)))
    return MultiPoly(n, terms)


def same_as(P, oracle):
    """P equals a TuplePoly, term for term and in the same order."""
    assert_canonical(P)
    assert list(P.terms.items()) == list(oracle.terms.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_packed_kernel_matches_tuple_oracle(data):
    n = data.draw(st.integers(1, 10))
    top = data.draw(st.sampled_from([6, FIELD // 2 - 1]))  # a + b and a * b stay in the field
    a, b = data.draw(wide_polys(n, top)), data.draw(wide_polys(n, top))
    if data.draw(st.booleans()):
        b = b - a
    ta, tb = TuplePoly.of(a), TuplePoly.of(b)
    same_as(a + b, ta + tb)
    same_as(a * b, ta.mul_truncated(tb))
    cap = data.draw(st.sampled_from([0, 3, 7, top, FIELD - 1]))
    same_as(a.mul_truncated(b, cap), ta.mul_truncated(tb, cap))
    # one-polynomial operations, also on exponents up to the field width
    for P in (a, data.draw(wide_polys(n, FIELD - 1))):
        tp = TuplePoly.of(P)
        i = data.draw(st.integers(0, n - 1))
        same_as(P.diff(i), tp.diff(i))
        D = data.draw(st.integers(-1, FIELD))
        same_as(P.truncate(D), tp.truncate(D))
        parts, oparts = P.homogeneous_parts(), tp.homogeneous_parts()
        assert list(parts) == list(oparts)
        for d in parts:
            same_as(parts[d], oparts[d])
        assert P._grlex_terms() == tp.grlex_terms()
        assert P.degree() == max(oparts, default=-1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_division_cone_and_moments_match_tuple_oracle(data):
    # dividing a non-multiple of high x_1-degree spreads x_1^a over every
    # x_1^(a-2t) x_j^2..., so only multiples are divided at full width
    n = data.draw(st.integers(1, 10))
    a = data.draw(wide_polys(n, data.draw(st.sampled_from([6, FIELD - 5]))))
    small = data.draw(wide_polys(n, 6))
    r2 = MultiPoly.x_norm_sq(n)
    for P in (a * r2, a * r2 * r2, small, small * r2 + data.draw(wide_polys(n, 4))):
        got, want = poly_divexact(P), tuple_divexact(TuplePoly.of(P))
        assert (got is None) == (want is None)
        if got is not None:
            same_as(got, want)
        assert cone_value(P) == tuple_cone_value(TuplePoly.of(P))
    # moments multiply double factorials of every exponent, so keep them small
    m = data.draw(wide_polys(n, 40))
    want = tuple_sphere_integral(TuplePoly.of(m))
    assert dict(obstruction.sphere_integral(m).terms) == {((0,) * n, p): c for p, c in want.items()}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_json_and_batch_table_match_tuple_oracle(data):
    n = data.draw(st.integers(1, 10))
    a = data.draw(wide_polys(n, FIELD - 1, params=((), (), (("H", 1),), (("H", 3),))))
    assert poly_to_json(a) == tuple_to_json(TuplePoly.of(a))
    assert poly_from_json(json.loads(json.dumps(poly_to_json(a))), n) == a
    polys = [data.draw(wide_polys(n, 6, params=((),))) for _ in range(3)]
    batch = BatchPoly(polys)
    # each row's monomial: 1, the coordinates, then head + tail per level
    monos = [()] + [(i,) for i in range(1, n + 1)]
    for _, _, (heads, tails) in batch.levels:
        monos += [monos[h] + monos[t] for h, t in zip(heads, tails)]
    assert len(batch.coeffs) in (0, len(monos))
    table = [{} for _ in polys]
    for row, mono in zip(batch.coeffs, monos):
        for k, c in enumerate(row):
            if c:
                table[k][mono] = c
    assert table == batch_table(polys)


def test_exponents_past_the_field_width_raise():
    n = 3
    top = (0, FIELD - 1, 0)
    P = MultiPoly(n, {(top, ()): 1})
    assert dict(P.terms) == {(top, ()): 1}
    assert unpack_exponent(pack_exponent(top, n), n) == top
    for bad in ((FIELD, 0, 0), (0, 0, FIELD), (FIELD - 1, 1, 0), (1, FIELD // 2, FIELD // 2)):
        with pytest.raises(ValueError, match="field"):
            MultiPoly(n, {(bad, ()): 1})
        with pytest.raises(ValueError, match="field"):
            poly_from_json([{"exp": list(bad), "num": "1", "den": "1"}], n)
    with pytest.raises(ValueError, match="negative"):
        MultiPoly(n, {((0, -1, 1), ()): 1})
    with pytest.raises(ValueError, match="length"):
        MultiPoly(n, {((1, 0), ()): 1})
    for i in range(n):
        # x_(i+1) times x_2^(FIELD-1) reaches degree FIELD: x_2's field would
        # carry into x_1's (i = 1) and the degree field into nothing above it
        with pytest.raises(ValueError, match="field"):
            P * x(n, i)
        with pytest.raises(ValueError, match="field"):
            P.mul_truncated(x(n, i), FIELD)
        assert P.mul_truncated(x(n, i), FIELD - 1).is_zero
    with pytest.raises(ValueError, match="field"):
        x(n, 0) ** FIELD
    with pytest.raises(ValueError):
        P.diff(n)
    # the largest degree that fits: every field reads back what was put in
    below = MultiPoly(n, {((0, FIELD - 2, 0), ()): 1})
    for i in range(n):
        e = [0, FIELD - 2, 0]
        e[i] += 1
        assert dict((below * x(n, i)).terms) == {(tuple(e), ()): 1}
        assert (below * x(n, i)).degree() == FIELD - 1
    assert (x(n, 0) ** (FIELD - 1)).degree() == FIELD - 1


# -- the sum-of-products kernel ---------------------------------------------------


def pairwise_dot(n, pairs, cap, weights):
    """sum_i w_i (a_i b_i) on the tuple-key oracle, one product and one sum
    at a time."""
    total = TuplePoly(n, {})
    for (a, b), w in zip(pairs, weights):
        ab = TuplePoly.of(a).mul_truncated(TuplePoly.of(b), cap)
        total = total + TuplePoly(n, {k: w * c for k, c in ab.num.items()}, ab.den)
    return total


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dot_matches_pairwise_sums_on_the_tuple_oracle(data):
    n = data.draw(st.integers(1, 8))
    top = data.draw(st.sampled_from([6, FIELD // 2 - 1]))  # every a_i b_i stays in the field
    pairs = [(data.draw(wide_polys(n, top)), data.draw(wide_polys(n, top)))
             for _ in range(data.draw(st.integers(0, 4)))]
    weighted = data.draw(st.booleans())
    weights = [data.draw(st.sampled_from([0, 0, -1, 1, -2, 3])) if weighted else 1 for _ in pairs]
    cancel = data.draw(st.sampled_from(["none", "one", "all"]))
    if cancel == "one" and pairs:
        # the same product once more, swapped and with the opposite weight
        i = data.draw(st.integers(0, len(pairs) - 1))
        pairs.append(pairs[i][::-1])
        weights.append(-weights[i])
    elif cancel == "all":
        pairs += [(b, -a) for a, b in pairs]
        weights += weights
    cap = data.draw(st.sampled_from([None, 0, 3, 7, top, FIELD - 1]))
    got = MultiPoly.dot(n, pairs, cap, None if set(weights) <= {1} else weights)
    assert_canonical(got)
    assert dict(got.terms) == pairwise_dot(n, pairs, cap, weights).terms
    if cancel == "all" or not pairs:
        assert got == MultiPoly.zero(n)
    if cap is not None:
        jets = [(Jet.of(a, cap), Jet.of(b, cap)) for a, b in pairs]
        assert Jet.dot(n, cap, jets, weights) == Jet(got, cap)


def test_dot_rejects_mismatched_factors_and_degrees_past_the_field():
    a, b = x(3, 0), x(4, 0)
    for n, pairs in ((3, [(a, a), (a, b)]), (3, [(b, a)]), (4, [(b, b), (b, a)])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            MultiPoly.dot(n, pairs)
        with pytest.raises(ValueError, match="dimension mismatch"):
            MultiPoly.dot(n, pairs, 2, [0] * len(pairs))
    with pytest.raises(ValueError, match="dimension mismatch"):
        MultiPoly.dot(4, [(a, a)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a.mul_truncated(b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        Jet.dot(3, 2, [(Jet.of(a, 2), Jet.of(b, 2))])
    with pytest.raises(ValueError, match="truncation mismatch"):
        Jet.dot(3, 2, [(Jet.of(a, 2), Jet.of(a, 3))])
    for weights in ([1, 2], []):
        with pytest.raises(ValueError):
            MultiPoly.dot(3, [(a, a)], weights=weights)
    with pytest.raises(TypeError):
        MultiPoly.dot(3, [(a, a)], weights=[Fraction(1, 2)])
    top = MultiPoly(3, {((0, FIELD - 1, 0), ()): 1})
    for cap in (None, FIELD):
        with pytest.raises(ValueError, match="field"):
            MultiPoly.dot(3, [(a, a), (top, a)], cap)
        with pytest.raises(ValueError, match="field"):
            MultiPoly.dot(3, [(top, a), (a, a)], cap, [1, 0])
    assert MultiPoly.dot(3, [(top, a), (a, a)], FIELD - 1, [1, -1]) == -(a * a)
    assert MultiPoly.dot(4, []) == MultiPoly.zero(4)
    # a zero weight adds nothing, not even zero numerators
    y = x(3, 1) * Fraction(1, 3)
    for weights, want in (([0], MultiPoly.zero(3)), ([0, 1], y * y), ([1, 0], a * y)):
        got = MultiPoly.dot(3, [(a, y), (y, y)][:len(weights)], None, weights)
        assert_canonical(got)
        assert got == want


def test_divexact_asks_the_cone_before_walking_x1_powers():
    # eliminating x_1^2 from x_1^a would spread it over every x_1^(a-2t)
    # x_j^2 ... product before finding the remainder; a nonzero cone value
    # answers at once
    for n, a in ((8, 41), (6, 61)):
        P = x(n, 0) ** a
        assert cone_value(P) != 0
        assert poly_divexact(P) is None
        assert extract_radial_factors(P) == (0, P)


def corpus_cubic(rng, n, width=10):
    """A cubic on `width` random monomials with nonzero rational
    coefficients: the shape of the certification corpora."""
    monos = list(itertools.combinations_with_replacement(range(n), 3))
    rng.shuffle(monos)
    terms = {}
    for combo in monos[:width]:
        e = [0] * n
        for i in combo:
            e[i] += 1
        terms[(tuple(e), ())] = Fraction(rng.choice([k for k in range(-9, 10) if k]),
                                         rng.randint(1, 9))
    return MultiPoly(n, terms)


def generic_form(n, deg, prefix):
    """The degree-deg form whose every coefficient is its own symbol."""
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in combo:
            e[i] += 1
        terms[(tuple(e), ((prefix + "_" + "".join(map(str, combo)), 1),))] = Fraction(1)
    return MultiPoly(n, terms)


def test_coefficient_equals_the_canonical_form_of_its_terms():
    # a coefficient's terms are canonical already, so building it directly
    # gives what canonicalizing them gives, term for term
    rng = random.Random(39)
    series = []
    for n in range(3, 8):
        H = MultiPoly.param(n, "H")
        radial = MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
        for _ in range(2):
            series.append(obstruction.script_R_series(Jet.of(radial + corpus_cubic(rng, n), 7)))
    n = 6
    H = MultiPoly.param(n, "H")
    f = Jet.of(MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
               + generic_form(n, 4, "a") + generic_form(n, 5, "b"), 7)
    # the certificate's integrand cancels to zero; in the inverted chart it does not
    series += [mass.mass_integrand_series(f, kind)
               for kind in (asymptotic.CORRECTED_Z, asymptotic.INVERTED_Y)]
    assert all(s.terms for s in series[:-2]) and series[-1].terms
    for s in series:
        orders = s.orders()
        for w in range(orders[0] - 1, orders[-1] + 2) if orders else (0,):
            picked = [(m - w, P) for m, P in s.terms if m + P.degree() == w]
            got, want = s.coefficient(w), SphericalSeries.canonicalize(s.n, picked, 0, 0)
            assert got.n == want.n == s.n
            assert (got.order_min, got.order_max) == (want.order_min, want.order_max) == (0, 0)
            assert len(got.terms) == len(want.terms)
            for (m, P), (mw, Pw) in zip(got.terms, want.terms):
                assert m == mw and list(P.terms.items()) == list(Pw.terms.items())
