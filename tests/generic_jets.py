"""Symbolic test inputs: the generic form of a degree, whose every
coefficient is its own parameter, so an identity that holds for it holds for
every form of that degree; and the umbilical jet (H/2n)|x|^2 + A_3 + A_4.
"""

import itertools
from fractions import Fraction

from umbilic.polyjet import Jet, MultiPoly


def generic_form(n: int, deg: int, prefix: str) -> MultiPoly:
    """The degree-deg form in n variables whose coefficient of x_i x_j ...
    is the parameter prefix_ij..., the indices sorted."""
    terms = {}
    for combo in itertools.combinations_with_replacement(range(n), deg):
        e = [0] * n
        for i in combo:
            e[i] += 1
        terms[(tuple(e), ((prefix + "_" + "".join(map(str, combo)), 1),))] = Fraction(1)
    return MultiPoly(n, terms)


def umbilical_jet(n: int, A3: MultiPoly, A4=None, symbolic_H: bool = True,
                  order: int = 7) -> Jet:
    """(H/2n)|x|^2 + A3 (+ A4) truncated at the order, H the parameter "H"
    or, with symbolic_H False, the number 2."""
    Hq = MultiPoly.param(n, "H") if symbolic_H else MultiPoly.const(n, 2)
    f = MultiPoly.x_norm_sq(n) * Hq.scale(Fraction(1, 2 * n)) + A3
    if A4 is not None:
        f = f + A4
    return Jet.of(f, order)
