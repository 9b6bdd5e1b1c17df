"""Differential test: reduced Groebner bases against sympy's, an independent
implementation, on random non-monomial ideals over F_p and Q."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import Polynomial, reduced_groebner_basis
from rowfibers.polyring import normalize

from helpers import FP, QQ, ring

sympy = pytest.importorskip("sympy")

RP = ring(FP, "x", "y", "z")
RQ = ring(QQ, "x", "y", "z")
SYMBOLS = sympy.symbols("x y z")

# exponent tuples of degree <= 2 in three variables
EXPONENTS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


def generator():
    """A polynomial of degree <= 2 with at least two terms."""
    coeff = st.integers(-9, 9).filter(bool)
    return st.dictionaries(st.sampled_from(EXPONENTS), coeff, min_size=2, max_size=4)


ideals = st.lists(generator(), min_size=1, max_size=3)


def ours(R, gens):
    polys = [
        Polynomial(R, {m: R.field.from_int(c) for m, c in g.items()}) for g in gens
    ]
    gb = reduced_groebner_basis(polys, R.default_order)
    return sorted(g.text(gb.order) for g in gb)


def sympys(R, gens):
    """sympy's reduced basis, brought to this package's canonical form."""
    exprs = [
        sum(c * sympy.prod(s**e for s, e in zip(SYMBOLS, m)) for m, c in g.items())
        for g in gens
    ]
    kwargs = {"modulus": R.field.p} if R.field.p else {}
    gb = sympy.groebner(exprs, *SYMBOLS, order="grevlex", **kwargs)
    F = R.field
    out = []
    for expr in gb.exprs:
        terms = sympy.Poly(expr, *SYMBOLS, domain="QQ").terms()
        f = Polynomial(R, {m: F.from_fraction(int(c.p), int(c.q)) for m, c in terms})
        out.append(normalize(f, R.default_order).text(R.default_order))
    return sorted(out)


@settings(max_examples=25, deadline=None)
@given(gens=ideals)
def test_reduced_gb_matches_sympy_over_fp(gens):
    assert ours(RP, gens) == sympys(RP, gens)


@settings(max_examples=25, deadline=None)
@given(gens=ideals)
def test_reduced_gb_matches_sympy_over_q(gens):
    assert ours(RQ, gens) == sympys(RQ, gens)
