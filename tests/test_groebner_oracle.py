"""Differential test: reduced Groebner bases against sympy's, an independent
implementation, on random non-monomial ideals over F_p and Q, and on random
linear forms (the row-echelon route) under three monomial orders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import Ideal, MonomialOrder, Polynomial, reduced_groebner_basis
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


def ours(R, gens, order=None):
    order = order or R.default_order
    polys = [
        Polynomial(R, {m: R.field.from_int(c) for m, c in g.items()}) for g in gens
    ]
    gb = reduced_groebner_basis(polys, order)
    return sorted(g.text(gb.order) for g in gb)


def sympys(R, gens, order=None, sympy_order="grevlex"):
    """sympy's reduced basis, brought to this package's canonical form."""
    order = order or R.default_order
    exprs = [
        sum(c * sympy.prod(s**e for s, e in zip(SYMBOLS, m)) for m, c in g.items())
        for g in gens
    ]
    kwargs = {"modulus": R.field.p} if R.field.p else {}
    gb = sympy.groebner(exprs, *SYMBOLS, order=sympy_order, **kwargs)
    F = R.field
    out = []
    for expr in gb.exprs:
        terms = sympy.Poly(expr, *SYMBOLS, domain="QQ").terms()
        f = Polynomial(R, {m: F.from_fraction(int(c.p), int(c.q)) for m, c in terms})
        out.append(normalize(f, order).text(order))
    return sorted(out)


@settings(max_examples=25, deadline=None)
@given(gens=ideals)
def test_reduced_gb_matches_sympy_over_fp(gens):
    assert ours(RP, gens) == sympys(RP, gens)


@settings(max_examples=25, deadline=None)
@given(gens=ideals)
def test_reduced_gb_matches_sympy_over_q(gens):
    assert ours(RQ, gens) == sympys(RQ, gens)


def test_intersection_over_q_matches_sympys_elimination():
    """An intersection over Q whose t-elimination, with S-pairs chosen by lcm
    degree alone, grew its coefficients without bound; sympy eliminates t
    from t*I + (1 - t)*J on its own, and the reduced bases agree."""
    I = ["-15*x^2*y - 12*y^3 + 6*y*z^2", "-y*z - 3*z - 2", "5*y^2 + 4*z^2 - 2"]
    J = ["-x*z", "x^2 - 2*x*z + 4*y*z"]
    meet = Ideal(RQ, [RQ.parse(f) for f in I]).intersect(Ideal(RQ, [RQ.parse(g) for g in J]))
    t = sympy.Symbol("t")
    exprs = [t * sympy.sympify(f.replace("^", "**")) for f in I]
    exprs += [(1 - t) * sympy.sympify(g.replace("^", "**")) for g in J]
    G = sympy.groebner(exprs, t, *SYMBOLS, order="lex")
    free = [dict(sympy.Poly(g, *SYMBOLS).terms()) for g in G.exprs if not g.has(t)]
    assert meet.canonical_strings() == sympys(RQ, free)


def rational_generator():
    """A polynomial of degree <= 2 with at least two terms, coefficients n/d."""
    coeff = st.tuples(st.integers(-9, 9).filter(bool), st.integers(1, 6))
    return st.dictionaries(st.sampled_from(EXPONENTS), coeff, min_size=2, max_size=4)


@settings(max_examples=25, deadline=None)
@given(gens=st.lists(rational_generator(), min_size=1, max_size=3))
def test_reduced_gb_with_fraction_coefficients_matches_sympy_over_q(gens):
    polys = [
        Polynomial(RQ, {m: QQ.from_fraction(n, d) for m, (n, d) in g.items()})
        for g in gens
    ]
    gb = reduced_groebner_basis(polys, RQ.default_order)
    exact = [{m: sympy.Rational(n, d) for m, (n, d) in g.items()} for g in gens]
    assert sorted(g.text(gb.order) for g in gb) == sympys(RQ, exact)


# -- linear forms: the reduced basis is a reduced row-echelon form -----------

LINEAR = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]
coefficient = st.integers(-9, 9).filter(bool)
linear_form = st.dictionaries(st.sampled_from(LINEAR), coefficient, min_size=1, max_size=4)


@st.composite
def linear_inputs(draw):
    """Affine linear forms, perhaps with a dependent row and a constant."""
    gens = draw(st.lists(linear_form, min_size=1, max_size=4))
    if draw(st.booleans()):
        combo: dict = {}
        for g in gens:
            k = draw(st.integers(-3, 3))
            for m, c in g.items():
                combo[m] = combo.get(m, 0) + k * c
        combo = {m: c for m, c in combo.items() if c}
        if combo:
            gens.append(combo)
    if draw(st.booleans()):
        gens.insert(draw(st.integers(0, len(gens))), {(0, 0, 0): draw(coefficient)})
    return gens


def _sympy_elimination_order():
    from sympy.polys.orderings import ProductOrder, grevlex

    return ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


ORDERS = {
    "grevlex": (MonomialOrder.grevlex(), lambda: "grevlex"),
    "lex": (MonomialOrder.lex(), lambda: "lex"),
    "elim": (MonomialOrder.elimination(1), _sympy_elimination_order),
}


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@pytest.mark.parametrize("name", sorted(ORDERS))
@settings(max_examples=25, deadline=None)
@given(gens=linear_inputs())
def test_linear_reduced_gb_matches_sympy(R, name, gens):
    order, sympy_order = ORDERS[name]
    assert ours(R, gens, order) == sympys(R, gens, order, sympy_order())
