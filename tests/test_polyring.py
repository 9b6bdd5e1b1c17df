"""Fields, monomial orders, polynomial arithmetic, parsing, rendering."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import CoefficientField, MonomialOrder, ParseError, PolyRing, Polynomial
from rowfibers.polyring import mono_div, mono_divides, mono_lcm, normalize

from helpers import FP, FPI, QQ, ideal, ring


# -- coefficient fields ------------------------------------------------------


def test_prime_field_arithmetic():
    F = FP
    a, b = F.from_int(12345), F.from_int(-678)
    assert F.mul(a, F.inv(a)) == F.one
    assert F.add(a, F.neg(a)) == F.zero
    assert F.sub(a, b) == F.add(a, F.neg(b))
    assert F.from_fraction(1, 3) == F.inv(F.from_int(3))


def test_rationals_are_fractions():
    F = QQ
    assert F.from_fraction(2, 4) == Fraction(1, 2)
    assert F.div(F.from_int(1), F.from_int(3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 32004, 15])
def test_characteristic_must_be_odd_prime(bad):
    with pytest.raises(ValueError):
        CoefficientField(bad)


def test_sqrt_minus_one_exists_only_mod_one():
    # 32029 = 1 mod 4 admits i; 32003 = 3 mod 4 does not
    F = FPI
    i = F.sqrt_minus_one
    assert F.mul(i, i) == F.from_int(-1)
    with pytest.raises(ValueError):
        CoefficientField(32003, with_i=True)
    with pytest.raises(ValueError):
        CoefficientField(0, with_i=True)


# -- monomial orders ---------------------------------------------------------


def test_grevlex_golden_order():
    # x^2 > x*y > y^2 > x*z > y*z > z^2 within degree 2, for x > y > z
    order = MonomialOrder.grevlex()
    degree2 = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    ranked = sorted(degree2, key=order.key, reverse=True)
    assert ranked == degree2


def test_lex_golden_order():
    order = MonomialOrder.lex()
    assert order.compare((1, 0, 0), (0, 5, 5)) > 0
    assert order.compare((0, 1, 0), (0, 0, 9)) > 0


def test_elimination_order_blocks():
    # any monomial involving a block variable beats any monomial outside it
    order = MonomialOrder.elimination(1)
    assert order.compare((1, 0, 0), (0, 7, 7)) > 0
    assert order.compare((2, 0, 0), (1, 5, 0)) > 0


exps3 = st.tuples(*[st.integers(0, 6)] * 3)


@given(a=exps3, b=exps3, c=exps3)
def test_orders_are_multiplicative_total_orders(a, b, c):
    for order in (MonomialOrder.grevlex(), MonomialOrder.lex(), MonomialOrder.elimination(1)):
        cmp = order.compare(a, b)
        assert cmp == -order.compare(b, a)
        assert (cmp == 0) == (a == b)
        shift = tuple(x + y for x, y in zip(a, c))
        assert order.compare(shift, tuple(x + y for x, y in zip(b, c))) == cmp
        # 1 is the least monomial
        assert a == (0, 0, 0) or order.compare(a, (0, 0, 0)) > 0


# Reference definitions of the monomial kernels: generator expressions over
# zip, and the elimination key as a nested (head key, tail key) pair.  The
# library's map-based kernels and flat elimination key must agree with them.


def _reference_grevlex(exps):
    return (sum(exps),) + tuple(-e for e in reversed(exps))


def _reference_key(order, exps):
    if order.kind == MonomialOrder.GREVLEX:
        return _reference_grevlex(exps)
    if order.kind == MonomialOrder.LEX:
        return exps
    k = order.block
    return (_reference_grevlex(exps[:k]), _reference_grevlex(exps[k:]))


def _sign(x, y):
    return (x > y) - (x < y)


exp_pairs = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*[st.tuples(*[st.integers(0, 3)] * n)] * 2)
)


@settings(max_examples=300)
@given(pair=exp_pairs)
def test_order_keys_compare_like_reference_keys(pair):
    a, b = pair
    n = len(a)
    orders = [MonomialOrder.grevlex(), MonomialOrder.lex()]
    orders += [MonomialOrder.elimination(k) for k in range(1, n + 1)]
    for order in orders:
        expected = _sign(_reference_key(order, a), _reference_key(order, b))
        assert _sign(order.key(a), order.key(b)) == expected, order
        assert order.compare(a, b) == expected, order


@settings(max_examples=300)
@given(pair=exp_pairs)
def test_monomial_kernels_match_zip_definitions(pair):
    a, b = pair
    assert mono_divides(a, b) == all(x <= y for x, y in zip(a, b))
    assert mono_div(a, b) == tuple(x - y for x, y in zip(a, b))
    assert mono_lcm(a, b) == tuple(max(x, y) for x, y in zip(a, b))


# -- polynomial arithmetic ---------------------------------------------------


def small_polys(R):
    coeff = st.integers(-9, 9)
    exps = st.tuples(*[st.integers(0, 3)] * R.nvars)
    return st.dictionaries(exps, coeff, max_size=5).map(
        lambda d: sum(
            (R.monomial(m, R.field.from_int(c)) for m, c in d.items() if c),
            R.zero(),
        )
    )


RQ = ring(QQ, "x", "y", "z")
RP = ring(FP, "x", "y", "z")


@settings(max_examples=60)
@given(f=small_polys(RQ), g=small_polys(RQ), h=small_polys(RQ))
def test_ring_axioms_over_q(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + RQ.zero() == f
    assert f * RQ.one() == f
    assert f - f == RQ.zero()


@settings(max_examples=60)
@given(f=small_polys(RP), g=small_polys(RP), point=st.tuples(*[st.integers(0, 32002)] * 3))
def test_evaluation_is_a_ring_homomorphism(f, g, point):
    F = RP.field
    pt = [F.from_int(c) for c in point]
    assert (f + g).evaluate(pt) == F.add(f.evaluate(pt), g.evaluate(pt))
    assert (f * g).evaluate(pt) == F.mul(f.evaluate(pt), g.evaluate(pt))


@settings(max_examples=60)
@given(f=small_polys(RQ))
def test_text_round_trip_over_q(f):
    assert RQ.parse(str(f).replace(" ", "")) == f
    assert RQ.parse(str(f)) == f


def test_degree_and_homogeneity():
    f = RQ.parse("x^2*y - 3*z^3")
    assert f.total_degree() == 3
    assert f.is_homogeneous()
    assert not RQ.parse("x^2 + y").is_homogeneous()
    assert RQ.zero().is_homogeneous()


# -- parsing -----------------------------------------------------------------


def test_parse_goldens():
    x, y, z = RQ.gens()
    assert RQ.parse("x*y^2 - 2*z") == x * y * y - RQ.constant(Fraction(2)) * z
    assert RQ.parse("-x + 1/2*y") == -x + y.scale(Fraction(1, 2))
    assert RQ.parse("x - x") == RQ.zero()


def test_parse_i_over_extension():
    R = ring(FPI, "s", "t")
    s, t = R.gens()
    f = R.parse("s + i*t")
    assert f * R.parse("s - i*t") == s * s + t * t


@pytest.mark.parametrize("bad", ["", "x +", "w", "x^", "1/0", "x**2", "i"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        RQ.parse(bad)


# -- normalization and rendering --------------------------------------------


def test_normalize_monic_over_prime_field():
    f = RP.parse("3*x^2 + 6*y^2")
    g = normalize(f, RP.default_order)
    assert g.leading(RP.default_order)[0] == RP.field.one
    assert g == RP.parse("x^2 + 2*y^2")


def test_normalize_content_free_over_q():
    f = RQ.parse("-2/3*x - 4/3*y")
    g = normalize(f, RQ.default_order)
    assert g == RQ.parse("x + 2*y")


rationals = st.tuples(st.integers(-50, 50), st.integers(1, 12))


def is_canonical(c):
    """An int when integral, a Fraction with denominator > 1 otherwise."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


@settings(max_examples=200)
@given(a=rationals, b=rationals)
def test_rational_operations_return_canonical_values(a, b):
    F = QQ
    x, y = F.from_fraction(*a), F.from_fraction(*b)
    fx, fy = Fraction(*a), Fraction(*b)
    values = [
        (F.from_int(a[0]), a[0]),
        (x, fx),
        (F.add(x, y), fx + fy),
        (F.sub(x, y), fx - fy),
        (F.mul(x, y), fx * fy),
        (F.neg(x), -fx),
    ]
    if fy:
        values += [(F.inv(y), 1 / fy), (F.div(x, y), fx / fy)]
    for got, want in values:
        assert is_canonical(got), repr(got)
        assert got == want


nonzero_rationals = st.tuples(st.integers(-50, 50).filter(bool), st.integers(1, 12))
rational_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * RQ.nvars), nonzero_rationals, min_size=1, max_size=5
).map(lambda d: Polynomial(RQ, {m: QQ.from_fraction(*c) for m, c in d.items()}))


@settings(max_examples=100)
@given(f=rational_polys)
def test_normalize_over_q_is_integral_content_free_and_idempotent(f):
    order = RQ.default_order
    g = normalize(f, order)
    coeffs = list(g.coeffs.values())
    assert all(type(c) is int for c in coeffs)
    assert gcd(*coeffs) == 1
    assert g.leading(order)[0] > 0
    assert g == f.scale(QQ.div(g.leading(order)[0], f.leading(order)[0]))
    assert normalize(g, order) is g


def test_symmetric_coefficient_printing():
    # coefficients above p/2 print as small negatives
    f = RP.parse("-x + 16000*y")
    assert str(f) == "-x + 16000*y"
    assert str(RP.parse("16002*y")) == "-16001*y"
