"""Normal forms, Buchberger, reduced-basis canonicity, elimination, syzygies."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import (
    MonomialOrder,
    Polynomial,
    eliminate_first,
    exact_divide,
    normal_form,
    reduced_groebner_basis,
    syzygy_generators,
)
from rowfibers.groebner import (
    _buchberger,
    module_contains,
    module_groebner,
    s_polynomial,
)

from helpers import FP, QQ, quartic_context, ring


RP = ring(FP, "x", "y", "z")
RQ = ring(QQ, "x", "y", "z")


def gb_strings(gens, order=None):
    gb = reduced_groebner_basis(gens, order or gens[0].ring.default_order)
    return sorted(g.text(gb.order) for g in gb)


# -- normal form -------------------------------------------------------------


def test_normal_form_golden():
    order = RQ.default_order
    f = RQ.parse("x^2*y + x*y^2 + y^2")
    basis = [RQ.parse("x*y - 1"), RQ.parse("y^2 - 1")]
    r = normal_form(f, basis, order)
    assert r == RQ.parse("x + y + 1")


def test_normal_form_quotients_reassemble():
    order = RQ.default_order
    f = RQ.parse("x^3 - 2*x*y + y^5")
    basis = [RQ.parse("x^2 - y"), RQ.parse("y^2 - z")]
    r, quots = normal_form(f, basis, order, with_quotients=True)
    assert f == sum((q * b for q, b in zip(quots, basis)), r)
    # the remainder has no term divisible by any basis lead
    for m in r.coeffs:
        for b in basis:
            lead = b.leading_monomial(order)
            assert not all(e >= l for e, l in zip(m, lead))


def test_rational_division_never_gives_floats():
    """Over Q an int coefficient divided by an int stays exact."""
    RXY = ring(QQ, "x", "y")
    assert repr(QQ.inv(2)) == repr(Fraction(1, 2))
    assert repr(QQ.div(1, 3)) == repr(Fraction(1, 3))
    x = Polynomial(RXY, {(1, 0): 1})
    g = Polynomial(RXY, {(1, 0): 2, (0, 1): 1})
    r = normal_form(x, [g])
    assert r == RXY.parse("-1/2*y")
    assert [type(c) for c in r.coeffs.values()] == [Fraction]
    q = exact_divide(Polynomial(RXY, {(2, 0): 2, (1, 1): 1}), g)
    assert q == RXY.parse("x")
    assert [type(c) for c in q.coeffs.values()] == [int]


def test_normal_form_is_ideal_membership():
    order = RP.default_order
    gb = reduced_groebner_basis([RP.parse("x-y"), RP.parse("y-z")], order)
    assert normal_form(RP.parse("x-z"), gb.elements, order).is_zero()
    assert not normal_form(RP.parse("x-1"), gb.elements, order).is_zero()


# -- reduced Groebner bases --------------------------------------------------


def test_gb_linear_golden():
    assert gb_strings([RQ.parse("x - y"), RQ.parse("y - z")]) == ["x - z", "y - z"]


def test_gb_classic_golden_lex():
    # the intersection curve of a sphere-like pair, lex x > y > z
    R = ring(QQ, "x", "y")
    got = gb_strings([R.parse("x^2 + y^2 - 1"), R.parse("x - y")], MonomialOrder.lex())
    assert got == ["2*y^2 - 1", "x - y"]


def test_gb_of_unit_ideal_is_one():
    assert gb_strings([RQ.parse("x"), RQ.parse("x - 1")]) == ["1"]


def test_gb_twisted_cubic_affine():
    R = ring(QQ, "t", "x", "y")
    small, gens = eliminate_first([R.parse("x - t^2"), R.parse("y - t^3")], 1)
    got = sorted(g.text(small.default_order) for g in gens)
    assert got == ["x^3 - y^2"]


def test_gb_canonical_under_permutations():
    gens = [
        RP.parse("x^2*y - z^3"),
        RP.parse("x*z - y^2"),
        RP.parse("y*z^2 - x^3"),
        RP.parse("x*y*z - z^3 + y^3"),
    ]
    reference = gb_strings(gens)
    rng = random.Random("permutations")
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert gb_strings(shuffled) == reference


def test_all_s_pairs_reduce_to_zero():
    order = RP.default_order
    gb = reduced_groebner_basis(
        [RP.parse("x^2 - y*z"), RP.parse("y^2 - x*z"), RP.parse("z^2 - x*y")], order
    )
    basis = list(gb)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            assert normal_form(s, basis, order).is_zero()


def test_gb_same_ideal_as_input():
    order = RP.default_order
    gens = [RP.parse("x^2 - y*z"), RP.parse("x*y - z^2")]
    gb = reduced_groebner_basis(gens, order)
    for g in gens:
        assert normal_form(g, gb.elements, order).is_zero()
    gens_gb = reduced_groebner_basis(list(gb), order)
    assert gens_gb.elements == gb.elements


# -- exact division ----------------------------------------------------------


def test_exact_divide():
    f = RQ.parse("x^2 - y^2")
    g = RQ.parse("x - y")
    assert exact_divide(f, g) == RQ.parse("x + y")
    with pytest.raises(ValueError):
        exact_divide(RQ.parse("x^2 + y"), g)


# -- elimination -------------------------------------------------------------


def test_elimination_is_contraction():
    # eliminate x from (x^2 - y, x*z - y): contraction contains y^2 - y*z^2...
    # verified by membership: every survivor has no x and lies in the ideal
    order = RP.default_order
    gens = [RP.parse("x^2 - y"), RP.parse("x*z - y")]
    gb = reduced_groebner_basis(gens, order)
    small, out = eliminate_first(gens, 1)
    assert small.variables == ("y", "z")
    for g in out:
        lifted = RP.parse(str(g).replace(" ", ""))
        assert normal_form(lifted, gb.elements, order).is_zero()
    # y*z^2 - y^2 = z^2*(x^2 - y) - (x*z + y)*(x*z - y) is in the contraction
    gb_small = reduced_groebner_basis(list(out), small.default_order)
    assert normal_form(
        small.parse("y*z^2-y^2"), gb_small.elements, small.default_order
    ).is_zero()


R4P = ring(FP, "a", "b", "x", "y")
R4Q = ring(QQ, "a", "b", "x", "y")


@st.composite
def elimination_input(draw, R):
    """1-3 polynomials in a, b, x, y with 1-3 terms and coefficients in
    -5..5, all of degree <= 1 (the linear route) or all of degree <= 2, with
    0-2 zero polynomials inserted among them."""
    top = draw(st.integers(1, 2))
    monos = [m for m in product(range(top + 1), repeat=4) if sum(m) <= top]
    terms = st.dictionaries(
        st.sampled_from(monos), st.integers(-5, 5).filter(bool), min_size=1, max_size=3
    )
    gens = [
        Polynomial(R, {m: R.field.from_int(c) for m, c in draw(terms).items()})
        for _ in range(draw(st.integers(1, 3)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        gens.insert(draw(st.integers(0, len(gens))), Polynomial(R, {}))
    return gens


@pytest.mark.parametrize("R", [R4P, R4Q], ids=["fp", "q"])
@pytest.mark.parametrize("drop", [1, 2])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_elimination_keeps_the_head_free_reduced_elements(R, drop, data):
    """eliminate_first reduces only the elements free of the dropped
    variables; they must be exactly those of the full reduced basis in the
    same elimination order, element for element."""
    gens = data.draw(elimination_input(R))
    small, out = eliminate_first(gens, drop)
    full = reduced_groebner_basis(gens, MonomialOrder.elimination(drop))
    expected = [
        {m[drop:]: c for m, c in g.coeffs.items()}
        for g in full
        if all(not any(m[:drop]) for m in g.coeffs)
    ]
    assert small.variables == R.variables[drop:]
    assert [g.coeffs for g in out] == expected


def test_free_of_needs_its_elimination_order():
    gens = [R4P.parse("a*x - y^2"), R4P.parse("b*y - x")]
    with pytest.raises(ValueError, match="elim"):
        reduced_groebner_basis(gens, R4P.default_order, free_of=1)
    with pytest.raises(ValueError, match="elim"):
        reduced_groebner_basis(gens, MonomialOrder.elimination(2), free_of=1)


# -- syzygies ----------------------------------------------------------------


def test_koszul_syzygy():
    x, y, z = RP.gens()
    cols = syzygy_generators([x, y])
    assert len(cols) == 1
    ((a, b),) = cols
    assert a * x + b * y == RP.zero()
    # the Koszul relation (-y, x) up to sign
    assert {a, b} in ({-y, x}, {y, -x})


def test_syzygies_generate_the_module():
    gens = [RP.parse("x^2"), RP.parse("x*y"), RP.parse("y^2")]
    cols = syzygy_generators(gens)
    order = RP.default_order
    F = RP.field
    for col in cols:
        assert sum((g * e for g, e in zip(gens, col)), RP.zero()).is_zero()
    # a random syzygy combination stays inside the generated module
    basis = []
    for col in cols:
        v = {}
        for i, p in enumerate(col):
            for m, c in p.coeffs.items():
                v[(i, m)] = c
        basis.append(v)
    basis = module_groebner(basis, order, F)
    rng = random.Random("syzygy-membership")
    for _ in range(10):
        combo = [RP.zero()] * len(gens)
        for col in cols:
            w = RP.monomial(
                (rng.randint(0, 2), rng.randint(0, 2), 0), F.from_int(rng.randint(1, 50))
            )
            combo = [acc + w * e for acc, e in zip(combo, col)]
        v = {}
        for i, p in enumerate(combo):
            for m, c in p.coeffs.items():
                v[(i, m)] = c
        assert module_contains(v, basis, order, F)


# -- pair order --------------------------------------------------------------
# Reduced bases are canonical, so they cannot see the order in which S-pairs
# are processed.  The raw Buchberger basis and the syzygy columns can: these
# goldens pin the normal strategy (least lcm degree, then pair index).


def test_raw_buchberger_basis_pins_pair_order_fp():
    order = RP.default_order
    gens = [
        RP.parse("x^2*y - z^3"),
        RP.parse("x*z - y^2"),
        RP.parse("y*z^2 - x^3"),
        RP.parse("x*y*z - z^3 + y^3"),
    ]
    assert [g.text(order) for g in _buchberger(gens, order)] == [
        "x^2*y - z^3",
        "y^2 - x*z",
        "x^3 - y*z^2",
        "y^3 + x*y*z - z^3",
        "x*y*z + 16001*z^3",
        "x*z^3 - 2*z^4",
        "x^2*z^2 + 16001*y*z^3",
        "y*z^4 - 8001*z^5",
        "z^5",
    ]


def test_raw_buchberger_basis_pins_pair_order_qq():
    order = RQ.default_order
    gens = [
        RQ.parse("x^2 + 2*y*z - 3"),
        RQ.parse("x*y - z^2 + x"),
        RQ.parse("y^2 - 1/2*x*z + y"),
    ]
    assert [g.text(order) for g in _buchberger(gens, order)] == [
        "x^2 + 2*y*z - 3",
        "x*y - z^2 + x",
        "2*y^2 - x*z + 2*y",
        "2*x*z^2 - 3*y - 3",
        "4*y*z^2 - 3*z",
        "4*z^4 - 3*x*z - 6*y - 6",
    ]


def _column_strings(gens):
    order = gens[0].ring.default_order
    return [[e.text(order) for e in col] for col in syzygy_generators(gens)]


def test_syzygy_columns_pin_pair_order_quartic():
    gens = list(quartic_context().generators)
    assert _column_strings(gens) == [
        ["t", "-s", "0", "0"],
        ["0", "0", "t", "-s"],
        ["0", "t^2", "-s^2", "0"],
    ]


def test_syzygy_columns_pin_pair_order_quadric_map():
    gens = [RP.parse(t) for t in ("x^2 - y*z", "x*y + z^2", "y^2 - x*z", "x*z + y*z")]
    assert _column_strings(gens) == [
        ["y + z", "-x - y", "x + z", "2*z"],
        ["0", "y", "-x - z", "-x + y - z"],
        ["x*z - z^2", "x*z", "-x*z - y*z", "-x^2 + y^2 - z^2"],
        [
            "0",
            "x^2*z",
            "x^2*z - x*y*z - y^2*z - y*z^2",
            "-x^2*y + y^3 + x^2*z - 2*x*y*z + y^2*z - x*z^2",
        ],
        ["0", "x*z", "-y*z + z^2", "-x*y + y^2 - y*z"],
        [
            "0",
            "0",
            "x^2*z - y^2*z + x*z^2 + y*z^2",
            "-x*y^2 + y^3 + x^2*z - x*y*z - y^2*z + x*z^2",
        ],
        ["0", "0", "x*z^2 + y*z^2", "-y^2*z + x*z^2"],
        ["0", "0", "x*z + y*z", "-y^2 + x*z"],
    ]
