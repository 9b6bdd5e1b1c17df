"""Normal forms, Buchberger, reduced-basis canonicity, elimination, syzygies."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import (
    CoefficientField,
    GroebnerBasis,
    MonomialOrder,
    Polynomial,
    eliminate_first,
    exact_divide,
    normal_form,
    reduced_groebner_basis,
    syzygy_generators,
)
from rowfibers import groebner, polyring
from rowfibers.groebner import (
    _buchberger,
    _interreduce,
    module_groebner,
    module_normal_form,
)
from rowfibers.polyring import mono_divides

from helpers import (
    FP,
    QQ,
    buchberger_by_chain_scan,
    normal_form_by_scan,
    plane_cubics_context,
    quartic_context,
    ring,
    s_polynomial,
)


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


# -- order keys --------------------------------------------------------------


def _count_grevlex_keys(monkeypatch):
    """A list that grows by the argument of each ``_grevlex_key`` call made
    by an order built after this patch."""
    keyed = []
    original = polyring._grevlex_key

    def counted(exps):
        keyed.append(exps)
        return original(exps)

    monkeypatch.setattr(polyring, "_grevlex_key", counted)
    return keyed


def test_grevlex_keys_each_monomial_once_per_order(monkeypatch):
    gens = list(plane_cubics_context().generators)
    keyed = _count_grevlex_keys(monkeypatch)
    order = MonomialOrder.grevlex()
    basis = reduced_groebner_basis(gens, order)
    assert basis.elements == reduced_groebner_basis(gens, gens[0].ring.default_order).elements
    assert keyed and len(set(keyed)) == len(keyed)


def test_elimination_keys_each_monomial_once_per_order(monkeypatch):
    # the graph of the quartic: T_i - g_i in k[s, t, T0..T3], s and t dropped
    gens = list(quartic_context().generators)
    big = ring(FP, "s", "t", "T0", "T1", "T2", "T3")
    lifted = [
        big.gens()[2 + i] - Polynomial(big, {m + (0,) * 4: c for m, c in g.coeffs.items()})
        for i, g in enumerate(gens)
    ]
    keyed = _count_grevlex_keys(monkeypatch)
    _, out = eliminate_first(lifted, 2)
    assert len(out) > 1
    # an elim(2) key is the grevlex key of the head block, then of the tail
    assert len(keyed) % 2 == 0
    monomials = [h + t for h, t in zip(keyed[0::2], keyed[1::2])]
    assert all(len(h) == 2 for h in keyed[0::2])
    assert len(set(monomials)) == len(monomials)


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
        assert not module_normal_form(v, basis, order, F)


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


# -- the Groebner core against its reference routes ----------------------------
# helpers.normal_form_by_scan divides through the field's own operations, and
# helpers.buchberger_by_chain_scan tests both pair criteria when a pair is
# popped, scanning the whole basis for the chain criterion.

R7 = ring(CoefficientField(7), "x", "y", "z")
ORDERS = [
    MonomialOrder.grevlex(),
    MonomialOrder.lex(),
    MonomialOrder.elimination(1),
    MonomialOrder.elimination(2),
    MonomialOrder.elimination(1, MonomialOrder.lex()),
]


@st.composite
def polynomial(draw, R, top, max_terms):
    """A nonzero polynomial in x, y, z of degree <= top with 1..max_terms
    terms; coefficients are n/d with n in -5..5 and d in 1..3."""
    monos = [m for m in product(range(top + 1), repeat=3) if sum(m) <= top]
    coefficient = st.tuples(st.integers(-5, 5), st.integers(1, 3))
    terms = draw(
        st.dictionaries(st.sampled_from(monos), coefficient, min_size=1, max_size=max_terms)
    )
    coeffs = {m: R.field.from_fraction(n, d) for m, (n, d) in terms.items()}
    coeffs = {m: c for m, c in coeffs.items() if c} or {monos[0]: R.field.one}
    return Polynomial(R, coeffs)


def exact_terms(f):
    """f's terms with each coefficient's type, so that an integral Fraction
    over Q, or an unreduced value over F_p, shows."""
    return sorted((m, type(c).__name__, c) for m, c in f.coeffs.items())


@pytest.mark.parametrize("R", [RP, RQ, R7], ids=["fp", "q", "f7"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_normal_form_matches_the_reference_division(R, data):
    """Remainders and quotients are those of the reference division, with
    the basis elements' reducers computed by normal_form or cached by a
    GroebnerBasis, and with zero polynomials among the divisors."""
    order = data.draw(st.sampled_from(ORDERS))
    basis = data.draw(st.lists(polynomial(R, 2, 3), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        basis.insert(data.draw(st.integers(0, len(basis))), R.zero())
    f = data.draw(polynomial(R, 4, 8))
    r, quotients = normal_form_by_scan(f, basis, order, with_quotients=True)
    nonzero = [g for g in basis if not g.is_zero()]
    cached = GroebnerBasis(tuple(nonzero), order).reducers
    for got_r, got_q in (
        normal_form(f, basis, order, with_quotients=True),
        normal_form(f, nonzero, order, with_quotients=True, reducers=cached),
    ):
        assert exact_terms(got_r) == exact_terms(r)
        assert [exact_terms(q) for q in got_q] == [exact_terms(q) for q in quotients]
    assert exact_terms(normal_form(f, basis, order)) == exact_terms(r)
    assert exact_terms(normal_form(f, nonzero, order, reducers=cached)) == exact_terms(r)


@pytest.mark.parametrize("R", [RP, RQ, R7], ids=["fp", "q", "f7"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_reduced_basis_matches_the_chain_scan_loop(R, data):
    """The reduced basis is the reference loop's basis inter-reduced, in
    grevlex, lex and elim(k) with a grevlex or lex tail, also when the input
    holds zero or constant generators; in elim(k) so is the part free of the
    first k variables."""
    order = data.draw(st.sampled_from(ORDERS))
    gens = data.draw(st.lists(polynomial(R, 2, 3), min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(0, 2))):
        extra = data.draw(st.sampled_from([R.zero(), R.one(), R.constant(R.field.from_int(3))]))
        gens.insert(data.draw(st.integers(0, len(gens))), extra)
    reference = buchberger_by_chain_scan(gens, order)
    got = reduced_groebner_basis(gens, order)
    want = _interreduce(reference, order)
    assert [exact_terms(g) for g in got] == [exact_terms(g) for g in want]
    if order.kind == MonomialOrder.ELIM:
        k = order.block
        got = reduced_groebner_basis(gens, order, free_of=k)
        want = _interreduce(reference, order, k)
        assert [exact_terms(g) for g in got] == [exact_terms(g) for g in want]


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_basis_parts_give_the_flat_basis(R, data):
    """One or two reduced bases passed whole, among loose polynomials, give
    the reduced basis of the same polynomials passed one by one, in grevlex,
    lex and elim(k) with a grevlex or lex tail, although no pair inside a
    basis part is reduced; a basis in another order than the run's, if only
    on the kept block, is refused."""
    order = data.draw(st.sampled_from(ORDERS))
    gens = data.draw(st.lists(polynomial(R, 2, 3), max_size=2))
    for _ in range(data.draw(st.integers(1, 2))):
        part = data.draw(st.lists(polynomial(R, 2, 3), min_size=1, max_size=2))
        gens.insert(data.draw(st.integers(0, len(gens))), reduced_groebner_basis(part, order))
    flat = [g for x in gens for g in (x if isinstance(x, GroebnerBasis) else (x,))]
    got = reduced_groebner_basis(gens, order)
    want = reduced_groebner_basis(flat, order)
    assert [exact_terms(g) for g in got] == [exact_terms(g) for g in want]
    other = data.draw(st.sampled_from([o for o in ORDERS if o != order]))
    stranger = reduced_groebner_basis(flat, other)
    with pytest.raises(ValueError):
        reduced_groebner_basis([*gens, stranger], order)
    with pytest.raises(ValueError):
        _buchberger([stranger, *gens], order)


@st.composite
def homogeneous_vector(draw, R, top):
    """A nonzero vector in R^2 whose entries are forms of one degree in
    1..top, with 1..4 terms in all; coefficients as in ``polynomial``."""
    degree = draw(st.integers(1, top))
    monos = [m for m in product(range(degree + 1), repeat=3) if sum(m) == degree]
    terms = [(comp, m) for comp in range(2) for m in monos]
    coefficient = st.tuples(st.integers(-5, 5), st.integers(1, 3))
    drawn = draw(st.dictionaries(st.sampled_from(terms), coefficient, min_size=1, max_size=4))
    v = {t: R.field.from_fraction(n, d) for t, (n, d) in drawn.items()}
    return {t: c for t, c in v.items() if c} or {terms[0]: R.field.one}


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@pytest.mark.parametrize(
    "order", [MonomialOrder.grevlex(), MonomialOrder.lex()], ids=["grevlex", "lex"]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_module_division_leaves_a_reduced_remainder(R, order, data):
    """Against a module Groebner basis of random homogeneous vectors, each
    of those vectors reduces to zero, and the remainder r of a random vector
    v holds no term that a lead of its own component divides, reduces to
    itself, and v - r reduces to zero; the reducers computed once give the
    same remainder."""
    F = R.field
    vecs = data.draw(st.lists(homogeneous_vector(R, 2), min_size=1, max_size=3))
    basis = module_groebner(vecs, order, F)
    assert all(module_normal_form(w, basis, order, F) == {} for w in vecs)
    v = data.draw(homogeneous_vector(R, 3))
    r = module_normal_form(v, basis, order, F)
    key = groebner._mod_key(order)
    leads = [max(b, key=key) for b in basis]
    for comp, m in r:
        assert not any(c == comp and mono_divides(lm, m) for c, lm in leads)
    reducers = [groebner._module_reducer(b, t, F) for b, t in zip(basis, leads)]
    assert module_normal_form(v, basis, order, F, reducers=reducers) == r
    assert module_normal_form(r, basis, order, F) == r
    diff = {t: F.sub(v.get(t, F.zero), r.get(t, F.zero)) for t in v.keys() | r.keys()}
    assert module_normal_form({t: c for t, c in diff.items() if c}, basis, order, F) == {}


def _reduced_s_pairs(monkeypatch, gens, order):
    """(raw basis, S-polynomials reduced) of ``_buchberger`` on gens."""
    reduced = []
    original = groebner.normal_form

    def recorded(f, *args, **kwargs):
        reduced.append(f)
        return original(f, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(groebner, "normal_form", recorded)
        basis = _buchberger(gens, order)
    return basis, reduced


@pytest.mark.parametrize(
    "R, texts",
    [
        (RP, ["x^2*y - z^3", "x*z - y^2", "y*z^2 - x^3", "x*y*z - z^3 + y^3"]),
        (RQ, ["x^2 + 2*y*z - 3", "x*y - z^2 + x", "y^2 - 1/2*x*z + y"]),
        # y^2's pairs with x^2 (coprime) and with x^2*y share the lcm
        # x^2*y^2: the update drops both, as the chain scan skips both
        (RP, ["x^2 + y*z", "x^2*y + z^3", "y^2 + x*z"]),
        # the third lead equals the second: B_k must keep the pair of the
        # first two, since M drops the first element's pair with the third
        (RQ, ["y*z", "y^2 + 1", "y^2 + 1"]),
        (RQ, ["x^2 - y*z", "x*y + z^2", "y^2 - x*z", "x*z + y*z"]),
        (RP, ["x^3 - y*z^2", "x^2*y - z^3", "y^3 + x*z^2", "x*y*z - z^3"]),
    ],
    ids=["pin-fp", "pin-qq", "coprime-group", "equal-leads", "quadrics", "cubics"],
)
def test_pair_update_reduces_the_chain_scans_pairs(monkeypatch, R, texts):
    """On these inputs the Gebauer-Moeller update reduces exactly the
    S-pairs that the per-pop chain scan reduces, in the same order, so the
    raw bases agree element for element."""
    gens = [R.parse(t) for t in texts]
    order = R.default_order
    expected = []
    reference = buchberger_by_chain_scan(gens, order, expected)
    basis, reduced = _reduced_s_pairs(monkeypatch, gens, order)
    assert [exact_terms(s) for s in reduced] == [exact_terms(s) for s in expected]
    assert [exact_terms(g) for g in basis] == [exact_terms(g) for g in reference]
