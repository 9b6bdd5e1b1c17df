"""Ideal operations: goldens, brute-force oracle agreement, dimension."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rowfibers import (
    Ideal,
    MapContext,
    Polynomial,
    UNIT_CODIM,
    RingMismatchError,
    normal_form,
)
from rowfibers.groebner import _Echelon, _buchberger

from helpers import (
    FP,
    QQ,
    ideal,
    monomials_up_to,
    oracle_colon_member,
    oracle_saturate_member,
    random_monomial_ideal,
    ring,
    same_members,
    saturate_by_iterated_colons,
)

RQ = ring(QQ, "x", "y", "z")
RP = ring(FP, "x", "y", "z")


# -- goldens -----------------------------------------------------------------


def test_sum_product_power():
    I = ideal(RQ, "x")
    J = ideal(RQ, "y")
    assert (I + J).equals(ideal(RQ, "x", "y"))
    assert (I * J).equals(ideal(RQ, "x*y"))
    assert I.power(3).equals(ideal(RQ, "x^3"))


def test_intersection_goldens():
    assert ideal(RQ, "x").intersect(ideal(RQ, "y")).equals(ideal(RQ, "x*y"))
    got = ideal(RQ, "x^2", "y").intersect(ideal(RQ, "x", "y^3"))
    assert got.equals(ideal(RQ, "x^2", "x*y", "y^3"))
    # non-monomial: (x+y) meet (x-y) in two variables
    R = ring(QQ, "x", "y")
    got = ideal(R, "x+y").intersect(ideal(R, "x-y"))
    assert got.equals(ideal(R, "x^2-y^2"))


def test_colon_goldens():
    assert ideal(RQ, "x^2*y").colon(ideal(RQ, "y")).equals(ideal(RQ, "x^2"))
    assert ideal(RQ, "x*y", "y*z").colon(ideal(RQ, "y")).equals(ideal(RQ, "x", "z"))
    # colon past the ideal gives the unit ideal
    assert ideal(RQ, "x").colon(ideal(RQ, "x")).is_unit()
    # zero conventions
    zero = Ideal(RQ, [])
    assert ideal(RQ, "x").colon(zero).is_unit()
    assert zero.colon(ideal(RQ, "x")).is_zero()


def test_saturation_goldens():
    # saturating (x*y, y*z^2) by (y) strips the y-torsion entirely
    assert ideal(RQ, "x*y", "y*z^2").saturate(ideal(RQ, "y")).equals(
        ideal(RQ, "x", "z^2")
    )
    # an irrelevant-ideal-primary component dies under saturation
    I = ideal(RQ, "x^2", "x*y", "x*z", "y^3")
    assert I.saturate(ideal(RQ, "x", "y", "z")).equals(ideal(RQ, "x", "y^3"))
    # conventions: I : (0)^infty = S, (0) : J^infty = (0), I : (1)^infty = I
    zero, unit = Ideal(RQ, []), ideal(RQ, "1")
    for I in [ideal(RQ, "x*y", "y*z^2"), ideal(RQ, "x^2-y*z", "x*y+z^2")]:
        assert I.saturate(zero).is_unit()
        assert zero.saturate(I).is_zero()
        assert I.saturate(unit).equals(I)


def test_membership_and_equality():
    I = ideal(RQ, "x^2 - y*z", "x*y - z^2")
    assert I.contains(RQ.parse("x^3 - y*z*x"))
    assert not I.contains(RQ.parse("x"))
    J = Ideal(RQ, list(reversed(I.generators)) + [RQ.parse("x^2 - y*z")])
    assert I.equals(J)
    with pytest.raises(RingMismatchError):
        I.equals(ideal(RP, "x"))


def test_elimination():
    R = ring(QQ, "t", "x", "y")
    I = Ideal(R, [R.parse("x - t^2"), R.parse("y - t^3")])
    got = I.eliminate(1)
    assert got.canonical_strings() == ["x^3 - y^2"]
    with pytest.raises(ValueError):
        I.eliminate(3)


# -- dimension / codimension -------------------------------------------------


@pytest.mark.parametrize(
    "gens,codim",
    [
        (("x",), 1),
        (("x", "y"), 2),
        (("x", "y", "z"), 3),
        (("x*y", "x*z"), 1),  # components (x) and (y,z); min codim wins
        (("x^2 - y*z", "x*y - z^2"), 2),
        (("x^2",), 1),
    ],
)
def test_codimension_goldens(gens, codim):
    assert ideal(RQ, *gens).codimension() == codim


def test_unit_and_zero_dimension():
    assert ideal(RQ, "1").codimension() == UNIT_CODIM
    assert ideal(RQ, "x", "x - 1").dimension() == UNIT_CODIM
    assert Ideal(RQ, []).dimension() == 3


def test_is_linear():
    assert ideal(RQ, "x - y", "z").is_linear()
    assert not ideal(RQ, "x^2").is_linear()
    assert Ideal(RQ, []).is_linear()
    assert not ideal(RQ, "1").is_linear()
    # linearity is a property of the ideal, not the given generators
    assert ideal(RQ, "x + y", "x^2 + x*y + z").is_linear()


def test_minimal_generators():
    I = ideal(RQ, "x^2", "x^2 + x*y", "x*y", "x^3", "y^4")
    got = [str(g) for g in I.minimal_generators()]
    assert got == ["x^2", "x^2 + x*y", "y^4"]
    mono = ideal(RQ, "x^2", "x^3", "x*y", "x^2*y", "y^4")
    assert [str(g) for g in mono.minimal_generators()] == ["x^2", "x*y", "y^4"]
    with pytest.raises(ValueError):
        ideal(RQ, "x^2 + y").minimal_generators()


@st.composite
def equigenerated_forms(draw):
    """Forms of one degree with at least two terms each, plus a few integer
    combinations of earlier forms so that some generators are redundant."""
    d = draw(st.integers(1, 3))
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    coefficient = st.integers(-9, 9).filter(bool)
    form = st.dictionaries(st.sampled_from(monos), coefficient, min_size=2, max_size=4)
    gens = draw(st.lists(form, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(1, len(gens)))
        combo: dict = {}
        for g in gens[:at]:
            k = draw(st.integers(-2, 2))
            for m, c in g.items():
                combo[m] = combo.get(m, 0) + k * c
        gens.insert(at, {m: c for m, c in combo.items() if c})
    return gens


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@settings(max_examples=25, deadline=None)
@given(gens=equigenerated_forms())
def test_minimal_generators_drops_exactly_the_redundant(R, gens):
    F = R.field
    I = Ideal(R, [Polynomial(R, {m: F.from_int(c) for m, c in g.items()}) for g in gens])
    kept = I.minimal_generators()
    order = R.default_order
    before = []  # the generators kept so far
    for g in I.generators:
        is_kept = len(before) < len(kept) and kept[len(before)] == g
        redundant = bool(before) and normal_form(
            g, _buchberger(before, order), order
        ).is_zero()
        assert is_kept != redundant
        if is_kept:
            before.append(g)
    assert before == kept


def test_monomial_minimal_generators_keep_coefficients():
    """The monomial route keeps, for each kept exponent, the first input
    generator with that exponent, as written."""
    equi = ideal(RQ, "2*x^2", "3*x*y", "5*x^2", "-y^2", "x*y")
    assert equi.minimal_generators() == [RQ.parse(t) for t in ("2*x^2", "3*x*y", "-y^2")]
    mixed = ideal(RP, "7*x^3", "2*x^2*y", "3*x^2", "4*x^2", "-y^4", "x*y", "5*x*y^3")
    assert mixed.minimal_generators() == [RP.parse(t) for t in ("3*x^2", "x*y", "-y^4")]


def generic_minimal_generators(gens):
    """The generic route on its own: the span test when the generators share
    one degree, otherwise membership in the ideal of those already kept,
    decided by a Buchberger basis, over the generators sorted stably by degree."""
    R = gens[0].ring
    order = R.default_order
    if len({g.total_degree() for g in gens}) == 1:
        span = _Echelon(R.field, order.key)
        return [g for g in gens if span.add(g.coeffs)]
    kept = []
    for g in sorted(gens, key=Polynomial.total_degree):
        if not kept or not normal_form(g, _buchberger(kept, order), order).is_zero():
            kept.append(g)
    return kept


@st.composite
def scaled_monomials(draw, R):
    """1-8 monomials with nonzero coefficients in -9..9, drawn from a pool of
    1-4 exponents (so exponents repeat), all of one degree or of degrees 1-4."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        exps = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    else:
        exps = [(a, b, c) for a in range(5) for b in range(5) for c in range(5)
                if 1 <= a + b + c <= 4]
    pool = draw(st.lists(st.sampled_from(exps), min_size=1, max_size=4, unique=True))
    coefficient = st.integers(-9, 9).filter(bool)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coefficient), min_size=1, max_size=8))
    return [R.monomial(e, R.field.from_int(c)) for e, c in terms]


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_monomial_minimal_generators_match_generic_route(R, data):
    gens = data.draw(scaled_monomials(R))
    assert Ideal(R, gens).minimal_generators() == generic_minimal_generators(gens)


@pytest.mark.parametrize(
    "names", [("t_aux_", "b", "c"), ("T0", "b", "c"), ("T0", "T0_", "T1")]
)
def test_auxiliary_variables_never_clash_with_ring_variables(names):
    """Intersections, colons and saturations adjoin one variable, the spread's
    elimination oracle one per form; their names are fresh, so a ring
    variable named like them changes no answer."""
    answers = []
    for R in (ring(FP, "a", "b", "c"), ring(FP, *names)):
        x, y, z = R.gens()
        J = Ideal(R, [x + y, y - z])
        I = Ideal(R, [(x**2 - y * z) * g for g in (J * J).generators])
        ctx = MapContext(Ideal(R, [x**2 - y * z, x * y, z**2]))
        answers.append((
            [[g.coeffs for g in K.groebner()]
             for K in (I.intersect(J), I.colon(J), I.saturate(J))],
            ctx.analytic_spread(),
        ))
    assert answers[0] == answers[1]


# -- brute-force oracle agreement --------------------------------------------


# exponents of the monomials of degree <= 2 in three variables
LOW = [(a, b, c) for a in range(3) for b in range(3) for c in range(3) if a + b + c <= 2]


def draw_poly(draw, R, monos, min_size):
    """A polynomial on min_size to 3 of monos, with coefficients in -5..5."""
    coeffs = draw(st.dictionaries(
        st.sampled_from(monos), st.integers(-5, 5).filter(bool),
        min_size=min_size, max_size=3,
    ))
    return Polynomial(R, {m: R.field.from_int(c) for m, c in coeffs.items()})


@st.composite
def ideal_and_form(draw, R):
    """A form f of degree 1-2, non-monomial or monomial, and a non-monomial
    ideal of 1-3 polynomials of degree <= 2 in x, y, z, whose first
    generator is multiplied by a power of f (0-2) so that the saturation
    has something to strip."""
    d = draw(st.integers(1, 2))
    forms = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    f = draw_poly(draw, R, forms, draw(st.integers(1, 2)))
    gens = [draw_poly(draw, R, LOW, 1) for _ in range(draw(st.integers(1, 3)))]
    gens[0] = gens[0] * f ** draw(st.integers(0, 2))
    assume(any(len(g.coeffs) > 1 for g in gens))
    return Ideal(R, gens), f


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_principal_saturation_matches_iterated_colons(R, data):
    """Saturating by one form is one elimination of t from (I, 1 - t*f);
    it must equal I : f : f : ... until the chain repeats."""
    I, f = data.draw(ideal_and_form(R))
    J = Ideal(R, [f])
    assert I.saturate(J).equals(saturate_by_iterated_colons(I, J))


@st.composite
def ideal_and_saturating_ideal(draw, R):
    """J of 2-3 linear forms, all non-monomial or one of them a variable,
    and I = A*J for a non-monomial A of 1-2 polynomials of degree <= 2 whose
    first generator is multiplied by a generator of J.  I : J^infty is then
    A : J^infty, while the saturation by that one generator can strip more."""
    linear = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    J = Ideal(R, [draw_poly(draw, R, linear, 2) for _ in range(draw(st.integers(2, 3)))])
    if draw(st.booleans()):
        J = Ideal(R, [R.gen(draw(st.integers(0, 2))), *J.generators[1:]])
    A = [draw_poly(draw, R, LOW, 1) for _ in range(draw(st.integers(1, 2)))]
    A[0] = A[0] * draw(st.sampled_from(J.generators))
    assume(any(len(g.coeffs) > 1 for g in A))
    return Ideal(R, A) * J, J


@pytest.mark.parametrize("R", [RP, RQ], ids=["fp", "q"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_saturation_by_an_ideal_matches_iterated_colons(R, data):
    """I : (f_1..f_s)^infty is the intersection of the I : f_i^infty; it must
    equal I : J : J : ... until the chain repeats."""
    I, J = data.draw(ideal_and_saturating_ideal(R))
    assert I.saturate(J).equals(saturate_by_iterated_colons(I, J))


def test_colon_and_saturation_agree_with_oracle():
    """The optimized colon/saturate must match pointwise membership oracles
    on random monomial ideals (<=3 vars, generator degree <=4, probes to
    degree 8)."""
    rng = random.Random("ideal-oracle")
    rings = [ring(FP, "x", "y"), ring(FP, "x", "y", "z")]
    for trial in range(100):
        R = rings[trial % 2]
        probes = monomials_up_to(R, 8)
        I = random_monomial_ideal(rng, R)
        J = random_monomial_ideal(rng, R)
        colon = I.colon(J)
        for m in probes:
            assert colon.contains(m) == oracle_colon_member(I, J, m), (
                f"colon mismatch: I={I}, J={J}, probe={m}"
            )
        sat = I.saturate(J)
        for m in probes:
            assert sat.contains(m) == oracle_saturate_member(I, J, m), (
                f"saturation mismatch: I={I}, J={J}, probe={m}"
            )


def test_intersection_agrees_with_membership():
    rng = random.Random("ideal-meet-oracle")
    R = ring(FP, "x", "y", "z")
    probes = monomials_up_to(R, 8)
    for _ in range(30):
        I = random_monomial_ideal(rng, R)
        J = random_monomial_ideal(rng, R)
        meet = I.intersect(J)
        for m in probes:
            assert meet.contains(m) == (I.contains(m) and J.contains(m))


def test_monomial_fast_paths_match_generic_route():
    """The combinatorial monomial route and the elimination route must agree;
    the generic route is forced by wrapping generators as non-monomial-shaped
    sums that still generate the same ideal."""
    rng = random.Random("fast-path")
    R = ring(FP, "x", "y", "z")
    for _ in range(15):
        I = random_monomial_ideal(rng, R)
        J = random_monomial_ideal(rng, R)
        # same ideals, but built from generator sums so the monomial
        # detection cannot trigger
        I2 = Ideal(R, [a + b for a in I.generators for b in I.generators])
        assert I.equals(I2)
        assert I.intersect(J).equals(I2.intersect(J))
        assert I.colon(J).equals(I2.colon(J))
