"""Ideal operations: goldens, brute-force oracle agreement, dimension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import Ideal, Polynomial, UNIT_CODIM, RingMismatchError, normal_form
from rowfibers.groebner import _buchberger

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


# -- brute-force oracle agreement --------------------------------------------


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
