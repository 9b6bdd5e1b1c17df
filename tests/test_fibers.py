"""Map contexts, the four fiber ideals, analytic spread, birationality,
the syzygy-rank bound, and the power / point-presentation machinery."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rowfibers import (
    BasePointError,
    CoefficientField,
    Ideal,
    MapContext,
    MonomialOrder,
    ProjectivePoint,
    UNIT_CODIM,
)

from helpers import (
    FP,
    FPI,
    QQ,
    DATA,
    all_monomials,
    count_eliminations,
    double_cover_context,
    e_point,
    ideal,
    monomial_cover_context,
    plane_cubics_context,
    point_ideal_by_exponents,
    quartic_context,
    random_equigenerated_context,
    random_target_point,
    ring,
    saturate_by_iterated_colons,
    special_fiber_dimension_by_elimination,
    spread_lower_bound,
    twisted_cubic_context,
)
from rowfibers import Polynomial, matrix_from_rows, minimal_presentation, parse_matrix_rows
from rowfibers.fibers import _kernel_forms

F7 = CoefficientField(7)


# -- context validation ------------------------------------------------------


def test_context_rejects_bad_input():
    R = ring(FP, "x", "y", "z")
    with pytest.raises(ValueError, match="zero ideal"):
        MapContext(Ideal(R, []))
    with pytest.raises(ValueError, match="homogeneous"):
        MapContext(ideal(R, "x^2 + y"))
    with pytest.raises(ValueError, match="one degree"):
        MapContext(ideal(R, "x", "y^2"))
    # common divisor x forces codimension 1
    with pytest.raises(ValueError, match="codimension"):
        MapContext(ideal(R, "x*y", "x*z"))


def test_context_minimalizes_generators():
    R = ring(FP, "x", "y", "z")
    ctx = MapContext(ideal(R, "x^2", "y^2", "z^2", "x^2 + y^2"))
    assert len(ctx.generators) == 3
    assert (ctx.n, ctx.r, ctx.degree) == (2, 2, 2)


def test_projective_points():
    p = ProjectivePoint(FP, [2, 4, 6])
    assert p == ProjectivePoint(FP, [1, 2, 3])
    assert p != ProjectivePoint(FP, [1, 2, 4])
    with pytest.raises(ValueError):
        ProjectivePoint(FP, [0, 0])
    assert e_point(FP, 3, 1).normalized() == (FP.zero, FP.one, FP.zero)
    # Fraction coordinates are taken into the field, as the CLI's parser does
    assert ProjectivePoint(FP, [Fraction(1, 2), 1]) == ProjectivePoint(FP, [1, 2])
    assert ProjectivePoint(FP, [Fraction(-1, 3), 1]).coords == (FP.from_fraction(-1, 3), 1)
    # over Q an integral Fraction becomes an int, the field's canonical form
    coords = ProjectivePoint(QQ, [Fraction(4, 2), Fraction(1, 2)]).coords
    assert [type(c) for c in coords] == [int, Fraction]
    # a denominator that p divides has no value in F_p
    with pytest.raises(ValueError, match=r"1/7 has no value in GF\(7\)"):
        ProjectivePoint(F7, [Fraction(1, 7), 1])


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@pytest.mark.parametrize("bad", [0.5, 1.0, "1"])
def test_projective_point_refuses_coordinates_outside_int_and_fraction(field, bad):
    """A coordinate that is neither an int nor a Fraction is refused where
    the point is built, not when a later computation trips over it."""
    with pytest.raises(ValueError, match="neither an int nor a Fraction"):
        ProjectivePoint(field, [bad, 1])


def test_points_must_lie_in_the_space_and_field_of_the_map():
    ctx = quartic_context()  # P^1 -> P^3 over F_32003
    A = minimal_presentation(ctx.ideal)[1]
    with pytest.raises(ValueError, match="QQ"):
        ctx.row_ideal(ProjectivePoint(QQ, [Fraction(1, 2), 1, 0, 0]))
    with pytest.raises(ValueError, match="QQ"):
        ctx.evaluate_map(ProjectivePoint(QQ, [Fraction(1, 2), 1]))
    with pytest.raises(ValueError, match="QQ"):
        ctx.point_presentation(1, points=[ProjectivePoint(QQ, [1, k]) for k in range(1, 5)])
    with pytest.raises(ValueError, match="QQ"):
        ctx.hks_lower_bound(A, ProjectivePoint(QQ, [1, 0, 0, 0]))
    with pytest.raises(ValueError, match="coordinates"):
        ctx.evaluate_map(ProjectivePoint(FP, [1, 2, 3]))
    with pytest.raises(ValueError, match="coordinates"):
        ctx.row_ideal(ProjectivePoint(FP, [1, 2]))
    with pytest.raises(ValueError, match="coordinates"):
        ctx.point_presentation(1, points=[ProjectivePoint(FP, [1, k, 1]) for k in range(4)])


def test_evaluate_map_and_base_locus():
    ctx = quartic_context()
    p = ProjectivePoint(FP, [1, 2])
    q = ctx.evaluate_map(p)
    assert q == ProjectivePoint(FP, [1, 2, 8, 16])
    with pytest.raises(BasePointError):
        monomial_cover_context().evaluate_map(ProjectivePoint(FP, [1, 0, 0, 5]))


# -- the four ideals on the golden maps --------------------------------------


def test_monomial_cover_fiber_report():
    ctx = monomial_cover_context()
    R = ctx.ring
    rep = ctx.fiber_report(e_point(FP, 5, 4))
    assert rep.row.equals(ideal(R, "b", "c"))
    assert rep.correspondence.equals(ideal(R, "a^2", "b", "c"))
    assert rep.stabilized_at == 2 and rep.confirmed
    assert rep.morphism.is_unit()
    assert rep.chain_verified
    assert rep.codimensions() == {"row": 2, "correspondence": 3, "morphism": UNIT_CODIM}
    assert rep.linearity() == {"row": True, "correspondence": False, "morphism": False}


def test_monomial_cover_over_rationals():
    ctx = monomial_cover_context(field=QQ)
    rep = ctx.fiber_report(e_point(QQ, 5, 4))
    assert rep.row.canonical_strings() == ["b", "c"]
    assert rep.correspondence.canonical_strings() == ["a^2", "b", "c"]
    assert rep.morphism.is_unit()


def test_plane_cubics_fiber_is_the_conic():
    ctx = plane_cubics_context()
    R = ctx.ring
    q = e_point(QQ, 4, 3)
    conic = ideal(R, "x0*x1 - x2^2")
    assert ctx.morphism_fiber_ideal(q).equals(conic)
    corr, _, confirmed = ctx.correspondence_fiber_ideal(q)
    assert confirmed and corr.equals(conic)
    assert conic.codimension() == 1


def test_subspace_ideal_scaling_invariance():
    ctx = quartic_context()
    q = ProjectivePoint(FP, [3, 1, 4, 1])
    q2 = ProjectivePoint(FP, [6, 2, 8, 2])
    assert ctx.subspace_ideal(q).equals(ctx.subspace_ideal(q2))


def test_chain_containment_random():
    rng = random.Random("chain")
    for trial in range(8):
        ctx = random_equigenerated_context(rng)
        q = random_target_point(rng, ctx)
        rep = ctx.fiber_report(q)
        assert rep.chain_verified
        assert rep.row.contains_ideal(rep.subspace)
        assert rep.correspondence.contains_ideal(rep.row)
        assert rep.morphism.contains_ideal(rep.correspondence)


@st.composite
def nonmonomial_map_and_points(draw, field):
    """A map of P^1 by 3 or 4 forms, not all monomials, with an image point
    and a random target point (off the image curve, for almost every draw,
    when the map keeps three or more forms)."""
    R = ring(field, "s", "t")
    degree = draw(st.integers(2, 3))
    monos = [next(iter(m.coeffs)) for m in all_monomials(R, degree)]
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    forms = draw(
        st.lists(
            st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3),
            min_size=3,
            max_size=4,
        )
    )
    assume(any(len(f) > 1 for f in forms))
    gens = [Polynomial(R, {m: field.from_int(c) for m, c in f.items()}) for f in forms]
    try:
        ctx = MapContext(Ideal(R, gens))
    except ValueError:  # forms with a common factor: codimension < 2
        assume(False)
    source = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=2))
    try:
        image = ctx.evaluate_map(ProjectivePoint(field, source))
    except ValueError:  # the zero vector, or a base point (BasePointError)
        assume(False)
    target = draw(st.lists(st.integers(-5, 5), min_size=ctx.r + 1, max_size=ctx.r + 1))
    assume(any(target))
    return ctx, [image, ProjectivePoint(field, target)]


# Random quadric maps of P^2 are left out: the checks below took up to 21 s
# for one of their points over F_p and 17 s over Q.
@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_fiber_report_reuses_the_row_ideal_faithfully(field, data):
    """fiber_report feeds its row ideal into the chain as J_1 and saturates
    from it; the row and the morphism fiber must equal I_q : I and the
    iterated colons by I, and the chain must equal the chain's own method."""
    ctx, points = data.draw(nonmonomial_map_and_points(field))
    for q in points:
        rep = ctx.fiber_report(q)
        corr, stabilized_at, confirmed = ctx.correspondence_fiber_ideal(q)
        assert rep.row.equals(rep.subspace.colon(ctx.ideal))
        assert rep.correspondence.equals(corr)
        assert (rep.stabilized_at, rep.confirmed) == (stabilized_at, confirmed)
        assert rep.morphism.equals(saturate_by_iterated_colons(rep.subspace, ctx.ideal))


def assert_principal_routes_agree(ctx, targets, source):
    """The pivot-generator routes against colons by every generator of I:
    row_ideal and morphism_fiber_ideal at each target, and
    power_row_ideal(2, .) at the source point."""
    I = ctx.ideal
    assert len(I.generators) > 1  # so the references colon by several forms
    for q in targets:
        I_q = ctx.subspace_ideal(q)
        assert ctx.row_ideal(q).equals(I_q.colon(I))
        assert ctx.morphism_fiber_ideal(q).equals(saturate_by_iterated_colons(I_q, I))
    I_q = ctx.subspace_ideal(ctx.evaluate_map(source))
    numerator = Ideal(ctx.ring, (I_q * I).minimal_generators())
    square = Ideal(ctx.ring, I.power(2).minimal_generators())
    assert ctx.power_row_ideal(2, source).equals(numerator.colon(square))


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_principal_routes_match_colons_by_the_whole_ideal(field, data):
    """I = I_q + (g_j) for the pivot j of q, so colons by powers of I are
    colons by powers of g_j; a target whose first coordinate is 0 has a
    pivot past 0."""
    ctx, targets = data.draw(nonmonomial_map_and_points(field))
    tail = data.draw(st.lists(st.integers(-5, 5), min_size=ctx.r, max_size=ctx.r))
    assume(any(tail))
    targets.append(ProjectivePoint(field, [0, *tail]))
    source = ProjectivePoint(field, data.draw(
        st.lists(st.integers(-5, 5), min_size=2, max_size=2).filter(any)
    ))
    try:
        ctx.evaluate_map(source)
    except BasePointError:
        assume(False)
    assert_principal_routes_agree(ctx, targets, source)


@pytest.mark.parametrize(
    "make,field,targets,source",
    [
        (monomial_cover_context, FP, [(0, 0, 0, 0, 1), (1, 0, 0, 0, 0)], (1, 1, 2, 3)),
        (plane_cubics_context, QQ, [(0, 0, 0, 1), (0, -1, -1, 2)], (0, 1, 1)),
        (quartic_context, FP, [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 2, 3)], (1, 2)),
    ],
    ids=["monomial_cover", "plane_cubics", "quartic"],
)
def test_principal_routes_on_the_golden_maps(make, field, targets, source):
    ctx = make(field)
    points = [ProjectivePoint(field, q) for q in targets]
    assert_principal_routes_agree(ctx, points, ProjectivePoint(field, source))


# -- analytic spread ---------------------------------------------------------


@pytest.mark.parametrize(
    "make,value",
    [
        (quartic_context, 2),
        (twisted_cubic_context, 2),
        (double_cover_context, 2),
        (monomial_cover_context, 4),
    ],
)
def test_analytic_spread_goldens(make, value):
    ctx = make()
    got, codims = ctx.analytic_spread()
    assert got == value
    assert ctx.special_fiber_dimension() == value
    assert all(c == value - 1 for c in codims)


def test_spread_lower_bound():
    ctx = monomial_cover_context()
    # the fiber over e_4 is empty, so it bounds nothing
    assert spread_lower_bound(ctx, e_point(FP, 5, 4)) is None
    # over the image of a general point the bound is attained
    p = ctx.random_source_point(ctx.rng("test"))
    assert spread_lower_bound(ctx, ctx.evaluate_map(p)) == 4


def test_spread_is_seed_independent():
    a, _ = monomial_cover_context(seed=1).analytic_spread()
    b, _ = monomial_cover_context(seed=99).analytic_spread()
    assert a == b == 4


@st.composite
def spread_map(draw, field):
    """A map of P^1 by 2 to 4 forms of degree 2 to 4, or of P^2 by 3 or 4
    quadrics, monomial or not, with a random seed.  One P^2 draw in two
    takes its forms in x0 and x1 only, so that l = 2 lies below
    min(n+1, r+1) = 3 and the Jacobian cannot certify it."""
    nvars = draw(st.integers(2, 3))
    R = ring(field, *[f"x{i}" for i in range(nvars)])
    degree = 2 if nvars == 3 else draw(st.integers(2, 4))
    monos = [next(iter(m.coeffs)) for m in all_monomials(R, degree)]
    if nvars == 3 and draw(st.booleans()):
        monos = [m for m in monos if not m[2]]
    terms = 1 if draw(st.booleans()) else 3
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    forms = draw(st.lists(
        st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=terms),
        min_size=nvars, max_size=4,
    ))
    gens = [Polynomial(R, {m: field.from_int(c) for m, c in f.items()}) for f in forms]
    try:
        return MapContext(Ideal(R, gens), seed=draw(st.integers(0, 999)))
    except ValueError:  # a common factor, or fewer than two independent forms
        assume(False)


@pytest.mark.parametrize("field", [FP, QQ, F7], ids=["fp", "q", "f7"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_special_fiber_dimension_matches_the_elimination_route(field, data):
    """The Jacobian certificate, or the elimination it falls back to, gives
    the dimension of the special fiber ring by the textbook elimination."""
    ctx = data.draw(spread_map(field))
    assert ctx.special_fiber_dimension() == special_fiber_dimension_by_elimination(ctx)


def test_special_fiber_dimension_certifies_full_rank_without_elimination(monkeypatch):
    """Where the Jacobian has rank min(n+1, r+1) at the random point, that
    rank is the answer, and no elimination runs."""
    calls = count_eliminations(monkeypatch)
    for make, value in (
        (quartic_context, 2),
        (plane_cubics_context, 3),
        (monomial_cover_context, 4),
    ):
        calls.clear()
        assert make().special_fiber_dimension() == value
        assert calls == []


@pytest.mark.parametrize(
    "field,names,forms,value",
    [
        # the Jacobian of (x0^7, x1^7) over F_7 is 0 at every point
        (F7, ("x0", "x1"), ("x0^7", "x1^7"), 2),
        # J of monomial_cover.txt misses d, so l = 3 < min(n+1, r+1) = 4
        (FP, ("a", "b", "c", "d"), ("a*b^2", "a*c^2", "b^2*c", "b*c^2"), 3),
    ],
    ids=["pth_powers", "cover_J"],
)
def test_special_fiber_dimension_falls_back_below_full_rank(
    monkeypatch, field, names, forms, value
):
    calls = count_eliminations(monkeypatch)
    ctx = MapContext(ideal(ring(field, *names), *forms))
    assert ctx.special_fiber_dimension() == value
    assert len(calls) == 1
    assert special_fiber_dimension_by_elimination(ctx) == value


# -- birationality -----------------------------------------------------------


def test_birationality_goldens():
    ok, cert = quartic_context().birationality_test()
    assert ok and cert["linear"] and cert["codimension"] == 1
    ok, _ = double_cover_context().birationality_test()
    assert not ok
    ok, _ = plane_cubics_context().birationality_test()
    assert ok
    # the general fiber of the cover map is a single reduced point too
    ok, cert = monomial_cover_context().birationality_test()
    assert ok and cert["codimension"] == 3


@st.composite
def sampled_map(draw, field):
    """A map of P^1 by 3 or 4 forms of degree 2 or 3, or of P^2 by 3 or 4
    quadrics, not all monomials, with a random seed.  One draw in two takes
    its forms in the squares of the variables only, so that the map factors
    through (x_0^2 : ... : x_n^2) and is not birational."""
    nvars = draw(st.integers(2, 3))
    R = ring(field, *[f"x{i}" for i in range(nvars)])
    squares = draw(st.booleans())
    degree = 2 if nvars == 3 else draw(st.integers(2, 3)) * (2 if squares else 1)
    monos = [next(iter(m.coeffs)) for m in all_monomials(R, degree)]
    if squares:
        monos = [m for m in monos if not any(e % 2 for e in m)]
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 3])
    forms = draw(st.lists(
        st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=3),
        min_size=3, max_size=4,
    ))
    assume(any(len(f) > 1 for f in forms))
    gens = [Polynomial(R, {m: field.from_int(c) for m, c in f.items()}) for f in forms]
    try:
        return MapContext(Ideal(R, gens), seed=draw(st.integers(0, 999)))
    except ValueError:  # a common factor, or fewer than two independent forms
        assume(False)


@pytest.mark.parametrize("field", [FP, QQ, F7], ids=["fp", "q", "f7"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_sampled_fibers_match_the_elimination_route(field, data):
    """At each sampled p the fiber, whether certified as I_p by degree-(d+1)
    linear algebra or not, is the saturation I_q : g_j^infty."""
    ctx = data.draw(sampled_map(field))
    for p, K in ctx._sampled_fibers("test", 3):
        I_q, g_j = ctx._subspace_and_pivot(ctx.evaluate_map(p))
        assert K.equals(I_q.saturate(Ideal(ctx.ring, [g_j])))


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_forms_on_the_variables_are_the_point_ideal(field, data):
    """On the variables, the kernel forms at p are the reference generators
    of the ideal of p, term for term and in order, for points with zero
    coordinates too, and each of them vanishes at p."""
    n = data.draw(st.integers(2, 5))
    R = ring(field, *(f"x{k}" for k in range(n)))
    values = st.one_of(st.just(0), st.integers(-10**6, 10**6), st.fractions(max_denominator=50))
    coords = [
        field.from_fraction(c.numerator, c.denominator)
        for c in map(Fraction, data.draw(st.lists(values, min_size=n, max_size=n)))
    ]
    assume(not all(field.is_zero(c) for c in coords))
    forms, pivot = _kernel_forms(R.gens(), coords)
    reference = point_ideal_by_exponents(R, coords).generators
    assert [list(f.coeffs.items()) for f in forms] == [list(g.coeffs.items()) for g in reference]
    j = next(k for k, c in enumerate(coords) if not field.is_zero(c))
    assert pivot == R.gens()[j]
    assert all(field.is_zero(f.evaluate(coords)) for f in forms)


def test_birational_samples_run_no_elimination(monkeypatch):
    """A birational map's sampled fibers are certified as points; the double
    cover's fail the certificate and are each one elimination."""
    calls = count_eliminations(monkeypatch)
    for make, birational, eliminations in (
        (quartic_context, True, 0),
        (plane_cubics_context, True, 0),
        (double_cover_context, False, 5),
    ):
        ctx = make()
        calls.clear()
        ok, _ = ctx.birationality_test(5)
        assert ok == birational and len(calls) == eliminations


def test_birationality_certificate():
    ctx = quartic_context()
    assert ctx.birationality_certificate(e_point(FP, 4, 0))
    assert ctx.row_ideal(e_point(FP, 4, 0)).canonical_strings() == ["t"]
    assert not double_cover_context().birationality_certificate(e_point(FP, 3, 0))


# -- HKS bound ---------------------------------------------------------------


def quartic_second_matrix(ctx):
    R = ctx.ring
    s, t = R.gens()
    i = R.constant(FPI.sqrt_minus_one)
    F_gens = [
        -(s * (s - t) * (s * s + t * t + (s + t) * (s - i * t))),
        -(t * (s - t) * (s * s + t * t + (s + t) * (i * s + t))),
        s * t * (s * s + t * t),
        -(s * t * (s * s - t * t)),
    ]
    rows = parse_matrix_rows(R, (DATA / "quartic_second.mat").read_text())
    return matrix_from_rows(F_gens, rows)


def test_hks_golden():
    ctx = quartic_context(field=FPI)
    ctx_f = MapContext(
        Ideal(ctx.ring, list(quartic_second_matrix(ctx).generators)), seed=0
    )
    res = ctx_f.hks_lower_bound(quartic_second_matrix(ctx), e_point(FPI, 4, 0))
    assert res.applicable and res.reason == "ok"
    assert res.rank == 3 == ctx.r
    assert res.bound == 2
    spread, _ = ctx.analytic_spread()
    assert res.bound == spread


def test_hks_inapplicable_on_nonlinear_row():
    ctx = quartic_context(field=FPI)
    rows = parse_matrix_rows(ctx.ring, (DATA / "quartic_first.mat").read_text())
    A = matrix_from_rows(list(ctx.generators), rows)
    res = ctx.hks_lower_bound(A, e_point(FPI, 4, 1))
    assert not res.applicable and "not linear" in res.reason


def test_hks_rejects_columns_that_are_not_syzygies_of_the_map():
    # the columns are syzygies of the matrix's own generators, not of g_0..g_r
    ctx = quartic_context(field=FPI)
    with pytest.raises(ValueError, match="not a syzygy"):
        ctx.hks_lower_bound(quartic_second_matrix(ctx), e_point(FPI, 4, 0))


# -- powers and point presentations ------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_power_row_ideal_routes_agree(d):
    ctx = quartic_context()
    rng = ctx.rng("power-routes")
    for _ in range(3):
        p = ctx.random_source_point(rng)
        direct = ctx.power_row_ideal(d, p)
        via_power_map = ctx.power_context(d).row_ideal(
            ctx.power_context(d).evaluate_map(p)
        )
        assert direct.equals(via_power_map)


@pytest.mark.parametrize("d,rows", [(1, 4), (2, 9), (3, 13)])
def test_point_presentation_rows_are_linear(d, rows):
    ctx = quartic_context()
    pp = ctx.point_presentation(d)
    assert pp.matrix.row_count == rows
    spread, _ = ctx.analytic_spread()
    for i in range(rows):
        ri = pp.row_ideal(i)
        assert ri.is_linear()
        assert ri.codimension() == spread - 1
        assert not ri.contains_ideal(ctx.power_context(d).ideal)


def test_point_presentation_row_is_the_power_row_ideal():
    ctx = quartic_context()
    pp = ctx.point_presentation(2)
    for i in (0, 4, 8):
        assert pp.row_ideal(i).equals(ctx.power_row_ideal(2, pp.points[i]))


def test_powers_are_minimal_at_every_step(monkeypatch):
    """I^6 of the quartic multiplies only minimal generators of I^5 by I
    (the full product takes 5,456 multiplications for 25 generators), the
    ideal keeps its powers, and a point presentation builds no context for
    I^d."""
    ctx = quartic_context()
    products = []
    multiply = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: products.append(1) or multiply(f, g))
    assert len(ctx.ideal.power(6).generators) == 25
    assert len(products) <= 300
    count = len(products)
    assert ctx.ideal.power(4) is ctx.ideal.power(4)
    assert len(products) == count
    contexts = []
    build = MapContext.__init__
    monkeypatch.setattr(
        MapContext, "__init__", lambda self, *a, **k: contexts.append(1) or build(self, *a, **k)
    )
    for d in (1, 2, 3):
        ctx.point_presentation(d)
    assert contexts == []


def test_point_presentation_pins_sampled_points():
    # the points drawn depend on which draws extend the evaluation matrix's rank
    pp = quartic_context(seed=0).point_presentation(2)
    assert [p.coords for p in pp.points] == [
        (2564, 16864),
        (26998, 24291),
        (23794, 13874),
        (31435, 26156),
        (9669, 12039),
        (23766, 2805),
        (31371, 1894),
        (30665, 22017),
        (1694, 21037),
    ]


@pytest.mark.parametrize(
    "make,d",
    [(quartic_context, 1), (quartic_context, 2), (quartic_context, 3), (plane_cubics_context, 1)],
)
def test_point_presentation_generators_are_the_lagrange_basis(make, d):
    """h_i(p_k) = delta_ik, and the h_i span the space of the minimal
    generators of I^d."""
    ctx = make()
    F = ctx.ring.field
    pp = ctx.point_presentation(d)
    gens = pp.matrix.generators
    for i, h in enumerate(gens):
        for k, p in enumerate(pp.points):
            assert h.evaluate(p.normalized()) == (F.one if i == k else F.zero)
    power = ctx.power_context(d).generators
    # forms of one degree generate the same ideal iff they span the same space
    assert len(gens) == len(power)
    assert Ideal(ctx.ring, gens).equals(Ideal(ctx.ring, power))


PINS = json.loads((DATA / "point_presentation_pins.json").read_text())


@pytest.mark.parametrize(
    "name,make,d",
    [
        ("quartic_curve_power_2", quartic_context, 2),
        ("monomial_cover_power_2", monomial_cover_context, 2),
        ("plane_cubics_power_1", plane_cubics_context, 1),
        ("quartic_curve_power_4", quartic_context, 4),
        ("plane_cubics_power_2", plane_cubics_context, 2),
        ("quartic_curve_power_2_order_lex", quartic_context, 2),
        ("plane_cubics_power_1_order_lex", plane_cubics_context, 1),
    ],
)
def test_point_presentation_pins_the_whole_matrix(name, make, d):
    """Generators, columns and points at seed 0, as recorded, in the default
    order and under lex; the CLI goldens render only the canonical row
    ideals, which column operations do not change."""
    order = MonomialOrder.lex() if name.endswith("_order_lex") else None
    pp = make(seed=0, order=order).point_presentation(d)
    field = pp.matrix.ring.field
    assert {
        "generators": [str(g) for g in pp.matrix.generators],
        "columns": [[str(e) for e in col] for col in pp.matrix.columns],
        "points": [[field.coeff_str(c) for c in p.coords] for p in pp.points],
    } == PINS[name]


def test_point_presentation_with_supplied_points():
    ctx = quartic_context()
    pts = [ProjectivePoint(FP, [1, k]) for k in range(1, 5)]
    pp = ctx.point_presentation(1, points=pts)
    for i, p in enumerate(pts):
        assert pp.row_ideal(i).equals(ctx.power_row_ideal(1, p))
    with pytest.raises(ValueError, match="singular"):
        ctx.point_presentation(1, points=[pts[0]] * 4)


def test_linear_generalized_rows_check():
    verdict, q = monomial_cover_context().linear_generalized_rows_check(samples=10)
    assert verdict == "pass" and q is None
    # the quartic's minimal presentation has genuinely non-linear rows
    verdict, q = quartic_context().linear_generalized_rows_check(samples=10)
    assert verdict == "fail" and q is not None


def test_point_presentation_codim_bound_random():
    rng = random.Random("prop-bound")
    for _ in range(5):
        ctx = random_equigenerated_context(rng)
        spread, _ = ctx.analytic_spread()
        pp = ctx.point_presentation(1)
        for i in range(pp.matrix.row_count):
            ri = pp.row_ideal(i)
            assert not ri.is_unit()
            assert ri.codimension() <= spread - 1
