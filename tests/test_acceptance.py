"""Acceptance suite: one test per advertised criterion.

Each test is a self-contained pass/fail line under ``pytest -v``; the
criterion it certifies is stated in its name and docstring.
"""

import json
import random
import time

from rowfibers import Ideal, MapContext, ProjectivePoint, reduced_groebner_basis
from rowfibers.cli import main as cli_main
from rowfibers.groebner import normal_form
from rowfibers.syzygy import matrix_from_rows, minimal_presentation, parse_matrix_rows

from helpers import (
    DATA,
    FP,
    FPI,
    QQ,
    double_cover_context,
    e_point,
    ideal,
    is_linear_presentation,
    monomial_cover_context,
    monomials_up_to,
    oracle_colon_member,
    oracle_saturate_member,
    plane_cubics_context,
    quartic_context,
    random_equigenerated_context,
    random_monomial_ideal,
    random_target_point,
    ring,
    s_polynomial,
    special_fiber_dimension_by_elimination,
    twisted_cubic_context,
)


def test_criterion_1_cover_map_fibers_exact_both_fields():
    """Row (b,c), correspondence (a^2,b,c) confirmed, morphism unit -- over
    F_32003 and over Q, each under 10 seconds."""
    for field in (FP, QQ):
        start = time.monotonic()
        ctx = monomial_cover_context(field=field)
        rep = ctx.fiber_report(e_point(field, 5, 4))
        assert rep.row.canonical_strings() == ["b", "c"]
        assert rep.correspondence.canonical_strings() == ["a^2", "b", "c"]
        assert rep.confirmed and rep.stabilized_at == 2
        assert rep.morphism.is_unit()
        assert rep.chain_verified
        assert time.monotonic() - start < 10.0


def test_criterion_2_cover_map_linearly_presented():
    """is_linear_presentation holds and 50+ sampled generalized rows stay
    linear."""
    ctx = monomial_cover_context()
    assert is_linear_presentation(ctx.ideal)
    verdict, counterexample = ctx.linear_generalized_rows_check(samples=50)
    assert verdict == "pass" and counterexample is None


def test_criterion_3_quartic_matrices_and_row_ideals():
    """Both displayed presentations of the quartic check out: column degrees
    {5,5,6}, the four row ideals of each, linearity flags, and the alternate
    generators spanning the same ideal -- under 10 seconds."""
    start = time.monotonic()
    R = ring(FPI, "s", "t")
    s, t = R.gens()
    i = R.constant(FPI.sqrt_minus_one)
    quartic = ideal(R, "s^4", "s^3*t", "s*t^3", "t^4")

    # first matrix: a presentation of the monomial generators
    rows = parse_matrix_rows(R, (DATA / "quartic_first.mat").read_text())
    A = matrix_from_rows(list(quartic.generators), rows)  # validates syzygies
    _, minimal = minimal_presentation(quartic)
    assert sorted(minimal.column_degrees) == [5, 5, 6]
    assert sorted(A.column_degrees) == [5, 5, 6]
    row_ideals = [Ideal(R, [e for e in A.row(k) if not e.is_zero()]) for k in range(4)]
    assert row_ideals[0].equals(ideal(R, "t"))
    assert row_ideals[1].equals(ideal(R, "s", "t^2"))
    assert row_ideals[2].equals(ideal(R, "t", "s^2"))
    assert row_ideals[3].equals(ideal(R, "s"))
    assert [J.is_linear() for J in row_ideals] == [True, False, False, True]

    # second matrix: presents the alternate generators, all rows linear
    F_gens = [
        -(s * (s - t) * (s * s + t * t + (s + t) * (s - i * t))),
        -(t * (s - t) * (s * s + t * t + (s + t) * (i * s + t))),
        s * t * (s * s + t * t),
        -(s * t * (s * s - t * t)),
    ]
    assert Ideal(R, F_gens).equals(quartic)
    rows2 = parse_matrix_rows(R, (DATA / "quartic_second.mat").read_text())
    B = matrix_from_rows(F_gens, rows2)
    row_ideals2 = [Ideal(R, [e for e in B.row(k) if not e.is_zero()]) for k in range(4)]
    assert row_ideals2[0].equals(ideal(R, "t"))
    assert row_ideals2[1].equals(ideal(R, "s"))
    assert row_ideals2[2].equals(ideal(R, "s - t"))
    assert row_ideals2[3].equals(Ideal(R, [s - i * t]))
    assert all(J.is_linear() for J in row_ideals2)
    assert time.monotonic() - start < 10.0


def test_criterion_4_analytic_spread_sampling_equals_elimination():
    """Sampling route and elimination oracle agree on the goldens and on 20+
    random validated equigenerated ideals (the sampling route itself raises
    on any disagreement)."""
    for ctx in (
        quartic_context(),
        twisted_cubic_context(),
        monomial_cover_context(),
    ):
        value, _ = ctx.analytic_spread()
        assert value == ctx.special_fiber_dimension()
    rng = random.Random("acceptance-spread")
    for _ in range(20):
        ctx = random_equigenerated_context(rng)
        value, _ = ctx.analytic_spread()
        assert value == ctx.special_fiber_dimension()


def test_criterion_4_analytic_spread_sampling_equals_the_elimination_reference():
    """Sampling agrees with the dimension of the special fiber ring by the
    textbook elimination, on the goldens, the plane cubics over Q and 20
    random validated equigenerated ideals, whichever route
    special_fiber_dimension took."""
    contexts = [
        quartic_context(),
        twisted_cubic_context(),
        monomial_cover_context(),
        plane_cubics_context(),
    ]
    rng = random.Random("acceptance-spread")
    contexts += [random_equigenerated_context(rng) for _ in range(20)]
    for ctx in contexts:
        value, _ = ctx.analytic_spread()
        assert value == special_fiber_dimension_by_elimination(ctx)


def test_criterion_5_birationality_verdicts():
    """Quartic birational, double cover not, plane-cubics instance birational;
    certificate mode at e_0 with row ideal (t)."""
    ok, _ = quartic_context().birationality_test()
    assert ok is True
    ok, _ = double_cover_context().birationality_test()
    assert ok is False
    ok, _ = plane_cubics_context().birationality_test()
    assert ok is True
    ctx = quartic_context()
    q = e_point(FP, 4, 0)
    assert ctx.row_ideal(q).canonical_strings() == ["t"]
    assert ctx.birationality_certificate(q) is True


def test_criterion_6_hks_bound_on_quartic():
    """With the all-linear presentation and q = e_0: rank mod (t) is 3 = r
    and the bound is 2, the analytic spread."""
    R = ring(FPI, "s", "t")
    s, t = R.gens()
    i = R.constant(FPI.sqrt_minus_one)
    F_gens = [
        -(s * (s - t) * (s * s + t * t + (s + t) * (s - i * t))),
        -(t * (s - t) * (s * s + t * t + (s + t) * (i * s + t))),
        s * t * (s * s + t * t),
        -(s * t * (s * s - t * t)),
    ]
    ctx = MapContext(Ideal(R, F_gens))
    rows = parse_matrix_rows(R, (DATA / "quartic_second.mat").read_text())
    A = matrix_from_rows(F_gens, rows)
    res = ctx.hks_lower_bound(A, e_point(FPI, 4, 0))
    assert res.applicable and res.reason == "ok"
    assert res.rank == 3 == ctx.r
    spread, _ = quartic_context(field=FPI).analytic_spread()
    assert res.bound == 2 == spread


def test_criterion_7_point_presentations_of_powers():
    """For the quartic and the cover map at d = 1, 2, 3: every row ideal is
    linear of codimension (analytic spread - 1) and none contains I^d; on
    20+ random validated ideals the codimension bound holds for every row."""
    for make in (quartic_context, monomial_cover_context):
        ctx = make()
        spread, _ = ctx.analytic_spread()
        for d in (1, 2, 3):
            pp = ctx.point_presentation(d)
            power_ideal = ctx.power_context(d).ideal
            for k in range(pp.matrix.row_count):
                row = pp.row_ideal(k)
                assert row.is_linear()
                assert row.codimension() == spread - 1
                assert not row.contains_ideal(power_ideal)
    rng = random.Random("acceptance-rows")
    for _ in range(20):
        ctx = random_equigenerated_context(rng)
        spread, _ = ctx.analytic_spread()
        pp = ctx.point_presentation(1)
        for k in range(pp.matrix.row_count):
            row = pp.row_ideal(k)
            assert not row.is_unit()
            assert row.codimension() <= spread - 1


def test_criterion_8i_chain_containment():
    """Subspace <= row <= correspondence <= morphism on all goldens plus 50+
    random (context, point) pairs."""
    golden = [
        (monomial_cover_context(), e_point(FP, 5, 4)),
        (quartic_context(), e_point(FP, 4, 0)),
        (quartic_context(), e_point(FP, 4, 1)),
        (twisted_cubic_context(), e_point(FP, 4, 2)),
        (double_cover_context(), e_point(FP, 3, 0)),
        (plane_cubics_context(), e_point(QQ, 4, 3)),
    ]
    rng = random.Random("acceptance-chain")
    pairs = list(golden)
    for _ in range(50):
        ctx = random_equigenerated_context(rng)
        pairs.append((ctx, random_target_point(rng, ctx)))
    for ctx, q in pairs:
        rep = ctx.fiber_report(q)
        assert rep.chain_verified
        assert rep.row.contains_ideal(rep.subspace)
        assert rep.correspondence.contains_ideal(rep.row)
        assert rep.morphism.contains_ideal(rep.correspondence)


def test_criterion_8ii_colon_saturate_oracle():
    """Colon and saturation agree with pointwise membership oracles on 100+
    random monomial ideals in at most 3 variables, probed to degree 8."""
    rng = random.Random("acceptance-oracle")
    rings = [ring(FP, "x", "y"), ring(FP, "x", "y", "z")]
    for trial in range(100):
        R = rings[trial % 2]
        probes = monomials_up_to(R, 8)
        I = random_monomial_ideal(rng, R)
        J = random_monomial_ideal(rng, R)
        colon = I.colon(J)
        sat = I.saturate(J)
        for m in probes:
            assert colon.contains(m) == oracle_colon_member(I, J, m)
            assert sat.contains(m) == oracle_saturate_member(I, J, m)


def test_criterion_8iii_reduced_gb_canonical_under_permutation():
    """Ten random generator permutations per test ideal all yield the same
    reduced basis."""
    R3 = ring(FP, "x", "y", "z")
    cases = [
        [R3.parse(g) for g in ("x^2 - y*z", "x*y - z^2", "y^2 - x*z")],
        [R3.parse(g) for g in ("x^3 - y^2*z", "x*z - y^2", "z^3 - x*y")],
        list(monomial_cover_context().generators),
        list(quartic_context().generators),
    ]
    rng = random.Random("acceptance-permute")
    for gens in cases:
        order = gens[0].ring.default_order
        reference = reduced_groebner_basis(gens, order).elements
        for _ in range(10):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert reduced_groebner_basis(shuffled, order).elements == reference


def test_criterion_8iv_s_pairs_reduce_to_zero():
    """Every S-pair of every emitted reduced basis reduces to zero."""
    R3 = ring(FP, "x", "y", "z")
    cases = [
        [R3.parse(g) for g in ("x^2 - y*z", "x*y - z^2", "y^2 - x*z")],
        [R3.parse(g) for g in ("x^3 - y^2*z", "x*z - y^2", "z^3 - x*y")],
        list(monomial_cover_context().generators),
        list(plane_cubics_context().generators),
    ]
    rng = random.Random("acceptance-spairs")
    for _ in range(6):
        R = ring(FP, "x", "y", "z")
        cases.append(list(random_monomial_ideal(rng, R).generators))
    for gens in cases:
        order = gens[0].ring.default_order
        basis = list(reduced_groebner_basis(gens, order))
        for a in range(len(basis)):
            for b in range(a + 1, len(basis)):
                s = s_polynomial(basis[a], basis[b], order)
                assert normal_form(s, basis, order).is_zero()


def test_criterion_9_cli_json_determinism(capsys):
    """Repeating any CLI invocation with the same seed is byte-identical."""
    invocations = [
        ["fiber", str(DATA / "monomial_cover.txt"), "--at", "q", "--json"],
        ["spread", str(DATA / "quartic_curve.txt"), "--seed", "3", "--json"],
        ["birational", str(DATA / "quartic_curve.txt"), "--seed", "5", "--json"],
        ["point-presentation", str(DATA / "quartic_curve.txt"), "--power", "2", "--json"],
        ["hks", str(DATA / "quartic_matrices.txt"), "--ideal", "IF",
         "--matrix", "M2", "--at", "e0", "--json"],
    ]
    for argv in invocations:
        outputs = []
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed
