"""Presentation matrices: validation, minimal presentations, generalized
rows, the matrix text format, and rank modulo a linear ideal."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfibers import (
    Ideal,
    Polynomial,
    PresentationMatrix,
    matrix_from_rows,
    minimal_presentation,
    parse_matrix_rows,
    rank_modulo_linear_ideal,
    syzygy_generators,
)
from rowfibers.syzygy import minimize_columns

from helpers import (
    DATA,
    FP,
    FPI,
    QQ,
    generalized_row_by_scaling,
    ideal,
    is_linear_presentation,
    monomial_cover_context,
    quartic_context,
    random_target_point,
    ring,
    twisted_cubic_context,
)


# -- construction and validation ---------------------------------------------


def test_rejects_non_syzygy_column():
    R = ring(FP, "x", "y")
    x, y = R.gens()
    with pytest.raises(ValueError, match="not a syzygy"):
        PresentationMatrix([x, y], [(y, y)])
    with pytest.raises(ValueError, match="twist"):
        PresentationMatrix([x, y], [(y, x * y)])


def test_koszul_presentation():
    R = ring(FP, "x", "y", "z")
    x, y, z = R.gens()
    A = minimal_presentation(Ideal(R, [x, y, z]))[1]
    assert A.column_count() == 3
    assert sorted(A.column_degrees) == [2, 2, 2]
    for j in range(3):
        col = [A.entry(i, j) for i in range(3)]
        assert sum((g * e for g, e in zip([x, y, z], col)), R.zero()).is_zero()


def test_twisted_cubic_presentation_is_linear():
    ctx = twisted_cubic_context()
    gens, A = minimal_presentation(ctx.ideal)
    assert len(gens) == 4
    assert A.column_count() == 3
    assert all(d == 4 for d in A.column_degrees)
    assert is_linear_presentation(ctx.ideal)


def test_quartic_presentation_degrees():
    # the quartic curve needs one quadratic syzygy: twists {5, 5, 6}
    ctx = quartic_context()
    _, A = minimal_presentation(ctx.ideal)
    assert sorted(A.column_degrees) == [5, 5, 6]
    assert not is_linear_presentation(ctx.ideal)


def test_monomial_cover_is_linearly_presented():
    assert is_linear_presentation(monomial_cover_context().ideal)


# -- generalized rows --------------------------------------------------------


def test_generalized_row_matches_colon_formula():
    """On a minimal presentation, the generalized-row ideal at q equals
    I_q : I for random q (checked on two golden maps, 20 points each)."""
    rng = random.Random("generalized-rows")
    for ctx in (monomial_cover_context(), quartic_context()):
        A = minimal_presentation(ctx.ideal)[1]
        for _ in range(20):
            q = random_target_point(rng, ctx)
            assert A.generalized_row_ideal(q.coords).equals(ctx.row_ideal(q))


def test_standard_point_rows_are_matrix_rows():
    ctx = quartic_context()
    A = minimal_presentation(ctx.ideal)[1]
    for i in range(A.row_count):
        coords = [FP.zero] * A.row_count
        coords[i] = FP.one
        assert tuple(A.generalized_row(coords)) == A.row(i)


@st.composite
def koszul_matrix_and_point(draw, field):
    """Koszul columns f_j*e_i - f_i*e_j of 2-4 forms in x, y, z, each times a
    form of degree 0 or 1, and a point whose coordinates are in -3..3, zeros
    included."""
    R = ring(field, "x", "y", "z")
    gens = draw(homogeneous_gens(R))
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    columns = []
    for i, j in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4)):
        d = draw(st.integers(0, 1))
        monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        m = Polynomial(R, {e: field.from_int(c) for e, c in draw(st.dictionaries(
            st.sampled_from(monos), st.integers(-5, 5).filter(bool), min_size=1, max_size=3,
        )).items()})
        col = [R.zero()] * len(gens)
        col[i], col[j] = gens[j] * m, -(gens[i] * m)
        columns.append(col)
    coords = draw(st.lists(st.integers(-3, 3), min_size=len(gens), max_size=len(gens)).filter(any))
    return PresentationMatrix(gens, columns), [field.from_int(c) for c in coords]


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_generalized_row_matches_the_scaling_reference(field, data):
    """The per-column table gives the row that scaling and adding whole
    entries gives."""
    A, coords = data.draw(koszul_matrix_and_point(field))
    assert A.generalized_row(coords) == generalized_row_by_scaling(A, coords)


# -- matrix text format ------------------------------------------------------


def test_parse_matrix_rows_golden():
    R = ring(FPI, "s", "t")
    rows = parse_matrix_rows(R, (DATA / "quartic_first.mat").read_text())
    assert len(rows) == 4 and all(len(r) == 3 for r in rows)
    gens = [R.parse(g) for g in ("s^4", "s^3*t", "s*t^3", "t^4")]
    A = matrix_from_rows(gens, rows)
    assert sorted(A.column_degrees) == [5, 5, 6]
    # row ideals straight from the displayed matrix
    row_ideals = [
        Ideal(R, [e for e in A.row(i) if not e.is_zero()]) for i in range(4)
    ]
    assert row_ideals[0].equals(ideal(R, "t"))
    assert row_ideals[1].equals(ideal(R, "s", "t^2"))
    assert row_ideals[2].equals(ideal(R, "t", "s^2"))
    assert row_ideals[3].equals(ideal(R, "s"))
    assert [I.is_linear() for I in row_ideals] == [True, False, False, True]


def test_parse_matrix_rows_drops_comments():
    R = ring(FPI, "s", "t")
    text = (DATA / "quartic_first.mat").read_text()
    commented = "".join(
        f"{line}  # row {k}\n" for k, line in enumerate(text.splitlines())
    )
    assert parse_matrix_rows(R, commented) == parse_matrix_rows(R, text)


def test_parse_matrix_rows_errors():
    R = ring(FP, "s", "t")
    with pytest.raises(ValueError, match="no rows"):
        parse_matrix_rows(R, "# only a comment\n")
    with pytest.raises(ValueError, match="inconsistent"):
        parse_matrix_rows(R, "s, t\ns\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_matrix_rows(R, "s, q\n")


# -- rank modulo a linear ideal ----------------------------------------------


def test_rank_modulo_linear_golden():
    R = ring(FP, "s", "t")
    s, t = R.gens()
    # columns of the Koszul syzygy of (s^2, s*t): rank drops mod (t)
    A = PresentationMatrix([s * s, s * t], [(-t, s)])
    assert rank_modulo_linear_ideal(A, ideal(R, "t")) == 1
    assert rank_modulo_linear_ideal(A, ideal(R, "s - t")) == 1
    assert rank_modulo_linear_ideal(A, ideal(R, "s", "t")) == 0
    with pytest.raises(ValueError, match="linear"):
        rank_modulo_linear_ideal(A, ideal(R, "s^2 - t^2"))


def test_rank_modulo_linear_full_matrix():
    ctx = quartic_context(field=FPI)
    R = ctx.ring
    s, t = R.gens()
    i = R.constant(FPI.sqrt_minus_one)
    # the alternate generator basis the second matrix presents
    F_gens = [
        -(s * (s - t) * (s * s + t * t + (s + t) * (s - i * t))),
        -(t * (s - t) * (s * s + t * t + (s + t) * (i * s + t))),
        s * t * (s * s + t * t),
        -(s * t * (s * s - t * t)),
    ]
    assert Ideal(R, F_gens).equals(ctx.ideal)
    rows = parse_matrix_rows(R, (DATA / "quartic_second.mat").read_text())
    A = matrix_from_rows(F_gens, rows)
    # modulo the first row ideal (t), the remaining rows stay independent
    assert rank_modulo_linear_ideal(A, ideal(ctx.ring, "t")) == 3


# -- minimalization ----------------------------------------------------------


def test_minimal_presentation_has_no_constants():
    I = monomial_cover_context().ideal
    gens, A = minimal_presentation(I)
    for col in A.columns:
        for e in col:
            assert e.is_zero() or e.total_degree() >= 1
    # columns generate all syzygies: every raw syzygy column has rank-0
    # normal form against the minimal ones, checked via the colon identity
    assert len(gens) == 5


def test_minimize_columns_drops_redundant():
    R = ring(FP, "x", "y", "z")
    x, y, z = R.gens()
    gens = [x, y, z]
    cols = syzygy_generators(gens)
    doubled = cols + [tuple(x * e for e in cols[0])]
    assert len(minimize_columns(gens, doubled)) == len(minimize_columns(gens, cols)) == 3


# The kept subset depends on the order columns are tested in and on which
# earlier columns were kept; these goldens pin it.


def _kept_column_strings(gens):
    order = gens[0].ring.default_order
    kept = minimize_columns(gens, syzygy_generators(gens))
    return [[e.text(order) for e in col] for col in kept]


def test_minimize_columns_pin_quartic():
    assert _kept_column_strings(list(quartic_context().generators)) == [
        ["0", "0", "t", "-s"],
        ["t", "-s", "0", "0"],
        ["0", "t^2", "-s^2", "0"],
    ]


def test_minimize_columns_pin_twisted_cubic_square():
    gens = list(twisted_cubic_context().power_context(2).generators)
    assert _kept_column_strings(gens) == [
        ["0", "0", "0", "0", "0", "t", "-s"],
        ["0", "0", "0", "0", "t", "-s", "0"],
        ["0", "0", "0", "t", "-s", "0", "0"],
        ["0", "0", "t", "-s", "0", "0", "0"],
        ["0", "t", "-s", "0", "0", "0", "0"],
        ["t", "-s", "0", "0", "0", "0", "0"],
    ]


def test_minimize_columns_pin_quadric_map():
    R = ring(FP, "x", "y", "z")
    gens = [R.parse(t) for t in ("x^2 - y*z", "x*y + z^2", "y^2 - x*z", "x*z + y*z")]
    assert _kept_column_strings(gens) == [
        ["0", "y", "-x - z", "-x + y - z"],
        ["y + z", "-x - y", "x + z", "2*z"],
        ["0", "0", "x*z + y*z", "-y^2 + x*z"],
        ["0", "x*z", "-y*z + z^2", "-x*y + y^2 - y*z"],
        ["x*z - z^2", "x*z", "-x*z - y*z", "-x^2 + y^2 - z^2"],
    ]


# minimal_presentation: minimal generators, their syzygies, then
# minimize_columns; these goldens pin both the rows and the kept columns.


def _presentation_strings(I):
    order = I.ring.default_order
    gens, A = minimal_presentation(I)
    return [g.text(order) for g in gens], [[e.text(order) for e in col] for col in A.columns]


def test_minimal_presentation_pin_quartic():
    assert _presentation_strings(quartic_context().ideal) == (
        ["s^4", "s^3*t", "s*t^3", "t^4"],
        [["0", "0", "t", "-s"], ["t", "-s", "0", "0"], ["0", "t^2", "-s^2", "0"]],
    )


def test_minimal_presentation_pin_twisted_cubic():
    assert _presentation_strings(twisted_cubic_context().ideal) == (
        ["s^3", "s^2*t", "s*t^2", "t^3"],
        [["0", "0", "t", "-s"], ["0", "t", "-s", "0"], ["t", "-s", "0", "0"]],
    )


def test_minimal_presentation_pin_monomial_cover():
    assert _presentation_strings(monomial_cover_context().ideal) == (
        ["a*b^2", "a*c^2", "b^2*c", "b*c^2", "b*c*d"],
        [
            ["0", "0", "0", "d", "-c"],
            ["0", "0", "c", "-b", "0"],
            ["0", "0", "d", "0", "-b"],
            ["0", "b", "0", "-a", "0"],
            ["c", "0", "-a", "0", "0"],
        ],
    )


def test_minimal_presentation_pin_mixed_degrees():
    # the second generator is x times the first, so it is not minimal
    R = ring(FP, "x", "y", "z")
    I = ideal(R, "x*y - z^2", "x^2*y - x*z^2", "x^2*z", "y^3 + x*z^2")
    assert _presentation_strings(I) == (
        ["x*y - z^2", "x^2*z", "y^3 + x*z^2"],
        [
            ["x^2*z", "-x*y + z^2", "0"],
            ["y^3 + x*z^2", "0", "-x*y + z^2"],
            ["0", "y^3 + x*z^2", "-x^2*z"],
            ["x^2*y^2", "x^2*z + y^2*z", "-x^3"],
        ],
    )


@st.composite
def homogeneous_gens(draw, R):
    """2-4 nonzero forms in x, y, z, each of degree 1 or 2 on its own."""
    gens = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 2))
        monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        coeffs = draw(st.dictionaries(
            st.sampled_from(monos), st.integers(-5, 5).filter(bool),
            min_size=1, max_size=3,
        ))
        gens.append(Polynomial(R, {m: R.field.from_int(c) for m, c in coeffs.items()}))
    return gens


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_syzygies_of_minimal_generators_have_no_constant_entry(field, data):
    """A homogeneous syzygy with a nonzero constant at row i would put g_i in
    the ideal of the other generators of degree <= deg g_i, so g_i would not
    be minimal: syzygies of minimal generators need no pruning."""
    R = ring(field, "x", "y", "z")
    gens = Ideal(R, data.draw(homogeneous_gens(R))).minimal_generators()
    for col in syzygy_generators(gens):
        assert all(e.is_zero() or e.total_degree() >= 1 for e in col)
