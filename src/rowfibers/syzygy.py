"""Presentation matrices: syzygies, minimal presentations, generalized rows,
and matrix rank modulo a linear ideal."""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .groebner import (
    _Echelon,
    _mod_key,
    _module_reducer,
    exact_divide,
    module_groebner,
    module_normal_form,
    normal_form,
    syzygy_generators,
)
from .ideals import Ideal
from .polyring import PolyRing, Polynomial

__all__ = [
    "PresentationMatrix",
    "syzygy_matrix",
    "minimal_presentation",
    "is_linear_presentation",
    "rank_modulo_linear_ideal",
    "parse_matrix_rows",
]


class PresentationMatrix:
    """A homogeneous matrix whose columns are syzygies of attached generators.

    Rows correspond to generators; column j is homogeneous of a single twist
    ``column_degrees[j]``, meaning entry (i, j) is zero or homogeneous of
    degree column_degrees[j] - generator_degrees[i].
    """

    def __init__(self, generators: Sequence[Polynomial], columns: Sequence[Sequence[Polynomial]]):
        if not generators:
            raise ValueError("need at least one generator row")
        ring = generators[0].ring
        self.ring = ring
        self.generators = tuple(generators)
        self.columns = tuple(tuple(c) for c in columns)
        self.row_count = len(self.generators)
        self.generator_degrees = []
        for g in self.generators:
            hom, deg = g.homogeneity()
            if not hom or deg is None:
                raise ValueError("generators must be nonzero and homogeneous")
            self.generator_degrees.append(deg)
        self.column_degrees = []
        for j, col in enumerate(self.columns):
            if len(col) != self.row_count:
                raise ValueError(f"column {j} has wrong length")
            twist = None
            for i, entry in enumerate(col):
                hom, deg = entry.homogeneity()
                if not hom:
                    raise ValueError(f"entry ({i},{j}) is not homogeneous")
                if deg is None:
                    continue
                t = deg + self.generator_degrees[i]
                if twist is None:
                    twist = t
                elif twist != t:
                    raise ValueError(f"column {j} mixes twists {twist} and {t}")
            if twist is None:
                raise ValueError(f"column {j} is zero")
            self.column_degrees.append(twist)
        _check_syzygies(self.generators, self.columns)

    # -- access --------------------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        return self.columns[j][i]

    def row(self, i: int):
        return tuple(col[i] for col in self.columns)

    def column_count(self) -> int:
        return len(self.columns)

    # -- generalized rows ----------------------------------------------------

    @cached_property
    def _column_terms(self) -> tuple:
        """Per column, each monomial with the (row, coefficient) pairs of
        the entries that hold it."""
        tables = []
        for col in self.columns:
            table: dict = {}
            for i, entry in enumerate(col):
                for m, c in entry.coeffs.items():
                    table.setdefault(m, []).append((i, c))
            tables.append(table)
        return tuple(tables)

    def generalized_row(self, coords: Sequence):
        """The coords-weighted combination of rows: (sum_i q_i * A[i][j])_j.

        Each coefficient of entry j is one dot product of coords with the
        coefficients of that monomial down column j, read from a table
        built once per matrix.
        """
        F = self.ring.field
        if len(coords) != self.row_count:
            raise ValueError(
                f"point has {len(coords)} coordinates, matrix has {self.row_count} rows"
            )
        if all(F.is_zero(c) for c in coords):
            raise ValueError("point coordinates are all zero")
        out = []
        for table in self._column_terms:
            acc = {}
            for m, pairs in table.items():
                v = F.zero
                for i, c in pairs:
                    v = F.add(v, F.mul(coords[i], c))
                if not F.is_zero(v):
                    acc[m] = v
            out.append(Polynomial(self.ring, acc))
        return tuple(out)

    def generalized_row_ideal(self, coords: Sequence) -> Ideal:
        return Ideal(self.ring, [p for p in self.generalized_row(coords) if not p.is_zero()])


def _check_syzygies(generators, columns):
    """Raise ValueError unless sum_i generators[i] * column[i] = 0 for every column."""
    zero = generators[0].ring.zero()
    for j, col in enumerate(columns):
        acc = zero
        for g, entry in zip(generators, col):
            acc = acc + g * entry
        if not acc.is_zero():
            raise ValueError(f"column {j} is not a syzygy of the generators")


def syzygy_matrix(gens: Sequence[Polynomial]) -> PresentationMatrix:
    """The full first syzygy module of ``gens`` as a presentation matrix."""
    for g in gens:
        hom, deg = g.homogeneity()
        if not hom or deg is None:
            raise ValueError("generators must be nonzero and homogeneous")
    columns = syzygy_generators(list(gens))
    columns = _sorted_columns(gens, columns)
    return PresentationMatrix(gens, columns)


def _column_degree(gens, col):
    for g, entry in zip(gens, col):
        if not entry.is_zero():
            return entry.total_degree() + g.total_degree()
    raise ValueError("zero syzygy column")


def _sorted_columns(gens, columns):
    return sorted(
        (c for c in columns if any(not e.is_zero() for e in c)),
        key=lambda c: (_column_degree(gens, c), [str(e) for e in c]),
    )


def minimize_columns(gens, columns):
    """Keep a minimal generating subset of syzygy columns.

    Columns are processed by increasing twist; one is kept iff it is not in
    the module generated by the columns already kept (graded Nakayama).
    While every kept column has the twist of the one under test, that module
    meets the twist in the k-span of the kept columns, so the test is a span
    test; past it, a module Groebner basis of the kept columns answers, and
    is rebuilt only when a column was kept since it was last built.
    """
    ring = gens[0].ring
    order = ring.default_order
    F = ring.field
    kept = []
    kept_vecs = []
    key = _mod_key(order)
    span = _Echelon(F, key)
    first_twist = None
    gb = None
    for col in _sorted_columns(gens, columns):
        v = {(i, m): c for i, p in enumerate(col) for m, c in p.coeffs.items()}
        twist = _column_degree(gens, col)
        if first_twist is None:
            first_twist = twist
        if twist == first_twist:
            if not span.add(v):
                continue
        else:
            if gb is None:
                gb = module_groebner(kept_vecs, order, F)
                reducers = [_module_reducer(g, max(g, key=key), F) for g in gb]
            if not module_normal_form(v, gb, order, F, reducers=reducers):
                continue
            gb = None
        kept.append(col)
        kept_vecs.append(v)
    return kept


def minimal_presentation(I: Ideal):
    """(minimal generators, minimal presentation matrix) of a homogeneous ideal.

    The syzygies of minimal generators have no nonzero constant entry, so
    the columns only need minimizing to a minimal generating set of the
    syzygy module.
    """
    gens = I.minimal_generators()
    if not gens:
        raise ValueError("cannot present the zero ideal")
    return gens, _presentation(gens)


def _presentation(gens):
    """The minimal presentation matrix of ``gens``, which must be minimal
    generators of the ideal they generate."""
    return PresentationMatrix(gens, minimize_columns(gens, syzygy_generators(gens)))


def is_linear_presentation(I: Ideal) -> bool:
    """True iff the minimal presentation of I has only linear nonzero entries."""
    gens, matrix = minimal_presentation(I)
    if len({g.total_degree() for g in gens}) != 1:
        raise ValueError("ideal is not equigenerated")
    return all(
        e.is_zero() or e.total_degree() == 1 for col in matrix.columns for e in col
    )


# ---------------------------------------------------------------------------
# Rank modulo a linear prime
# ---------------------------------------------------------------------------


def rank_modulo_linear_ideal(A: PresentationMatrix, L: Ideal) -> int:
    """Rank of A over the residue field of the linear prime L.

    The reduced GB of L rewrites each pivot variable in terms of the rest;
    substituting gives a matrix over the subring of free variables, whose
    rank over the fraction field is computed by fraction-free (Bareiss)
    Gaussian elimination -- entirely exact.
    """
    if L.ring != A.ring:
        raise ValueError("ideal and matrix live in different rings")
    if L.is_unit():
        raise ValueError("cannot reduce modulo the unit ideal")
    if not L.is_linear():
        raise ValueError("rank reduction requires a linear ideal")
    gb = L.groebner()
    rows = []
    for i in range(A.row_count):
        rows.append(
            [
                normal_form(A.entry(i, j), gb.elements, gb.order, reducers=gb.reducers)
                for j in range(A.column_count())
            ]
        )
    return _bareiss_rank(rows, A.ring)


def _bareiss_rank(rows, ring: PolyRing) -> int:
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    prev = ring.one()
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, nrows):
            if not rows[rr][c].is_zero():
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for rr in range(r + 1, nrows):
            for cc in range(c + 1, ncols):
                num = piv * rows[rr][cc] - rows[rr][c] * rows[r][cc]
                rows[rr][cc] = exact_divide(num, prev) if not num.is_zero() else num
            rows[rr][c] = ring.zero()
        prev = piv
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


# ---------------------------------------------------------------------------
# Matrix text format: one row per line, comma-separated polynomial entries.
# ---------------------------------------------------------------------------


def parse_matrix_rows(ring: PolyRing, text: str):
    """Parse the golden-input matrix format into a list of rows of polynomials."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([ring.parse(part) for part in line.split(",")])
        except ValueError as exc:
            raise ValueError(f"matrix line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError("matrix file contains no rows")
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ValueError("matrix rows have inconsistent lengths")
    return rows


def matrix_from_rows(generators, rows) -> PresentationMatrix:
    """Build a presentation matrix from row-major entries; validates syzygies."""
    if len(rows) != len(generators):
        raise ValueError("row count does not match generator count")
    ncols = len(rows[0])
    columns = [tuple(rows[i][j] for i in range(len(rows))) for j in range(ncols)]
    return PresentationMatrix(generators, columns)
