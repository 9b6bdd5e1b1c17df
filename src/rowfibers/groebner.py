"""Buchberger's algorithm, normal forms, reduced Groebner bases, elimination.

Also houses the free-module engine (position-over-term order) used for
syzygy computations and module membership.  Everything is deterministic:
both engines pop S-pairs from a heap keyed on ``(degree, i, j)`` -- least
degree first, ties broken by pair index -- and division always reduces by
the first divisor in sequence order.

``_buchberger`` keys a pair by its sugar (Giovini, Mora, Niesi, Robbiano
and Traverso, "One sugar cube, please", ISSAC 1991): an input's sugar is its
total degree, a pair's is the degree of its lcm plus the larger ecart of its
two elements, where an element's ecart is its sugar minus the degree of its
lead, and a remainder takes its pair's sugar.  On homogeneous input every
ecart is 0, so the sugar is the lcm degree and this is the normal strategy;
on inhomogeneous input over Q, choosing by lcm degree alone can let the
coefficients grow without bound.  The module engine keys pairs by lcm
degree, the normal strategy.

``_buchberger`` keeps its pairs with the Gebauer-Moeller update (Gebauer and
Moeller, J. Symbolic Comput. 6, 1988; Becker-Weispfenning's UPDATE): when an
element joins the basis, pending pairs whose lcm its lead divides strictly
are dropped, its own pairs are filtered by the M and F criteria and by
Buchberger's coprime criterion, and elements whose lead it divides form no
new pairs.  A pair is never tested again when it is popped, beyond being
skipped if the update dropped it.

``_buchberger`` takes its input as parts: a polynomial, or a
``GroebnerBasis`` in the loop's own order.  The elements of one basis part
join one after another like any input, but no pair between two of them is
pushed, while the update still counts those pairs for B_k, M and F.  That is
exact.  A set is a Groebner basis once the S-polynomial of every pair has a
standard representation by it, and the update drops a pair only where other
pairs, reduced or dropped in turn, give it one (Becker-Weispfenning, ch. 5).
A pair reduced to zero has a standard representation from its reduction; a
pair inside a Groebner basis of the same order already has one, by the
elements of that basis.  So the loop treats such a pair as reduced to zero
when its second element joins.  A lone polynomial is a part of one, so on
polynomials alone the loop is unchanged.  A basis in another order gives no
such representation and is refused.  The first part skips the update
altogether: while it joins, every pair is inside it, so none is pending and
none can be pushed.  The eliminations of ``Ideal.intersect``, ``colon_poly``
and ``_saturate_poly`` start from such a part, a cached reduced basis lifted.

``normal_form`` is the one reducer of ideal elements; ``_buchberger``
reduces each S-pair through it.  It reads each basis element's lead
monomial, the inverse of its lead coefficient and its tail terms, which are
computed once per element: when it joins a Buchberger basis, or on first use
by ``GroebnerBasis.reducers`` for a finished basis.  The S-pair itself is
built from the two tails, whose leading terms cancel.

Every comparison of monomials reads ``order.key``, which an order computes
once per monomial and keeps for its lifetime, so a repeat is a dict lookup;
``module_normal_form`` keeps its ``(component, monomial)`` keys for one call.

The module engine divides in the same shape: ``module_normal_form`` reads
each vector's lead component and monomial, inverse lead coefficient and tail
(``_module_reducer``), computed once per element, and ``module_groebner``
builds each S-pair from the two tails.  The division loops stay two:
merging the ideal and module loops was measured and is not pursued
(ROADMAP item 12).

Data that lives in one degree needs no Buchberger run: ``_Echelon`` keeps an
exact reduced row-echelon form of sparse rows over the coefficient field.
``reduced_groebner_basis`` takes that route when every generator has degree
at most 1: the leading terms of a row-echelon form are distinct variables,
so every S-pair is coprime, and the reduced basis is the reduced echelon
form with columns ordered by the monomial order (or ``(1)`` once a constant
becomes a pivot).  The basis is canonical, so the result is the one
Buchberger gives.  ``Ideal.minimal_generators``, ``minimize_columns``, the
sampled-fiber test of ``MapContext._sampled_fibers``, and the point selection
and Lagrange basis of ``MapContext.point_presentation`` use the same class,
because inside one degree, membership in an ideal or module generated by
forms of that degree is membership in their k-span.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add, le, sub
from typing import Optional, Sequence

from .polyring import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    mono_divides,
    normalize,
    _Keys,
    _rational,
)

__all__ = [
    "GroebnerBasis",
    "normal_form",
    "reduced_groebner_basis",
    "eliminate_first",
    "exact_divide",
    "module_normal_form",
    "module_groebner",
    "syzygy_generators",
]


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple
    order: MonomialOrder

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @cached_property
    def reducers(self) -> tuple:
        """What ``normal_form`` reads of each element, computed on first use."""
        return tuple(_reducer(g, g.leading(self.order)) for g in self.elements)


def _reducer(g: Polynomial, lead: tuple) -> tuple:
    """``(lead monomial, inverse of the lead coefficient, tail terms)`` of a
    nonzero ``g`` whose leading term is ``lead``; the tail is a tuple of
    ``(monomial, coefficient)`` pairs holding every other term."""
    lc, lm = lead
    tail = tuple((m, c) for m, c in g.coeffs.items() if m != lm)
    return lm, g.ring.field.inv(lc), tail


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
    with_quotients: bool = False,
    *,
    reducers: Optional[Sequence[tuple]] = None,
):
    """Remainder of f under multivariate division by ``basis``.

    No term of the remainder is divisible by any basis leading term.
    Reduction always uses the first divisor in sequence order, so the
    result is deterministic for a fixed basis sequence.  With
    ``with_quotients`` the quotient of each nonzero basis element comes
    back too, in sequence order, so that f = sum q_i * g_i + remainder.

    ``reducers``, when given, is what the division reads of each basis
    element, in the same sequence: its lead monomial, the inverse of its
    lead coefficient and its other terms, as ``GroebnerBasis.reducers``
    holds them; every element must be nonzero.  A caller that reduces many
    polynomials by one basis computes them once and passes them here; the
    result is the same either way.
    """
    ring = f.ring
    order = order or ring.default_order
    if reducers is None:
        reducers = [_reducer(g, g.leading(order)) for g in basis if not g.is_zero()]
    key = order.key
    p = ring.field.p
    work = dict(f.coeffs)
    remainder: dict = {}
    quotients = [dict() for _ in reducers] if with_quotients else None
    # the field arithmetic is written out for each characteristic: over F_p
    # every value is reduced mod p, over Q an integral Fraction becomes an int
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for idx, (lm, inv, tail) in enumerate(reducers):
            if all(map(le, lm, m)):
                shift = tuple(map(sub, m, lm))
                if p:
                    q = c * inv % p
                    for gm, gc in tail:
                        t = tuple(map(add, gm, shift))
                        v = (work.get(t, 0) - q * gc) % p
                        if v:
                            work[t] = v
                        else:
                            work.pop(t, None)
                else:
                    q = c * inv
                    if q.__class__ is Fraction and q.denominator == 1:
                        q = q.numerator
                    for gm, gc in tail:
                        t = tuple(map(add, gm, shift))
                        v = work.get(t, 0) - q * gc
                        if not v:
                            work.pop(t, None)
                        elif v.__class__ is Fraction and v.denominator == 1:
                            work[t] = v.numerator
                        else:
                            work[t] = v
                if with_quotients:
                    quotients[idx][shift] = q
                break
        else:
            remainder[m] = c
    r = Polynomial(ring, remainder)
    if with_quotients:
        return r, [Polynomial(ring, q) for q in quotients]
    return r


def _s_pair(a: tuple, b: tuple, lcm: tuple, ring: PolyRing) -> Polynomial:
    """The S-polynomial of the basis elements whose reducers are ``a`` and
    ``b``, built from their tails: the leading terms cancel."""
    p = ring.field.p
    lm, inv, tail = a
    shift = tuple(map(sub, lcm, lm))
    out = {tuple(map(add, m, shift)): c * inv for m, c in tail}
    lm, inv, tail = b
    shift = tuple(map(sub, lcm, lm))
    for m, c in tail:
        t = tuple(map(add, m, shift))
        out[t] = out.get(t, 0) - c * inv
    if p:
        return Polynomial(ring, {m: v for m, c in out.items() if (v := c % p)})
    return Polynomial(ring, {m: _rational(c) for m, c in out.items() if c})


def _parts(gens, order: MonomialOrder) -> list:
    """The nonzero elements of each input as a tuple: a nonempty
    ``GroebnerBasis`` in ``order`` whole, a polynomial alone; a basis in
    another order raises ``ValueError``."""
    parts = []
    for g in gens:
        if isinstance(g, GroebnerBasis):
            if g.order != order:
                raise ValueError(f"a basis in {g.order} is not a part of a run in {order}")
            if g.elements:
                parts.append(g.elements)
        elif not g.is_zero():
            parts.append((g,))
    return parts


def _buchberger(gens: Sequence, order: MonomialOrder):
    """A Groebner basis of the ideal of ``gens``, each a polynomial or a
    ``GroebnerBasis`` part in ``order``: the normalized nonzero elements in
    input order, then each nonzero S-pair remainder in the order it was
    found.  No pair inside one basis part is reduced, and the elements of
    the first part join with no pair update (see ``join``), so a lone basis
    part comes back element for element, normalized, with no S-pair
    reduced."""
    parts = _parts(gens, order)
    ring = parts[0][0].ring
    basis: list = []
    reducers: list = []
    lms: list = []
    # every element but the redundant ones, whose lead a later lead divides
    live: list = []
    # each element's sugar minus the degree of its lead: 0 on homogeneous input
    ecarts: list = []
    # pending maps each pair still to be reduced to its lcm; the heap holds
    # these pairs and those that the update removed, keyed (sugar, i, j),
    # and a removed pair is skipped when it is popped
    pending: dict = {}
    heap: list = []

    def join(g, sugar, part):
        """Add g to the basis with the Gebauer-Moeller update (Becker-
        Weispfenning, UPDATE): B_k drops the pending pairs whose lcm the new
        lead divides strictly (both other lcms differ); of the new pairs, M
        drops those whose lcm another new lcm properly divides, F keeps one
        pair, the first, of each group with one lcm, and a group that holds
        a coprime pair is dropped whole, as is any other coprime pair.  The
        elements from index ``part`` on belong to g's basis part: their
        pairs with g count in every criterion, and a kept one is not
        pushed.

        An element of the first part (``part == 0``) skips the update: every
        earlier element is of its part and no pair is pending yet, so the
        update could neither push a pair nor drop one."""
        g = normalize(g, order)
        lead = g.leading(order)
        m = lead[1]
        ecart = sugar - sum(m)
        t = len(basis)
        if part:
            with_t = [tuple(map(max, k, m)) for k in lms]
            for (i, j), lcm in list(pending.items()):
                if all(map(le, m, lcm)) and with_t[i] != lcm and with_t[j] != lcm:
                    del pending[(i, j)]
            groups: dict = {}  # lcm -> (first pair's index, some pair is coprime)
            for i in live:
                lcm = with_t[i]
                coprime = lcm == tuple(map(add, lms[i], m))
                if lcm in groups:
                    first, seen = groups[lcm]
                    groups[lcm] = first, seen or coprime
                else:
                    groups[lcm] = i, coprime
            # a proper divisor has a lower degree, and an lcm that some other
            # lcm divides is divided by a minimal one, so test only those
            minimal: list = []
            for lcm in sorted(groups, key=sum):
                if any(all(map(le, other, lcm)) for other in minimal):
                    continue
                minimal.append(lcm)
                i, coprime = groups[lcm]
                if not coprime and i < part:
                    pending[(i, t)] = lcm
                    heapq.heappush(heap, (sum(lcm) + max(ecarts[i], ecart), i, t))
        live[:] = [i for i in live if not all(map(le, m, lms[i]))]
        live.append(t)
        basis.append(g)
        reducers.append(_reducer(g, lead))
        lms.append(m)
        ecarts.append(ecart)

    for part in parts:
        start = len(basis)
        for g in part:
            join(g, g.total_degree(), start)
    while heap:
        # sugar strategy: minimal sugar, then index tie-break
        sugar, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j), None)
        if lcm is None:
            continue
        s = _s_pair(reducers[i], reducers[j], lcm, ring)
        r = normal_form(s, basis, order, reducers=reducers)
        if not r.is_zero():
            join(r, sugar, len(basis))
    return basis


class _Echelon:
    """Reduced row-echelon form of sparse rows over a field, built row by row.

    A row is a dict from column to nonzero coefficient.  The pivot of a new
    row is its greatest column under ``key``; every stored row is monic at
    its pivot, its pivot is its greatest column, and no stored row holds
    another row's pivot.
    """

    def __init__(self, field, key):
        self.field = field
        self.key = key
        self.rows: dict = {}  # pivot column -> reduced row

    def _sub_scaled(self, row: dict, c, other: dict):
        """row -= c * other, in place."""
        F = self.field
        for col, x in other.items():
            v = F.sub(row.get(col, F.zero), F.mul(c, x))
            if F.is_zero(v):
                row.pop(col, None)
            else:
                row[col] = v

    def reduce(self, row: dict) -> dict:
        """The remainder of ``row`` modulo the span; it holds no pivot column."""
        work = dict(row)
        # a stored row holds no other pivot, so one pass clears every pivot
        for p in [col for col in work if col in self.rows]:
            self._sub_scaled(work, work[p], self.rows[p])
        return work

    def add(self, row: dict) -> bool:
        """Add ``row`` to the span; True iff it was not already in it."""
        r = self.reduce(row)
        if not r:
            return False
        F = self.field
        p = max(r, key=self.key)
        inv = F.inv(r[p])
        r = {col: F.mul(inv, x) for col, x in r.items()}
        for other in self.rows.values():
            c = other.get(p)
            if c is not None:
                self._sub_scaled(other, c, r)
        self.rows[p] = r
        return True


def _linear_groebner_basis(gens: Sequence[Polynomial], order: MonomialOrder):
    """Reduced GB of polynomials of degree <= 1: their reduced row-echelon form."""
    ring = gens[0].ring
    ech = _Echelon(ring.field, order.key)
    for g in gens:
        ech.add(g.coeffs)
    rows = ech.rows
    constant = (0,) * ring.nvars
    if constant in rows:
        rows = {constant: rows[constant]}
    reduced = [normalize(Polynomial(ring, r), order) for r in rows.values()]
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(tuple(reduced), order)


def reduced_groebner_basis(
    gens: Sequence,
    order: Optional[MonomialOrder] = None,
    *,
    free_of: int = 0,
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal generated by ``gens``.

    Canonical: any generating set of the same ideal yields an identical
    result.  Elements are normalized (monic over a prime field; integral,
    content-free, positive leading coefficient over the rationals) and
    sorted by increasing leading monomial.

    Each of ``gens`` is a polynomial or a ``GroebnerBasis`` in ``order``,
    whose elements' pairs among themselves are not reduced again (see
    ``_buchberger``); a basis in another order raises ``ValueError``.

    ``free_of=k`` requires ``order`` to be ``MonomialOrder.elimination(k,
    rest)``, for any ``rest``, and returns only the elements free of the
    first k variables, the reduced basis of the ideal's intersection with
    the trailing-variable subring; the others are never tail-reduced (see
    ``eliminate_first``).
    """
    flat = _elements(gens)
    if not flat:
        order = order or MonomialOrder.grevlex()
        return GroebnerBasis((), order)
    ring = flat[0].ring
    for g in flat:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    order = order or ring.default_order
    _parts(gens, order)  # refuses a basis part in another order
    if free_of and (order.kind, order.block) != (MonomialOrder.ELIM, free_of):
        raise ValueError(f"free_of={free_of} needs an order elim({free_of}, rest)")
    if all(g.total_degree() <= 1 for g in flat):
        gb = _linear_groebner_basis(flat, order)
        if free_of:
            gb = GroebnerBasis(
                tuple(g for g, (m, _, _) in zip(gb, gb.reducers) if not any(m[:free_of])),
                order,
            )
        return gb
    return _interreduce(_buchberger(gens, order), order, free_of)


def _elements(gens: Sequence) -> list:
    """The nonzero polynomials of ``gens``, each basis part's elements in
    sequence."""
    return [
        g
        for part in gens
        for g in (part.elements if isinstance(part, GroebnerBasis) else (part,))
        if not g.is_zero()
    ]


def _interreduce(basis: Sequence[Polynomial], order: MonomialOrder, free_of: int = 0):
    """The reduced Groebner basis of the ideal of ``basis``, which must
    already be a Groebner basis in ``order``: minimalize, then tail-reduce.
    ``free_of`` is as in ``reduced_groebner_basis``."""
    # minimalize: in increasing lead order, keep only elements whose lead is
    # not divisible by the lead of an already-kept element; a head-free lead
    # is divisible only by head-free leads, so dropping the others first
    # keeps the same head-free elements
    ranked = sorted(
        ((g.leading(order), g) for g in basis), key=lambda p: order.key(p[0][1])
    )
    if free_of:
        ranked = [p for p in ranked if not any(p[0][1][:free_of])]
    minimal = []
    reducers = []
    for lead, g in ranked:
        if any(mono_divides(k[0], lead[1]) for k in reducers):
            continue
        minimal.append(g)
        reducers.append(_reducer(g, lead))
    # tail-reduce each element against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others, order, reducers=reducers[:i] + reducers[i + 1 :])
        if not r.is_zero():
            reduced.append(normalize(r, order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(tuple(reduced), order)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g for g a nonzero exact divisor of f; raises if it does not divide."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    order = f.ring.default_order
    r, (q,) = normal_form(f, [g], order, with_quotients=True)
    if not r.is_zero():
        raise ValueError("polynomial division is not exact")
    return q


# ---------------------------------------------------------------------------
# Elimination
# ---------------------------------------------------------------------------


def eliminate_first(gens: Sequence, drop: int):
    """Generators of (gens) intersected with the trailing-variable subring.

    ``gens`` are polynomials or ``GroebnerBasis`` parts in
    ``MonomialOrder.elimination(drop, ring.default_order)``, as
    ``reduced_groebner_basis`` takes them.

    Computed via a Groebner basis for that block order, which keeps the
    ring's own order on the trailing variables: the elimination theorem
    holds for any order on them (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 3 section 1).  Returns (small_ring,
    generators) with the generators expressed in the subring: the elements
    of the reduced basis that are free of the first ``drop`` variables, in
    the basis's order, which is the subring's default order.

    Only those elements are minimalized and tail-reduced
    (``reduced_groebner_basis(..., free_of=drop)``).  That is exact: in the
    block order an element whose leading term is free of the first ``drop``
    variables is free of them in every term, and such a term is divisible
    only by free leading terms.  So the free part of the Buchberger basis is
    a Groebner basis of the intersection (the elimination theorem), and
    reducing it by itself gives exactly the free elements of the full
    reduced basis.
    """
    if not gens:
        raise ValueError("need at least one generator (possibly zero)")
    ring = (_elements(gens) or gens)[0].ring
    if not 1 <= drop <= ring.nvars - 1:
        raise ValueError(f"drop count {drop} out of range for {ring.nvars} variables")
    order = MonomialOrder.elimination(drop, ring.default_order)
    gb = reduced_groebner_basis(gens, order, free_of=drop)
    small = PolyRing(ring.field, ring.variables[drop:], ring.default_order)
    out = [Polynomial(small, {m[drop:]: c for m, c in g.coeffs.items()}) for g in gb]
    return small, out


# ---------------------------------------------------------------------------
# Free-module engine: vectors in S^c with a position-over-term order.
# Module terms are (component, exponent tuple); component 0 has the highest
# priority, which realizes the elimination trick behind syzygy computation.
# ---------------------------------------------------------------------------


def _mod_key(order: MonomialOrder):
    okey = order.key

    def key(term):
        comp, exps = term
        return (-comp, okey(exps))

    return key


def _module_reducer(v: dict, lead: tuple, field) -> tuple:
    """``(lead component, lead monomial, inverse of the lead coefficient,
    tail)`` of a nonzero ``v`` whose leading term is ``lead``; the tail holds
    every other term as a ``((component, monomial), coefficient)`` pair."""
    tail = tuple((t, c) for t, c in v.items() if t != lead)
    return lead[0], lead[1], field.inv(v[lead]), tail


def module_normal_form(
    v: dict,
    basis: Sequence[dict],
    order: MonomialOrder,
    field,
    *,
    reducers: Optional[Sequence[tuple]] = None,
):
    """Remainder of a module element under division by ``basis`` (POT order).

    No term of the remainder is divisible by a basis lead of the same
    component; division uses the first divisor in sequence order.
    ``reducers``, when given, is what the division reads of each basis
    element, in the same sequence, as ``_module_reducer`` gives it; every
    element must be nonzero.  The result is the same either way.
    """
    key = _Keys(_mod_key(order)).__getitem__
    if reducers is None:
        reducers = [_module_reducer(b, max(b, key=key), field) for b in basis if b]
    p = field.p
    work = dict(v)
    remainder: dict = {}
    # the field arithmetic is written out per characteristic, as in normal_form
    while work:
        t = max(work, key=key)
        comp, m = t
        c = work.pop(t)
        for lcomp, lm, inv, tail in reducers:
            if lcomp == comp and all(map(le, lm, m)):
                shift = tuple(map(sub, m, lm))
                if p:
                    q = c * inv % p
                    for (gcomp, gm), gc in tail:
                        u = (gcomp, tuple(map(add, gm, shift)))
                        x = (work.get(u, 0) - q * gc) % p
                        if x:
                            work[u] = x
                        else:
                            work.pop(u, None)
                else:
                    q = _rational(c * inv)
                    for (gcomp, gm), gc in tail:
                        u = (gcomp, tuple(map(add, gm, shift)))
                        x = work.get(u, 0) - q * gc
                        if x:
                            work[u] = _rational(x)
                        else:
                            work.pop(u, None)
                break
        else:
            remainder[t] = c
    return remainder


def module_groebner(vecs: Sequence[dict], order: MonomialOrder, field):
    """Groebner basis of a submodule of a free module under POT: the monic
    nonzero inputs, then each nonzero S-pair remainder as it was found.

    No pair criteria are applied (the coprimality criterion is invalid for
    modules); S-pairs only form between elements with equal lead component.
    """
    key = _mod_key(order)
    F = field
    p = F.p
    basis: list = []
    reducers: list = []
    # (lcm degree, i, j, lcm): the normal strategy, which is _buchberger's
    # sugar strategy on homogeneous input
    heap: list = []

    def join(v):
        lead = max(v, key=key)
        inv = F.inv(v[lead])
        v = {t: F.mul(inv, c) for t, c in v.items()}
        t = len(basis)
        comp, m = lead
        for i, (icomp, im, _, _) in enumerate(reducers):
            if icomp == comp:
                lcm = tuple(map(max, im, m))
                heapq.heappush(heap, (sum(lcm), i, t, lcm))
        basis.append(v)
        reducers.append(_module_reducer(v, lead, F))

    for v in vecs:
        if v:
            join(v)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        # the S-pair from the two tails: the monic leads cancel
        out: dict = {}
        for (_, lm, _, tail), sign in ((reducers[i], 1), (reducers[j], -1)):
            shift = tuple(map(sub, lcm, lm))
            for (comp, m), c in tail:
                u = (comp, tuple(map(add, m, shift)))
                out[u] = out.get(u, 0) + sign * c
        spair = {u: x for u, c in out.items() if (x := c % p if p else _rational(c))}
        r = module_normal_form(spair, basis, order, F, reducers=reducers)
        if r:
            join(r)
    return basis


def syzygy_generators(gens: Sequence[Polynomial]):
    """Generators of the first syzygy module of ``gens``, in the ring's
    default order.

    Works by the module elimination trick: compute a POT Groebner basis of
    the vectors (f_i, e_i) in S^(1+m) with the first component dominant;
    basis elements supported away from the first component are exactly a
    generating set of syzygies of the f_i.
    """
    ring = gens[0].ring
    order = ring.default_order
    F = ring.field
    m = len(gens)
    zero_exps = (0,) * ring.nvars
    vecs = []
    for i, f in enumerate(gens):
        v = {(0, m): c for m, c in f.coeffs.items()}
        v[(i + 1, zero_exps)] = F.one
        vecs.append(v)
    gb = module_groebner(vecs, order, F)
    columns = []
    for v in gb:
        # component 0 leads whenever it is present
        if any(comp == 0 for comp, _ in v):
            continue
        col = [dict() for _ in range(m)]
        for (c2, mono), coeff in v.items():
            assert c2 >= 1
            col[c2 - 1][mono] = coeff
        columns.append(tuple(Polynomial(ring, d) for d in col))
    return columns
