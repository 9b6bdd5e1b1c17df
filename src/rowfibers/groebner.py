"""Buchberger's algorithm, normal forms, reduced Groebner bases, elimination.

Also houses the free-module engine (position-over-term order) used for
syzygy computations and module membership.  Everything is deterministic:
both engines select S-pairs by the normal strategy, popping a heap keyed on
``(lcm degree, i, j)`` -- least lcm degree first, ties broken by pair index --
and division always reduces by the first divisor in sequence order.

A basis element's leading term is computed once, when it joins a basis, and
handed to the reducers through the keyword-only ``leads`` argument of
``normal_form``, ``module_normal_form`` and ``s_polynomial``;
``GroebnerBasis.leads`` caches them for a finished basis.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .polyring import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normalize,
)

__all__ = [
    "GroebnerBasis",
    "normal_form",
    "reduced_groebner_basis",
    "s_polynomial",
    "eliminate_first",
    "extend_ring_front",
    "lift_to_extension",
    "drop_front_variables",
    "exact_divide",
    "module_normal_form",
    "module_groebner",
    "syzygy_generators",
    "module_contains",
]


@dataclass(frozen=True)
class GroebnerBasis:
    elements: tuple
    order: MonomialOrder
    reduced: bool = True

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @cached_property
    def leads(self) -> tuple:
        """Leading ``(coefficient, monomial)`` of each element, computed on first use."""
        return tuple(g.leading(self.order) for g in self.elements)


def normal_form(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
    with_quotients: bool = False,
    *,
    leads: Optional[Sequence[tuple]] = None,
):
    """Remainder of f under multivariate division by ``basis``.

    No term of the remainder is divisible by any basis leading term.
    Reduction always uses the first divisor in sequence order, so the
    result is deterministic for a fixed basis sequence.

    ``leads``, when given, is ``g.leading(order)`` for each ``g`` in
    ``basis``, in the same sequence, and every ``g`` must be nonzero.  A
    caller that reduces many polynomials by one basis computes the leading
    terms once and passes them here; the result is the same either way.
    """
    ring = f.ring
    order = order or ring.default_order
    F = ring.field
    okey = order.key
    keymemo: dict = {}

    def key(m):
        k = keymemo.get(m)
        if k is None:
            k = keymemo[m] = okey(m)
        return k

    if leads is None:
        basis = [g for g in basis if not g.is_zero()]
        leads = [g.leading(order) for g in basis]
    work = dict(f.coeffs)
    remainder: dict = {}
    quotients = [dict() for _ in basis] if with_quotients else None
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for idx, (lc, lm) in enumerate(leads):
            if mono_divides(lm, m):
                q = F.div(c, lc)
                shift = mono_div(m, lm)
                if with_quotients:
                    quotients[idx][shift] = F.add(quotients[idx].get(shift, F.zero), q)
                for gm, gc in basis[idx].coeffs.items():
                    if gm == lm:
                        continue
                    t = mono_mul(gm, shift)
                    v = F.sub(work.get(t, F.zero), F.mul(q, gc))
                    if F.is_zero(v):
                        work.pop(t, None)
                    else:
                        work[t] = v
                break
        else:
            remainder[m] = c
    r = Polynomial(ring, remainder)
    if with_quotients:
        return r, [Polynomial(ring, {m: c for m, c in q.items() if not F.is_zero(c)}) for q in quotients]
    return r


def s_polynomial(
    f: Polynomial,
    g: Polynomial,
    order: MonomialOrder,
    *,
    leads: Optional[tuple] = None,
) -> Polynomial:
    """The S-polynomial of f and g; ``leads`` is their two leading terms, if known."""
    F = f.ring.field
    (cf, mf), (cg, mg) = leads or (f.leading(order), g.leading(order))
    lcm = mono_lcm(mf, mg)
    return f.mul_term(F.inv(cf), mono_div(lcm, mf)) - g.mul_term(
        F.inv(cg), mono_div(lcm, mg)
    )


def _buchberger(gens: Sequence[Polynomial], order: MonomialOrder):
    ring = gens[0].ring
    basis = [normalize(g, order) for g in gens if not g.is_zero()]
    if not basis:
        return []
    leads = [g.leading(order) for g in basis]
    lms = [m for _, m in leads]
    # pending maps each unprocessed pair to its lcm; the heap holds exactly
    # the same pairs keyed (lcm degree, i, j), and a pair leaves both only
    # when it is popped
    pending = {}
    heap = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            lcm = mono_lcm(lms[i], lms[j])
            pending[(i, j)] = lcm
            heap.append((mono_degree(lcm), i, j))
    heapq.heapify(heap)
    while heap:
        # normal strategy: minimal lcm degree, then index tie-break
        _, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j))
        # Buchberger's coprimality criterion
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: some k divides the lcm and both (i,k), (j,k) are gone
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if mono_divides(lms[k], lcm):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik not in pending and pjk not in pending:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], order, leads=(leads[i], leads[j]))
        r = normal_form(s, basis, order, leads=leads)
        if r.is_zero():
            continue
        r = normalize(r, order)
        basis.append(r)
        lead = r.leading(order)
        leads.append(lead)
        lm = lead[1]
        lms.append(lm)
        t = len(basis) - 1
        for k in range(t):
            lcm = mono_lcm(lms[k], lm)
            pending[(k, t)] = lcm
            heapq.heappush(heap, (mono_degree(lcm), k, t))
    return basis


def reduced_groebner_basis(
    gens: Sequence[Polynomial], order: Optional[MonomialOrder] = None
) -> GroebnerBasis:
    """The unique reduced Groebner basis of the ideal generated by ``gens``.

    Canonical: any generating set of the same ideal yields an identical
    result.  Elements are normalized (monic over a prime field; integral,
    content-free, positive leading coefficient over the rationals) and
    sorted by increasing leading monomial.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        order = order or MonomialOrder.grevlex()
        return GroebnerBasis((), order)
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
    order = order or ring.default_order
    basis = _buchberger(gens, order)
    # minimalize: in increasing lead order, keep only elements whose lead is
    # not divisible by the lead of an already-kept element
    ranked = sorted(
        ((g.leading(order), g) for g in basis), key=lambda p: order.key(p[0][1])
    )
    minimal = []
    kept_leads = []
    for lead, g in ranked:
        if any(mono_divides(k[1], lead[1]) for k in kept_leads):
            continue
        minimal.append(g)
        kept_leads.append(lead)
    # tail-reduce each element against the others
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others, order, leads=kept_leads[:i] + kept_leads[i + 1 :])
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
# Ring extension / elimination
# ---------------------------------------------------------------------------


def extend_ring_front(ring: PolyRing, new_vars: Sequence[str]) -> PolyRing:
    """k[new_vars..., old_vars...] with the same field and default order."""
    return PolyRing(ring.field, tuple(new_vars) + ring.variables, ring.default_order)


def lift_to_extension(f: Polynomial, big: PolyRing) -> Polynomial:
    """View f in an extension ring whose trailing variables are f's ring."""
    pad = big.nvars - f.ring.nvars
    zeros = (0,) * pad
    return Polynomial(big, {zeros + m: c for m, c in f.coeffs.items()})


def drop_front_variables(f: Polynomial, small: PolyRing, drop: int) -> Polynomial:
    """Project into the trailing-variable subring; first ``drop`` exponents must vanish."""
    out = {}
    for m, c in f.coeffs.items():
        if any(m[:drop]):
            raise ValueError("polynomial involves a dropped variable")
        out[m[drop:]] = c
    return Polynomial(small, out)


def eliminate_first(gens: Sequence[Polynomial], drop: int):
    """Generators of (gens) intersected with the trailing-variable subring.

    Computed via a Groebner basis for the block elimination order; returns
    (small_ring, generators) with the generators expressed in the subring.
    """
    if not gens:
        raise ValueError("need at least one generator (possibly zero)")
    ring = gens[0].ring
    if not 1 <= drop <= ring.nvars - 1:
        raise ValueError(f"drop count {drop} out of range for {ring.nvars} variables")
    order = MonomialOrder.elimination(drop)
    gb = reduced_groebner_basis(gens, order)
    small = PolyRing(ring.field, ring.variables[drop:], ring.default_order)
    out = []
    for g in gb:
        if all(not any(m[:drop]) for m in g.coeffs):
            out.append(drop_front_variables(g, small, drop))
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


def _mod_leading(v: dict, key):
    t = max(v, key=key)
    return v[t], t


def _mod_scale(v: dict, c, F):
    return {t: F.mul(c, x) for t, x in v.items()}


def _mod_sub_scaled(v: dict, w: dict, c, shift: tuple, F) -> dict:
    """v - c * x^shift * w."""
    out = dict(v)
    for (comp, m), x in w.items():
        t = (comp, mono_mul(m, shift))
        val = F.sub(out.get(t, F.zero), F.mul(c, x))
        if F.is_zero(val):
            out.pop(t, None)
        else:
            out[t] = val
    return out


def module_normal_form(
    v: dict,
    basis: Sequence[dict],
    order: MonomialOrder,
    field,
    *,
    leads: Optional[Sequence[tuple]] = None,
):
    """Remainder of a module element under division by ``basis`` (POT order).

    ``leads``, when given, is the leading ``(coefficient, term)`` of each
    basis element, in the same sequence, as ``normal_form`` takes them.
    """
    mkey = _mod_key(order)
    keymemo: dict = {}

    def key(t):
        k = keymemo.get(t)
        if k is None:
            k = keymemo[t] = mkey(t)
        return k

    F = field
    if leads is None:
        leads = [_mod_leading(b, key) for b in basis]
    work = dict(v)
    remainder: dict = {}
    while work:
        t = max(work, key=key)
        comp, m = t
        c = work.pop(t)
        for idx, (lc, (lcomp, lm)) in enumerate(leads):
            if lcomp == comp and mono_divides(lm, m):
                q = F.div(c, lc)
                shift = mono_div(m, lm)
                for (bcomp, bm), bc in basis[idx].items():
                    if (bcomp, bm) == (lcomp, lm):
                        continue
                    tt = (bcomp, mono_mul(bm, shift))
                    val = F.sub(work.get(tt, F.zero), F.mul(q, bc))
                    if F.is_zero(val):
                        work.pop(tt, None)
                    else:
                        work[tt] = val
                break
        else:
            remainder[t] = c
    return remainder


def module_groebner(vecs: Sequence[dict], order: MonomialOrder, field):
    """Groebner basis of a submodule of a free module under POT.

    No pair criteria are applied (the coprimality criterion is invalid for
    modules); S-pairs only form between elements with equal lead component.
    """
    key = _mod_key(order)
    F = field
    basis = []
    leads = []  # (coefficient, term) of each basis element's lead

    def append_monic(v):
        lc, lt = _mod_leading(v, key)
        v = _mod_scale(v, F.inv(lc), F)
        basis.append(v)
        leads.append((v[lt], lt))

    for v in vecs:
        if v:
            append_monic(v)
    heap = []  # (lcm degree, i, j, lcm): the normal strategy, as in _buchberger

    def push_pair(i, j):
        (ci, mi), (cj, mj) = leads[i][1], leads[j][1]
        if ci == cj:
            lcm = mono_lcm(mi, mj)
            heapq.heappush(heap, (mono_degree(lcm), i, j, lcm))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            push_pair(i, j)
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        (_, mi), (_, mj) = leads[i][1], leads[j][1]
        spair = _mod_sub_scaled(
            _shifted(basis[i], mono_div(lcm, mi), F),
            basis[j],
            F.one,
            mono_div(lcm, mj),
            F,
        )
        r = module_normal_form(spair, basis, order, F, leads=leads)
        if not r:
            continue
        append_monic(r)
        t = len(basis) - 1
        for k in range(t):
            push_pair(k, t)
    return basis


def _shifted(v: dict, shift: tuple, F) -> dict:
    return {(comp, mono_mul(m, shift)): c for (comp, m), c in v.items()}


def module_contains(
    v: dict, module_gb: Sequence[dict], order: MonomialOrder, field
) -> bool:
    return not module_normal_form(v, module_gb, order, field)


def poly_to_module(f: Polynomial, comp: int) -> dict:
    return {(comp, m): c for m, c in f.coeffs.items()}


def syzygy_generators(gens: Sequence[Polynomial], order: Optional[MonomialOrder] = None):
    """Generators of the first syzygy module of ``gens``.

    Works by the module elimination trick: compute a POT Groebner basis of
    the vectors (f_i, e_i) in S^(1+m) with the first component dominant;
    basis elements supported away from the first component are exactly a
    generating set of syzygies of the f_i.
    """
    ring = gens[0].ring
    order = order or ring.default_order
    F = ring.field
    m = len(gens)
    zero_exps = (0,) * ring.nvars
    vecs = []
    for i, f in enumerate(gens):
        v = poly_to_module(f, 0)
        v[(i + 1, zero_exps)] = F.one
        vecs.append(v)
    gb = module_groebner(vecs, order, F)
    key = _mod_key(order)
    columns = []
    for v in gb:
        _, (comp, _) = _mod_leading(v, key)
        if comp == 0:
            continue
        col = [dict() for _ in range(m)]
        for (c2, mono), coeff in v.items():
            assert c2 >= 1
            col[c2 - 1][mono] = coeff
        columns.append(tuple(Polynomial(ring, d) for d in col))
    return columns
