"""Shared fixtures-in-plain-functions: golden contexts, random generators,
and brute-force oracles the fast routines are checked against."""

import heapq
import random
from itertools import combinations_with_replacement
from pathlib import Path

from rowfibers import (
    CoefficientField,
    Ideal,
    MapContext,
    MonomialOrder,
    PolyRing,
    Polynomial,
    ProjectivePoint,
    minimal_presentation,
    reduced_groebner_basis,
)
from rowfibers import fibers, groebner, ideals
from rowfibers.polyring import (
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    normalize,
)

DATA = Path(__file__).parent / "data"

FP = CoefficientField(32003)
QQ = CoefficientField(0)
FPI = CoefficientField(32029, with_i=True)


def ring(field, *names, order=None):
    return PolyRing(field, list(names), order)


def ideal(R, *texts):
    return Ideal(R, [R.parse(t) for t in texts])


# -- golden maps -------------------------------------------------------------


def monomial_cover_context(field=FP, seed=0, order=None):
    """Degree-3 monomial map P^3 -> P^4 with three distinct fiber ideals at e_4."""
    R = ring(field, "a", "b", "c", "d", order=order)
    I = ideal(R, "a*b^2", "a*c^2", "b^2*c", "b*c^2", "b*c*d")
    return MapContext(I, seed=seed)


def quartic_context(field=FP, seed=0, order=None):
    """The rational quartic curve map P^1 -> P^3."""
    R = ring(field, "s", "t", order=order)
    return MapContext(ideal(R, "s^4", "s^3*t", "s*t^3", "t^4"), seed=seed)


def twisted_cubic_context(field=FP, seed=0):
    R = ring(field, "s", "t")
    return MapContext(ideal(R, "s^3", "s^2*t", "s*t^2", "t^3"), seed=seed)


def double_cover_context(field=FP, seed=0):
    """(s^4, s^2 t^2, t^4): a 2:1 map onto a conic, not birational."""
    R = ring(field, "s", "t")
    return MapContext(ideal(R, "s^4", "s^2*t^2", "t^4"), seed=seed)


def plane_cubics_context(field=QQ, seed=0, order=None):
    """x0*Q, x1*Q, x2*Q, F with Q = x0*x1 - x2^2 and F = x0^3+x1^3+x2^3."""
    R = ring(field, "x0", "x1", "x2", order=order)
    x0, x1, x2 = R.gens()
    Q = x0 * x1 - x2 * x2
    F = x0**3 + x1**3 + x2**3
    return MapContext(Ideal(R, [x0 * Q, x1 * Q, x2 * Q, F]), seed=seed)


def e_point(field, dim_plus_one, index):
    return ProjectivePoint.standard(field, dim_plus_one, index)


# -- random generators -------------------------------------------------------


def random_monomial_ideal(rng, R, max_gens=4, max_degree=4):
    """A nonzero monomial ideal with generator degrees in 1..max_degree."""
    n = R.nvars
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        deg = rng.randint(1, max_degree)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        gens.append(R.monomial(tuple(exps)))
    return Ideal(R, gens)


def random_equigenerated_context(rng, field=FP, seed=0):
    """A validated random equigenerated monomial map context, retried until
    the codimension precondition holds."""
    nvars = rng.randint(2, 3)
    R = ring(field, *[f"x{i}" for i in range(nvars)])
    deg = rng.randint(2, 3)
    monos = all_monomials(R, deg)
    while True:
        count = rng.randint(nvars, min(len(monos), nvars + 2))
        chosen = rng.sample(monos, count)
        try:
            return MapContext(Ideal(R, chosen), seed=seed)
        except ValueError:
            continue


def random_target_point(rng, ctx):
    F = ctx.ring.field
    while True:
        coords = [rng.randrange(F.p) for _ in range(ctx.r + 1)]
        if any(coords):
            return ProjectivePoint(F, coords)


# -- brute-force monomial oracles --------------------------------------------


def all_monomials(R, degree):
    """All monomials of R of exactly the given degree, as polynomials."""
    out = []
    for combo in combinations_with_replacement(range(R.nvars), degree):
        exps = [0] * R.nvars
        for i in combo:
            exps[i] += 1
        out.append(R.monomial(tuple(exps)))
    return out


def monomials_up_to(R, degree):
    return [m for d in range(degree + 1) for m in all_monomials(R, d)]


def oracle_colon_member(I, J, m):
    """m in I : J by definition: m * j in I for every generator j of J."""
    return all(I.contains(m * j) for j in J.generators)


def _exponents(monomial):
    """The exponent tuple of a single-term polynomial."""
    (exps,) = monomial.coeffs
    return exps


def oracle_saturate_member(I, J, m, max_steps=10):
    """m in I : J^infty by iterating oracle colon membership on m * J^k.

    I, J and m are monomial, so membership is decided on exponent tuples:
    a monomial lies in I iff some generator of I divides it.  The frontier
    of products is deduplicated so the blow-up stays polynomial.
    """
    gens = [_exponents(g) for g in I.generators]
    factors = [_exponents(j) for j in J.generators]
    frontier = {_exponents(m)}
    for _ in range(max_steps + 1):
        if all(
            any(all(a <= b for a, b in zip(g, f)) for g in gens) for f in frontier
        ):
            return True
        frontier = {tuple(a + b for a, b in zip(f, j)) for f in frontier for j in factors}
    return False


def saturate_by_iterated_colons(I, J):
    """I : J^infty as I : J : J : ... until the increasing chain repeats,
    the reference route for saturations computed by elimination."""
    current = I
    while True:
        nxt = current.colon(J)
        if nxt.equals(current):
            return current
        current = nxt


def intersect_by_elimination(I, J):
    """I intersect J by the textbook route, the reference for
    ``Ideal.intersect``: the full reduced basis of t*I + (1 - t)*J in the
    order eliminating t, keeping its t-free elements."""
    R = I.ring
    t = "t"
    while t in R.variables:
        t += "_"
    big = PolyRing(R.field, [t, *R.variables], R.default_order)

    def lift(f):
        return Polynomial(big, {(0, *m): c for m, c in f.coeffs.items()})

    tt = big.gen(0)
    gens = [tt * lift(f) for f in I.generators]
    gens += [(big.one() - tt) * lift(g) for g in J.generators]
    gb = reduced_groebner_basis(gens, MonomialOrder.elimination(1))
    return Ideal(R, [
        Polynomial(R, {m[1:]: c for m, c in g.coeffs.items()})
        for g in gb
        if all(m[0] == 0 for m in g.coeffs)
    ])


def colon_poly_by_elimination(I, f):
    """I : f as (I intersect (f)) / f, the intersection by the textbook
    route: the reference for ``Ideal.colon_poly``."""
    meet = intersect_by_elimination(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [groebner.exact_divide(g, f) for g in meet.generators])


def point_ideal_by_exponents(R, coords):
    """The ideal of the point with these coordinates, generated by the n
    forms p_b*x_a - p_a*x_b (a != b) for b the first nonzero coordinate,
    each written term by term from exponent tuples: the reference for the
    point ideal that ``MapContext`` builds from the variables."""
    F = R.field
    b = next(k for k, c in enumerate(coords) if not F.is_zero(c))
    x = [tuple(int(i == k) for i in range(len(coords))) for k in range(len(coords))]
    forms = []
    for a, c in enumerate(coords):
        if a != b:
            form = {x[a]: coords[b]}
            if not F.is_zero(c):
                form[x[b]] = F.neg(c)
            forms.append(Polynomial(R, form))
    return Ideal(R, forms)


def special_fiber_dimension_by_elimination(ctx):
    """dim k[T]/ker(T_i -> g_i) by the textbook route, the reference for
    ``MapContext.special_fiber_dimension``: the full reduced basis of the
    T_i - g_i in the order eliminating the variables of the map's ring, its
    elements free of those variables as the kernel in k[T]."""
    R = ctx.ring
    names = []
    for i in range(ctx.r + 1):
        name = f"T{i}"
        while name in R.variables:
            name += "_"
        names.append(name)
    big = PolyRing(R.field, [*R.variables, *names], R.default_order)
    target = PolyRing(R.field, names)
    pad = (0,) * len(names)
    gens = [
        big.gen(R.nvars + i) - Polynomial(big, {m + pad: c for m, c in g.coeffs.items()})
        for i, g in enumerate(ctx.generators)
    ]
    gb = reduced_groebner_basis(gens, MonomialOrder.elimination(R.nvars))
    kernel = Ideal(target, [
        Polynomial(target, {m[R.nvars:]: c for m, c in g.coeffs.items()})
        for g in gb
        if all(not any(m[:R.nvars]) for m in g.coeffs)
    ])
    return kernel.dimension()


def count_eliminations(monkeypatch):
    """A list that grows by one at each ``eliminate_first`` call, patched in
    every module that names the function."""
    return _count_calls(monkeypatch, "eliminate_first", groebner, ideals, fibers)


def count_s_pairs(monkeypatch):
    """A list that grows by one at each S-polynomial that ``_buchberger``
    forms to reduce (``groebner._s_pair``)."""
    return _count_calls(monkeypatch, "_s_pair", groebner)


def _count_calls(monkeypatch, name, *modules):
    """A list that grows by one, by the call's arguments, at each call of
    the function ``name`` of the first module, patched in every module."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def spread_lower_bound(ctx, q):
    """1 + codim(I_q : I^infty) when the morphism fiber ideal at q is
    proper, else None: the lower bound on the analytic spread that one
    fiber gives."""
    fiber = ctx.morphism_fiber_ideal(q)
    if fiber.is_unit():
        return None
    return 1 + fiber.codimension()


def same_members(I, J, probes):
    """True iff I and J contain exactly the same polynomials from probes."""
    return all(I.contains(m) == J.contains(m) for m in probes)


def generalized_row_by_scaling(A, coords):
    """(sum_i q_i * A[i][j])_j by scaling and adding whole entries, the
    reference for ``PresentationMatrix.generalized_row``."""
    F = A.ring.field
    out = []
    for col in A.columns:
        acc = A.ring.zero()
        for q, entry in zip(coords, col):
            if not F.is_zero(q):
                acc = acc + entry.scale(q)
        out.append(acc)
    return tuple(out)


def is_linear_presentation(I):
    """True iff the minimal presentation of the equigenerated ideal I has
    only linear nonzero entries."""
    gens, matrix = minimal_presentation(I)
    if len({g.total_degree() for g in gens}) != 1:
        raise ValueError("ideal is not equigenerated")
    return all(
        e.is_zero() or e.total_degree() == 1 for col in matrix.columns for e in col
    )


def full_power(I, d):
    """All products of d generators of I, in the order of the product loop
    [a*b for a in gens(I^(k-1)) for b in gens(I)]: the reference for
    ``Ideal.power``."""
    gens = list(I.generators)
    for _ in range(d - 1):
        gens = [a * b for a in gens for b in I.generators]
    return gens


# -- reference Groebner routes -------------------------------------------------


def normal_form_by_scan(f, basis, order, with_quotients=False):
    """Division by ``basis`` through the field's own operations, reducing by
    the first divisor in sequence order: the reference for
    ``groebner.normal_form``."""
    ring = f.ring
    F = ring.field
    basis = [g for g in basis if not g.is_zero()]
    leads = [g.leading(order) for g in basis]
    work = dict(f.coeffs)
    remainder = {}
    quotients = [dict() for _ in basis]
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        for idx, (lc, lm) in enumerate(leads):
            if mono_divides(lm, m):
                q = F.div(c, lc)
                shift = mono_div(m, lm)
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
        return r, [
            Polynomial(ring, {m: c for m, c in q.items() if not F.is_zero(c)})
            for q in quotients
        ]
    return r


def s_polynomial(f, g, order):
    """The S-polynomial of f and g through ``mul_term`` and the field's own
    operations: the reference for the S-pairs ``groebner._buchberger``
    forms from its reducers' tails."""
    F = f.ring.field
    (cf, mf), (cg, mg) = f.leading(order), g.leading(order)
    lcm = mono_lcm(mf, mg)
    return f.mul_term(F.inv(cf), mono_div(lcm, mf)) - g.mul_term(F.inv(cg), mono_div(lcm, mg))


def buchberger_by_chain_scan(gens, order, reduced=None):
    """A Groebner basis of ``gens`` by the normal strategy with both criteria
    tested when a pair is popped: coprime leads, and the chain criterion,
    which scans the whole basis for a k whose lead divides the lcm and whose
    pairs with i and j are both gone.  The reference for
    ``groebner._buchberger``; each S-polynomial it reduces is appended to
    ``reduced`` when given."""
    basis = [normalize(g, order) for g in gens if not g.is_zero()]
    lms = [g.leading_monomial(order) for g in basis]
    pending = {}
    heap = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            lcm = mono_lcm(lms[i], lms[j])
            pending[(i, j)] = lcm
            heap.append((mono_degree(lcm), i, j))
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        lcm = pending.pop((i, j))
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        if any(
            k not in (i, j)
            and mono_divides(lms[k], lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        if reduced is not None:
            reduced.append(s)
        r = normal_form_by_scan(s, basis, order)
        if r.is_zero():
            continue
        basis.append(normalize(r, order))
        lms.append(basis[-1].leading_monomial(order))
        t = len(basis) - 1
        for k in range(t):
            lcm = mono_lcm(lms[k], lms[t])
            pending[(k, t)] = lcm
            heapq.heappush(heap, (mono_degree(lcm), k, t))
    return basis
