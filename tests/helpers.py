"""Shared fixtures-in-plain-functions: golden contexts, random generators,
and brute-force oracles the fast routines are checked against."""

import random
from itertools import combinations_with_replacement
from pathlib import Path

from rowfibers import (
    CoefficientField,
    Ideal,
    MapContext,
    PolyRing,
    ProjectivePoint,
)

DATA = Path(__file__).parent / "data"

FP = CoefficientField(32003)
QQ = CoefficientField(0)
FPI = CoefficientField(32029, with_i=True)


def ring(field, *names):
    return PolyRing(field, list(names))


def ideal(R, *texts):
    return Ideal(R, [R.parse(t) for t in texts])


# -- golden maps -------------------------------------------------------------


def monomial_cover_context(field=FP, seed=0):
    """Degree-3 monomial map P^3 -> P^4 with three distinct fiber ideals at e_4."""
    R = ring(field, "a", "b", "c", "d")
    I = ideal(R, "a*b^2", "a*c^2", "b^2*c", "b*c^2", "b*c*d")
    return MapContext(I, seed=seed)


def quartic_context(field=FP, seed=0):
    """The rational quartic curve map P^1 -> P^3."""
    R = ring(field, "s", "t")
    return MapContext(ideal(R, "s^4", "s^3*t", "s*t^3", "t^4"), seed=seed)


def twisted_cubic_context(field=FP, seed=0):
    R = ring(field, "s", "t")
    return MapContext(ideal(R, "s^3", "s^2*t", "s*t^2", "t^3"), seed=seed)


def double_cover_context(field=FP, seed=0):
    """(s^4, s^2 t^2, t^4): a 2:1 map onto a conic, not birational."""
    R = ring(field, "s", "t")
    return MapContext(ideal(R, "s^4", "s^2*t^2", "t^4"), seed=seed)


def plane_cubics_context(field=QQ, seed=0):
    """x0*Q, x1*Q, x2*Q, F with Q = x0*x1 - x2^2 and F = x0^3+x1^3+x2^3."""
    R = ring(field, "x0", "x1", "x2")
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


def same_members(I, J, probes):
    """True iff I and J contain exactly the same polynomials from probes."""
    return all(I.contains(m) == J.contains(m) for m in probes)
