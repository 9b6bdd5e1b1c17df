"""Ideal-level algebra: sums, products, powers, intersections, colons,
saturations, equality, codimension, linearity, and minimal generators.

When every operand is a monomial ideal (each generator a single term), the
product, the power, the minimal generators of one degree, the intersection,
and the colon and saturation by a monomial work on exponent tuples alone, as
in Miller and Sturmfels, *Combinatorial Commutative Algebra*, ch. 1, and
build each result polynomial once, at the end.  The colon and saturation by
a monomial ideal intersect those by its generators, and mixed-degree minimal
generators are tested for membership, which for monomials is divisibility.
Such a result has exactly the generators, in the same order and with the
same coefficients, that the polynomial route gives:
``MapContext.point_presentation`` samples its points in the order of the
generators of I^d, so a reordered list would change the points it reports.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import le, sub
from typing import Optional, Sequence

from .groebner import (
    GroebnerBasis,
    _Echelon,
    eliminate_first,
    exact_divide,
    normal_form,
    reduced_groebner_basis,
)
from .polyring import (
    MonomialOrder,
    PolyRing,
    Polynomial,
    RingMismatchError,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = ["Ideal", "UNIT_CODIM"]


def _minimal_monomials(exps):
    """Minimal elements of a monomial set under divisibility (deduplicated)."""
    uniq = sorted(set(exps), key=lambda m: (sum(m), m))
    out = []
    for m in uniq:
        if not any(all(map(le, k, m)) for k in out):
            out.append(m)
    return out


def _colon_exps(exps, fm):
    """Exponents generating I : x^fm for the monomial ideal I generated by
    ``exps``: (1) when a generator divides x^fm, else each generator divided
    by its gcd with x^fm."""
    if any(all(map(le, e, fm)) for e in exps):
        return [(0,) * len(fm)]
    # max(g, m) - m = max(g - m, 0)
    return [tuple(map(sub, map(max, e, fm), fm)) for e in exps]


def _saturate_exps(exps, fm):
    """Exponents generating I : (x^fm)^infty for the monomial ideal I
    generated by ``exps``: I with the variables of x^fm set to 1."""
    return [tuple(0 if m else g for g, m in zip(e, fm)) for e in exps]


def _adjoin(ring: PolyRing, count: int, front: bool):
    """(big, lift): ``ring`` with ``count`` new variables placed before
    (``front``) or after its own, named T0, T1, ... with underscores appended
    until no name is taken, and the map lifting a polynomial of ``ring``
    into ``big``."""
    names = []
    for i in range(count):
        name = f"T{i}"
        while name in ring.variables or name in names:
            name += "_"
        names.append(name)
    pad = (0,) * count
    if front:
        big = PolyRing(ring.field, names + list(ring.variables), ring.default_order)
        return big, lambda f: Polynomial(big, {pad + m: c for m, c in f.coeffs.items()})
    big = PolyRing(ring.field, list(ring.variables) + names, ring.default_order)
    return big, lambda f: Polynomial(big, {m + pad: c for m, c in f.coeffs.items()})


def _lifted_basis(big: PolyRing, lifted: list) -> GroebnerBasis:
    """``lifted`` as a basis part of ``eliminate_first(parts, 1)`` in
    ``big``: the reduced basis G of an ideal of ``ring``, lifted by
    ``_adjoin(ring, 1, front=True)`` and multiplied by one of 1, t and 1 - t.

    It is a Groebner basis in ``elim(1, order)``, for ``order`` the ring's
    own, which ``big`` shares: the multiplier puts t or nothing in front of
    each lead monomial and multiplies through every standard representation
    of G's S-polynomials.  So its inner pairs are not reduced again.
    """
    return GroebnerBasis(tuple(lifted), MonomialOrder.elimination(1, big.default_order))


def _minimalized(J: "Ideal"):
    """(the ideal of the minimal generators of J, the ideal of the same
    generators in the order of J's)."""
    kept = J._minimal_positions()
    return J._select(kept), J._select(sorted(kept))


def _monomial_ideal(ring: PolyRing, exps, coeffs=None) -> "Ideal":
    """The ideal generated by the terms c*x^e, e over ``exps`` and c over
    ``coeffs`` (all one when omitted), in their order."""
    if coeffs is None:
        coeffs = [ring.field.one] * len(exps)
    J = Ideal(ring, [Polynomial(ring, {e: c}) for e, c in zip(exps, coeffs)])
    J._mono_exps = exps
    return J


# Sentinel codimension of the unit ideal; deliberately distinct from any
# integer so "empty fiber" is never confused with an m-primary fiber.
UNIT_CODIM = "unit"


class Ideal:
    """An ideal in a graded polynomial ring, with its reduced GB in the
    ring's default order cached.

    Values are immutable apart from the GB and power caches; cache
    installation is idempotent (compute-then-install), so sharing across
    tasks is safe.  ``groebner()`` is the only writer of the basis cache:
    every other operation returns an ideal with no basis, computed when
    first asked for.
    """

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._gb: Optional[GroebnerBasis] = None
        self._mono_exps = False  # False = not yet computed; None = not monomial
        # (minimal I^k, the same generators in product order) for k = 1, 2, ... as far as computed
        self._powers: tuple = ()

    # -- basics -------------------------------------------------------------

    def monomial_exponents(self):
        """Exponent tuples if every generator is a single term, else None."""
        if self._mono_exps is False:
            exps = []
            for g in self.generators:
                if len(g.coeffs) != 1:
                    self._mono_exps = None
                    return None
                exps.append(next(iter(g.coeffs)))
            self._mono_exps = exps
        return self._mono_exps

    def _select(self, positions) -> "Ideal":
        """The ideal of the generators at these positions, in their order."""
        J = Ideal(self.ring, [self.generators[i] for i in positions])
        if self._mono_exps:
            J._mono_exps = [self._mono_exps[i] for i in positions]
        return J

    def groebner(self) -> GroebnerBasis:
        """The reduced Groebner basis in the ring's default order."""
        gb = self._gb
        if gb is None:
            order = self.ring.default_order
            exps = self.monomial_exponents()
            if exps is not None:
                # the reduced GB of a monomial ideal is its minimal monomial
                # generating set, in any order; no pair processing needed
                mins = _minimal_monomials(exps)
                mins.sort(key=order.key)
                one = self.ring.field.one
                gb = GroebnerBasis(
                    tuple(self.ring.monomial(m, one) for m in mins), order
                )
            else:
                gb = reduced_groebner_basis(self.generators, order)
            self._gb = gb
        return gb

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb.elements[0].total_degree() == 0

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def contains(self, f: Polynomial) -> bool:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial lives in a different ring")
        if f.is_zero():
            return True
        exps = self.monomial_exponents()
        if exps is not None:
            # a monomial ideal contains f iff it contains every term of f
            return all(
                any(mono_divides(g, m) for g in exps) for m in f.coeffs
            )
        gb = self.groebner()
        return normal_form(f, gb.elements, gb.order, reducers=gb.reducers).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def equals(self, other: "Ideal") -> bool:
        """Ideal equality via identical reduced Groebner bases (canonical)."""
        self._check(other)
        return self.groebner().elements == other.groebner().elements

    def _check(self, other: "Ideal"):
        if self.ring != other.ring:
            raise RingMismatchError("ideals live in different rings")

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inner})"

    # -- sums / products / powers ------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        """The products f*g, f over self's generators and g over other's.
        For two monomial ideals each product is one term, its exponents
        added and its coefficients multiplied."""
        self._check(other)
        a, b = self.monomial_exponents(), other.monomial_exponents()
        if a is None or b is None:
            return Ideal(
                self.ring,
                [f * g for f in self.generators for g in other.generators],
            )
        mul = self.ring.field.mul
        ca = [f.coeffs[x] for x, f in zip(a, self.generators)]
        cb = [g.coeffs[y] for y, g in zip(b, other.generators)]
        return _monomial_ideal(
            self.ring,
            [mono_mul(x, y) for x in a for y in b],
            [mul(c, d) for c in ca for d in cb],
        )

    def power(self, d: int) -> "Ideal":
        """I^d.  A homogeneous ideal keeps its minimal generators after each
        multiplication: a product a*b whose factor a was dropped at the step
        before lies in the span (or ideal) of the a'*b before it, so this is
        the list that minimalizing the full product gives, in its order.
        The products are taken in the order of the full product, the kept
        generators of I^(k-1) as they stood in it, not as minimal_generators
        lists them: sorted by degree first, for mixed degrees.
        The powers computed so far are kept on the ideal, like its basis."""
        if d < 1:
            raise ValueError("power must be >= 1")
        if not self.is_homogeneous():
            return reduce(Ideal.__mul__, [self] * d)
        if len(self._powers) < d:
            powers = list(self._powers) or [_minimalized(self)]
            base = powers[0][1]
            while len(powers) < d:
                powers.append(_minimalized(powers[-1][1] * base))
            self._powers = tuple(powers)
        return self._powers[d - 1][0]

    # -- intersection / colon / saturation ---------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I intersect J, by eliminating t from t*I + (1-t)*J.

        Monomial ideals take the combinatorial route: the intersection is
        generated by the pairwise lcms of the generators, and is the other
        side as it is when one side is (1).  Otherwise, when
        one ideal contains the other, the intersection is the smaller one,
        returned as it is: J when J is in I, else I when I is in J, decided
        by normal forms against the Groebner bases the ideals cache.  The
        elimination runs only when neither contains the other, from t*G_I
        and (1-t)*G_J for the cached bases G_I and G_J.  Each is a basis
        part of the elimination (see ``_lifted_basis``), so only the S-pairs
        across the two are reduced.
        """
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        a, b = self.monomial_exponents(), other.monomial_exponents()
        if a is not None and b is not None:
            one = (0,) * self.ring.nvars
            if one in a:
                return other
            if one in b:
                return self
            return _monomial_ideal(
                self.ring, _minimal_monomials([mono_lcm(x, y) for x in a for y in b])
            )
        if self.contains_ideal(other):
            return other
        if other.contains_ideal(self):
            return self
        big, lift = _adjoin(self.ring, 1, front=True)
        t = big.gen(0)
        parts = [
            _lifted_basis(big, [t * lift(f) for f in self.groebner()]),
            _lifted_basis(big, [(big.one() - t) * lift(g) for g in other.groebner()]),
        ]
        return Ideal(*eliminate_first(parts, 1))

    def colon_poly(self, f: Polynomial) -> "Ideal":
        """I : (f) via (I intersect (f)) divided through by f.

        For a monomial ideal and a monomial f this is (1) when a generator
        divides f, and {g / gcd(g, f)} otherwise.  For f in I the
        intersection is (f) itself, so the colon is (1) with no elimination.
        """
        if f.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        if self.is_zero():
            return self
        exps = self.monomial_exponents()
        if exps is not None and len(f.coeffs) == 1:
            return _monomial_ideal(self.ring, _minimal_monomials(_colon_exps(exps, *f.coeffs)))
        meet = self.intersect(Ideal(self.ring, [f]))
        return Ideal(self.ring, [exact_divide(g, f) for g in meet.generators])

    def _saturate_poly(self, f: Polynomial) -> "Ideal":
        """I : f^infty = (I, 1 - t*f) intersect k[x], one elimination, from
        the cached basis G_I, lifted as a basis part (see
        ``_lifted_basis``), and 1 - t*f.  For a monomial ideal and a
        monomial f, I with f's variables set to 1."""
        exps = self.monomial_exponents()
        if exps is not None and len(f.coeffs) == 1:
            return _monomial_ideal(self.ring, _minimal_monomials(_saturate_exps(exps, *f.coeffs)))
        big, lift = _adjoin(self.ring, 1, front=True)
        parts = [_lifted_basis(big, [lift(g) for g in self.groebner()])]
        parts.append(big.one() - big.gen(0) * lift(f))
        return Ideal(*eliminate_first(parts, 1))

    def colon(self, other: "Ideal") -> "Ideal":
        """I : J = {f : f*J in I}, the intersection of the I : f over the
        generators f of J.  Convention: I : (0) = S; (0) : J = (0)."""
        return self._meet_over(other, self.colon_poly)

    def saturate(self, other: "Ideal") -> "Ideal":
        """I : J^infty, the intersection of the I : f^infty over the
        generators f of J (Cox-Little-O'Shea, ch. 4 section 4), each by
        _saturate_poly.  Convention: I : (0)^infty = S; (0) : J^infty = (0)."""
        return self._meet_over(other, self._saturate_poly)

    def _meet_over(self, other: "Ideal", by_poly) -> "Ideal":
        """The intersection of by_poly(f) over the generators f of other.
        For monomial ideals each by_poly(f) and each intersection takes its
        exponent route."""
        self._check(other)
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        if self.is_zero():
            return self
        return reduce(Ideal.intersect, map(by_poly, other.generators))

    # -- dimension ----------------------------------------------------------

    def dimension(self):
        """Krull dimension of S/I, or UNIT_CODIM for the unit ideal.

        Computed combinatorially on the leading-term ideal: the maximum
        cardinality of a variable subset containing the support of no
        leading-term generator.
        """
        if self.is_unit():
            return UNIT_CODIM
        if self.is_zero():
            return self.ring.nvars
        gb = self.groebner()
        supports = [
            frozenset(i for i, e in enumerate(g.leading_monomial(gb.order)) if e)
            for g in gb
        ]
        n = self.ring.nvars
        for size in range(n, -1, -1):
            for subset in combinations(range(n), size):
                u = set(subset)
                if all(not s <= u for s in supports):
                    return size
        raise AssertionError("unreachable: empty set is always independent")

    def codimension(self):
        """Height of I, or UNIT_CODIM for the unit ideal."""
        dim = self.dimension()
        if dim == UNIT_CODIM:
            return UNIT_CODIM
        return self.ring.nvars - dim

    # -- linearity / minimal generators -------------------------------------

    def is_linear(self) -> bool:
        """True iff the reduced GB consists of forms of degree <= 1.

        The zero ideal counts as linear; the unit ideal does not.  When every
        generator is a form of degree 1 the answer is True with no basis:
        the reduced basis is then the generators' echelon form, and the
        ideal lies in the maximal homogeneous ideal, so it is proper.
        """
        if all(g.homogeneity() == (True, 1) for g in self.generators):
            return True
        if self.is_unit():
            return False
        return all(g.total_degree() <= 1 for g in self.groebner())

    def minimal_generators(self) -> list:
        """Deterministic graded minimalization of the generator list.

        Generators are processed by increasing degree (input order breaking
        ties); one is kept iff it is not in the ideal of those already kept.
        When all generators share one degree, that ideal meets the degree
        in the k-span of the kept forms, so the test is a span test.
        """
        return [self.generators[i] for i in self._minimal_positions()]

    def _minimal_positions(self) -> list:
        """The positions in the generator list of what minimal_generators
        keeps, in its order."""
        exps = self.monomial_exponents()
        if exps is not None and len(set(map(mono_degree, exps))) == 1:
            # a monomial is in the span of distinct monomials of its degree
            # iff it is one of them
            first: dict = {}
            for i, e in enumerate(exps):
                first.setdefault(e, i)
            return list(first.values())
        if not self.is_homogeneous():
            raise ValueError("minimal generators require a homogeneous ideal")
        gens = self.generators
        if len({g.total_degree() for g in gens}) == 1:
            span = _Echelon(self.ring.field, self.ring.default_order.key)
            return [i for i, g in enumerate(gens) if span.add(g.coeffs)]
        kept: list = []
        below = None  # the ideal of the kept generators, built after each keep
        for i in sorted(range(len(gens)), key=lambda i: (gens[i].total_degree(), i)):
            if kept:
                if below is None:
                    below = Ideal(self.ring, [gens[j] for j in kept])
                if below.contains(gens[i]):
                    continue
            kept.append(i)
            below = None
        return kept

    # -- rendering -----------------------------------------------------------

    def canonical_strings(self) -> list:
        """Sorted reduced-GB generator strings, the canonical rendering."""
        gb = self.groebner()
        return sorted(g.text(gb.order) for g in gb)
