"""Ideal-level algebra: sums, products, powers, intersections, colons,
saturations, equality, codimension, linearity, and minimal generators."""

from __future__ import annotations

from functools import reduce
from itertools import combinations
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
    PolyRing,
    Polynomial,
    RingMismatchError,
    mono_degree,
    mono_divides,
    mono_lcm,
)

__all__ = ["Ideal", "UNIT_CODIM"]


def _minimal_monomials(exps):
    """Minimal elements of a monomial set under divisibility (deduplicated)."""
    uniq = sorted(set(exps), key=lambda m: (mono_degree(m), m))
    out = []
    for m in uniq:
        if not any(mono_divides(k, m) for k in out):
            out.append(m)
    return out


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


# Sentinel codimension of the unit ideal; deliberately distinct from any
# integer so "empty fiber" is never confused with an m-primary fiber.
UNIT_CODIM = "unit"


class Ideal:
    """An ideal in a graded polynomial ring, with its reduced GB in the
    ring's default order cached.

    Values are immutable apart from the GB cache; cache installation is
    idempotent (compute-then-install), so sharing across tasks is safe.
    """

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        for g in generators:
            if g.ring != ring:
                raise RingMismatchError("generator lives in a different ring")
        self.ring = ring
        self.generators = tuple(g for g in generators if not g.is_zero())
        self._gb: Optional[GroebnerBasis] = None
        self._mono_exps = False  # False = not yet computed; None = not monomial

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
        return normal_form(f, gb.elements, gb.order, leads=gb.leads).is_zero()

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
        self._check(other)
        return Ideal(
            self.ring,
            [f * g for f in self.generators for g in other.generators],
        )

    def power(self, d: int) -> "Ideal":
        if d < 1:
            raise ValueError("power exponent must be >= 1")
        result = self
        for _ in range(d - 1):
            result = result * self
        return result

    # -- intersection / colon / saturation ---------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        """I intersect J, by eliminating t from t*I + (1-t)*J.

        Monomial ideals take the combinatorial route: the intersection is
        generated by the pairwise lcms of the generators.
        """
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Ideal(self.ring, [])
        a, b = self.monomial_exponents(), other.monomial_exponents()
        if a is not None and b is not None:
            return self._monomial_ideal([mono_lcm(x, y) for x in a for y in b])
        big, lift = _adjoin(self.ring, 1, front=True)
        t = big.gen(0)
        gens = [t * lift(f) for f in self.generators]
        gens += [(big.one() - t) * lift(g) for g in other.generators]
        return Ideal(big, gens).eliminate(1)

    def _monomial_ideal(self, exps) -> "Ideal":
        """The ideal of this ring generated by the monomials with these exponents."""
        one = self.ring.field.one
        return Ideal(self.ring, [self.ring.monomial(m, one) for m in _minimal_monomials(exps)])

    def colon_poly(self, f: Polynomial) -> "Ideal":
        """I : (f) via (I intersect (f)) divided through by f.

        For a monomial ideal and a monomial f this is {g / gcd(g, f)}.
        """
        if f.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        if self.is_zero():
            return self
        exps = self.monomial_exponents()
        if exps is not None and len(f.coeffs) == 1:
            (fm,) = f.coeffs
            return self._monomial_ideal(
                [tuple(max(g - m, 0) for g, m in zip(e, fm)) for e in exps]
            )
        meet = self.intersect(Ideal(self.ring, [f]))
        return Ideal(self.ring, [exact_divide(g, f) for g in meet.generators])

    def _saturate_poly(self, f: Polynomial) -> "Ideal":
        """I : f^infty = (I, 1 - t*f) intersect k[x], one elimination; for a
        monomial ideal and a monomial f, I with f's variables set to 1."""
        exps = self.monomial_exponents()
        if exps is not None and len(f.coeffs) == 1:
            (fm,) = f.coeffs
            return self._monomial_ideal(
                [tuple(0 if m else g for g, m in zip(e, fm)) for e in exps]
            )
        big, lift = _adjoin(self.ring, 1, front=True)
        gens = [lift(g) for g in self.generators]
        gens.append(big.one() - big.gen(0) * lift(f))
        return Ideal(big, gens).eliminate(1)

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
        """The intersection of by_poly(f) over the generators f of other."""
        self._check(other)
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        if self.is_zero():
            return self
        return reduce(Ideal.intersect, map(by_poly, other.generators))

    # -- elimination --------------------------------------------------------

    def eliminate(self, drop_count: int) -> "Ideal":
        """I intersect k[trailing variables], expressed in the smaller ring."""
        if not 1 <= drop_count <= self.ring.nvars:
            raise ValueError("drop count out of range")
        if drop_count == self.ring.nvars:
            raise ValueError("cannot eliminate every variable")
        if self.is_zero():
            small = PolyRing(
                self.ring.field,
                self.ring.variables[drop_count:],
                self.ring.default_order,
            )
            return Ideal(small, [])
        small, out = eliminate_first(list(self.generators), drop_count)
        return Ideal(small, out)

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

        The zero ideal counts as linear; the unit ideal does not.
        """
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
        if not self.is_homogeneous():
            raise ValueError("minimal generators require a homogeneous ideal")
        exps = self.monomial_exponents()
        if exps is not None:
            # the first generator with each exponent, as written
            first = {}
            for e, g in zip(exps, self.generators):
                first.setdefault(e, g)
            keep = []
            for e in sorted(first, key=mono_degree):
                if not any(mono_divides(k, e) for k in keep):
                    keep.append(e)
            return [first[e] for e in keep]
        if len({g.total_degree() for g in self.generators}) == 1:
            span = _Echelon(self.ring.field, self.ring.default_order.key)
            return [g for g in self.generators if span.add(g.coeffs)]
        indexed = sorted(
            enumerate(self.generators), key=lambda t: (t[1].total_degree(), t[0])
        )
        kept: list = []
        for _, g in indexed:
            if kept and Ideal(self.ring, kept).contains(g):
                continue
            if not kept and g.is_zero():
                continue
            kept.append(g)
        return kept

    # -- rendering -----------------------------------------------------------

    def canonical_strings(self) -> list:
        """Sorted reduced-GB generator strings, the canonical rendering."""
        gb = self.groebner()
        return sorted(g.text(gb.order) for g in gb)
