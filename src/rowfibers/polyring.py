"""Exact coefficient fields, monomial orders, and multivariate polynomials.

The ground ring is a graded polynomial ring S = k[x_0, ..., x_n] where k is
either a prime field F_p (p an odd machine-word prime) or the rationals.
Everything is exact; no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import le, neg, sub
from typing import Iterable, Optional, Sequence

__all__ = [
    "CoefficientField",
    "PolyRing",
    "MonomialOrder",
    "Polynomial",
    "RingMismatchError",
    "ParseError",
]


class RingMismatchError(ValueError):
    """Operands live in different rings (or have different variable counts)."""


class ParseError(ValueError):
    """Polynomial / problem text failed to parse; carries position info."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at column {pos + 1})"
        super().__init__(message)


def _is_prime(p: int) -> bool:
    # Deterministic Miller-Rabin, valid for all 64-bit integers.
    if p < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _rational(x):
    """The canonical form of a rational: an int when integral, else a Fraction."""
    return x.numerator if x.__class__ is Fraction and x.denominator == 1 else x


class CoefficientField:
    """A prime field F_p (p odd) or the rationals (characteristic 0).

    Elements are plain ints in [0, p) over F_p.  Over Q an element is an
    int when it is integral and a `Fraction` with denominator > 1 otherwise;
    every operation returns this canonical form.  The two compare and hash
    alike (``Fraction(2) == 2``), so a caller never needs to tell them apart.
    When ``with_i`` is requested over F_p with p = 1 (mod 4), an element i
    with i^2 = -1 is computed and exposed as ``sqrt_minus_one``.
    """

    def __init__(self, characteristic: int = 0, with_i: bool = False):
        if characteristic == 0:
            self.p = 0
            self.zero = 0
            self.one = 1
            self.sqrt_minus_one = None
            if with_i:
                raise ValueError("sqrt(-1) is only supported over prime fields")
            return
        p = characteristic
        if p == 2 or not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or an odd prime, got {p}")
        self.p = p
        self.zero = 0
        self.one = 1
        self.sqrt_minus_one = None
        if with_i:
            if p % 4 != 1:
                raise ValueError(f"-1 is not a square in F_{p} (need p = 1 mod 4)")
            self.sqrt_minus_one = self._find_i()
            assert self.mul(self.sqrt_minus_one, self.sqrt_minus_one) == p - 1

    def _find_i(self) -> int:
        p = self.p
        for a in range(2, p):
            i = pow(a, (p - 1) // 4, p)
            if i * i % p == p - 1:
                return i
        raise AssertionError("no square root of -1 found")  # unreachable for p=1 mod 4

    # -- arithmetic ---------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p if self.p else _rational(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _rational(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _rational(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p else _rational(-a)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        return pow(a, -1, self.p) if self.p else _rational(Fraction(1, a))

    def div(self, a, b):
        if self.p:
            return self.mul(a, self.inv(b))
        return _rational(Fraction(a, b))

    def from_int(self, n: int):
        return n % self.p if self.p else n

    def from_fraction(self, num: int, den: int):
        if self.p:
            return self.div(num % self.p, den % self.p)
        return _rational(Fraction(num, den))

    def is_zero(self, a) -> bool:
        return not a

    def coeff_str(self, a) -> str:
        """Canonical rendering; prime-field values use the symmetric lift."""
        if self.p:
            a = a % self.p
            if a > self.p // 2:
                a -= self.p
        return str(a)

    def __eq__(self, other):
        return isinstance(other, CoefficientField) and self.p == other.p

    def __hash__(self):
        return hash(("CoefficientField", self.p))

    def __repr__(self):
        if self.p == 0:
            return "QQ"
        return f"GF({self.p})" + (" with i" if self.sqrt_minus_one is not None else "")


# ---------------------------------------------------------------------------
# Monomials and orders.  A monomial is its exponent tuple.
# ---------------------------------------------------------------------------


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    return all(map(le, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b | a."""
    return tuple(map(sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


def mono_degree(a: tuple) -> int:
    return sum(a)


def _grevlex_key(exps: tuple) -> tuple:
    return (sum(exps),) + tuple(map(neg, reversed(exps)))


def _lex_key(exps: tuple) -> tuple:
    return exps


def _elim_key(block: int):
    # the head block's grevlex key always has block + 1 entries, so the flat
    # concatenation compares exactly like the pair (head key, tail key)
    def key(exps: tuple) -> tuple:
        return _grevlex_key(exps[:block]) + _grevlex_key(exps[block:])

    return key


class _Keys(dict):
    """Keys computed on first use and kept: a repeat lookup is one dict read."""

    def __init__(self, compute):
        self._compute = compute

    def __missing__(self, m):
        k = self[m] = self._compute(m)
        return k


class MonomialOrder:
    """A multiplicative well-order on monomials.

    Kinds: ``grevlex`` (graded reverse lexicographic), ``lex``, and
    ``elim(k)`` -- a block order eliminating the first k variables, with
    grevlex inside each block.

    ``key(exps)`` is the sort key: key(a) > key(b) iff a > b in this order.
    It is computed once per monomial per order and kept with the order,
    since every comparison in the Groebner engine goes through it.
    """

    GREVLEX = "grevlex"
    LEX = "lex"
    ELIM = "elim"

    def __init__(self, kind: str, block: int = 0):
        if kind not in (self.GREVLEX, self.LEX, self.ELIM):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == self.ELIM and block < 1:
            raise ValueError("elimination block size must be >= 1")
        self.kind = kind
        self.block = block
        if kind == self.GREVLEX:
            compute = _grevlex_key
        elif kind == self.LEX:
            compute = _lex_key
        else:
            compute = _elim_key(block)
        self.key = _Keys(compute).__getitem__

    @classmethod
    def grevlex(cls) -> "MonomialOrder":
        return cls(cls.GREVLEX)

    @classmethod
    def lex(cls) -> "MonomialOrder":
        return cls(cls.LEX)

    @classmethod
    def elimination(cls, block: int) -> "MonomialOrder":
        return cls(cls.ELIM, block)

    def compare(self, a: tuple, b: tuple) -> int:
        """-1 / 0 / +1 as a < b / a = b / a > b."""
        if len(a) != len(b):
            raise RingMismatchError("monomials have different variable counts")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block == other.block
        )

    def __hash__(self):
        return hash((self.kind, self.block))

    def __repr__(self):
        if self.kind == self.ELIM:
            return f"elim({self.block})"
        return self.kind


class PolyRing:
    """S = k[x_0, ..., x_n] with a default monomial order."""

    def __init__(
        self,
        field: CoefficientField,
        variables: Sequence[str],
        default_order: Optional[MonomialOrder] = None,
    ):
        variables = tuple(variables)
        if len(variables) < 2:
            raise ValueError("need at least 2 variables (projective source P^n, n >= 1)")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        for v in variables:
            if not v.isidentifier():
                raise ValueError(f"bad variable name {v!r}")
        if field.sqrt_minus_one is not None and "i" in variables:
            raise ValueError("variable name 'i' collides with sqrt(-1)")
        self.field = field
        self.variables = variables
        self.nvars = len(variables)
        # the tokenizer's name -> index lookup
        self._index = {v: j for j, v in enumerate(variables)}
        self.default_order = default_order or MonomialOrder.grevlex()

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, c) -> "Polynomial":
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, idx: int) -> "Polynomial":
        exps = [0] * self.nvars
        exps[idx] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def gens(self) -> list:
        return [self.gen(j) for j in range(self.nvars)]

    def monomial(self, exps: Iterable[int], coeff=None) -> "Polynomial":
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = self.field.one if coeff is None else coeff
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, {exps: c})

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"{self.field!r}[{', '.join(self.variables)}]"

    # -- parsing ------------------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        """Parse the shared polynomial grammar.

        Terms joined by + / -; a term is a product of factors with optional
        '*'; factors are integer (or num/den) coefficients, the symbol ``i``
        when the field carries one, and variables with optional ^ exponents.
        A run of identifier characters is one name, so ``xy`` is the
        variable xy or an unknown name, never x*y; ``i*x`` needs its '*'.
        """
        return _parse_polynomial(self, text)


class Polynomial:
    """Immutable exact multivariate polynomial.

    Stored as a map from exponent tuples to nonzero coefficients; term
    sequences sorted under a monomial order are produced on demand via
    :meth:`terms`, so one value can serve several active orders.
    """

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: PolyRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = None

    # -- basic queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self, order: Optional[MonomialOrder] = None):
        """Terms as (coefficient, exponent tuple) pairs, strictly decreasing."""
        order = order or self.ring.default_order
        return [
            (self.coeffs[m], m)
            for m in sorted(self.coeffs, key=order.key, reverse=True)
        ]

    def leading(self, order: Optional[MonomialOrder] = None):
        """(coefficient, exponent tuple) of the leading term."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading term")
        order = order or self.ring.default_order
        m = max(self.coeffs, key=order.key)
        return self.coeffs[m], m

    def leading_monomial(self, order=None) -> tuple:
        return self.leading(order)[1]

    def total_degree(self) -> Optional[int]:
        if not self.coeffs:
            return None
        return max(mono_degree(m) for m in self.coeffs)

    def homogeneity(self):
        """(is_homogeneous, degree); the zero polynomial is (True, None)."""
        if not self.coeffs:
            return True, None
        degs = {mono_degree(m) for m in self.coeffs}
        if len(degs) == 1:
            return True, degs.pop()
        return False, None

    def is_homogeneous(self) -> bool:
        return self.homogeneity()[0]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ring.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = F.add(out.get(m, F.zero), c)
            if F.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        F = self.ring.field
        return Polynomial(self.ring, {m: F.neg(c) for m, c in self.coeffs.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        F = self.ring.field
        p = F.p
        out: dict = {}
        if p:
            for ma, ca in self.coeffs.items():
                for mb, cb in other.coeffs.items():
                    m = mono_mul(ma, mb)
                    out[m] = (out.get(m, 0) + ca * cb) % p
        else:
            for ma, ca in self.coeffs.items():
                for mb, cb in other.coeffs.items():
                    m = mono_mul(ma, mb)
                    out[m] = out.get(m, 0) + ca * cb
            out = {m: _rational(c) for m, c in out.items()}
        return Polynomial(self.ring, {m: c for m, c in out.items() if c})

    def scale(self, c) -> "Polynomial":
        F = self.ring.field
        if F.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring, {m: F.mul(c, v) for m, v in self.coeffs.items()})

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative exponent")
        result = self.ring.one()
        for _ in range(e):
            result = result * self
        return result

    def mul_term(self, coeff, exps: tuple) -> "Polynomial":
        """Multiply by a single term coeff * x^exps."""
        F = self.ring.field
        if F.is_zero(coeff):
            return self.ring.zero()
        return Polynomial(
            self.ring,
            {mono_mul(m, exps): F.mul(coeff, c) for m, c in self.coeffs.items()},
        )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence):
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        F = self.ring.field
        total = F.zero
        for m, c in self.coeffs.items():
            v = c
            for x, e in zip(point, m):
                if e:
                    if F.p:
                        v = v * pow(x, e, F.p) % F.p
                    else:
                        v = v * x**e
            total = F.add(total, v)
        return total

    # -- equality / rendering ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.coeffs.items())))
        return self._hash

    def __str__(self):
        return self.text()

    def text(self, order: Optional[MonomialOrder] = None) -> str:
        if not self.coeffs:
            return "0"
        F = self.ring.field
        parts = []
        for coeff, mono in self.terms(order):
            cs = F.coeff_str(coeff)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.ring.variables, mono)
                if e
            ]
            if not factors:
                body = cs
            elif cs == "1":
                body = "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            if not parts:
                parts.append(("-" if neg else "") + body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return f"<{self.text()}>"


# ---------------------------------------------------------------------------
# Polynomial text grammar
# ---------------------------------------------------------------------------


def _tokenize(ring: PolyRing, text: str):
    """(kind, value, column) tokens, then an ("end", None, len(text)) token.

    An identifier run is read whole: it is a declared variable (value: its
    index), ``i`` where the field has it, or an unknown name.
    """
    has_i = ring.field.sqrt_minus_one is not None
    pos = 0
    tokens = []
    while pos < len(text):
        ch = text[pos]
        end = pos + 1
        if ch in "+-*^/":
            tokens.append((ch, ch, pos))
        elif "0" <= ch <= "9":
            while end < len(text) and "0" <= text[end] <= "9":
                end += 1
            tokens.append(("int", int(text[pos:end]), pos))
        elif ch.isidentifier():
            # one character at a time, so that a long run costs linear time
            while end < len(text) and ("_" + text[end]).isidentifier():
                end += 1
            name = text[pos:end]
            if name in ring._index:
                tokens.append(("var", ring._index[name], pos))
            elif has_i and name == "i":
                tokens.append(("i", name, pos))
            else:
                raise ParseError(f"unknown name {name!r}", pos)
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", pos)
        pos = end
    tokens.append(("end", None, len(text)))
    return tokens


def _parse_polynomial(ring: PolyRing, text: str) -> Polynomial:
    tokens = _tokenize(ring, text)
    if len(tokens) == 1:
        raise ParseError("empty polynomial")
    F = ring.field
    coeffs: dict = {}
    k = 0
    # one term a pass: signs, then factors joined by '*' or by nothing
    while tokens[k][0] != "end":
        coeff = F.one
        while tokens[k][0] in "+-":
            if tokens[k][0] == "-":
                coeff = F.neg(coeff)
            k += 1
        exps = [0] * ring.nvars
        while True:
            kind, val, pos = tokens[k]
            k += 1
            if kind == "int":
                if tokens[k][0] == "/":
                    if F.p:
                        raise ParseError("fractions are only allowed over the rationals", tokens[k][2])
                    if tokens[k + 1][0] != "int" or tokens[k + 1][1] == 0:
                        raise ParseError("expected nonzero denominator", pos)
                    coeff = F.mul(coeff, F.from_fraction(val, tokens[k + 1][1]))
                    k += 2
                else:
                    coeff = F.mul(coeff, F.from_int(val))
            elif kind == "i":
                coeff = F.mul(coeff, F.sqrt_minus_one)
            elif kind == "var":
                if tokens[k][0] == "^":
                    if tokens[k + 1][0] != "int":
                        raise ParseError("expected integer exponent", pos)
                    exps[val] += tokens[k + 1][1]
                    k += 2
                else:
                    exps[val] += 1
            else:
                raise ParseError(f"unexpected {repr(val) if val else 'end of text'}", pos)
            if tokens[k][0] == "*":
                k += 1
            elif tokens[k][0] not in ("int", "i", "var"):
                break
        m = tuple(exps)
        total = F.add(coeffs.get(m, F.zero), coeff)
        if F.is_zero(total):
            coeffs.pop(m, None)
        else:
            coeffs[m] = total
    return Polynomial(ring, coeffs)


# ---------------------------------------------------------------------------
# Canonical normalization helpers (used by the Groebner engine)
# ---------------------------------------------------------------------------


def normalize(f: Polynomial, order: Optional[MonomialOrder] = None) -> Polynomial:
    """Canonical scalar normalization.

    Over a prime field: monic.  Over the rationals: integer coefficients,
    content 1, positive leading coefficient under the order; an input that
    is already normal is returned as it is.
    """
    if f.is_zero():
        return f
    F = f.ring.field
    lc, _ = f.leading(order)
    if F.p:
        return f.scale(F.inv(lc))
    # the content of lowest-terms n_i/d_i is gcd(n_i) / lcm(d_i)
    coeffs = f.coeffs.values()
    scalar = Fraction(
        lcm(*(c.denominator for c in coeffs)), gcd(*(c.numerator for c in coeffs))
    )
    if lc < 0:
        scalar = -scalar
    if scalar == 1:
        return f
    return f.scale(_rational(scalar))
