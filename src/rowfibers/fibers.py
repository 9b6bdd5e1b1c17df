"""Fibers of rational maps: the four-ideal chain at a point, analytic
spread, birationality certificates, and the power / row-ideal machinery.

A rational map P^n -> P^r is given by an equigenerated ideal I whose chosen
minimal generators span the defining space of forms.  For a target point q
the four ideals

    subspace ideal  <=  row ideal  <=  correspondence fiber  <=  morphism fiber

are computed exactly; "general point" arguments are realized by seeded
random sampling over a large prime field, with bounded retries and loud
failures (never silent resampling past the bound).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import neg
from typing import Optional, Sequence

from .groebner import _Echelon, syzygy_generators
from .ideals import UNIT_CODIM, Ideal, _adjoin
from .syzygy import (
    PresentationMatrix,
    _check_syzygies,
    minimal_presentation,
    minimize_columns,
    rank_modulo_linear_ideal,
)

__all__ = [
    "MapContext",
    "ProjectivePoint",
    "FiberReport",
    "HksResult",
    "PointPresentation",
    "BasePointError",
    "SamplingError",
    "ConsistencyError",
]

RETRY_BOUND = 100
DEFAULT_MAX_POWER = 6


class BasePointError(ValueError):
    """The map is undefined at the requested point (it lies in V(I))."""


class SamplingError(RuntimeError):
    """Random sampling exhausted its retry bound."""


class ConsistencyError(RuntimeError):
    """Two routes that must agree disagreed (e.g. sampling vs elimination)."""


class ProjectivePoint:
    """A point of projective space; equality is up to a nonzero scalar."""

    def __init__(self, field, coords: Sequence):
        coords = tuple(field.from_int(c) if isinstance(c, int) else c for c in coords)
        if all(field.is_zero(c) for c in coords):
            raise ValueError("projective point must have a nonzero coordinate")
        self.field = field
        self.coords = coords

    def normalized(self) -> tuple:
        """Affine representative: scaled so the first nonzero coordinate is 1."""
        for c in self.coords:
            if not self.field.is_zero(c):
                inv = self.field.inv(c)
                return tuple(self.field.mul(inv, x) for x in self.coords)
        raise AssertionError("unreachable: zero point")

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.normalized() == other.normalized()
        )

    def __hash__(self):
        return hash((self.field, self.normalized()))

    def __repr__(self):
        return "(" + ":".join(self.field.coeff_str(c) for c in self.coords) + ")"

    @classmethod
    def standard(cls, field, dim_plus_one: int, index: int) -> "ProjectivePoint":
        coords = [field.zero] * dim_plus_one
        coords[index] = field.one
        return cls(field, coords)


class MapContext:
    """Validated rational-map datum for phi: P^n -> P^r.

    Holds the minimal homogeneous generator basis g_0..g_r of the space of
    forms, their common degree, and a seed from which all randomness in
    derived computations flows deterministically.
    """

    def __init__(self, I: Ideal, seed: int = 0):
        if I.is_zero():
            raise ValueError("the zero ideal defines no rational map")
        if not I.is_homogeneous():
            raise ValueError("the ideal must be homogeneous")
        gens = I.minimal_generators()
        degrees = {g.total_degree() for g in gens}
        if len(degrees) != 1:
            raise ValueError(f"generators must share one degree, found {sorted(degrees)}")
        codim = I.codimension()
        if codim == UNIT_CODIM or codim < 2:
            raise ValueError(
                f"ideal must have codimension >= 2 (got {codim}); "
                "remove common divisors of the forms first"
            )
        self.ring = I.ring
        self.generators = tuple(gens)
        self.ideal = Ideal(self.ring, gens)
        self.degree = degrees.pop()
        self.n = self.ring.nvars - 1
        self.r = len(gens) - 1
        self.seed = seed

    def rng(self, label: str) -> random.Random:
        """Deterministic per-operation RNG split from the context seed."""
        return random.Random(f"{self.seed}/{label}")

    def __repr__(self):
        return (
            f"MapContext(P^{self.n} -> P^{self.r}, degree {self.degree}, "
            f"seed {self.seed})"
        )

    # -- point plumbing -----------------------------------------------------

    def random_point(self, rng: random.Random) -> ProjectivePoint:
        F = self.ring.field
        for _ in range(RETRY_BOUND):
            if F.p:
                coords = [rng.randrange(F.p) for _ in range(self.n + 1)]
            else:
                coords = [rng.randint(-99, 99) for _ in range(self.n + 1)]
            if any(coords):
                return ProjectivePoint(F, [F.from_int(c) for c in coords])
        raise SamplingError("could not sample a nonzero point")

    def random_source_point(self, rng: random.Random) -> ProjectivePoint:
        """A random point of P^n avoiding the base locus V(I)."""
        F = self.ring.field
        for _ in range(RETRY_BOUND):
            p = self.random_point(rng)
            vals = [g.evaluate(p.coords) for g in self.generators]
            if any(not F.is_zero(v) for v in vals):
                return p
        raise SamplingError(
            f"no point off V(I) found in {RETRY_BOUND} draws; field too small or I too fat"
        )

    def evaluate_map(self, p: ProjectivePoint) -> ProjectivePoint:
        """phi(p) = (g_0(p) : ... : g_r(p)); errors on base points."""
        F = self.ring.field
        if len(p.coords) != self.n + 1:
            raise ValueError("point lives in the wrong projective space")
        vals = [g.evaluate(p.coords) for g in self.generators]
        if all(F.is_zero(v) for v in vals):
            raise BasePointError(f"{p!r} lies in the base locus V(I)")
        return ProjectivePoint(F, vals)

    # -- the four ideals ----------------------------------------------------

    def subspace_ideal(self, q: ProjectivePoint) -> Ideal:
        """I_q, generated by the codimension-1 subspace of forms killed by q."""
        return self._subspace_and_pivot(q)[0]

    def _subspace_and_pivot(self, q: ProjectivePoint):
        """(I_q, g_j) for the pivot j of q, its first nonzero coordinate.

        Deterministic kernel basis of I_q: the combinations q_j*g_i - q_i*g_j
        for i != j.  Together with g_j they span g_0..g_r, so I = I_q + (g_j)
        and I^d = I_q*I^(d-1) + (g_j^d): a colon by I^d of an ideal that
        contains I_q*I^(d-1) is its colon by the one form g_j^d.
        """
        F = self.ring.field
        if len(q.coords) != self.r + 1:
            raise ValueError("target point has the wrong coordinate count")
        qc = q.coords
        j = next(k for k, c in enumerate(qc) if not F.is_zero(c))
        gens = []
        for i in range(self.r + 1):
            if i == j:
                continue
            gens.append(self.generators[i].scale(qc[j]) - self.generators[j].scale(qc[i]))
        return Ideal(self.ring, gens), self.generators[j]

    def row_ideal(self, q: ProjectivePoint) -> Ideal:
        """I_q : I = I_q : g_j, the generalized row ideal at q."""
        I_q, g_j = self._subspace_and_pivot(q)
        return I_q.colon_poly(g_j)

    def morphism_fiber_ideal(self, q: ProjectivePoint) -> Ideal:
        """I_q : I^infty = I_q : g_j^infty, the saturated ideal of the fiber
        closure over q."""
        I_q, g_j = self._subspace_and_pivot(q)
        return I_q.saturate(Ideal(self.ring, [g_j]))

    def correspondence_fiber_ideal(
        self,
        q: ProjectivePoint,
        max_power: int = DEFAULT_MAX_POWER,
        *,
        row: Optional[Ideal] = None,
    ):
        """The union of I_q*I^(i-1) : I^i, with a 2-step confirmation window.

        Returns (ideal, stabilized_at, confirmed).  The chain is checked to
        be increasing; a single repeat is not trusted, so stabilization is
        declared only after J_i = J_(i+1) = J_(i+2), and hitting max_power
        without that window yields confirmed=False.

        J_1 is the row ideal I_q : I = I_q : g_j; ``row``, when given, must
        be that ideal, and is not computed again.
        """
        if max_power < 2:
            raise ValueError("max_power must be >= 2")
        I = self.ideal
        I_q, g_j = self._subspace_and_pivot(q)
        J_i = I_q.colon_poly(g_j) if row is None else row
        numerator = Ideal(self.ring, I_q.minimal_generators())
        chain = []
        power = I
        for i in range(1, max_power + 1):
            if i > 1:
                numerator = Ideal(self.ring, (numerator * I).minimal_generators())
                power = Ideal(self.ring, (power * I).minimal_generators())
                J_i = numerator.colon(power)
            if chain and not J_i.contains_ideal(chain[-1]):
                raise ConsistencyError(
                    f"correspondence chain failed to increase at step {i}"
                )
            chain.append(J_i)
            if J_i.is_unit():
                # the chain is increasing and capped by the unit ideal, so
                # this is exact stabilization, no confirmation window needed
                return J_i, i, True
            if len(chain) >= 3 and chain[-1].equals(chain[-2]) and chain[-2].equals(chain[-3]):
                return chain[-1], i - 2, True
        return chain[-1], max_power, False

    # -- analytic spread ----------------------------------------------------

    def special_fiber_dimension(self) -> int:
        """Analytic spread via elimination: dim k[T]/ker(T_i -> g_i).

        This is the Krull dimension of the coordinate ring of the image cone
        (the special fiber ring); serves as the elimination oracle that the
        sampling route is checked against.
        """
        n1 = self.ring.nvars
        big, lift = _adjoin(self.ring, self.r + 1, front=False)
        ker_gens = [big.gen(n1 + i) - lift(g) for i, g in enumerate(self.generators)]
        kernel = Ideal(big, ker_gens).eliminate(n1)
        if kernel.is_zero():
            return self.r + 1
        dim = kernel.dimension()
        assert dim != UNIT_CODIM
        return dim

    def _sampled_fibers(self, label: str, trials: int):
        """Yield (p, I_phi(p) : I^infty) for ``trials`` random source points
        p, drawn lazily from the RNG split under ``label``."""
        if trials < 1:
            raise ValueError("need at least one trial")
        rng = self.rng(label)
        for _ in range(trials):
            p = self.random_source_point(rng)
            yield p, self.morphism_fiber_ideal(self.evaluate_map(p))

    def analytic_spread(self, trials: int = 3):
        """Analytic spread by general-point sampling: 1 + codim(I_phi(p) : I^inf).

        Returns (value, per-trial codimensions); the maximum over trials is
        cross-checked against the elimination oracle, and any disagreement
        raises instead of being averaged away.
        """
        codims = []
        for _, K in self._sampled_fibers("analytic_spread", trials):
            c = K.codimension()
            if c == UNIT_CODIM:
                raise ConsistencyError(
                    "sampled fiber ideal is the unit ideal; the fiber through "
                    "a source point cannot be empty"
                )
            codims.append(c)
        value = 1 + max(codims)
        oracle = self.special_fiber_dimension()
        if value != oracle:
            raise ConsistencyError(
                f"analytic spread mismatch: sampling gives {value}, "
                f"elimination oracle gives {oracle}"
            )
        return value, codims

    def spread_lower_bound(self, q: ProjectivePoint) -> Optional[int]:
        """1 + codim(I_q : I^infty) when that ideal is proper, else None."""
        fiber = self.morphism_fiber_ideal(q)
        if fiber.is_unit():
            return None
        return 1 + fiber.codimension()

    # -- HKS bound ----------------------------------------------------------

    def hks_lower_bound(self, A: PresentationMatrix, q: ProjectivePoint) -> "HksResult":
        """Lower bound on the analytic spread from a (partial) syzygy matrix.

        Requires every column of A to be a syzygy on this context's
        generators.  Applicable only when the generalized-row ideal A_q is
        linear and proper (hence prime): if the rank of A modulo A_q is r,
        the bound 1 + codim(A_q) holds.
        """
        if len(A.generators) != self.r + 1:
            raise ValueError("matrix row count does not match the generator count")
        _check_syzygies(self.generators, A.columns)
        A_q = A.generalized_row_ideal(q.coords)
        if A_q.is_zero():
            return HksResult(False, None, None, "generalized row is zero")
        if A_q.is_unit():
            return HksResult(False, None, None, "generalized-row ideal is the unit ideal")
        if not A_q.is_linear():
            return HksResult(
                False, None, None,
                "generalized-row ideal is not linear; primality unsupported",
            )
        rank = rank_modulo_linear_ideal(A, A_q)
        if rank != self.r:
            return HksResult(False, None, rank, f"rank {rank} != r = {self.r}")
        return HksResult(True, 1 + A_q.codimension(), rank, "ok")

    # -- birationality ------------------------------------------------------

    def birationality_certificate(self, q: ProjectivePoint) -> bool:
        """True if the row ideal at q is linear of codimension n and does not
        contain I -- a sufficient certificate for birationality onto the image."""
        K = self.row_ideal(q)
        return self._is_one_point(K) and not K.contains_ideal(self.ideal)

    def _is_one_point(self, K: Ideal) -> bool:
        """K is linear of codimension n: the ideal of one point of P^n."""
        return K.is_linear() and K.codimension() == self.n

    def birationality_test(self, trials: int = 3):
        """General-point birationality: the map is birational onto its image
        iff the general morphism fiber ideal is linear of codimension n.

        All trials must agree; disagreement raises a ConsistencyError
        (enlarge trials / inspect the map) rather than being voted away.
        """
        witnesses = list(self._sampled_fibers("birationality", trials))
        verdicts = [self._is_one_point(K) for _, K in witnesses]
        if len(set(verdicts)) != 1:
            raise ConsistencyError(
                "birationality trials disagree; sampled points are not in "
                "general position, enlarge trials"
            )
        p, K = witnesses[0]
        certificate = {
            "point": p,
            "fiber_ideal": K,
            "linear": K.is_linear(),
            "codimension": K.codimension(),
            "trials": trials,
        }
        return verdicts[0], certificate

    # -- powers -------------------------------------------------------------

    def power_context(self, d: int) -> "MapContext":
        """Context of the map defined by the d-th power of the form space."""
        if d < 1:
            raise ValueError("power must be >= 1")
        if d == 1:
            return self
        return MapContext(self.ideal.power(d), seed=self.seed)

    def power_row_ideal(self, d: int, p: ProjectivePoint) -> Ideal:
        """Row ideal of the power map at phi_d(p): I_phi(p)*I^(d-1) : I^d,
        which is I_phi(p)*I^(d-1) : g_j^d for the pivot j of phi(p)."""
        if d < 1:
            raise ValueError("power must be >= 1")
        I_q, g_j = self._subspace_and_pivot(self.evaluate_map(p))
        if d == 1:
            return I_q.colon_poly(g_j)
        numerator = Ideal(
            self.ring, (I_q * self.ideal.power(d - 1)).minimal_generators()
        )
        return numerator.colon_poly(g_j**d)

    def point_presentation(
        self, d: int = 1, points: Optional[Sequence[ProjectivePoint]] = None
    ) -> "PointPresentation":
        """A presentation of I^d whose rows correspond to fibers through points.

        Samples (or accepts) N+1 points off V(I) whose evaluation matrix E on
        the power basis is invertible, rebases the generators so that
        h_i(p_k) = delta_ik, and transforms a minimal syzygy matrix into that
        basis; row i then has row ideal equal to power_row_ideal at p_i.
        """
        ctx_d = self.power_context(d)
        basis = list(ctx_d.generators)
        N1 = len(basis)
        F = self.ring.field
        rng = self.rng(f"point_presentation/{d}")
        span = _Echelon(F, neg)
        if points is None:
            points = []
            rows = []
            draws = 0
            while len(points) < N1:
                draws += 1
                if draws > RETRY_BOUND * N1:
                    raise SamplingError(
                        "could not complete an invertible evaluation matrix; "
                        "field too small"
                    )
                p = self.random_source_point(rng)
                aff = p.normalized()
                row = [f.evaluate(aff) for f in basis]
                if span.add(_sparse_row(F, row)):
                    points.append(p)
                    rows.append(row)
            E = rows
        else:
            points = list(points)
            if len(points) != N1:
                raise ValueError(f"need exactly {N1} points, got {len(points)}")
            E = [[f.evaluate(p.normalized()) for f in basis] for p in points]
            if not all(span.add(_sparse_row(F, r)) for r in E):
                raise ValueError("evaluation matrix of the supplied points is singular")
        # h = (E^T)^{-1} f  gives  h_i(p_k) = delta_ik
        ET_inv = _field_inverse(F, [[E[k][i] for k in range(N1)] for i in range(N1)])
        new_gens = []
        for i in range(N1):
            acc = self.ring.zero()
            for j in range(N1):
                if not F.is_zero(ET_inv[i][j]):
                    acc = acc + basis[j].scale(ET_inv[i][j])
            new_gens.append(acc)
        columns = minimize_columns(basis, syzygy_generators(basis))
        new_columns = []
        for col in columns:
            new_col = []
            for i in range(N1):
                acc = self.ring.zero()
                for j in range(N1):
                    if not F.is_zero(E[i][j]):
                        acc = acc + col[j].scale(E[i][j])
                new_col.append(acc)
            new_columns.append(tuple(new_col))
        matrix = PresentationMatrix(new_gens, new_columns)
        return PointPresentation(matrix, tuple(points), d)

    # -- linear generalized rows --------------------------------------------

    def linear_generalized_rows_check(self, samples: int = 20):
        """Monte-Carlo search for a non-linear generalized row ideal.

        Tests all standard basis points, random target points, and images of
        random source points.  A failure is an exact counterexample; a pass
        is probabilistic only.
        """
        if samples < 1:
            raise ValueError("need at least one sample")
        A = minimal_presentation(self.ideal)[1]
        F = self.ring.field
        rng = self.rng("linear_rows")
        candidates = [
            ProjectivePoint.standard(F, A.row_count, i) for i in range(A.row_count)
        ]
        for _ in range(samples):
            coords = [F.from_int(rng.randrange(F.p)) if F.p else F.from_int(rng.randint(-99, 99)) for _ in range(A.row_count)]
            if any(not F.is_zero(c) for c in coords):
                candidates.append(ProjectivePoint(F, coords))
        for _ in range(samples):
            p = self.random_source_point(rng)
            candidates.append(self.evaluate_map(p))
        for q in candidates:
            if not A.generalized_row_ideal(q.coords).is_linear():
                return "fail", q
        return "pass", None

    # -- full fiber report ---------------------------------------------------

    def fiber_report(
        self, q: ProjectivePoint, max_power: int = DEFAULT_MAX_POWER
    ) -> "FiberReport":
        """The four fiber ideals at q and whether they increase: with j the
        pivot of q, the row I_q : g_j, the chain started from it, and the
        morphism fiber (I_q : g_j) : g_j^infty = I_q : I^infty."""
        I_q, g_j = self._subspace_and_pivot(q)
        row = I_q.colon_poly(g_j)
        corr, stabilized_at, confirmed = self.correspondence_fiber_ideal(
            q, max_power, row=row
        )
        morph = row.saturate(Ideal(self.ring, [g_j]))
        chain_ok = (
            row.contains_ideal(I_q)
            and corr.contains_ideal(row)
            and morph.contains_ideal(corr)
        )
        return FiberReport(
            point=q,
            subspace=I_q,
            row=row,
            correspondence=corr,
            stabilized_at=stabilized_at,
            confirmed=confirmed,
            morphism=morph,
            chain_verified=chain_ok,
        )


@dataclass(frozen=True)
class HksResult:
    applicable: bool
    bound: Optional[int]
    rank: Optional[int]
    reason: str


@dataclass(frozen=True)
class PointPresentation:
    matrix: PresentationMatrix
    points: tuple
    power: int

    def row_ideal(self, i: int) -> Ideal:
        ring = self.matrix.ring
        return Ideal(ring, [e for e in self.matrix.row(i) if not e.is_zero()])


@dataclass(frozen=True)
class FiberReport:
    point: ProjectivePoint
    subspace: Ideal
    row: Ideal
    correspondence: Ideal
    stabilized_at: int
    confirmed: bool
    morphism: Ideal
    chain_verified: bool

    def codimensions(self) -> dict:
        return {
            "row": self.row.codimension(),
            "correspondence": self.correspondence.codimension(),
            "morphism": self.morphism.codimension(),
        }

    def linearity(self) -> dict:
        return {
            "row": self.row.is_linear(),
            "correspondence": self.correspondence.is_linear(),
            "morphism": self.morphism.is_linear(),
        }


# ---------------------------------------------------------------------------
# Small exact linear algebra over the coefficient field
# ---------------------------------------------------------------------------


def _sparse_row(F, values) -> dict:
    return {j: x for j, x in enumerate(values) if not F.is_zero(x)}


def _field_inverse(F, M):
    """M^-1 for an invertible square matrix M, read off the reduced form of [M | I]."""
    n = len(M)
    # neg makes the leftmost nonzero column the pivot, so M's columns come first
    ech = _Echelon(F, neg)
    for i, row in enumerate(M):
        ech.add({**_sparse_row(F, row), n + i: F.one})
    if any(c not in ech.rows for c in range(n)):
        raise ValueError("matrix is singular")
    return [[ech.rows[c].get(n + j, F.zero) for j in range(n)] for c in range(n)]
