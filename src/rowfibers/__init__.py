"""rowfibers: fibers of rational maps between projective spaces, exactly.

The package computes, over an exact coefficient field (a prime field or the
rationals), the ideals that describe the fiber of a rational map given by a
homogeneous ideal: the subspace ideal of a target point, the row ideal of a
presentation matrix at the point, the correspondence fiber, and the morphism
fiber.  On top of these it provides analytic spread, birationality testing
with certificates, syzygy-matrix rank bounds, and the power / row-ideal
machinery relating presentations of powers of an ideal to evaluation at
points.
"""

from .fibers import (
    DEFAULT_MAX_POWER,
    RETRY_BOUND,
    BasePointError,
    ConsistencyError,
    FiberReport,
    HksResult,
    MapContext,
    PointPresentation,
    ProjectivePoint,
    SamplingError,
)
from .groebner import (
    GroebnerBasis,
    eliminate_first,
    exact_divide,
    normal_form,
    reduced_groebner_basis,
    syzygy_generators,
)
from .ideals import UNIT_CODIM, Ideal
from .polyring import (
    CoefficientField,
    MonomialOrder,
    ParseError,
    PolyRing,
    Polynomial,
    RingMismatchError,
)
from .syzygy import (
    PresentationMatrix,
    matrix_from_rows,
    minimal_presentation,
    parse_matrix_rows,
    rank_modulo_linear_ideal,
)

__version__ = "0.1.0"

__all__ = [
    "BasePointError",
    "CoefficientField",
    "ConsistencyError",
    "DEFAULT_MAX_POWER",
    "FiberReport",
    "GroebnerBasis",
    "HksResult",
    "Ideal",
    "MapContext",
    "MonomialOrder",
    "ParseError",
    "PointPresentation",
    "PolyRing",
    "Polynomial",
    "PresentationMatrix",
    "ProjectivePoint",
    "RETRY_BOUND",
    "RingMismatchError",
    "SamplingError",
    "UNIT_CODIM",
    "eliminate_first",
    "exact_divide",
    "matrix_from_rows",
    "minimal_presentation",
    "normal_form",
    "parse_matrix_rows",
    "rank_modulo_linear_ideal",
    "reduced_groebner_basis",
    "syzygy_generators",
]
