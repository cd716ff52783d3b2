"""riopi: exact-arithmetic Riordan pseudo-involution toolkit.

Truncated rational power series, Riordan arrays (triangles, production
matrices, A/Z/B-sequences), the three-parameter Bell pseudo-involution
family, Hankel transforms, Somos-4 fitting, and the
elliptic-curve-to-involution pipeline.
"""

from .series import (
    Series,
    SeriesError,
    DivisionByHigherValuation,
    CompositionConstantTerm,
    NotRevertible,
    SqrtConstantTerm,
    NonConvergent,
    Quadratic,
    catalan,
    cf_eval,
    rational,
)
from .riordan import (
    RiordanArray,
    TriangularMatrix,
    ProductionMatrix,
    BSequence,
    OutOfOrder,
    NoBSequence,
    SelfCheckError,
    bell,
    is_pseudo_involution,
    b_extract,
    a_from_g,
)
from .family import (
    FamilyParams,
    binomial,
    g_family,
    g_ad,
    companion,
    equation,
    companion_equation,
    binomial_transform,
    narayana,
)
from .hankel import HankelTransform, InsufficientTerms, hankel_det, hankel_transform
from .somos import (
    SomosParams,
    SomosReport,
    ConjectureReport,
    Underdetermined,
    NoSomosFit,
    somos4_check,
    somos4_fit,
    conjecture_family,
    family_somos_params,
)
from .elliptic import (
    PipelineTrace,
    CurveBSequence,
    curve_branch,
    pipeline,
    f_from_curve,
    f_equation,
    b_from_curve,
    family_params_from_curve,
    curve_somos_check,
)

__version__ = "0.1.0"
