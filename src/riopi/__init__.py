"""riopi: exact-arithmetic Riordan pseudo-involution toolkit.

Truncated rational power series, Riordan-group operations, the
three-parameter Bell pseudo-involution family, Hankel transforms,
Somos-4 fitting, and the elliptic-curve-to-involution pipeline.
"""

from .series import (
    Series,
    SeriesError,
    DivisionByHigherValuation,
    CompositionConstantTerm,
    NotRevertible,
    SqrtConstantTerm,
    NonConvergent,
    catalan,
    cf_eval,
    rational,
)
from .riordan import (
    RiordanArray,
    TriangularMatrix,
    ProductionData,
    ProductionMatrix,
    BSequence,
    OutOfOrder,
    NoBSequence,
    SelfCheckError,
    bell,
    is_pseudo_involution,
    b_extract,
    a_from_b,
    a_from_g,
)
from .family import (
    FamilyParams,
    binomial,
    g_family,
    a_family,
    g_family_cf,
    g_ad,
    g_recurrence_c0,
    sum_ad,
    sum_ab,
    sum_ab_alt,
    sum_abc,
    companion,
    companion_cf,
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
)
from .elliptic import (
    CurveParam,
    PipelineTrace,
    CurveBSequence,
    curve_branch,
    pipeline,
    f_from_curve,
    b_from_curve,
    family_params_from_curve,
    curve_somos_check,
)

__version__ = "0.1.0"
