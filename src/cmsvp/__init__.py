"""Certified norm bounds and exact shortest-vector verification for
lattices built from cyclotomic CM fields.

Two independent routes to the same minima: a certified interval bound on
the field norm of any weighted-norm minimizer, and exact Fincke-Pohst
enumeration over rational Gram matrices.  Theta counting, truncated psi
sums with certified tails, and circulant cross-checks tie the two
together.
"""

from .bound import BoundReport, Verdict, ideal_bound, norm_gap_verdict, theorem_bound
from .errors import (
    BudgetExceededError,
    CmsvpError,
    DegenerateSimplexError,
    DependentUnitsError,
    InputError,
    NonPrimeConductorError,
    NotPositiveDefiniteError,
    PrecisionError,
    SelfTestError,
)
from .field import CMField, FieldElement, exact_divide, field_norm, is_unit, real_norm, trace
from .interval import DEFAULT_PRECISION, PrecisionConfig, RealInterval
from .svp import (
    CharacteristicSetE,
    GramMatrix,
    ShortVectorSet,
    characteristic_set_E,
    craig_circulant,
    gram_matrix,
    minimal_vectors,
)
from .theta import PsiSample, ThetaPrefix, cusp_extract, psi_truncated, same_counts, theta_prefix
from .units import UnitBasis, cyclotomic_unit_basis, load_unit_basis, reduce_to_chamber

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetExceededError",
    "CMField",
    "CharacteristicSetE",
    "CmsvpError",
    "DEFAULT_PRECISION",
    "DegenerateSimplexError",
    "DependentUnitsError",
    "FieldElement",
    "GramMatrix",
    "InputError",
    "NonPrimeConductorError",
    "NotPositiveDefiniteError",
    "PrecisionConfig",
    "PrecisionError",
    "PsiSample",
    "RealInterval",
    "SelfTestError",
    "ShortVectorSet",
    "ThetaPrefix",
    "UnitBasis",
    "Verdict",
    "characteristic_set_E",
    "craig_circulant",
    "cusp_extract",
    "cyclotomic_unit_basis",
    "exact_divide",
    "field_norm",
    "gram_matrix",
    "ideal_bound",
    "is_unit",
    "load_unit_basis",
    "minimal_vectors",
    "norm_gap_verdict",
    "psi_truncated",
    "real_norm",
    "reduce_to_chamber",
    "same_counts",
    "theorem_bound",
    "theta_prefix",
    "trace",
    "__version__",
]
