"""Levi curvatures of real hypersurfaces in C^{n+1}.

Exact symmetric-function calculus on Hermitian matrices and polynomial
identities on one side; closed-form surface families, curvature evaluation,
and quadrature-backed verification of the integral formula, isoperimetric
estimate, Minkowski identity, and related chains on the other.
"""

from .errors import (
    CostLimitError,
    DegenerateGradientError,
    DomainError,
    HypothesisViolationError,
    LevilabError,
    NotHermitianError,
    SingularityError,
    SpecParseError,
    StarShapeError,
    StiffnessError,
    TransversalityError,
)
from .hermitian import HermitianMatrix, newton_gap_batch, sigma_batch
from .wirtinger import (
    WMatrix,
    WPoly,
    check_euler_sigma,
    check_lemma_identity,
    check_null_lagrangian,
    sym_bordered_det,
    wd,
)
from .surfaces import (
    Cylinder,
    DirichletQuadratic,
    Ellipsoid,
    ExpReparam,
    PerturbedQuadric,
    ReinhardtSurface,
    Sphere,
    SurfaceSpec,
    UserPolynomial,
    radial_roots,
)
from .reinhardt import ReinhardtProfile, reinhardt_profile
from .curvature import FrameBatch, levi, mean_curvature
from .quadrature import IntegralResult, QuadratureSpec, bulk_integral, surface_integral, volume
from .verify import (
    VerificationReport,
    alexandrov_check,
    dirichlet_chain,
    isoperimetric_ratio,
    minkowski_residual,
    newton_sweep,
    verify_integral_formula,
)

__version__ = "0.1.0"
