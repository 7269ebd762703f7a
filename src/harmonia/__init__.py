"""Closed-form boundary-operator and reflection calculus for harmonic
functions near circular and straight-line arcs, with independent numerical
cross-checks."""

from .algebra import (
    BivariateLaurentExpr,
    COEFF_EPS,
    CUT_MARGIN,
    DEFAULT_CUT_ANGLE,
    LogLaurentExpr,
    LogLaurentTerm,
    branch_log,
)
from .errors import (
    BranchPointOnPathError,
    BranchSelectionError,
    CutMismatchError,
    CutProximityError,
    DomainError,
    HarmoniaError,
    NonSymmetricPairError,
    NonzeroMeanError,
    PoleError,
    PowerUnderflowError,
    QuadratureConvergenceError,
    RangeError,
    ResonanceError,
)
from .geometry import (
    BiPoint,
    PathSpec,
    SchwarzMap,
    anti_conformal_reflect,
    reflect_bipoint,
    sqrt_inverse_schwarz_derivative,
    sqrt_schwarz_derivative,
)
from .harmonic import (
    HarmonicPair,
    RobinParams,
    eval_pair,
    eval_real,
    normal_derivative_schwarz,
    radial_derivative,
    robin_trace_circle,
)
from .numerics import TrigPolynomial, fd_laplacian, fourier_neumann_oracle, integrate_path
from .operators import (
    ArcNeumannField,
    dirichlet_from_robin_pair,
    neumann_from_dirichlet_disk,
    neumann_from_dirichlet_pair,
    neumann_from_dirichlet_schwarz,
    neumann_from_robin_pair,
    solve_robin_analytic,
)
from .reflection import (
    ReflectionResult,
    reflect_dirichlet_study,
    reflect_neumann_circle,
    reflect_neumann_schwarz,
    reflect_robin_circle,
)
from .verification import CheckRecord, DEFAULT_SEED, VerificationReport, run_verification_suite

__version__ = "0.1.0"
