"""Closed-form boundary-operator and reflection calculus for harmonic
functions near circular and straight-line arcs, with independent numerical
cross-checks.

Importing the package loads the calculus and its oracles.  The verification
suite loads on first use of one of its four names here (PEP 562): each is
the suite's own object, and none is bound in this namespace.
"""

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

__version__ = "0.1.0"

_SUITE_NAMES = ("CheckRecord", "DEFAULT_SEED", "VerificationReport", "run_verification_suite")
# every public name, so that a star import takes the suite's names too
__all__ = [name for name in globals() if not name.startswith("_")] + list(_SUITE_NAMES)


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUITE_NAMES})
