"""Independent numerical oracles.

Nothing here uses the exact algebra: every integral, along a contour or
the radial one of the disk Neumann solver, runs adaptive Gauss-Kronrod
(7, 15) panels that bisect on failure, to a fixed absolute tolerance of
1e-10 with no settings, the disk Neumann oracle is a brute-force Fourier
series, and harmonicity is probed with the fourth-order 9-point
finite-difference Laplacian.  The checks that replay
the exact modules against these oracles are in ``verification``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NonzeroMeanError, QuadratureConvergenceError, RangeError
from .geometry import PathSpec

__all__ = [
    "TrigPolynomial",
    "integrate_path",
    "fd_laplacian",
    "fourier_neumann_oracle",
]

# Adaptive quadrature error control: an absolute tolerance, split evenly over
# the initial panels of ``integrate_path`` and halved with each bisection of a
# panel, at most MAX_DEPTH times.
ABS_TOL = 1e-10
INITIAL_PANELS = 4
MAX_DEPTH = 30


# Gauss-Kronrod (7, 15) on [-1, 1] (Piessens et al., QUADPACK, 1983, qk15):
# the 7-point Gauss-Legendre rule samples 0 and +-x at its three nodes, and
# the 15-point Kronrod rule adds four more pairs.  Values to 30 digits.
_SHARED_NODES = (  # (x, Kronrod weight, Gauss weight) of each Gauss pair
    (0.949107912342758524526189684048, 0.063092092629978553290700663189,
     0.129484966168869693270611432679),
    (0.741531185599394439863864773281, 0.140653259715525918745189590510,
     0.279705391489276667901467771424),
    (0.405845151377397166906606412077, 0.190350578064785409913256402421,
     0.381830050505118944950369775489),
)
_KRONROD_NODES = (  # (x, Kronrod weight) of each pair the Kronrod rule adds
    (0.991455371120812639206854697526, 0.022935322010529224963732008059),
    (0.864864423359769072789712788641, 0.104790010322250183839876322542),
    (0.586087235467691130294144845693, 0.169004726639267902826583426599),
    (0.207784955007898467600689403773, 0.204432940075298892414161999235),
)
_CENTRE_WEIGHTS = (  # Kronrod and Gauss weights at 0
    0.209482141084727828012999174892,
    0.417959183673469387755102040816,
)


def _gauss_kronrod(f: Callable[[complex], complex], c: complex, h: complex) -> tuple:
    """The K15 and G7 estimates of the integral of f along the segment from
    c - h to c + h, from 15 evaluations."""
    f0 = f(c)
    kronrod, gauss = _CENTRE_WEIGHTS[0] * f0, _CENTRE_WEIGHTS[1] * f0
    for x, wk, wg in _SHARED_NODES:
        d = h * x
        pair = f(c - d) + f(c + d)
        kronrod += wk * pair
        gauss += wg * pair
    for x, wk in _KRONROD_NODES:
        d = h * x
        kronrod += wk * (f(c - d) + f(c + d))
    return h * kronrod, h * gauss


def integrate_path(f: Callable[[complex], complex], path: PathSpec) -> complex:
    """Contour integral of f along the path, by adaptive Gauss-Kronrod
    (7, 15) panels.

    The path starts as INITIAL_PANELS panels, over which ABS_TOL is split
    evenly.  A panel whose error estimate |K15 - G7| exceeds its tolerance
    is bisected, each half with half the tolerance, down to MAX_DEPTH
    levels; beyond that it raises ``QuadratureConvergenceError``.  A panel
    whose estimate is not finite (an integrand value of inf or NaN, or one
    beyond the float range in the sum) raises ``RangeError`` at once.
    """
    start, velocity = path.start, path.end - path.start

    def panel(a: float, b: float, tol: float, depth: int) -> complex:
        centre = start + 0.5 * (a + b) * velocity
        kronrod, gauss = _gauss_kronrod(f, centre, 0.5 * (b - a) * velocity)
        try:
            estimate = abs(kronrod - gauss)
        except OverflowError:  # finite parts, but a modulus beyond the float range
            estimate = math.inf
        if estimate <= tol:
            return kronrod
        if not math.isfinite(estimate):
            raise RangeError(
                f"the integrand is beyond the float range on {_panel(path, a, b)}: "
                f"error estimate {estimate}"
            )
        if depth <= 0:
            raise QuadratureConvergenceError(
                f"Gauss-Kronrod quadrature did not converge on {_panel(path, a, b)}: error "
                f"estimate {estimate:.3g} exceeds the tolerance {tol:.3g}"
            )
        m, half = 0.5 * (a + b), 0.5 * tol
        return panel(a, m, half, depth - 1) + panel(m, b, half, depth - 1)

    tol = ABS_TOL / INITIAL_PANELS
    total = 0j
    for i in range(INITIAL_PANELS):
        total += panel(i / INITIAL_PANELS, (i + 1) / INITIAL_PANELS, tol, MAX_DEPTH)
    return total


def _panel(path: PathSpec, a: float, b: float) -> str:
    velocity = path.end - path.start
    return f"the panel from z = {path.start + a * velocity!r} to z = {path.start + b * velocity!r}"


def adaptive_simpson(g: Callable[[float], complex], a: float, b: float) -> complex:
    """The integral of g over [a, b] by ``integrate_path``, with g read at
    real nodes.  Only the benchmark's tracer names this function; nothing in
    the package calls it."""
    return integrate_path(lambda t: g(t.real), PathSpec.segment(a, b))


def fd_laplacian(field: Callable[[float, float], float], x: float, y: float, h: float) -> float:
    """Fourth-order 9-point finite-difference Laplacian: per axis
    (-f(+-2h) + 16 f(+-h) - 30 f) / (12 h^2), summed over both axes."""
    if not h > 0:
        raise ValueError("step h must be positive")
    return (
        16.0 * (field(x + h, y) + field(x - h, y) + field(x, y + h) + field(x, y - h))
        - (field(x + 2 * h, y) + field(x - 2 * h, y) + field(x, y + 2 * h) + field(x, y - 2 * h))
        - 60.0 * field(x, y)
    ) / (12.0 * h * h)


@dataclass(frozen=True)
class TrigPolynomial:
    """Boundary data a_0 + sum_n (a_n cos n*theta + b_n sin n*theta)."""

    cos: tuple
    sin: tuple

    def __post_init__(self):
        cos = tuple(float(c) for c in self.cos)
        sin = tuple(float(s) for s in self.sin)
        n = max(len(cos), len(sin), 1)
        cos = cos + (0.0,) * (n - len(cos))
        sin = sin + (0.0,) * (n - len(sin))
        if sin[0] != 0.0:
            raise ValueError("sin(0*theta) vanishes; b_0 must be 0")
        object.__setattr__(self, "cos", cos)
        object.__setattr__(self, "sin", sin)

    @property
    def mean(self) -> float:
        return self.cos[0]

    def dirichlet_value(self, r: float, theta: float) -> float:
        """The harmonic extension into the disk with this boundary trace."""
        total = 0.0
        for n in range(len(self.cos)):
            rn = r**n
            total += rn * (
                self.cos[n] * math.cos(n * theta) + self.sin[n] * math.sin(n * theta)
            )
        return total


def fourier_neumann_oracle(phi: TrigPolynomial, r: float, theta: float) -> float:
    """Brute-force disk Neumann solution sum_n (r^n/n)(a_n cos + b_n sin).

    This is the unique solution with value 0 at the origin; data with a
    nonzero boundary mean admits no solution and is rejected.
    """
    if abs(phi.mean) > 1e-10:
        raise NonzeroMeanError(
            f"Neumann data must have zero boundary mean, got {phi.mean:.3g}"
        )
    total = 0.0
    for n in range(1, len(phi.cos)):
        total += (r**n / n) * (
            phi.cos[n] * math.cos(n * theta) + phi.sin[n] * math.sin(n * theta)
        )
    return total


def available_checks() -> tuple:
    """(name, tag) for every registered verification check."""
    # the one reference to the suite: the benchmark reads this name here
    from .verification import _CHECKS

    return tuple((name, tag) for name, tag, _, _ in _CHECKS)
