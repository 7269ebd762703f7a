"""Shared inputs for the tests of a pair's one holomorphic part.

A ``HarmonicPair`` holds f alone; its zeta side is conj(f(conj zeta)).
``zeta_part`` writes that side out as an expression of its own, f's
conjugate mirror on the mirrored cut 2 pi - alpha, so that a test can state
the two-part sum f(z) + g(zeta) as a reference.
"""

import math

import numpy as np

from harmonia.algebra import LogLaurentExpr
from harmonia.errors import HarmoniaError

# 72 rays, the outermost 9e-6 from +-pi
MIRROR_THETAS = [float(th) for th in np.linspace(-math.pi + 9e-6, math.pi - 9e-6, 72)]
MIRROR_RADII = (0.3, 0.8, 1.0, 1.7)


def seeded_expr(rng, n_terms=6, max_logpow=3):
    """n_terms terms with |k| <= 6 and log power <= max_logpow."""
    terms = [
        (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
         int(rng.integers(-6, 7)), int(rng.integers(0, max_logpow + 1)))
        for _ in range(n_terms)
    ]
    return LogLaurentExpr(terms)


def zeta_part(f):
    """g with g(zeta) = conj(f(conj zeta)): f's conjugate mirror on the cut
    2 pi - alpha, whose branch window (-alpha, 2 pi - alpha] mirrors f's."""
    return f.conjugate_mirror().with_cut_angle(2.0 * math.pi - f.cut_angle)


def outcome(fn):
    """fn()'s value to the bit (repr), or the type of what it raised."""
    try:
        return repr(fn())
    except HarmoniaError as exc:
        return type(exc)
