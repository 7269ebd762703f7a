"""Shared inputs for the tests of the mirrored route.

A ``mirrored`` HarmonicPair at a point on the real slice is evaluated from
its z-part alone; these helpers build seeded pairs, clear the flag so the
two-part route serves as the reference, and compare outcomes to the bit.
"""

import math

import numpy as np

from harmonia.algebra import LogLaurentExpr
from harmonia.errors import HarmoniaError
from harmonia.harmonic import HarmonicPair

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


def two_part(h):
    """h with its mirrored flag cleared: every function takes the two-part route."""
    copy = HarmonicPair(h.part_z, h.part_zeta)
    vars(copy)["mirrored"] = False
    return copy


def one_ulp_off(h):
    """h with the real part of its first zeta coefficient moved by one ulp."""
    first, *rest = h.part_zeta.terms
    moved = complex(math.nextafter(first.coeff.real, math.inf), first.coeff.imag)
    zeta = LogLaurentExpr([(moved, first.power, first.logpow), *rest], h.part_zeta.cut_angle)
    return HarmonicPair(h.part_z, zeta)


def outcome(fn):
    """fn()'s value to the bit (repr), or the type of what it raised."""
    try:
        return repr(fn())
    except HarmoniaError as exc:
        return type(exc)
