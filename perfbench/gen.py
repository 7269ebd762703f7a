"""Seeded input generation for the benchmark workloads.

Inputs are plain Python data (tuples of numbers), built only from the seed
and an op index, so the same seed gives identical inputs whatever harmonia
does with them.  A term is ``(coeff, k, m)``: ``coeff * z**k * log(z)**m``.

This module also holds the benchmark's own reference evaluators.  They work
on the raw terms with :mod:`cmath` and never call harmonia, so output checks
built on them are independent of the algebra they check.
"""

from __future__ import annotations

import cmath
import math
import random

# terms per pair; row j uses pair j % 5.  Row costs then fall in five equal
# groups, so the median op lies inside the 6-term group and the p90 inside
# the 8-term group, not on a boundary between groups, whatever the seed
DENSE_TERMS = (4, 5, 6, 7, 8)
DENSE_ROWS = 65
DENSE_POINTS_PER_ROW = 12

FIELD_DEGREE = 6
FIELD_GRID = "0.5:1.5:50:-2.0:2.0:50"


def rng(seed: int, *labels) -> random.Random:
    """A stream determined by the seed and the labels (string seeding is
    stable across processes, unlike ``hash``)."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def terms(r: random.Random, n: int, kmax: int, mmax: int) -> tuple:
    return tuple(
        (complex(r.uniform(-1, 1), r.uniform(-1, 1)), r.randint(-kmax, kmax), r.randint(0, mmax))
        for _ in range(n)
    )


def distinct_terms(r: random.Random, n: int, kmax: int, mmax: int) -> tuple:
    """n terms whose log powers cycle through 0..mmax and whose powers k are
    distinct within each log power, so no two terms merge and every seed
    gives the same mix of log and log-free terms."""
    logpows = [j % (mmax + 1) for j in range(n)]
    ks = {m: r.sample(range(-kmax, kmax + 1), logpows.count(m)) for m in set(logpows)}
    return tuple(
        (complex(r.uniform(-1, 1), r.uniform(-1, 1)), ks[m].pop(), m) for m in logpows
    )


def robin_params(r: random.Random) -> tuple:
    return r.uniform(0.5, 2.0), r.choice((-1.0, 1.0)) * r.uniform(0.5, 2.0)


def near_curve_distance(r: random.Random) -> float:
    """Signed distance 0.05-0.4 from a curve, on either side."""
    return r.choice((-1.0, 1.0)) * r.uniform(0.05, 0.4)


# -- per-workload inputs ---------------------------------------------------------


def dense_cases(seed: int) -> dict:
    """A few symmetric pairs (4-8 terms, |k| <= 4, log power <= 2), each with
    a log-free companion for the reflection formulas and Robin parameters,
    and the grid rows: a radius 0.05-0.4 from the unit circle and angles."""
    pairs = []
    for c, n in enumerate(DENSE_TERMS):
        r = rng(seed, "dense", c)
        pairs.append(
            {
                "u": distinct_terms(r, n, 4, 2),
                "u_lf": distinct_terms(r, n, 4, 0),
                "params": robin_params(r),
            }
        )
    r = rng(seed, "dense-rows")
    rows = tuple(
        (1.0 + near_curve_distance(r), tuple(r.uniform(-2.5, 2.5) for _ in range(DENSE_POINTS_PER_ROW)))
        for _ in range(DENSE_ROWS)
    )
    return {"pairs": tuple(pairs), "rows": rows}


def fresh_input(seed: int, i: int) -> dict:
    """One never-repeated input: 1-16 terms, |k| <= 6, log power 0-4."""
    r = rng(seed, "fresh", i)
    return {
        "u": terms(r, r.randint(1, 16), 6, 4),
        "g": terms(r, r.randint(1, 16), 6, 4),
        "params": robin_params(r),
        "thetas": tuple(r.uniform(-2.5, 2.5) for _ in range(4)),
    }


ARC_KINDS = (
    "arc_field_eval",
    "schwarz_unit_circle",
    "schwarz_offcentre_circle",
    "schwarz_line",
    "circle_neumann_numeric",
    "circle_robin_numeric",
)
ARC_SETS = 64
ARC_TERMS = 3
OFFCENTRE_CIRCLE = (0.4 + 0.3j, 1.2)  # centre, radius
LINE = (0.3 + 1.2j, 0.4)  # a point on the line, direction angle


def arc_setup(seed: int) -> tuple:
    """Sets of log-free fields (3 terms, |k| <= 3) for the quadrature-backed
    ops; op i uses set (i // len(ARC_KINDS)) % ARC_SETS."""
    sets = []
    for j in range(ARC_SETS):
        r = rng(seed, "arc", j)
        sets.append(
            {
                "u": distinct_terms(r, ARC_TERMS, 3, 0),
                "v": distinct_terms(r, ARC_TERMS, 3, 0),
                "params": robin_params(r),
            }
        )
    return tuple(sets)


def arc_point(seed: int, i: int) -> tuple:
    """(set, kind, z) for op i: a point 0.05-0.4 from the op's curve."""
    j = (i // len(ARC_KINDS)) % ARC_SETS
    kind = ARC_KINDS[i % len(ARC_KINDS)]
    r = rng(seed, "arc-point", i)
    d = near_curve_distance(r)
    if kind == "schwarz_offcentre_circle":
        c, rad = OFFCENTRE_CIRCLE
        return j, kind, c + (rad + d) * cmath.exp(1j * r.uniform(-math.pi, math.pi))
    if kind == "schwarz_line":
        p0, angle = LINE
        return j, kind, p0 + cmath.exp(1j * angle) * complex(r.uniform(-2.0, 2.0), d)
    return j, kind, (1.0 + d) * cmath.exp(1j * r.uniform(-2.0, 2.0))


def field_trig(seed: int) -> tuple:
    """Zero-mean Fourier data (cos, sin) for the cold ``field`` command."""
    r = rng(seed, "field")
    cos = (0.0,) + tuple(r.uniform(-1, 1) for _ in range(FIELD_DEGREE))
    sin = (0.0,) + tuple(r.uniform(-1, 1) for _ in range(FIELD_DEGREE))
    return cos, sin


def reflect_point(seed: int, i: int) -> tuple:
    r = rng(seed, "reflect", i)
    return r.uniform(0.6, 0.95), r.uniform(-2.0, 2.0)


# -- reference evaluators on raw terms ------------------------------------------


def eval_terms(ts, z: complex) -> complex:
    """sum c z^k log^m z with the principal logarithm (harmonia's default cut)."""
    lg = cmath.log(z)
    return sum(c * z**k * lg**m for c, k, m in ts)


def z_d_dz(ts) -> tuple:
    """Terms of z * d/dz."""
    out = []
    for c, k, m in ts:
        if k:
            out.append((c * k, k, m))
        if m:
            out.append((c * m, k, m - 1))
    return tuple(out)


def d_dz(ts) -> tuple:
    return tuple((c, k - 1, m) for c, k, m in z_d_dz(ts))


def mirror(ts) -> tuple:
    """Coefficient-conjugated terms: the zeta-part of a symmetric pair."""
    return tuple((c.conjugate(), k, m) for c, k, m in ts)


def symmetric_value(ts, z: complex) -> float:
    """Real-slice value of the symmetric pair with z-part ``ts``."""
    return 2.0 * eval_terms(ts, z).real


def scale(ts, z: complex) -> float:
    """Sum of term magnitudes at z, never below 1: the denominator of relative
    residuals (it cannot collapse through cancellation)."""
    lg = abs(cmath.log(z))
    return max(1.0, sum(abs(c) * abs(z) ** k * lg**m for c, k, m in ts))


def pair_json(ts) -> dict:
    rec = lambda t: [{"re": c.real, "im": c.imag, "k": k, "m": m} for c, k, m in t]
    return {"part_z": rec(ts), "part_zeta": rec(mirror(ts))}


def trig_pair_terms(cos, sin) -> tuple:
    """z-part of the symmetric pair whose circle trace is the Fourier data."""
    return tuple((0.5 * complex(cos[n], -sin[n]), n, 0) for n in range(1, len(cos)))


def neumann_data_terms(ts, normal_z, normal_zeta) -> tuple:
    """Bivariate terms (c, kz, kzeta) of the normal derivative of the symmetric
    log-free pair ``ts``: nu(z) u1'(z) + conj-nu(zeta) u2'(zeta), where each
    normal factor is given as terms (c, k) of a Laurent polynomial."""
    out = []
    for c, k, _ in d_dz(ts):
        for a, j in normal_z:
            out.append((a * c, k + j, 0))
    for c, k, _ in d_dz(mirror(ts)):
        for a, j in normal_zeta:
            out.append((a * c, 0, k + j))
    return tuple(out)


def robin_data_terms(ts, a: float, b: float) -> tuple:
    """Bivariate terms of a w + b dw/dr on the unit circle, log-free ``ts``."""
    return tuple((c * (a + b * k), k, 0) for c, k, _ in ts) + tuple(
        (c * (a + b * k), 0, k) for c, k, _ in mirror(ts)
    )


def dirichlet_data_terms(ts) -> tuple:
    """Bivariate terms of the pair itself: its Dirichlet data on any curve."""
    return tuple((c, k, 0) for c, k, _ in ts) + tuple((c, 0, k) for c, k, _ in mirror(ts))
