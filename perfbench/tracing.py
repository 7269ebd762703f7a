"""Span tracing from the benchmark's own code.

``Tracer.install`` wraps the public harmonia functions and methods named in
``SPANS``.  Module-level functions are replaced at every binding in the
``harmonia`` modules (``from .numerics import integrate_path`` makes
``operators.integrate_path`` a second binding of the same function); methods
are replaced in the class dictionary, alias by alias (``__call__ = eval``
is a separate entry).  Spans are recorded only while ``on`` is set, kept in
memory as parallel arrays with their parent span, and summarized or
written out once at the end.  ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter

# span name -> (module, attribute path) of every wrapped callable
SPANS = {
    "algebra.construct": [
        ("harmonia.algebra", "LogLaurentExpr.__init__"),
        ("harmonia.algebra", "BivariateLaurentExpr.__init__"),
    ],
    "algebra.eval": [
        ("harmonia.algebra", "LogLaurentExpr.eval"),
        ("harmonia.algebra", "LogLaurentExpr.__call__"),
    ],
    "algebra.bivariate_eval": [
        ("harmonia.algebra", "BivariateLaurentExpr.eval"),
        ("harmonia.algebra", "BivariateLaurentExpr.__call__"),
    ],
    "algebra.differentiate": [("harmonia.algebra", "LogLaurentExpr.differentiate")],
    "algebra.antiderivative_over_arg": [
        ("harmonia.algebra", "LogLaurentExpr.antiderivative_over_arg")
    ],
    "algebra.restrict_to_ray": [("harmonia.algebra", "LogLaurentExpr.restrict_to_ray")],
    "geometry.sqrt_branch_build": [
        ("harmonia.geometry", "sqrt_schwarz_derivative"),
        ("harmonia.geometry", "sqrt_inverse_schwarz_derivative"),
    ],
    "geometry.sqrt_branch_lookup": [("harmonia.geometry", "SqrtBranch.__call__")],
    "geometry.schwarz_map": [
        ("harmonia.geometry", "SchwarzMap.value"),
        ("harmonia.geometry", "SchwarzMap.inverse_value"),
        ("harmonia.geometry", "SchwarzMap.derivative"),
        ("harmonia.geometry", "SchwarzMap.inverse_derivative"),
    ],
    "harmonic.eval_real": [("harmonia.harmonic", "eval_real")],
    "harmonic.eval_pair": [("harmonia.harmonic", "eval_pair")],
    "harmonic.radial_derivative": [("harmonia.harmonic", "radial_derivative")],
    "harmonic.normal_derivative_schwarz": [("harmonia.harmonic", "normal_derivative_schwarz")],
    "operators.neumann_from_dirichlet_pair": [
        ("harmonia.operators", "neumann_from_dirichlet_pair")
    ],
    "operators.neumann_from_robin_pair": [("harmonia.operators", "neumann_from_robin_pair")],
    "operators.dirichlet_from_robin_pair": [("harmonia.operators", "dirichlet_from_robin_pair")],
    "operators.solve_robin_analytic": [("harmonia.operators", "solve_robin_analytic")],
    "operators.neumann_from_dirichlet_disk": [
        ("harmonia.operators", "neumann_from_dirichlet_disk")
    ],
    "operators.arc_field_eval": [
        ("harmonia.operators", "ArcNeumannField.eval"),
        ("harmonia.operators", "ArcNeumannField.__call__"),
    ],
    "reflection.reflect_neumann_circle": [("harmonia.reflection", "reflect_neumann_circle")],
    "reflection.reflect_robin_circle": [("harmonia.reflection", "reflect_robin_circle")],
    "reflection.reflect_dirichlet_study": [("harmonia.reflection", "reflect_dirichlet_study")],
    "reflection.reflect_neumann_schwarz": [("harmonia.reflection", "reflect_neumann_schwarz")],
    "numerics.integrate_path": [("harmonia.numerics", "integrate_path")],
    "numerics.adaptive_simpson": [("harmonia.numerics", "adaptive_simpson")],
}

SPAN_NAMES = tuple(SPANS)
COUNTERS = (
    ("algebra.differentiate.repeat_frac", "ratio"),
    ("geometry.anchors_per_lookup", "ratio"),
    ("numerics.integrand_evals", "count"),
    ("numerics.evals_per_integral", "ratio"),
)


def resolve(module: str, path: str):
    """(owner, attribute name, original) for one SPANS entry."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _bindings(owner, attr, original):
    """Every place the callable is bound: the class itself, or each harmonia
    module that holds the same function object under that name."""
    if isinstance(owner, type):
        return [owner]
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "harmonia" or name.startswith("harmonia.")) and getattr(mod, attr, None) is original
    ]


class Tracer:
    def __init__(self):
        self.on = False
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.bindings = []  # (holder, attr, original) of every installed wrapper
        self.differentiated = set()
        self.repeat_differentiate = 0
        self.anchors = 0
        self.integrand_evals = 0

    # -- wrappers ------------------------------------------------------------------

    def _span(self, fn, index, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(args)
            sid = len(tracer.names)
            tracer.names.append(index)
            tracer.parents.append(tracer._stack[-1])
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.starts[sid] = t0
                tracer.ends[sid] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_integrand(self, args):
        f, *rest = args

        def counted(t):
            self.integrand_evals += 1
            return f(t)

        return (counted, *rest)

    def _note_differentiate(self, args, result):
        key = hash(args[0])
        if key in self.differentiated:
            self.repeat_differentiate += 1
        self.differentiated.add(key)

    def _note_branch(self, args, result):
        self.anchors += len(result.anchor_points)

    def install(self):
        hooks = {
            "numerics.integrate_path": {"before": self._count_integrand},
            "algebra.differentiate": {"after": self._note_differentiate},
            "geometry.sqrt_branch_build": {"after": self._note_branch},
        }
        try:
            for index, (span, targets) in enumerate(SPANS.items()):
                for module, path in targets:
                    owner, attr, original = resolve(module, path)
                    wrapper = self._span(original, index, **hooks.get(span, {}))
                    for holder in _bindings(owner, attr, original):
                        setattr(holder, attr, wrapper)
                        self.bindings.append((holder, attr, original))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        self.on = False
        for holder, attr, original in reversed(self.bindings):
            setattr(holder, attr, original)

    def restored(self) -> bool:
        """True when every binding the wrappers replaced holds its original."""
        return all(
            (holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr))
            is original
            for holder, attr, original in self.bindings
        )

    # -- results -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls and self time, and the counters, as metrics."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            k = self.names[i]
            calls[k] += 1
            self_s[k] += self.ends[i] - self.starts[i] - child[i]
        metrics = {}
        for k, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.calls"] = (calls[k], "count")
            metrics[f"{name}.self_s"] = (self_s[k], "s")
        diff = calls[SPAN_NAMES.index("algebra.differentiate")]
        lookups = calls[SPAN_NAMES.index("geometry.sqrt_branch_lookup")]
        integrals = calls[SPAN_NAMES.index("numerics.integrate_path")]
        metrics["algebra.differentiate.repeat_frac"] = (
            self.repeat_differentiate / diff if diff else 0.0, "ratio"
        )
        metrics["geometry.anchors_per_lookup"] = (
            self.anchors / lookups if lookups else 0.0, "ratio"
        )
        metrics["numerics.integrand_evals"] = (self.integrand_evals, "count")
        metrics["numerics.evals_per_integral"] = (
            self.integrand_evals / integrals if integrals else 0.0, "ratio"
        )
        return metrics

    def write(self, path: str) -> None:
        """All spans as gzipped CSV: id, parent id, name, start and end (s
        from the first span)."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{i},{self.parents[i]},{SPAN_NAMES[self.names[i]]},"
                    f"{self.starts[i] - t0!r},{self.ends[i] - t0!r}\n"
                )
