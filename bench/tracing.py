"""Layer tracing from outside the program.

`tracing()` wraps the public functions of the clineshoot modules, and the
`value` method of every nonlinearity class, for the length of a `with`
block. A function is wrapped in every clineshoot module that holds it
under its name, so a module that imported it with `from .x import name`
calls the wrapper too. Each wrapper records one span: wall time, calls,
and the time its child spans cover. `f.value` records no span, because
it runs millions of times per operation; it only counts calls (and, for
arrays, elements and time) against the innermost open span.

`crosscheck()` then tests that nothing escaped the wrappers: every scalar
`f` call must happen inside a wrapped march, and each march must make
exactly four `f` calls per RK4 step.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (module defining the name, name, span it records)
SPANS = (
    ("integrator", "integrate", "integrator.integrate"),
    ("integrator", "poincare_map", "integrator.poincare_map"),
    ("integrator", "sweep_terminals", "integrator.sweep_terminals"),
    ("shooting", "build_gamma", "shooting.build_gamma"),
    ("shooting", "find_brackets", "shooting.find_brackets"),
    ("shooting", "bisect_cline", "shooting.bisect_cline"),
    ("shooting", "find_all_clines", "shooting.find_all_clines"),
    ("problem", "neumann_necessary_integral", "problem.necessary_integral"),
    ("problem", "problem_from_dict", "problem.parse"),
    ("reproduction", "sweep_cline_counts", "reproduction.sweep_cline_counts"),
    ("cli", "cmd_find", "cli.command"),
    ("cli", "cmd_gamma", "cli.command"),
)

# The integrator's step rule: a side of length L gets ceil(L / target)
# steps, and the target never exceeds span / MIN_STEPS_PER_SPAN.
MIN_STEPS_PER_SPAN = 100


def steps_per_march(p, cfg) -> int:
    """RK4 steps of one march from omega1 to omega2."""
    target = min(cfg.target_step, p.weight.span / MIN_STEPS_PER_SPAN)
    return (max(1, math.ceil(-p.weight.omega1 / target))
            + max(1, math.ceil(p.weight.omega2 / target)))


class Tracer:
    """Span totals and counters of one traced operation."""

    def __init__(self):
        self.stack: list = [None]     # open spans, innermost last; None is "no span"
        self.seconds = Counter()      # span -> wall time
        self.child_seconds = Counter()  # span -> time covered by child spans
        self.calls = Counter()        # span -> calls
        self.calls_under = Counter()  # (span, parent span) -> calls
        self.scalar_f = Counter()     # innermost span -> scalar f calls
        self.vector_f = Counter()     # innermost span -> vector f calls
        self.vector_elems = Counter()  # innermost span -> elements
        self.vector_seconds = Counter()  # innermost span -> time in vector f
        self.work = Counter()         # counts read off arguments and results
        self.missing: list[str] = []  # names the program no longer has

    def self_seconds(self, span: str) -> float:
        return self.seconds[span] - self.child_seconds[span]


def _record_work(tracer: Tracer, span: str, args, result) -> None:
    work = tracer.work
    if span == "integrator.poincare_map":
        work["poincare_steps"] += steps_per_march(args[0], args[1])
    elif span == "integrator.integrate":
        work["integrate_steps"] += len(result.xs) - 1
    elif span == "integrator.sweep_terminals":
        columns = int(np.size(args[2]))
        work["columns"] += columns
        work["column_steps"] += columns * steps_per_march(args[0], args[1])
        work["blown_columns"] += int(np.count_nonzero(~result.ok))
    elif span == "shooting.find_all_clines":
        work["brackets"] += len(result.brackets)
        work["validated"] += len(result.clines)
        work["rejected"] += len(result.rejected)
        work["lost"] += len(result.failures)


def _wrap_function(tracer: Tracer, span: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        parent = stack[-1]
        stack.append(span)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.work[f"raised {span}"] += 1
            raise
        finally:
            dt = perf_counter() - t0
            stack.pop()
            tracer.seconds[span] += dt
            tracer.calls[span] += 1
            tracer.calls_under[span, parent] += 1
            if parent is not None:
                tracer.child_seconds[parent] += dt
        _record_work(tracer, span, args, result)
        return result
    return wrapper


def _wrap_value(tracer: Tracer, value):
    stack, scalar_f, ndarray = tracer.stack, tracer.scalar_f, np.ndarray

    @functools.wraps(value)
    def wrapper(self, s):
        if type(s) is not ndarray:  # the hot path: keep it short
            scalar_f[stack[-1]] += 1
            return value(self, s)
        span = stack[-1]
        t0 = perf_counter()
        out = value(self, s)
        tracer.vector_seconds[span] += perf_counter() - t0
        tracer.vector_f[span] += 1
        tracer.vector_elems[span] += s.size
        return out
    return wrapper


@contextlib.contextmanager
def tracing():
    """Trace every clineshoot call made inside the block; yields the Tracer."""
    from clineshoot import nonlinearity

    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "clineshoot" or name.startswith("clineshoot."))]
    patched = []  # (owner, name, original) in patch order
    try:
        for modname, name, span in SPANS:
            home = sys.modules.get(f"clineshoot.{modname}")
            original = getattr(home, name, None)
            if original is None:
                tracer.missing.append(f"{modname}.{name}")
                continue
            wrapper = _wrap_function(tracer, span, original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    patched.append((module, name, original))
                    setattr(module, name, wrapper)
        for cls in vars(nonlinearity).values():
            if (isinstance(cls, type) and issubclass(cls, nonlinearity.Nonlinearity)
                    and "value" in cls.__dict__):
                patched.append((cls, "value", cls.__dict__["value"]))
                cls.value = _wrap_value(tracer, cls.__dict__["value"])
        yield tracer
    finally:
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)


MARCHES = ("integrator.poincare_map", "integrator.integrate")
VECTOR_CALLERS = ("integrator.sweep_terminals", "problem.necessary_integral")


def crosscheck(tracer: Tracer) -> list[str]:
    """Count identities that hold when no call escaped the wrappers.

    Returns the broken ones, worded for a reader; an empty list means the
    trace is complete.
    """
    problems = []
    stray = sum(n for span, n in tracer.scalar_f.items() if span not in MARCHES)
    if stray:
        problems.append(f"{stray} scalar f calls outside any wrapped march")
    stray = sum(n for span, n in tracer.vector_f.items() if span not in VECTOR_CALLERS)
    if stray:
        problems.append(f"{stray} vector f calls outside sweep_terminals and the integral")
    for span, key in (("integrator.poincare_map", "poincare_steps"),
                      ("integrator.integrate", "integrate_steps")):
        calls, steps = tracer.scalar_f[span], tracer.work[key]
        # a march that blew up made fewer steps than its step rule says
        if calls != 4 * steps and not tracer.work[f"raised {span}"]:
            problems.append(f"{span}: {calls} scalar f calls for {steps} steps, expected 4 per step")
    sweep = "integrator.sweep_terminals"
    if tracer.vector_elems[sweep] != 4 * tracer.work["column_steps"]:
        problems.append(f"{sweep}: {tracer.vector_elems[sweep]} f elements for "
                        f"{tracer.work['column_steps']} column-steps, expected 4 per column-step")
    return problems


def layer_counts(tracer: Tracer) -> Counter:
    """Counts and span times of one traced operation, by metric name.

    Besides the per-layer metrics it holds the bases of their ratios:
    `nonlinearity.vector_s`, `integrator.columns`, `integrator.blown_columns`,
    `integrator.poincare_map.steps` and `shooting.bisect_cline.calls`.
    """
    w, seconds = tracer.work, tracer.seconds
    out = Counter({
        "nonlinearity.scalar_calls": sum(tracer.scalar_f.values()),
        "nonlinearity.vector_calls": sum(tracer.vector_f.values()),
        "nonlinearity.vector_elems": sum(tracer.vector_elems.values()),
        "nonlinearity.vector_s": sum(tracer.vector_seconds.values()),
        "integrator.scalar_steps": w["poincare_steps"] + w["integrate_steps"],
        "integrator.poincare_map.steps": w["poincare_steps"],
        "integrator.columns": w["columns"],
        "integrator.column_steps": w["column_steps"],
        "integrator.blown_columns": w["blown_columns"],
        "shooting.refine_iterations": tracer.calls_under["integrator.poincare_map",
                                                         "shooting.bisect_cline"],
        "shooting.bisect_cline.self_s": tracer.self_seconds("shooting.bisect_cline"),
        "problem.parse_s": seconds["problem.parse"],
        "cli.write_s": tracer.self_seconds("cli.command"),
    })
    for key in ("brackets", "validated", "rejected", "lost"):
        out[f"shooting.{key}"] = w[key]
    for span in ("integrator.poincare_map", "integrator.integrate",
                 "problem.necessary_integral", "shooting.bisect_cline"):
        out[f"{span}.calls"] = tracer.calls[span]
    for span in ("integrator.poincare_map", "integrator.integrate",
                 "integrator.sweep_terminals", "shooting.bisect_cline",
                 "shooting.build_gamma", "shooting.find_brackets",
                 "shooting.find_all_clines", "problem.necessary_integral",
                 "reproduction.sweep_cline_counts"):
        out[f"{span}.s"] = seconds[span]
    return out
