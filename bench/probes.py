"""Layer probes: single layers timed directly, outside the pipeline.

They give the unit costs the traced pipeline cannot measure without
disturbing them: one scalar `f` evaluation (the trace wraps every one of
them), `f` on arrays of two widths, one Poincare map and one sweep.
"""

from __future__ import annotations

import statistics
import timeit
from time import perf_counter

import numpy as np

from clineshoot import integrator
from clineshoot.integrator import PhasePoint

from tracing import steps_per_march


def _per_call(fn, arg, number: int, repeat: int = 5) -> float:
    """Median over `repeat` rounds of the seconds one `fn(arg)` takes."""
    rounds = timeit.Timer("fn(arg)", globals={"fn": fn, "arg": arg}).repeat(repeat, number)
    return statistics.median(rounds) / number


def _median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def probe(problem, cfg, r: float, columns: int) -> tuple[dict, list[str]]:
    """Unit costs of the layers under `problem`; returns (metrics, missing names).

    A layer the program no longer has reads 0 and is named in the list.
    """
    f = problem.f
    out = {"nonlinearity.scalar_ns_per_eval": _per_call(f.value, 0.3, 20000) * 1e9}
    for width, number in ((501, 2000), (10001, 200)):
        xs = np.linspace(0.0, 1.0, width)
        out[f"nonlinearity.probe.vector_ns_per_elem_{width}"] = (
            _per_call(f.value, xs, number) / width * 1e9)
    missing = []
    poincare_map = getattr(integrator, "poincare_map", None)
    if poincare_map is None:
        missing.append("integrator.poincare_map")
        seconds = 0.0
    else:
        seconds = _median_time(lambda: poincare_map(problem, cfg, PhasePoint(r, 0.0)), 5)
    out["integrator.probe.poincare_map_s"] = seconds
    out["integrator.scalar_step_ns"] = seconds / steps_per_march(problem, cfg) * 1e9
    sweep_terminals = getattr(integrator, "sweep_terminals", None)
    if sweep_terminals is None:
        missing.append("integrator.sweep_terminals")
        seconds = 0.0
    else:
        rs = np.linspace(0.0, 1.0, columns)
        seconds = _median_time(lambda: sweep_terminals(problem, cfg, rs), 3)
    out["integrator.probe.sweep_terminals_s"] = seconds
    return out, missing
