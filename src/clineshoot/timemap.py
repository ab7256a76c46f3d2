"""RK4-free time-map of the clines, and the Brent searches refinement runs.

With a = lam alpha, a profile started at (r, 0) rises on the left piece
(u'' = a f(u) > 0 while 0 < u < 1). By energy conservation it takes the time
tau(z) = int_0^z 2 dt / sqrt(2 a M_L(t)) to reach r + z^2, M_L(t) being the
mean of f over [r, r + t^2], and it meets x = 0 at U = r + z^2 where
tau(z) = -omega1. On the right piece (u'' = -lam f(u) < 0) it rises on to the
turning height u*, where lam int_U^u* f = a int_r^U f, in the time
T = int_0^sqrt(u* - U) 2 dt / sqrt(2 lam M_R(t)), M_R(t) the mean of f over
[u* - t^2, u*], and falls after it. So r gives a cline inside (0, 1) exactly
where U < 1, u* < 1 and G(r) = T - omega2 = 0; near such a root G has the
sign of the terminal slope. This is the time-map of the phase-plane method
(R. Schaaf, Global Solution Branches of Two Point Boundary Value Problems,
LNM 1458, Springer 1990). The substitutions s = r + t^2 and s = u* - t^2
remove the square-root singularities at the turning points, and each energy
difference is t^2 times a mean of f, so nothing cancels. Every integral is a
nested Gauss-Legendre rule over f.value; no RK4 step runs.

Brent's method is one generator, `brent`, that yields each point and is
sent the value there, and `solve`, the one driver of every root search
here, runs such searches in lockstep, each round one call on the live
searches' indices and points. `residual` finds U and u* by one search per
height each, `shooting.bisect_cline` one on the terminal slope of the
fine-step Poincare map, and `find_roots` one per span on G, each round one
`residual` call; `residual` computes each element on its own, so every
root has the bits of a lone solve. When `shooting.sweep_brackets` chose
the step, the root of G is the first point of `bisect_cline`'s search, so
a cline is always a root of the RK4 slope and the time-map saves its maps.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

import numpy as np

from .nonlinearity import _gauss_legendre
from .problem import Problem

OUTER_NODES = 40
INNER_NODES = 24


def _mean_f(f, base: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Mean of f over [base, base + width] (width may be negative), elementwise.

    A sum over the last axis, not a BLAS product, whose rounding depends on
    the shape of the batch.
    """
    x, w = _gauss_legendre(INNER_NODES)
    points = base[..., None] + (0.5 * width)[..., None] * (1.0 + x)
    return 0.5 * (f.value(points) * w).sum(axis=-1)


def _time(f, c: float, base: np.ndarray, z: np.ndarray, sign: float) -> np.ndarray:
    """int_0^z 2 dt / sqrt(2 c M(t)), M(t) the mean of f from base over sign * t^2."""
    x, w = _gauss_legendre(OUTER_NODES)
    t = (0.5 * z)[..., None] * (1.0 + x)
    m = _mean_f(f, base[..., None], sign * t * t)
    return z * (w / np.sqrt(2.0 * c * m)).sum(axis=-1)


def residual(p: Problem, rs) -> np.ndarray:
    """G(r) = T(U(r)) - omega2 for each height r; NaN where U >= 1 or u* >= 1.

    U and u* are found by `brent` searches run by `solve`, from their roots for constant f.
    """
    f, lam = p.f, p.lam
    a, left, right = lam * p.weight.alpha, -p.weight.omega1, p.weight.omega2
    r = np.asarray(rs, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where((0.0 < r) & (r < 1.0), r, np.nan)
        z_hi = np.sqrt(1.0 - r)
        z = _roots(lambda i, z: _time(f, a, r[i], z, 1.0) - left, z_hi, np.full_like(r, -left),
                   _time(f, a, r, z_hi, 1.0) - left,   # <= 0 where U >= 1
                   np.minimum(left * np.sqrt(0.5 * a * f.value(r)), 0.5 * z_hi))
        u = r + z * z
        energy = a * z * z * _mean_f(f, r, z * z) / lam   # int_U^u* f
        y_hi = 1.0 - u
        y = _roots(lambda i, y: y * _mean_f(f, u[i], y) - energy[i], y_hi, -energy,
                   y_hi * _mean_f(f, u, y_hi) - energy,   # <= 0 where u* >= 1
                   np.minimum(energy / f.value(u), 0.5 * y_hi))
        return _time(f, lam, u + y, np.sqrt(y), -1.0) - right


# a root search: yields each point, is sent the value there, returns the root
_Search = Generator[float, float, Optional[float]]


def brent(lo: float, hi: float, y_lo: float, y_hi: float, tol_x: float, tol_y: float,
          first: Optional[float]) -> _Search:
    """Brent's search for a root of fn in [lo, hi], given fn(lo) = y_lo and fn(hi) = y_hi.

    A generator: it yields each point and is sent fn's value there; the
    signs of y_lo and y_hi differ.
    Brent's method (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4). The first point is `first`, or the secant
    point of the bracket when it is None; one outside (lo, hi) gives way
    to the midpoint. After it, b is the end of the bracket with the smaller |fn|,
    c the other end and a the b before the last step. The next point is
    the inverse quadratic through a, b and c, or the secant through b and
    c when a is c. It is taken only if it lies in the three quarters of
    the bracket next to b and moves b by less than half the step before
    last; otherwise the next point is the midpoint of b and c. A step
    shorter than tol_x / 2 is lengthened to tol_x / 2 toward c, so a root
    that close to b ends the search at the next point. The interpolation
    takes ratios of values of fn, never products, so it cannot underflow.

    Returns the first point where fn is exactly 0 or |fn| < tol_y; otherwise
    the midpoint of the bracket once it is no wider than tol_x or no longer
    splits in floating point.
    """
    sign_lo = math.copysign(1.0, y_lo)  # fn's sign at lo, tested against each new value
    tol = 0.5 * tol_x
    b, y_b, c, y_c = (lo, y_lo, hi, y_hi) if abs(y_lo) < abs(y_hi) else (hi, y_hi, lo, y_lo)
    step = step_1 = hi - lo  # the last step and the one before it
    r = hi - y_hi * (hi - lo) / (y_hi - y_lo) if first is None else first
    while hi - lo > tol_x:
        if not lo < r < hi:
            r = 0.5 * (lo + hi)
            if r <= lo or r >= hi:
                break  # interval no longer splittable in floating point
        y = yield r
        if y == 0.0 or abs(y) < tol_y:
            return r
        if sign_lo * y < 0.0:
            hi, y_hi = r, y
            c, y_c = lo, y_lo
        else:
            lo, y_lo = r, y
            c, y_c = hi, y_hi
        a, y_a, b, y_b = b, y_b, r, y
        if c == a:  # the new point crossed the root from a: restart the step history
            step = step_1 = b - a
        if abs(y_c) < abs(y_b):
            a, y_a, b, y_b, c, y_c = b, y_b, c, y_c, b, y_b
        m = 0.5 * (c - b)
        last, before = step, step_1
        step = step_1 = m  # the midpoint, unless the interpolated point is taken
        if abs(before) >= tol and abs(y_a) > abs(y_b):
            s = y_b / y_a
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                t, u = y_a / y_c, y_b / y_c
                p = s * (2.0 * m * t * (t - u) - (b - a) * (u - 1.0))
                q = (t - 1.0) * (u - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(before * q)):
                step, step_1 = p / q, last
        r = b + (step if abs(step) > tol else math.copysign(tol, m))
    return 0.5 * (lo + hi)


def _inward(lo: float, hi: float, g_lo: float, g_hi: float, tol: float) -> _Search:
    """The search for a root of G in [lo, hi], given G at both ends.

    Where G is undefined at one end, that end moves inward by bisection:
    a midpoint replaces the undefined end unless G there is defined with
    the sign of the other end, which it then replaces. Then Brent's method
    from the secant point. The root is None when G is undefined at both
    ends, has one sign at both, or no defined point of the opposite sign
    turns up before the bracket is tol wide.
    """
    while not g_lo * g_hi < 0.0:
        if hi - lo <= tol or math.isnan(g_lo) == math.isnan(g_hi):
            return None
        m = 0.5 * (lo + hi)
        g_m = yield m
        defined = g_hi if math.isnan(g_lo) else g_lo
        inward = math.isnan(g_m) or g_m * defined < 0.0   # m replaces the undefined end
        if inward == math.isnan(g_hi):
            hi, g_hi = m, g_m
        else:
            lo, g_lo = m, g_m
    return (yield from brent(lo, hi, g_lo, g_hi, tol, 0.0, None))


def solve(searches: list[_Search], values: Callable[[list[int], list[float]], list[float]]
          ) -> list[Optional[float]]:
    """Run the searches in lockstep; returns each one's root, in search order.

    Each round makes one call values(live, points): live the indices of the
    searches still running, in search order, and points their pending
    points; each search is sent its value there. A search that returns
    before its first point is never evaluated, and no searches make no call.
    """
    roots: list[Optional[float]] = [None] * len(searches)
    live, ys = range(len(searches)), [None] * len(searches)   # None starts a search
    while True:
        points = {}
        for i, y in zip(live, ys):
            try:
                points[i] = searches[i].send(y)
            except StopIteration as stop:
                roots[i] = stop.value
        if not points:
            return roots
        live = list(points)
        ys = values(live, list(points.values()))


def _roots(fn, hi, y_lo, y_hi, first) -> np.ndarray:
    """A root of fn(i, x) in [0, hi[i]] for each i with y_hi[i] > 0, NaN elsewhere.

    fn(i, 0) = y_lo[i] < 0 and fn(i, hi[i]) = y_hi[i]. Each root is one `brent` search from
    first[i] to float resolution; `solve` runs them all, each round one fn call on the live i.
    """
    x, live = np.full(hi.shape, np.nan), np.flatnonzero(y_hi > 0.0)
    x[live] = solve([brent(0.0, hi[i], y_lo[i], y_hi[i], 0.0, 0.0, first[i]) for i in live],
                    lambda k, xs: fn(live[k], np.array(xs)).tolist())
    return x


def find_roots(p: Problem, spans: list[tuple[float, float]], tol: float
               ) -> list[Optional[float]]:
    """A root of G in each span (lo, hi) to within tol, or None where none shows.

    Each span is searched by `_inward`, and `solve` runs the searches: the
    first round is one `residual` call on both ends of every span, and each
    later round one call on the pending point of every search still
    running. `residual` computes each height on its own, so each root is
    the one the span's search finds alone. No spans make no call.
    """
    if not spans:
        return []
    ends = residual(p, np.array(spans, dtype=float).ravel()).tolist()
    return solve([_inward(lo, hi, g_lo, g_hi, tol)
                  for (lo, hi), g_lo, g_hi in zip(spans, ends[::2], ends[1::2])],
                 lambda _, rs: residual(p, np.array(rs)).tolist())
