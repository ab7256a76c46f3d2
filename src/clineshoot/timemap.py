"""RK4-free time-map of the clines, and the Brent searches refinement runs.

With a = lam alpha, a profile started at (r, 0) rises on the left piece
(u'' = a f(u) > 0 while 0 < u < 1). By energy conservation it takes the time
tau(z) = int_0^z 2 dt / sqrt(2 a M_L(t)) to reach r + z^2, M_L(t) being the
mean of f over [r, r + t^2], and it meets x = 0 at U = r + z^2 where
tau(z) = -omega1. On the right piece (u'' = -lam f(u) < 0) it rises on to the
turning height u*, where lam int_U^u* f = a int_r^U f, in the time
T_up = int_0^sqrt(u* - U) 2 dt / sqrt(2 lam M_R(t)), M_R(t) the mean of f
over [u* - t^2, u*]. Then it falls to the lower turning height u_min, where
F(u_min) = F(u*) (F(u) = int_0^u f), and swings between the two, each
half-swing taking T_down: the time from u* down to 0, by the same
substitution, plus the time from u_min up to 0, by s = u_min + t^2 with the
mean of f over [u_min, u_min + t^2], which is negative. F rises on (0, 1),
so u_min < 0. So r gives a root of the terminal slope with U < 1 and
u* < 1 exactly where G_j(r) = T_up + j T_down - omega2 = 0 for some
j = 0, 1, 2, ...: a cline inside (0, 1) for j = 0, and for j >= 1 a profile
that dips below 0. Near a root G_j has the sign of the terminal slope. This
is the time-map of the phase-plane method (R. Schaaf, Global Solution
Branches of Two Point Boundary Value Problems, LNM 1458, Springer 1990).
The substitutions s = r + t^2, s = u* - t^2 and s = u_min + t^2 remove the
square-root singularities at the turning points, and each energy
difference is t^2 times a mean of f, so nothing cancels. Every integral is
a nested Gauss-Legendre rule over f.value, whose nodes and weights
`nonlinearity._gauss_legendre` builds in float arithmetic, with no LAPACK;
no RK4 step runs, and on a polynomial f no libm function either.

Brent's method is one generator, `brent`, that yields each point and is
sent the value there, and `solve`, the one driver of every root search
here, runs such searches in lockstep, each round one call on the live
searches' indices and points. `residual` finds U, u* and u_min by one
search per height each, `shooting.bisect_cline` one on the terminal slope
of the fine-step Poincare map, and `find_roots` one per span on G_j, each
round one `residual` call with each live span's j; `residual` computes
each element on its own, so every root has the bits of a lone solve. When
`shooting.sweep_brackets` chose the step, the root of G_j is the first
point of `bisect_cline`'s search, so a cline is always a root of the RK4
slope and the time-map saves its maps.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Optional

import numpy as np

from .nonlinearity import _gauss_legendre, _mean_f
from .problem import Problem

OUTER_NODES = 40
INNER_NODES = 24
TAIL_ULPS = 8   # the least tolerance of a `brent` search, in ulps of its best point b


def _time(f, c: float, base: np.ndarray, z: np.ndarray, sign: float) -> np.ndarray:
    """int_0^z 2 dt / sqrt(2 c M(t)), M(t) the mean of f from base over sign * t^2."""
    x, w = _gauss_legendre(OUTER_NODES)
    t = (0.5 * z)[..., None] * (1.0 + x)
    m = _mean_f(f, base[..., None], sign * t * t, INNER_NODES)
    return z * (w / np.sqrt(2.0 * c * m)).sum(axis=-1)


def residual(p: Problem, rs, laps=0) -> np.ndarray:
    """G_j(r) = T_up + j T_down - omega2 for each height r and its laps j, an int
    or an array like rs; NaN where U >= 1 or u* >= 1, and where j > 0 and
    u* has no lower turning height in [-1, 0). T_down is computed only for
    the heights with j > 0. The result has the shape of rs, 0-d for one height.
    """
    r = np.asarray(rs, dtype=float)
    laps = np.broadcast_to(laps, r.shape).ravel()
    with np.errstate(invalid="ignore", divide="ignore"):
        t, top = _rise(p, np.where((0.0 < r) & (r < 1.0), r, np.nan).ravel())
        k = np.flatnonzero(laps > 0)
        if k.size:
            t[k] += laps[k] * _fall(p.f, p.lam, top[k])
        return (t - p.weight.omega2).reshape(r.shape)


def _rise(p: Problem, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_up and u* of each height r in (0, 1), NaN where U >= 1 or u* >= 1.

    U and u* are found by `brent` searches run by `solve`, from their roots for constant f.
    """
    f, lam = p.f, p.lam
    a, left = lam * p.weight.alpha, -p.weight.omega1
    z_hi = np.sqrt(1.0 - r)
    z = _roots(lambda i, z: _time(f, a, r[i], z, 1.0), np.full_like(r, left), z_hi,
               np.minimum(left * np.sqrt(0.5 * a * f.value(r)), 0.5 * z_hi))
    u = r + z * z
    energy = a * z * z * _mean_f(f, r, z * z, INNER_NODES) / lam   # int_U^u* f
    y_hi = 1.0 - u
    y = _roots(lambda i, y: y * _mean_f(f, u[i], y, INNER_NODES), energy, y_hi,
               np.minimum(energy / f.value(u), 0.5 * y_hi))
    return _time(f, lam, u + y, np.sqrt(y), -1.0), u + y


def _bottom(f, top: np.ndarray) -> np.ndarray:
    """u_min = -q of each u* = top: F(-q) = F(u*) for q in [0, 1], NaN where none.

    Each q is one `brent` search run by `solve`, from u*, its root for odd f.
    """
    zero = np.zeros_like(top)
    energy = top * _mean_f(f, zero, top, INNER_NODES)   # F(u*) = int_0^u* f
    q = _roots(lambda i, q: -q * _mean_f(f, zero[i], -q, INNER_NODES), energy,
               np.ones_like(top), top)
    return -q


def _fall(f, lam: float, top: np.ndarray) -> np.ndarray:
    """T_down of each u* = top: the time from u* down to 0, then from 0 down to u_min."""
    bottom = _bottom(f, top)
    return _time(f, lam, top, np.sqrt(top), -1.0) + _time(f, -lam, bottom, np.sqrt(-bottom), 1.0)


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
    last; otherwise the next point is the midpoint of b and c. The
    tolerance is tol_x, or TAIL_ULPS ulps of b where that is wider, like
    the 2 eps |b| term of Brent's; a search with tol_x = 0 so ends a few
    ulps from its root at any scale, not after bisecting down to adjacent
    floats. A step shorter than half the tolerance is lengthened to half of
    it toward c, so a root that close to b ends the search at the next
    point. The interpolation takes ratios of values of fn, never products,
    so it cannot underflow.

    Returns the first point where fn is exactly 0 or |fn| < tol_y; otherwise
    the midpoint of the bracket once it is no wider than the tolerance.
    """
    sign_lo = math.copysign(1.0, y_lo)  # fn's sign at lo, tested against each new value
    b, y_b, c, y_c = (lo, y_lo, hi, y_hi) if abs(y_lo) < abs(y_hi) else (hi, y_hi, lo, y_lo)
    step = step_1 = hi - lo  # the last step and the one before it
    r = hi - y_hi * (hi - lo) / (y_hi - y_lo) if first is None else first
    while True:
        tol = 0.5 * max(tol_x, TAIL_ULPS * math.ulp(b))   # half the tolerance
        if hi - lo <= 2.0 * tol:
            break
        if not lo < r < hi:
            r = 0.5 * (lo + hi)
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


def _roots(g, target, hi, first) -> np.ndarray:
    """x in [0, hi[i]] with g(i, x) = target[i] where g(i, hi[i]) > target[i], NaN elsewhere.

    g(i, 0) = 0 < target[i]. Each x is one `brent` search from first[i] to TAIL_ULPS ulps;
    `solve` runs them all, each round one g call on the live i.
    """
    y_hi = g(slice(None), hi) - target
    x, live = np.full(hi.shape, np.nan), np.flatnonzero(y_hi > 0.0)
    x[live] = solve([brent(0.0, hi[i], -target[i], y_hi[i], 0.0, 0.0, first[i]) for i in live],
                    lambda k, xs: (g(live[k], np.array(xs)) - target[live[k]]).tolist())
    return x


def find_roots(p: Problem, spans: list[tuple[float, float]], tol: float
               ) -> list[Optional[float]]:
    """A root of G_j in each span (lo, hi) to within tol, or None where none shows.

    The first round is one `residual` call on both ends of every span, for
    G_0, and for the spans where G_0 < 0 at both ends, whose profiles turn
    at u* before omega2, one call on their ends for each j = 1, 2, ... while
    G_j stays < 0 at both (T_down > 0, so G_j rises with j). Such a span
    takes the smallest j at which G_j has opposite signs at its ends; every
    other span keeps j = 0. Each span is then searched by `_inward` on its
    G_j, and `solve` runs the searches: each later round is one `residual`
    call on the pending point of every search still running, with its
    span's j. `residual` computes each height on its own, so each root is
    the one the span's search finds alone. No spans make no call.
    """
    if not spans:
        return []
    ends = np.array(spans, dtype=float)
    g = residual(p, ends)
    laps = np.zeros(len(spans), dtype=int)
    turned, j = np.flatnonzero((g < 0.0).all(axis=1)), 1
    while turned.size:
        g_j = residual(p, ends[turned], j)
        split = g_j[:, 0] * g_j[:, 1] < 0.0
        g[turned[split]], laps[turned[split]] = g_j[split], j
        turned, j = turned[(g_j < 0.0).all(axis=1)], j + 1
    return solve([_inward(lo, hi, g_lo, g_hi, tol)
                  for (lo, hi), (g_lo, g_hi) in zip(spans, g.tolist())],
                 lambda live, rs: residual(p, np.array(rs), laps[live]).tolist())
