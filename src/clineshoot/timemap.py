"""RK4-free time-map of the clines, and the Illinois root finder refinement uses.

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
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .nonlinearity import _gauss_legendre
from .problem import Problem

OUTER_NODES = 40
INNER_NODES = 24

# Newton stops once a step moves its iterate by at most this relative amount
NEWTON_RTOL = 1e-14
NEWTON_MAX_STEPS = 60


def _mean_f(f, base: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Mean of f over [base, base + width] (width may be negative), elementwise."""
    x, w = _gauss_legendre(INNER_NODES)
    points = base[..., None] + (0.5 * width)[..., None] * (1.0 + x)
    return 0.5 * (f.value(points) @ w)


def _time(f, c: float, base: np.ndarray, z: np.ndarray, sign: float) -> np.ndarray:
    """int_0^z 2 dt / sqrt(2 c M(t)), M(t) the mean of f from base over sign * t^2."""
    x, w = _gauss_legendre(OUTER_NODES)
    t = (0.5 * z)[..., None] * (1.0 + x)
    m = _mean_f(f, base[..., None], sign * t * t)
    return z * (w / np.sqrt(2.0 * c * m)).sum(axis=-1)


def _newton(fn, x: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of the increasing fn on [0, hi], elementwise, by safeguarded Newton.

    fn(x) returns the value and the slope; fn(0) < 0 < fn(hi). A step that
    leaves the bracket of the signs seen so far is replaced by its midpoint.
    NaN entries stay NaN.
    """
    lo = np.zeros_like(x)
    for _ in range(NEWTON_MAX_STEPS):
        y, slope = fn(x)
        lo = np.where(y < 0.0, x, lo)
        hi = np.where(y > 0.0, x, hi)
        step = x - y / slope
        step = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        moved = np.abs(step - x) > NEWTON_RTOL * np.abs(x)
        x = step
        if not moved.any():
            break
    return x


def residual(p: Problem, rs) -> np.ndarray:
    """G(r) = T(U(r)) - omega2 for each height r; NaN where U >= 1 or u* >= 1."""
    f, lam = p.f, p.lam
    a, left, right = lam * p.weight.alpha, -p.weight.omega1, p.weight.omega2
    r = np.asarray(rs, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.where((0.0 < r) & (r < 1.0), r, np.nan)
        z_hi = np.sqrt(1.0 - r)
        r = np.where(_time(f, a, r, z_hi, 1.0) > left, r, np.nan)   # else U >= 1
        # d tau / dz is the integrand at t = z; the start is the exact z for constant f
        z = _newton(lambda z: (_time(f, a, r, z, 1.0) - left,
                               2.0 / np.sqrt(2.0 * a * _mean_f(f, r, z * z))),
                    np.minimum(left * np.sqrt(0.5 * a * f.value(r)), 0.5 * z_hi), z_hi)
        u = r + z * z
        energy = a * z * z * _mean_f(f, r, z * z) / lam   # int_U^u* f
        y_hi = 1.0 - u
        u = np.where(y_hi * _mean_f(f, u, y_hi) > energy, u, np.nan)   # else u* >= 1
        y = _newton(lambda y: (y * _mean_f(f, u, y) - energy, f.value(u + y)),
                    np.minimum(energy / f.value(u), 0.5 * y_hi), y_hi)
        return _time(f, lam, u + y, np.sqrt(y), -1.0) - right


def illinois(fn: Callable[[float], float], lo: float, hi: float,
             y_lo: float, y_hi: float, tol_x: float, tol_y: float) -> float:
    """A root of fn in [lo, hi], where fn(lo) = y_lo and fn(hi) = y_hi differ in sign.

    Each step is a safeguarded Illinois regula falsi step (Dowell & Jarratt,
    BIT 11, 1971): the next point is the secant point of the bracket, and
    when the same endpoint is kept twice in a row its stored value is
    halved, which pulls the next secant point toward it. A plain midpoint
    is taken instead whenever the secant point is not strictly inside the
    bracket or the bracket has not halved over the last two evaluations, so
    any three consecutive evaluations at least halve the bracket.

    Returns the first point where fn is exactly 0 or |fn| < tol_y; otherwise
    the midpoint of the bracket once it is no wider than tol_x or no longer
    splits in floating point.
    """
    kept = None  # endpoint kept by the last step: "lo" or "hi"
    sign_lo = math.copysign(1.0, y_lo)  # fn's sign at lo, which halving y_lo may underflow
    width_1, width_2 = math.inf, math.inf  # widths before the last two evaluations
    while hi - lo > tol_x:
        r = hi - y_hi * (hi - lo) / (y_hi - y_lo)
        if not lo < r < hi or hi - lo > 0.5 * width_2:
            r = 0.5 * (lo + hi)
            if r <= lo or r >= hi:
                break  # interval no longer splittable in floating point
        width_2, width_1 = width_1, hi - lo
        y = fn(r)
        if y == 0.0 or abs(y) < tol_y:
            return r
        if sign_lo * y < 0.0:
            hi, y_hi = r, y
            if kept == "lo":
                y_lo *= 0.5
            kept = "lo"
        else:
            lo, y_lo = r, y
            if kept == "hi":
                y_hi *= 0.5
            kept = "hi"
    return 0.5 * (lo + hi)


def find_root(p: Problem, lo: float, hi: float, tol: float) -> Optional[float]:
    """A root of G in [lo, hi] to within tol, or None when none shows.

    Where G is undefined at one end, that end moves inward by bisection:
    a midpoint replaces the undefined end unless G there is defined with
    the sign of the other end, which it then replaces. None comes back when
    G is undefined at both ends, has one sign at both, or no defined point
    of the opposite sign turns up before the bracket is tol wide.
    """
    def g(r: float) -> float:
        return float(residual(p, np.array([r]))[0])

    g_lo, g_hi = residual(p, np.array([lo, hi])).tolist()
    while not g_lo * g_hi < 0.0:
        if hi - lo <= tol or math.isnan(g_lo) == math.isnan(g_hi):
            return None
        m = 0.5 * (lo + hi)
        g_m = g(m)
        defined = g_hi if math.isnan(g_lo) else g_lo
        inward = math.isnan(g_m) or g_m * defined < 0.0   # m replaces the undefined end
        if inward == math.isnan(g_hi):
            hi, g_hi = m, g_m
        else:
            lo, g_lo = m, g_m
    return illinois(g, lo, hi, g_lo, g_hi, tol, 0.0)
