"""Fixed-step RK4 integration of the planar system u' = v, v' = -lam w(x) f(u).

The weight is constant on each side of x = 0, so the interval is integrated
as two smooth pieces with the state carried across the interface unchanged;
each side's step is the largest value not exceeding the target that divides
the side length exactly, making 0 and both endpoints exact grid nodes.
`_march` runs the two pieces with one RK4 kernel over a float state, for
`integrate` and `poincare_map`, or over a batch of columns, for
`sweep_terminals`, which returns the terminal states of many initial
heights as one `GammaCurve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .problem import Problem

DEFAULT_TARGET_STEP = 1e-4
DEFAULT_BLOWUP_BOUND = 1e3

# Effective step is clamped so each instance gets at least this many steps
# across the habitat, whatever the requested target.
MIN_STEPS_PER_SPAN = 100

# CSV writers format this many rows per write, from Python floats; joining
# a whole file into one string would hold every row in memory at once.
CSV_CHUNK_ROWS = 1024


class BlowupError(RuntimeError):
    """A trajectory left the bounded region before reaching omega2."""

    def __init__(self, x: float, u: float, v: float):
        self.x = x
        self.u = u
        self.v = v
        super().__init__(f"trajectory exceeded the blow-up bound at x={x:.6g} (u={u:.6g}, v={v:.6g})")


@dataclass(frozen=True)
class PhasePoint:
    """A point (u, v) of the phase plane; v is the spatial derivative of u."""

    u: float
    v: float

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"phase point must be finite, got ({self.u}, {self.v})")


@dataclass(frozen=True)
class IntegratorConfig:
    target_step: float = DEFAULT_TARGET_STEP
    blowup_bound: float = DEFAULT_BLOWUP_BOUND

    def __post_init__(self):
        if not self.target_step > 0.0:
            raise ValueError(f"target_step must be > 0, got {self.target_step}")
        if not self.blowup_bound > 0.0:
            raise ValueError(f"blowup_bound must be > 0, got {self.blowup_bound}")


@dataclass(eq=False)
class Trajectory:
    """Sampled solution on [omega1, omega2] with one sample exactly at x = 0."""

    xs: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    split_index: int

    @property
    def terminal(self) -> PhasePoint:
        return PhasePoint(float(self.us[-1]), float(self.vs[-1]))

    def write_csv(self, out: TextIO, header_lines: tuple[str, ...] = ()) -> None:
        """Write one `x,u,v` row per sample."""
        for line in header_lines:
            out.write(f"# {line}\n")
        out.write("x,u,v\n")
        for start in range(0, len(self.xs), CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            out.write("".join(f"{x:.17g},{u:.17g},{v:.17g}\n" for x, u, v in zip(
                self.xs[rows].tolist(), self.us[rows].tolist(), self.vs[rows].tolist())))


def step_plan(p: Problem, cfg: IntegratorConfig) -> tuple[int, float, int, float]:
    """Step counts and sizes (n1, h1, n2, h2) of the left and right sides.

    The target is cfg.target_step, clamped so the habitat never gets fewer
    than MIN_STEPS_PER_SPAN steps; each side takes the largest step not
    exceeding it that divides the side length exactly.
    """
    target = min(cfg.target_step, p.weight.span / MIN_STEPS_PER_SPAN)
    n1 = max(1, math.ceil(-p.weight.omega1 / target))
    n2 = max(1, math.ceil(p.weight.omega2 / target))
    return n1, -p.weight.omega1 / n1, n2, p.weight.omega2 / n2


def _rk4_side(feval, c, h: float, n: int, u, v, bound: float, x0: float, leave, record=None):
    """March n RK4 steps of u' = v, v' = c f(u) from x0; returns final (u, v).

    The state is a float or an array of columns, and `feval` picks its
    arithmetic by type. After each step `ok` says whether the state lies in
    [-bound, bound]^2; unless it is the bool True, `leave(x, u, v, ok)` gets
    the state and returns the one to go on from. `record(u, v)` is called
    after every step when given.
    """
    hh = 0.5 * h
    h6 = h / 6.0
    for i in range(n):
        k1u = v
        k1v = c * feval(u)
        u2 = u + hh * k1u
        v2 = v + hh * k1v
        k2u = v2
        k2v = c * feval(u2)
        u3 = u + hh * k2u
        v3 = v + hh * k2v
        k3u = v3
        k3v = c * feval(u3)
        u4 = u + h * k3u
        v4 = v + h * k3v
        k4u = v4
        k4v = c * feval(u4)
        u = u + h6 * (k1u + 2.0 * (k2u + k3u) + k4u)
        v = v + h6 * (k1v + 2.0 * (k2v + k3v) + k4v)
        ok = (abs(u) <= bound) & (abs(v) <= bound)
        if ok is not True:
            u, v = leave(x0 + (i + 1) * h, u, v, ok)
        if record is not None:
            record(u, v)
    return u, v


def _raise_blowup(x: float, u, v, ok):
    """`leave` of a single trajectory: raises BlowupError once it is out of bounds."""
    if not ok:
        raise BlowupError(x, u, v)
    return u, v


def _march(p: Problem, cfg: IntegratorConfig, u, v, leave=_raise_blowup, record=None):
    """Run `_rk4_side` over the left piece, then the right one; the state
    (u, v) carries across x = 0 unchanged. Returns the state at omega2.
    """
    w = p.weight
    n1, h1, n2, h2 = step_plan(p, cfg)
    u, v = _rk4_side(p.f.value, p.lam * w.alpha, h1, n1, u, v, cfg.blowup_bound, w.omega1,
                     leave, record)
    return _rk4_side(p.f.value, -p.lam, h2, n2, u, v, cfg.blowup_bound, 0.0, leave, record)


def integrate(p: Problem, cfg: IntegratorConfig, z0: PhasePoint) -> Trajectory:
    """Integrate from (omega1, z0) to omega2, sampling every step.

    Two fixed-step RK4 sweeps, one per constant-weight side; u and v are
    continuous across x = 0 (only the second derivative jumps).
    """
    w = p.weight
    n1, _, n2, _ = step_plan(p, cfg)
    xs = np.concatenate([np.linspace(w.omega1, 0.0, n1 + 1),
                         np.linspace(0.0, w.omega2, n2 + 1)[1:]])
    us = np.empty(n1 + n2 + 1)
    vs = np.empty(n1 + n2 + 1)
    us[0], vs[0] = z0.u, z0.v
    pos = 1

    def record(u, v):
        nonlocal pos
        us[pos], vs[pos] = u, v
        pos += 1

    _march(p, cfg, z0.u, z0.v, record=record)
    return Trajectory(xs=xs, us=us, vs=vs, split_index=n1)


def poincare_map(p: Problem, cfg: IntegratorConfig, z0: PhasePoint) -> PhasePoint:
    """Terminal phase point at omega2 of the trajectory started at (omega1, z0)."""
    return PhasePoint(*_march(p, cfg, z0.u, z0.v))


@dataclass(eq=False)
class GammaCurve:
    """Terminal states at omega2 of the trajectories started at (r, 0), r in rs.

    Over a grid of [0, 1] this is the image of the segment {(r, 0)} under
    the interval map.
    """

    rs: np.ndarray
    u_end: np.ndarray     # nan where the column blew up
    v_end: np.ndarray     # nan where the column blew up
    ok: np.ndarray        # False where the column blew up

    @property
    def resolution(self) -> int:
        return len(self.rs)

    def sign_changes(self) -> int:
        """Count of strict sign changes of terminal v over interior ok entries."""
        inner = self.v_end[1:-1][self.ok[1:-1]]
        inner = inner[inner != 0.0]
        return int(np.sum(inner[:-1] * inner[1:] < 0.0))

    def write_csv(self, out: TextIO, header_lines: tuple[str, ...] = ()) -> None:
        """Write one `r,u_end,v_end,status` row per height."""
        for line in header_lines:
            out.write(f"# {line}\n")
        out.write("r,u_end,v_end,status\n")
        for start in range(0, self.resolution, CSV_CHUNK_ROWS):
            rows = slice(start, start + CSV_CHUNK_ROWS)
            out.write("".join(
                f"{r:.17g},{u:.17g},{v:.17g},ok\n" if ok else f"{r:.17g},nan,nan,blowup\n"
                for r, u, v, ok in zip(self.rs[rows].tolist(), self.u_end[rows].tolist(),
                                       self.v_end[rows].tolist(), self.ok[rows].tolist())))


def sweep_terminals(p: Problem, cfg: IntegratorConfig, rs: np.ndarray) -> GammaCurve:
    """Poincare map applied to a whole batch of initial points (r, 0), r in rs."""
    rs = np.asarray(rs, dtype=float)
    active = np.ones(rs.shape, dtype=bool)

    def leave(x, u, v, ok):
        # freeze newly blown columns at zero (their results are not used)
        blown = active & ~ok
        if blown.any():
            active[blown] = False
            u = np.where(active, u, 0.0)
            v = np.where(active, v, 0.0)
        return u, v

    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _march(p, cfg, rs, np.zeros_like(rs), leave)
    u[~active] = np.nan
    v[~active] = np.nan
    return GammaCurve(rs=rs, u_end=u, v_end=v, ok=active)


def energy_profile(p: Problem, traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Per-side energy v^2/2 + lam w F(u) along a trajectory.

    F is the antiderivative of f with F(0) = 0. The energy is constant along
    trajectories within each constant-weight side, which makes it an
    integration-accuracy oracle; the interface sample belongs to both sides.
    """
    F = np.asarray(p.f.antiderivative(traj.us), dtype=float)
    kinetic = 0.5 * traj.vs * traj.vs
    split = traj.split_index
    left = kinetic[: split + 1] - p.lam * p.weight.alpha * F[: split + 1]
    right = kinetic[split:] + p.lam * F[split:]
    return left, right
