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

import numpy as np

from .problem import Problem

DEFAULT_TARGET_STEP = 1e-4
BLOWUP_BOUND = 1e3   # a march stops as a blow-up once |u| or |v| exceeds it

# Effective step is clamped so each instance gets at least this many steps
# across the habitat, whatever the requested target.
MIN_STEPS_PER_SPAN = 100


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

    def __post_init__(self):
        if not 0.0 < self.target_step < math.inf:
            raise ValueError(f"target_step must be finite and > 0, got {self.target_step}")


@dataclass(eq=False)
class Trajectory:
    """Sampled solution on [omega1, omega2] with one sample exactly at x = 0."""

    xs: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    split_index: int


def coarsest_step(p: Problem) -> float:
    """span / MIN_STEPS_PER_SPAN, the largest target step_plan marches as given."""
    return p.weight.span / MIN_STEPS_PER_SPAN


def step_plan(p: Problem, cfg: IntegratorConfig) -> tuple[int, float, int, float]:
    """Step counts and sizes (n1, h1, n2, h2) of the left and right sides.

    The target is cfg.target_step, clamped to coarsest_step so the habitat
    never gets fewer than MIN_STEPS_PER_SPAN steps; each side takes the
    largest step not exceeding it that divides the side length exactly.
    """
    target = min(cfg.target_step, coarsest_step(p))
    n1 = max(1, math.ceil(-p.weight.omega1 / target))
    n2 = max(1, math.ceil(p.weight.omega2 / target))
    return n1, -p.weight.omega1 / n1, n2, p.weight.omega2 / n2


def _rk4_side(feval, c, h: float, n: int, u, v, x0: float, leave, record=None):
    """March n RK4 steps of u' = v, v' = c f(u) from x0; returns final (u, v).

    The state is a float or an array of columns, and `feval` picks its
    arithmetic by type. `leave(x, u, v)` gets the state at x, always the
    step's own, and returns the one to go on from, which may be that state
    written in place: a float state calls it only once the state has left
    [-BLOWUP_BOUND, BLOWUP_BOUND]^2, an array of columns after every step,
    so that `leave` tests the bound for the whole batch at once.
    `record(u, v)` is called after every step when given.

    Each step computes the classic RK4 expressions with the same operands
    in the same order, but with augmented assignments on fresh temporaries:
    a float rebinds and an array updates in place, and IEEE + and * commute
    exactly, so every value keeps its bits. An array state takes its
    constants as 0-d arrays, the same doubles, which numpy combines with an
    array faster than a Python float. The arrays written in place are
    the step's own temporaries and what `feval` returns, which must be a new
    float or array (see `Nonlinearity.value`); the caller's `u` and `v` are
    never written.
    """
    step = h
    hh = 0.5 * h
    h6 = h / 6.0
    two = 2.0
    batch = isinstance(u, np.ndarray)
    if batch:
        c, hh, h, h6, two = (np.array(a, dtype=float) for a in (c, hh, h, h6, two))
    for i in range(n):
        # k1 = (v, c f(u)); k2 = (v2, c f(u2)); k3 = (v3, c f(u3)); k4 = (v4, c f(u4))
        k1v = feval(u)
        k1v *= c
        u2 = hh * v
        u2 += u
        v2 = hh * k1v
        v2 += v
        k2v = feval(u2)
        k2v *= c
        u3 = hh * v2
        u3 += u
        v3 = hh * k2v
        v3 += v
        k3v = feval(u3)
        k3v *= c
        u4 = h * v3
        u4 += u
        v4 = h * k3v
        v4 += v
        k4v = feval(u4)
        k4v *= c
        # u + h6 (k1u + 2 (k2u + k3u) + k4u), built up in v2; likewise v in k2v
        v2 += v3
        v2 *= two
        v2 += v
        v2 += v4
        v2 *= h6
        v2 += u
        k2v += k3v
        k2v *= two
        k2v += k1v
        k2v += k4v
        k2v *= h6
        k2v += v
        u, v = v2, k2v
        if batch or not (abs(u) <= BLOWUP_BOUND and abs(v) <= BLOWUP_BOUND):
            u, v = leave(x0 + (i + 1) * step, u, v)
        if record is not None:
            record(u, v)
    return u, v


def _raise_blowup(x: float, u, v):
    """`leave` of a single trajectory, called once it is out of bounds."""
    raise BlowupError(x, u, v)


def _mark_blown(x: float, u, v):
    """`leave` of a batch: sets each column that left the bound to nan in u
    and v, in place. One reduction tests all columns (initial=0.0 admits none);
    fmax skips nan, so a marked column never fails it again and stays nan."""
    if np.fmax.reduce(np.fmax(abs(u), abs(v)), initial=0.0) > BLOWUP_BOUND:
        blown = ~((abs(u) <= BLOWUP_BOUND) & (abs(v) <= BLOWUP_BOUND))
        u[blown] = np.nan
        v[blown] = np.nan
    return u, v


def _march(p: Problem, cfg: IntegratorConfig, u, v, leave=_raise_blowup, record=None):
    """Run `_rk4_side` over the left piece, then the right one; the state
    (u, v) carries across x = 0 unchanged. Returns the state at omega2.
    """
    w = p.weight
    n1, h1, n2, h2 = step_plan(p, cfg)
    u, v = _rk4_side(p.f.value, p.lam * w.alpha, h1, n1, u, v, w.omega1, leave, record)
    return _rk4_side(p.f.value, -p.lam, h2, n2, u, v, 0.0, leave, record)


def sample_grid(p: Problem, cfg: IntegratorConfig) -> tuple[np.ndarray, int]:
    """The x of every step of `step_plan` from omega1 to omega2, and the index of x = 0."""
    n1, _, n2, _ = step_plan(p, cfg)
    return np.concatenate([np.linspace(p.weight.omega1, 0.0, n1 + 1),
                           np.linspace(0.0, p.weight.omega2, n2 + 1)[1:]]), n1


def integrate(p: Problem, cfg: IntegratorConfig, z0: PhasePoint) -> Trajectory:
    """Integrate from (omega1, z0) to omega2, sampling every step.

    Two fixed-step RK4 sweeps, one per constant-weight side; u and v are
    continuous across x = 0 (only the second derivative jumps).
    """
    xs, split = sample_grid(p, cfg)
    us, vs = [z0.u], [z0.v]

    def record(u, v):
        us.append(u)
        vs.append(v)

    _march(p, cfg, z0.u, z0.v, record=record)
    return Trajectory(xs=xs, us=np.array(us), vs=np.array(vs), split_index=split)


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

    @property
    def ok(self) -> np.ndarray:
        """False where the column blew up."""
        return ~np.isnan(self.v_end)


def sweep_terminals(p: Problem, cfg: IntegratorConfig, rs: np.ndarray) -> GammaCurve:
    """Poincare map applied to a whole batch of initial points (r, 0), r in rs."""
    rs = np.asarray(rs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = _march(p, cfg, rs, np.zeros_like(rs), _mark_blown)
    # a column can turn nan in one coordinate without leaving the bound
    blown = np.isnan(u) | np.isnan(v)
    u[blown] = np.nan
    v[blown] = np.nan
    return GammaCurve(rs=rs, u_end=u, v_end=v)


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
