"""Fixed-step RK4 integration of the planar system u' = v, v' = -lam w(x) f(u).

The weight is constant on each side of x = 0, so the interval is integrated
as two smooth pieces with the state carried across the interface unchanged;
each side's step is the largest value not exceeding the target that divides
the side length exactly, making 0 and both endpoints exact grid nodes.
Two marches run both pieces. `_march` marches a float state, for
`integrate` and `poincare_map`. `_march_batch` marches a batch of columns
over stacked (3, N) stage buffers, for `sweep_terminals`, which returns the
terminal states of many initial heights as one `GammaCurve`. Both compute
the same RK4 expressions with the same operands in the same order, so a
column keeps the bits of its float march wherever f.value gives an array
the bits it gives a float.
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


def _sides(p: Problem, cfg: IntegratorConfig):
    """(c, h, n, x0, x1) of the left piece, then the right one: each piece is
    n RK4 steps of size h from x0 to x1 of u' = v, v' = c f(u)."""
    w = p.weight
    n1, h1, n2, h2 = step_plan(p, cfg)
    return (p.lam * w.alpha, h1, n1, w.omega1, 0.0), (-p.lam, h2, n2, 0.0, w.omega2)


def _march(p: Problem, cfg: IntegratorConfig, u, v, us=None, vs=None):
    """March the float state (u, v) from omega1 over the left piece, then the
    right one; the state carries across x = 0 unchanged. Returns the state
    at omega2, and appends each step's u and v to `us` and `vs` when given.

    A step that leaves [-BLOWUP_BOUND, BLOWUP_BOUND]^2, or turns u or v nan,
    raises BlowupError at that step's x: x0 + i h, or the piece's end x1 at
    its last step, so the x is the node `sample_grid` puts there.
    """
    feval = p.f.value
    for c, h, n, x0, x1 in _sides(p, cfg):
        hh = 0.5 * h
        h6 = h / 6.0
        for i in range(1, n + 1):
            # k1 = (v, c f(u)); k2 = (v2, c f(u2)); k3 = (v3, c f(u3)); k4 = (v4, c f(u4))
            k1v = c * feval(u)
            u2 = hh * v + u
            v2 = hh * k1v + v
            k2v = c * feval(u2)
            u3 = hh * v2 + u
            v3 = hh * k2v + v
            k3v = c * feval(u3)
            u4 = h * v3 + u
            v4 = h * k3v + v
            k4v = c * feval(u4)
            u, v = ((2.0 * (v2 + v3) + v + v4) * h6 + u,
                    (2.0 * (k2v + k3v) + k1v + k4v) * h6 + v)
            if not (-BLOWUP_BOUND <= u <= BLOWUP_BOUND and -BLOWUP_BOUND <= v <= BLOWUP_BOUND):
                raise BlowupError(x0 + i * h if i < n else x1, u, v)
            if us is not None:
                us.append(u)
                vs.append(v)
    return u, v


def _march_batch(p: Problem, cfg: IntegratorConfig, rs: np.ndarray) -> np.ndarray:
    """March the columns started at (rs, 0) over both pieces, as `_march`
    marches one; returns the (2, N) state (u, v) at omega2, a view of a
    stage buffer.

    Stage i of a step has a (3, N) buffer B_i of rows (u_i, v_i, c f(u_i)),
    so B_i[0:2] is the stage's state and B_i[1:3] its slope pair
    (k_iu, k_iv), and one numpy call updates both coordinates. B_1 is the
    step's state z. The next state goes into B_2, whose rows are dead by
    then, and B_1 and B_2 swap. The buffers and their views are made once,
    here, so a step allocates nothing but what f.value returns. Each step
    computes `_march`'s expressions with the same operands in the same
    order (IEEE + and * commute exactly, so every value keeps its bits),
    with 0-d constants, which numpy combines with an array faster than a
    Python float. After every step `_mark_blown` marks the columns that left
    the bound nan.
    """
    feval = p.f.value
    buffers = [np.empty((3, rs.size)) for _ in range(4)]
    buffers[0][0] = rs
    buffers[0][1] = 0.0
    two = np.array(2.0)
    # (u_i, c f(u_i), rows 0:2, rows 1:3) of each buffer
    state, stage2, (u3, f3, z3, k3), (u4, f4, z4, k4) = (
        (b[0], b[2], b[0:2], b[1:3]) for b in buffers)
    for c, h, n, _, _ in _sides(p, cfg):
        c, hh, h, h6 = (np.array(a) for a in (c, 0.5 * h, h, h / 6.0))
        for _ in range(n):
            u, f1, z, k1 = state
            u2, f2, z2, k2 = stage2
            np.multiply(feval(u), c, out=f1)
            np.multiply(k1, hh, out=z2)
            z2 += z
            np.multiply(feval(u2), c, out=f2)
            np.multiply(k2, hh, out=z3)
            z3 += z
            np.multiply(feval(u3), c, out=f3)
            np.multiply(k3, h, out=z4)
            z4 += z
            np.multiply(feval(u4), c, out=f4)
            # z + h6 (k1 + 2 (k2 + k3) + k4): k2 + k3 goes into k3, the
            # rest into z2, whose (u2, v2) no later operand reads
            np.add(k2, k3, out=k3)
            np.multiply(k3, two, out=z2)
            z2 += k1
            z2 += k4
            z2 *= h6
            z2 += z
            state, stage2 = stage2, state
            _mark_blown(z2, z4)  # |z| goes into z4, dead by now
    return state[2]


def _mark_blown(z: np.ndarray, scratch: np.ndarray) -> None:
    """Set each column of the (2, N) state z that left the bound to nan in
    both rows, in place; |z| goes into the (2, N) buffer `scratch`. One
    reduction tests all columns (initial=0.0 admits none); fmax skips nan,
    so a marked column never fails it again and stays nan."""
    if np.fmax.reduce(np.abs(z, out=scratch), axis=None, initial=0.0) > BLOWUP_BOUND:
        z[:, ~(scratch <= BLOWUP_BOUND).all(axis=0)] = np.nan


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
    _march(p, cfg, z0.u, z0.v, us, vs)
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
    """Poincare map applied to a 1-D batch of initial points (r, 0), r in rs;
    a single r is a batch of one."""
    rs = np.atleast_1d(np.asarray(rs, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        z = _march_batch(p, cfg, rs)
    # a column can turn nan in one coordinate without leaving the bound
    z[:, np.isnan(z).any(axis=0)] = np.nan
    return GammaCurve(rs=rs, u_end=z[0].copy(), v_end=z[1].copy())


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
