"""Shooting pipeline: sweep the initial-height segment, bracket sign changes
of the terminal slope, and refine each bracket down to a steady state.

The brackets are those of the sweep at the fine step, but they are
usually found without running it: two coarse sweeps settle the sign of the
terminal slope wherever it clears the node's own step-doubling error
estimate by a wide margin, and settle as blown a node blown in both; only
the other nodes, their neighbours and the edges of blow-ups are shot again
at the fine step, one scalar Poincare map each (`sweep_brackets`).
The fine step is the caller's, or, when the caller gives none, the one
`choose_step` takes from that same error estimate. A caller's step is swept
directly when its sweep takes no more steps than the two coarse sweeps.
Every reported number is computed at the fine step.
Every sweep comes back from `integrator.sweep_terminals` as a `GammaCurve`,
and the pre-pass puts its mixed coarse and fine values into one; each is
scanned by `find_brackets`.

Every bracket is refined by Brent's method on the terminal slope of the
scalar Poincare map (`bisect_cline`). When the step is the one
`choose_step` took, its first point is the RK4-free time-map root, found for
all the brackets at once by one `timemap.find_roots` call: a root that meets
tol_v there costs one `integrate` and no map, one that misses it is Brent's
first iterate. At a caller's step it is the secant point.

A cline is a nonconstant solution with zero slope at both ends; in phase-plane
terms it is an initial point (c, 0), 0 < c < 1, whose image under the
interval map lands back on the u-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from . import timemap
from .integrator import (
    DEFAULT_TARGET_STEP,
    BlowupError,
    GammaCurve,
    IntegratorConfig,
    PhasePoint,
    Trajectory,
    coarsest_step,
    integrate,
    poincare_map,
    step_plan,
    sweep_terminals,
)
from .problem import Problem, neumann_necessary_integral

DEFAULT_RESOLUTION = 2001
MIN_RESOLUTION = 11
DEFAULT_TOL_R = 1e-12
DEFAULT_TOL_V = 1e-10

# terminal v this small at a sweep node counts as an exact root
EXACT_ROOT_TOL = 1e-13

# trajectories approaching the trivial equilibria closer than this, or
# spanning no more than this, are rejected rather than reported as clines
TRIVIAL_MARGIN = 1e-9

# The bracketing pre-pass sweeps at H and H / 2, where H is the coarsest
# step step_plan allows, integrator.coarsest_step, so step_plan clamps
# neither of them. It trusts a coarse sign only where |v| exceeds
# PREPASS_SAFETY times the node's step-doubling estimate plus
# EXACT_ROOT_TOL, and stands only when at most PREPASS_MAX_RESHOTS nodes
# need a scalar map at the fine step. With a caller's step it runs only when
# its two sweeps take fewer steps than the fine sweep.
# At the chosen step one scalar map costs 1/38 to 1/75 of the 1999-node sweep
# on prop-2 and prop-1, and at step 1e-3 at most 1/35 of lambda-scan's
# 499-node sweep (one core, medians); 32 stays below each break-even.
PREPASS_SAFETY = 100.0
PREPASS_MAX_RESHOTS = 32


def _grid(resolution: int) -> np.ndarray:
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    try:
        return np.linspace(0.0, 1.0, resolution)
    except MemoryError as exc:
        raise ValueError(f"resolution {resolution} is too large to allocate") from exc


def build_gamma(p: Problem, cfg: IntegratorConfig,
                resolution: int = DEFAULT_RESOLUTION) -> GammaCurve:
    """Shoot from (r, 0) for every r on a uniform grid over [0, 1]."""
    return sweep_terminals(p, cfg, _grid(resolution))


@dataclass(frozen=True)
class Bracket:
    """Pair of initial heights whose terminal slopes have opposite signs.

    A degenerate bracket (r_lo == r_hi) marks a sweep node that already is
    a root to within EXACT_ROOT_TOL.
    """

    r_lo: float
    r_hi: float
    v_lo: float
    v_hi: float

    def __post_init__(self):
        if self.r_lo == self.r_hi:
            return
        if not self.r_lo < self.r_hi:
            raise ValueError(f"bracket endpoints out of order: {self.r_lo} >= {self.r_hi}")
        if not self.v_lo * self.v_hi < 0.0:
            raise ValueError("bracket endpoints must have opposite terminal-v signs")

    @property
    def is_exact(self) -> bool:
        return self.r_lo == self.r_hi


class BracketLostError(RuntimeError):
    """Refinement hit a blow-up inside the bracket; the sign change is lost."""

    def __init__(self, bracket: Bracket, r: float, cause: BlowupError):
        self.bracket = bracket
        self.r = r
        self.cause = cause
        super().__init__(f"blow-up at r={r:.17g} inside bracket "
                         f"[{bracket.r_lo:.17g}, {bracket.r_hi:.17g}]")


def find_brackets(g: GammaCurve) -> list[Bracket]:
    """Scan a terminal sweep for strict sign changes of terminal v.

    The one scan of a sweep: `gamma` counts its brackets and the pre-pass
    runs it on its mixed curve. Heights outside (0, 1) are the trivial
    equilibria and never bracket; blow-up (nan) entries are skipped, so a
    bracket may span a blow-up gap (the sign change is then confirmed or
    lost during refinement). Entries with |v| <= EXACT_ROOT_TOL come back
    as degenerate brackets and separate their neighbours.
    """
    keep = g.ok & (g.rs > 0.0) & (g.rs < 1.0)
    rs, vs = g.rs[keep].tolist(), g.v_end[keep].tolist()
    out: list[Bracket] = []
    for j in range(len(rs)):
        if abs(vs[j]) <= EXACT_ROOT_TOL:
            out.append(Bracket(rs[j], rs[j], vs[j], vs[j]))
            continue
        if j + 1 < len(rs) and abs(vs[j + 1]) > EXACT_ROOT_TOL and vs[j] * vs[j + 1] < 0.0:
            out.append(Bracket(rs[j], rs[j + 1], vs[j], vs[j + 1]))
    return out


@dataclass(frozen=True)
class BracketingReport:
    """How the brackets were found; `find` prints it, no output file holds it.

    `step` is the target step of the brackets, and every number computed
    from them. `step_note` says how it was chosen from E (see
    choose_step), and is None when the caller gave it. `direct_reason` is
    None when the certified pre-pass stood, and says why the direct fine
    sweep ran otherwise. With the pre-pass, a node neither re-shot nor
    blown keeps its H / 2 value.
    """

    nodes: int                          # interior grid nodes
    step: float
    coarse_steps: tuple[float, ...] = ()
    error_estimate: float = math.nan    # E; nan when no node survived both coarse sweeps
    reshot: int = 0                     # nodes that need a fine-step value
    direct_reason: Optional[str] = None
    step_note: Optional[str] = None
    blown: int = 0                      # blown in both coarse sweeps and not re-shot

    def summary(self) -> str:
        """The `step:` line of a chosen step, then the `bracketing:` line."""
        step = "" if self.step_note is None else f"step: {self.step:.3g}{self.step_note}\n"
        if self.direct_reason is not None:
            return f"{step}bracketing: direct sweep ({self.direct_reason})"
        h, h2 = self.coarse_steps
        return (f"{step}bracketing: coarse steps {h:.6g} and {h2:.6g}, "
                f"E = {self.error_estimate:.3g}, "
                f"{self.reshot} of {self.nodes} nodes re-shot at the fine step, "
                f"{self.blown} taken as blown")


def _steps(p: Problem, cfg: IntegratorConfig) -> int:
    n1, _, n2, _ = step_plan(p, cfg)
    return n1 + n2


def choose_step(p: Problem, error: float, tol_v: float) -> tuple[float, str]:
    """The fine step for an error estimate E of v at H / 2, and how it was chosen.

    RK4's global error scales with h^4, so the step whose estimated error
    of v is tol_v / 10 is h* = (H / 2) (tol_v / (10 E))^(1/4) (step
    doubling, Hairer, Norsett & Wanner, Solving ODEs I, II.4). It is kept
    within [low, H / 2]: no coarser than the coarse sweep it is estimated
    from, and no finer than low = min(DEFAULT_TARGET_STEP, H / 2), the
    library's default step or, on a habitat shorter than 200
    DEFAULT_TARGET_STEP, H / 2 itself. A nan E, where no height survived
    both coarse sweeps, gives low. The note completes the line
    `step: <h>`, and names the interval wherever it set the step.
    """
    half = 0.5 * coarsest_step(p)
    low = min(DEFAULT_TARGET_STEP, half)
    within = f"[{low:.3g}, {half:.3g}]"
    if math.isnan(error):
        return low, f", the low end of {within}: no height survived both coarse sweeps (E = nan)"
    rule = half * (0.1 * tol_v / error) ** 0.25 if error > 0.0 else math.inf
    step = min(max(rule, low), half)
    note = f" from E = {error:.3g} (tol_v/10)"
    if step != rule:
        note += f", clamped: the rule gives {rule:.3g}, kept within {within}"
    return step, note


def _spread(a: np.ndarray, op=np.logical_or) -> np.ndarray:
    """a with each entry combined by op with its two neighbours."""
    out = a.copy()
    op(out[1:], a[:-1], out=out[1:])
    op(out[:-1], a[1:], out=out[:-1])
    return out


def sweep_brackets(p: Problem, cfg: Optional[IntegratorConfig],
                   resolution: int = DEFAULT_RESOLUTION, tol_v: float = DEFAULT_TOL_V
                   ) -> tuple[list[Bracket], BracketingReport]:
    """Brackets of the gamma sweep at the fine step, found mostly from two coarse sweeps.

    The fine step is cfg's. With cfg None it is choose_step's for the E of
    the coarse sweeps and tol_v, chosen after them and before any re-shot,
    so the sweeps run once; the report holds it either way. Returns the
    brackets of find_brackets(build_gamma(p, fine, resolution)) with a
    report of how they were found. When the pre-pass stands, r_lo and r_hi
    are the full sweep's, and v_lo and v_hi have the full sweep's signs:
    each is the terminal slope of poincare_map at the fine step where the
    endpoint was re-shot, and that of the H / 2 sweep where its sign was
    trusted. When the direct sweep runs, they are all the sweep's.

    The interior nodes are swept at H = integrator.coarsest_step and at
    H / 2. A node that survived both has the step-doubling (Richardson)
    estimate |v_H - v_{H/2}| / 15 of the error of v_{H/2} (Hairer, Norsett
    & Wanner, Solving ODEs I, II.4). E is the largest of them, and nan when
    no node survived both. A node's coarse sign is trusted if it survived
    both sweeps and |v_{H/2}| > PREPASS_SAFETY * d + EXACT_ROOT_TOL, where d
    is the largest estimate of the node and its two neighbours. A node that
    blew up in both sweeps is taken as blown. Every other node and its
    neighbours are shot again at the fine step, one poincare_map each, and
    so is every node next to a change of blown status, until no such change
    borders a node that was not re-shot; a BlowupError marks the node
    blown. A node that keeps its coarse state changes no bracket as long
    as its sign, or its blow-up, holds at the fine step, so the brackets
    then equal the full sweep's.

    The direct sweep runs instead when cfg is given and the two coarse
    sweeps would take no fewer steps than the fine sweep, checked before
    they run: then they save nothing. Either way the direct sweep also runs
    when E is nan, and when more than PREPASS_MAX_RESHOTS nodes need a fine
    value.
    """
    inner = _grid(resolution)[1:-1]
    nodes = resolution - 2

    def direct(report: BracketingReport) -> tuple[list[Bracket], BracketingReport]:
        # cfg is the fine config by the time this runs
        return find_brackets(build_gamma(p, cfg, resolution)), report

    coarse = [IntegratorConfig(coarsest_step(p) / k) for k in (1.0, 2.0)]   # H, H / 2
    if cfg is not None:
        coarse_steps = sum(_steps(p, c) for c in coarse)
        fine_steps = _steps(p, cfg)
        if coarse_steps >= fine_steps:
            reason = (f"coarse sweeps would take {coarse_steps} steps, "
                      f"no fewer than the fine sweep's {fine_steps}")
            return direct(BracketingReport(nodes, cfg.target_step, direct_reason=reason))

    wide, half = (sweep_terminals(p, c, inner) for c in coarse)
    ok = wide.ok & half.ok
    estimate = np.where(ok, np.abs(wide.v_end - half.v_end), 0.0) / 15.0
    error = float(estimate.max()) if ok.any() else math.nan
    note = None
    if cfg is None:
        step, note = choose_step(p, error, tol_v)
        cfg = IntegratorConfig(step)
    report = BracketingReport(nodes, cfg.target_step, tuple(c.target_step for c in coarse),
                              error, step_note=note)
    if math.isnan(error):
        # no node survived both coarse sweeps, so every node counts as blown
        # and none is re-shot: no re-shot can reach a height that survives
        # only at the fine step
        return direct(replace(report, direct_reason="no node survived both coarse "
                                                    "sweeps, E = nan"))

    u, v, gone = half.u_end, half.v_end, ~(wide.ok | half.ok)
    margin = PREPASS_SAFETY * _spread(estimate, np.maximum) + EXACT_ROOT_TOL
    need = _spread(~gone & ~(ok & (np.abs(v) > margin)))
    shot = np.zeros_like(need)
    while True:
        need |= _spread(gone) & _spread(~gone)   # the nodes next to a change of blown status
        if (need == shot).all():
            break
        if need.sum() > PREPASS_MAX_RESHOTS:
            reason = (f"{need.sum()} nodes need the fine step, "
                      f"more than {PREPASS_MAX_RESHOTS} scalar re-shots, E = {error:.3g}")
            return direct(replace(report, reshot=int(need.sum()), direct_reason=reason))
        for i in np.flatnonzero(need & ~shot):
            try:
                z = poincare_map(p, cfg, PhasePoint(float(inner[i]), 0.0))
                u[i], v[i], gone[i] = z.u, z.v, False
            except BlowupError:
                u[i], v[i], gone[i] = np.nan, np.nan, True
        shot = need.copy()
    report = replace(report, reshot=int(shot.sum()), blown=int(gone[~shot].sum()))
    # a node neither re-shot nor gone was trusted, so v is nan exactly where gone
    return find_brackets(GammaCurve(inner, u, v)), report


@dataclass(eq=False)
class Cline:
    """A located steady state together with its certificate data."""

    c: float
    terminal_u: float
    terminal_v_residual: float
    trajectory: Trajectory
    min_u: float
    max_u: float
    necessary_integral: float
    bracket: Bracket
    rejection_reason: Optional[str] = None    # None for a validated cline

    @property
    def rejected(self) -> bool:
        return self.rejection_reason is not None

    def to_dict(self) -> dict:
        """Every field but the trajectory, the bracket as [r_lo, r_hi], and `rejected`."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trajectory"}
        out["bracket"] = [self.bracket.r_lo, self.bracket.r_hi]
        out["rejected"] = self.rejected
        return out


def _build_cline(p: Problem, traj: Trajectory, b: Bracket) -> Cline:
    min_u = float(np.min(traj.us))
    max_u = float(np.max(traj.us))
    residual = float(traj.vs[-1])
    integral = neumann_necessary_integral(p, traj)
    reason = None
    if min_u <= TRIVIAL_MARGIN:
        reason = f"trajectory touches u=0 (min u = {min_u:.3e})"
    elif max_u >= 1.0 - TRIVIAL_MARGIN:
        reason = f"trajectory touches u=1 (max u = {max_u:.3e})"
    elif max_u - min_u <= TRIVIAL_MARGIN:
        reason = f"trajectory is constant (u = {min_u:.3e})"
    return Cline(c=float(traj.us[0]), terminal_u=float(traj.us[-1]),
                 terminal_v_residual=residual, trajectory=traj, min_u=min_u, max_u=max_u,
                 necessary_integral=integral, bracket=b, rejection_reason=reason)


def _check_tolerances(tol_r: float, tol_v: float) -> None:
    for name, tol in (("tol_r", tol_r), ("tol_v", tol_v)):
        if not 0.0 < tol < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {tol}")


def bisect_cline(p: Problem, cfg: IntegratorConfig, b: Bracket,
                 tol_r: float = DEFAULT_TOL_R, tol_v: float = DEFAULT_TOL_V,
                 first: Optional[float] = None) -> Cline:
    """Refine the terminal-v sign change down to a root of r -> v(omega2).

    The refinement of find_all_clines: Brent's method, one `timemap.brent`
    search that `timemap.solve` runs alone, on the terminal slope at cfg's
    step, from the endpoint slopes stored in the bracket, which have the
    signs at cfg's step (those of the H / 2 sweep at a trusted node, see
    sweep_brackets). The first
    point is `first`, or the secant point when it is None; a `first`
    outside the bracket gives way to the midpoint. `first` is shot with
    integrate, every other point with poincare_map: the same march, so the
    same terminal slope. A root at `first` keeps that trajectory, and any
    other root is integrated once more. A blow-up in any of these marches,
    an exact bracket's included, raises BracketLostError, and a root
    whose profile nears 0 or 1 or is constant comes back rejected, `first`
    included.

    Stops when the bracket width falls below tol_r, the terminal slope
    magnitude falls below tol_v, or the bracket no longer splits in floating
    point, whichever comes first.
    """
    _check_tolerances(tol_r, tol_v)
    seed: Optional[Trajectory] = None

    def shoot(march, r: float):
        try:
            return march(p, cfg, PhasePoint(r, 0.0))
        except BlowupError as exc:
            raise BracketLostError(b, r, exc) from exc

    def terminal_v(r: float) -> float:
        nonlocal seed
        if r == first:
            seed = shoot(integrate, r)
            return float(seed.vs[-1])
        return shoot(poincare_map, r).v

    root = b.r_lo if b.is_exact else timemap.solve(
        [timemap.brent(b.r_lo, b.r_hi, b.v_lo, b.v_hi, tol_r, tol_v, first)],
        lambda _, rs: [terminal_v(r) for r in rs])[0]
    traj = seed if seed is not None and root == first else shoot(integrate, root)
    return _build_cline(p, traj, b)


@dataclass(eq=False)
class ClineSearchResult:
    """Everything a cline search produced, including the rejects."""

    clines: list[Cline]                # validated, sorted by c
    rejected: list[Cline]              # converged but trivial-adjacent or constant
    failures: list[BracketLostError]   # lost to a blow-up inside the bracket
    brackets: list[Bracket]
    bracketing: BracketingReport

    def to_dict(self) -> dict:
        return {
            "clines": [c.to_dict() for c in self.clines],
            "rejected": [c.to_dict() for c in self.rejected],
            "failures": [{"bracket": [f.bracket.r_lo, f.bracket.r_hi], "r": f.r,
                          "reason": str(f)} for f in self.failures],
            "bracket_count": len(self.brackets),
        }


def find_all_clines(p: Problem, cfg: Optional[IntegratorConfig] = None,
                    resolution: int = DEFAULT_RESOLUTION,
                    tol_r: float = DEFAULT_TOL_R,
                    tol_v: float = DEFAULT_TOL_V) -> ClineSearchResult:
    """Full pipeline: bracketing, refinement, validation.

    The fine step is cfg's, or with cfg None the one `sweep_brackets`
    chooses from its coarse sweeps (`choose_step`); `bracketing.step` holds
    it. The brackets are those of the gamma sweep at the fine step, found
    by the certified coarse pre-pass of `sweep_brackets` when it stands and
    by that sweep itself otherwise. Every non-exact bracket is refined by
    `bisect_cline`, whose Brent search runs in `timemap.solve`, the driver
    of the time-map searches too. At a chosen step (cfg None), whether
    the pre-pass stood or the direct sweep ran, its first point is the
    time-map root, an exact root of the ODE, from one `timemap.find_roots`
    call on every non-exact bracket before any is refined: it usually
    meets tol_v at a step chosen for an RK4 error of v of tol_v / 10, which
    a caller's step does not promise, so there it is the secant point.
    Validation always runs at the fine step. A bracket lost to a blow-up is
    kept as its BracketLostError in `failures` without aborting the others.
    The brackets are disjoint and ascending and each root lies inside its
    own, so the roots come out strictly increasing.
    """
    _check_tolerances(tol_r, tol_v)
    brackets, bracketing = sweep_brackets(p, cfg, resolution, tol_v)
    seed = cfg is None
    if seed:
        cfg = IntegratorConfig(target_step=bracketing.step)
    spans = [(b.r_lo, b.r_hi) for b in brackets if not b.is_exact] if seed else []
    firsts = dict(zip(spans, timemap.find_roots(p, spans, tol_r)))
    found: list[Cline] = []
    failures: list[BracketLostError] = []
    for b in brackets:
        first = firsts.get((b.r_lo, b.r_hi))
        try:
            found.append(bisect_cline(p, cfg, b, tol_r, tol_v, first))
        except BracketLostError as exc:
            failures.append(exc)
    return ClineSearchResult(
        clines=[c for c in found if not c.rejected],
        rejected=[c for c in found if c.rejected],
        failures=failures,
        brackets=brackets,
        bracketing=bracketing,
    )
