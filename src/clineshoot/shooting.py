"""Shooting pipeline: sweep the initial-height segment, bracket sign changes
of the terminal slope, and refine each bracket down to a steady state.

The brackets are those of the sweep at the fine step, but they are
usually found without running it: two coarse sweeps settle the sign of the
terminal slope wherever it clears their step-doubling error estimate by a
wide margin, and only the other nodes and the bracket endpoints are shot
again at the fine step, one scalar Poincare map each (`sweep_brackets`).
The fine step is the caller's, or, when the caller gives none, the one
`choose_step` takes from that same error estimate. Every reported number is
computed at the fine step; `build_gamma` still sweeps every node at it.
Every sweep comes back from `integrator.sweep_terminals` as a `GammaCurve`;
the pre-pass scans its mixed coarse and fine slopes with the same rule
`find_brackets` applies to a curve.

When the pre-pass stands, each bracket is first tried with the root of
the RK4-free time-map (`timemap.find_root`); the one `integrate` that
validates the cline at that root is its certificate. The brackets it does
not settle, and all of them when the direct sweep ran, are refined by
Brent's method on the terminal slope of the scalar Poincare map
(`bisect_cline`).

A cline is a nonconstant solution with zero slope at both ends; in phase-plane
terms it is an initial point (c, 0), 0 < c < 1, whose image under the
interval map lands back on the u-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# trajectories approaching the trivial equilibria closer than this are
# rejected as trivial-adjacent rather than reported as clines
TRIVIAL_MARGIN = 1e-9

# The bracketing pre-pass sweeps at H = span / PREPASS_STEPS_PER_SPAN and
# H / 2, trusts a coarse sign only where |v| exceeds PREPASS_SAFETY times the
# largest step-doubling estimate E plus EXACT_ROOT_TOL, and stands only when
# at most PREPASS_MAX_RESHOTS nodes need a scalar map at the fine step. With
# a caller's step it runs only when its two sweeps take at most
# PREPASS_MAX_SHARE of the fine sweep's steps.
# One scalar map costs about 1/70 of the 2001-node fine sweep on prop-2
# and about 1/90 on prop-1; 32 leaves a margin below that break-even.
PREPASS_STEPS_PER_SPAN = 200
PREPASS_SAFETY = 100.0
PREPASS_MAX_SHARE = 0.25
PREPASS_MAX_RESHOTS = 32


def _grid(resolution: int) -> np.ndarray:
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    return np.linspace(0.0, 1.0, resolution)


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
    """Scan interior ok entries for strict sign changes of terminal v.

    Endpoints r=0 and r=1 are the trivial equilibria and never bracket;
    blow-up entries are skipped, so a bracket may span a blow-up gap (the
    sign change is then confirmed or lost during refinement). Entries with
    |v| <= EXACT_ROOT_TOL come back as degenerate brackets and separate
    their neighbours.
    """
    return _brackets(g.rs[1:-1], g.v_end[1:-1], g.ok[1:-1])


def _brackets(rs: np.ndarray, v: np.ndarray, ok: np.ndarray) -> list[Bracket]:
    """find_brackets over interior heights rs with terminal slopes v."""
    rs, vs = rs[ok].tolist(), v[ok].tolist()
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
    None when the certified pre-pass stood, which is when find_all_clines
    tries the time-map seed, and says why the direct fine sweep ran
    otherwise.
    """

    nodes: int                          # interior grid nodes
    step: float
    coarse_steps: tuple[float, ...] = ()
    error_estimate: float = math.nan    # E; nan when no node survived both coarse sweeps
    reshot: int = 0                     # nodes that need a fine-step value
    direct_reason: Optional[str] = None
    step_note: Optional[str] = None

    def step_line(self) -> Optional[str]:
        """The stderr line of a chosen step; None for the caller's."""
        if self.step_note is None:
            return None
        return f"step: {self.step:.3g}{self.step_note}"

    def summary(self) -> str:
        if self.direct_reason is not None:
            return f"bracketing: direct sweep ({self.direct_reason})"
        h, h2 = self.coarse_steps
        return (f"bracketing: coarse steps {h:.6g} and {h2:.6g}, "
                f"E = {self.error_estimate:.3g}, "
                f"{self.reshot} of {self.nodes} nodes re-shot at the fine step")


def _steps(p: Problem, cfg: IntegratorConfig) -> int:
    n1, _, n2, _ = step_plan(p, cfg)
    return n1 + n2


def _coarse_steps(p: Problem) -> tuple[float, float]:
    """The pre-pass steps H = span / PREPASS_STEPS_PER_SPAN and H / 2."""
    h = p.weight.span / PREPASS_STEPS_PER_SPAN
    return h, 0.5 * h


def choose_step(p: Problem, error: float, tol_v: float) -> tuple[float, str]:
    """The fine step for an error estimate E of v at H / 2, and how it was chosen.

    RK4's global error scales with h^4, so the step whose estimated error
    of v is tol_v / 10 is h* = (H / 2) (tol_v / (10 E))^(1/4) (step
    doubling, Hairer, Norsett & Wanner, Solving ODEs I, II.4). It is
    clamped to [DEFAULT_TARGET_STEP, H / 2]: no finer than the library's
    default step and no coarser than the coarse sweep it is estimated
    from. A nan E, where no height survived both coarse sweeps, gives
    DEFAULT_TARGET_STEP. The note completes the line `step: <h>`.
    """
    half = _coarse_steps(p)[1]
    if math.isnan(error):
        return DEFAULT_TARGET_STEP, (", the default: no height survived both coarse "
                                     "sweeps (E = nan)")
    rule = half * (0.1 * tol_v / error) ** 0.25 if error > 0.0 else math.inf
    step = min(max(rule, DEFAULT_TARGET_STEP), half)
    note = f" from E = {error:.3g} (tol_v/10)"
    if step > rule:
        note += f", clamped: the rule gives {rule:.3g}, below the floor {step:.3g}"
    elif step < rule:
        note += f", clamped: the rule gives {rule:.3g}, above H/2 = {step:.3g}"
    return step, note


def _endpoints(inner: np.ndarray, brackets: list[Bracket]) -> np.ndarray:
    """Interior-node indices of the bracket endpoints."""
    rs = [r for b in brackets for r in (b.r_lo, b.r_hi)]
    return np.searchsorted(inner, rs).astype(int)


def sweep_brackets(p: Problem, cfg: Optional[IntegratorConfig],
                   resolution: int = DEFAULT_RESOLUTION, tol_v: float = DEFAULT_TOL_V
                   ) -> tuple[list[Bracket], BracketingReport]:
    """Brackets of the gamma sweep at the fine step, found mostly from two coarse sweeps.

    The fine step is cfg's. With cfg None it is choose_step's for the E of
    the coarse sweeps and tol_v, chosen after them and before any re-shot,
    so the sweeps run once; the report holds it either way. Returns the
    brackets of find_brackets(build_gamma(p, fine, resolution)) with a
    report of how they were found. When the pre-pass stands, r_lo and r_hi
    are the full sweep's and v_lo and v_hi are the terminal slopes of
    poincare_map at the fine step, the arithmetic bisect_cline iterates
    with; where f calls exp or arctan a scalar map can differ from a batch
    column in the last bit. When the direct sweep runs, they are all the
    sweep's.

    The interior nodes are swept at H = span / PREPASS_STEPS_PER_SPAN and at
    H / 2. E is the largest step-doubling (Richardson) estimate
    |v_H - v_{H/2}| / 15 of the error of v_{H/2} over the nodes that
    survived both (Hairer, Norsett & Wanner, Solving ODEs I, II.4), and nan
    when no node did, which then trusts no coarse sign. A node's
    coarse sign is trusted only if it and both neighbours survived both
    sweeps and |v_{H/2}| > PREPASS_SAFETY * E + EXACT_ROOT_TOL. Every other
    node, its neighbours and the endpoints of the brackets the coarse signs
    form are shot again at the fine step, one poincare_map each; a
    BlowupError marks the node blown. A node that is no endpoint changes no
    bracket by its value as long as its sign holds, so the brackets then
    equal the full sweep's.

    The direct sweep runs instead when cfg is given and the coarse sweeps
    would take more than PREPASS_MAX_SHARE of the fine sweep's steps,
    checked before they run: below that they save nothing, and one
    time-map root costs more than refining on the short march does. A
    chosen step keeps the coarse sweeps it was chosen from. Either way the
    direct sweep also runs when more than PREPASS_MAX_RESHOTS nodes need a
    fine value, and after the re-shots if a bracket ends at a node that
    still has a coarse value, which only a wrong trusted sign can cause.
    """
    inner = _grid(resolution)[1:-1]
    nodes = resolution - 2

    def direct(report: BracketingReport) -> tuple[list[Bracket], BracketingReport]:
        # cfg is the fine config by the time this runs
        return find_brackets(build_gamma(p, cfg, resolution)), report

    base = cfg or IntegratorConfig()   # the blow-up bound of every sweep
    coarse = [replace(base, target_step=t) for t in _coarse_steps(p)]
    if cfg is not None:
        coarse_steps = sum(_steps(p, c) for c in coarse)
        fine_steps = _steps(p, cfg)
        if coarse_steps > PREPASS_MAX_SHARE * fine_steps:
            reason = (f"coarse sweeps would take {coarse_steps} steps, "
                      f"more than {PREPASS_MAX_SHARE:g} of the fine sweep's {fine_steps}")
            return direct(BracketingReport(nodes, cfg.target_step, direct_reason=reason))

    wide, half = (sweep_terminals(p, c, inner) for c in coarse)
    ok = wide.ok & half.ok
    delta = np.abs(wide.v_end[ok] - half.v_end[ok])
    error = float(delta.max()) / 15.0 if delta.size else math.nan
    note = None
    if cfg is None:
        step, note = choose_step(p, error, tol_v)
        cfg = replace(base, target_step=step)
    report = BracketingReport(nodes, cfg.target_step, tuple(c.target_step for c in coarse),
                              error, step_note=note)

    trusted = ok & (np.abs(half.v_end) > PREPASS_SAFETY * error + EXACT_ROOT_TOL)
    trusted[1:] &= ok[:-1]
    trusted[:-1] &= ok[1:]
    need = ~trusted
    need[1:] |= ~trusted[:-1]
    need[:-1] |= ~trusted[1:]
    v = half.v_end
    need[_endpoints(inner, _brackets(inner, v, ok))] = True
    report = replace(report, reshot=int(need.sum()))
    if report.reshot > PREPASS_MAX_RESHOTS:
        reason = (f"{report.reshot} nodes need the fine step, "
                  f"more than {PREPASS_MAX_RESHOTS} scalar re-shots, E = {error:.3g}")
        return direct(replace(report, direct_reason=reason))

    for i in np.flatnonzero(need):
        try:
            v[i] = poincare_map(p, cfg, PhasePoint(float(inner[i]), 0.0)).v
            ok[i] = True
        except BlowupError:
            v[i] = np.nan
            ok[i] = False
    brackets = _brackets(inner, v, ok)
    if not need[_endpoints(inner, brackets)].all():
        reason = (f"a bracket ends at a node with a trusted coarse value "
                  f"after {report.reshot} re-shots, E = {error:.3g}")
        return direct(replace(report, direct_reason=reason))
    return brackets, report


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
        return {
            "c": self.c,
            "terminal_u": self.terminal_u,
            "terminal_v_residual": self.terminal_v_residual,
            "min_u": self.min_u,
            "max_u": self.max_u,
            "necessary_integral": self.necessary_integral,
            "bracket": [self.bracket.r_lo, self.bracket.r_hi],
            "rejected": self.rejected,
            "rejection_reason": self.rejection_reason,
        }


def _build_cline(p: Problem, cfg: IntegratorConfig, root: float, b: Bracket) -> Cline:
    traj = integrate(p, cfg, PhasePoint(root, 0.0))
    min_u = float(np.min(traj.us))
    max_u = float(np.max(traj.us))
    residual = float(traj.vs[-1])
    integral = neumann_necessary_integral(p, traj)
    reason = None
    if min_u <= TRIVIAL_MARGIN:
        reason = f"trajectory touches u=0 (min u = {min_u:.3e})"
    elif max_u >= 1.0 - TRIVIAL_MARGIN:
        reason = f"trajectory touches u=1 (max u = {max_u:.3e})"
    return Cline(c=root, terminal_u=float(traj.us[-1]), terminal_v_residual=residual,
                 trajectory=traj, min_u=min_u, max_u=max_u,
                 necessary_integral=integral, bracket=b, rejection_reason=reason)


def _check_tolerances(tol_r: float, tol_v: float) -> None:
    for name, tol in (("tol_r", tol_r), ("tol_v", tol_v)):
        if not tol > 0.0:
            raise ValueError(f"{name} must be > 0, got {tol}")


def bisect_cline(p: Problem, cfg: IntegratorConfig, b: Bracket,
                 tol_r: float = DEFAULT_TOL_R, tol_v: float = DEFAULT_TOL_V) -> Cline:
    """Refine the terminal-v sign change down to a root of r -> v(omega2).

    The fallback refinement of find_all_clines: `timemap.bracketed_root`,
    Brent's method, on the terminal slope of poincare_map at cfg's step.
    Its first point is the secant point of the endpoint slopes stored in
    the bracket: those of the scalar re-shots when the pre-pass of
    sweep_brackets stood, else those of the direct sweep. A blow-up inside
    the bracket raises BracketLostError.

    Stops when the bracket width falls below tol_r, the terminal slope
    magnitude falls below tol_v, or the bracket no longer splits in floating
    point, whichever comes first.
    """
    _check_tolerances(tol_r, tol_v)
    if b.is_exact:
        return _build_cline(p, cfg, b.r_lo, b)

    def terminal_v(r: float) -> float:
        try:
            return poincare_map(p, cfg, PhasePoint(r, 0.0)).v
        except BlowupError as exc:
            raise BracketLostError(b, r, exc) from exc

    root = timemap.bracketed_root(terminal_v, b.r_lo, b.r_hi, b.v_lo, b.v_hi, tol_r, tol_v)
    return _build_cline(p, cfg, root, b)


def _seeded_cline(p: Problem, cfg: IntegratorConfig, b: Bracket,
                  tol_r: float, tol_v: float) -> Optional[Cline]:
    """The cline at the time-map root in b, or None where the seed does not hold.

    The one integrate of _build_cline is the certificate: the root must lie
    strictly inside b and give |terminal v| < tol_v at cfg's step. A root
    whose profile comes near 0 or 1 is left to bisect_cline too, since the
    time-map's quadrature loses accuracy as the turning height nears 1.
    None also when the time-map shows no root or the profile blows up.
    """
    root = timemap.find_root(p, b.r_lo, b.r_hi, tol_r)
    if root is None or not b.r_lo < root < b.r_hi:
        return None
    try:
        cline = _build_cline(p, cfg, root, b)
    except BlowupError:
        return None
    if cline.rejected or not abs(cline.terminal_v_residual) < tol_v:
        return None
    return cline


@dataclass(eq=False)
class ClineSearchResult:
    """Everything a cline search produced, including the rejects."""

    clines: list[Cline]                # validated, sorted by c
    rejected: list[Cline]              # converged but trivial-adjacent
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
    by that sweep itself otherwise. When the pre-pass stood
    (`bracketing.direct_reason` is None), each non-exact bracket is first
    tried with the root of the time-map (`_seeded_cline`); the brackets it
    does not settle, and all of them after the direct sweep, are refined by
    `bisect_cline`. Validation always runs at the fine step. A bracket lost
    to a blow-up is kept as its BracketLostError in `failures` without
    aborting the other brackets. The brackets are disjoint and ascending
    and each root lies inside its own, so the roots come out strictly
    increasing.
    """
    _check_tolerances(tol_r, tol_v)
    brackets, bracketing = sweep_brackets(p, cfg, resolution, tol_v)
    if cfg is None:
        cfg = IntegratorConfig(target_step=bracketing.step)
    seed = bracketing.direct_reason is None
    found: list[Cline] = []
    failures: list[BracketLostError] = []
    for b in brackets:
        cline = _seeded_cline(p, cfg, b, tol_r, tol_v) if seed and not b.is_exact else None
        try:
            found.append(cline if cline is not None else bisect_cline(p, cfg, b, tol_r, tol_v))
        except BracketLostError as exc:
            failures.append(exc)
    return ClineSearchResult(
        clines=[c for c in found if not c.rejected],
        rejected=[c for c in found if c.rejected],
        failures=failures,
        brackets=brackets,
        bracketing=bracketing,
    )
