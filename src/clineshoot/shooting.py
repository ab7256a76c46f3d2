"""Shooting pipeline: sweep the initial-height segment, bracket sign changes
of the terminal slope, and refine each bracket down to a steady state by
safeguarded Illinois regula falsi.

A cline is a nonconstant solution with zero slope at both ends; in phase-plane
terms it is an initial point (c, 0), 0 < c < 1, whose image under the
interval map lands back on the u-axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, TextIO

import numpy as np

from .integrator import (
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    Trajectory,
    integrate,
    poincare_map,
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


@dataclass(frozen=True)
class GammaEntry:
    """Terminal state of the trajectory started at (r, 0)."""

    r: float
    u_end: float
    v_end: float
    status: str  # "ok" or "blowup"
    exit_x: float = math.nan


@dataclass(eq=False)
class GammaCurve:
    """Image of the segment {(r, 0): r in [0,1]} under the interval map."""

    rs: np.ndarray
    u_end: np.ndarray
    v_end: np.ndarray
    ok: np.ndarray
    exit_x: np.ndarray

    @property
    def resolution(self) -> int:
        return len(self.rs)

    @property
    def entries(self) -> Iterator[GammaEntry]:
        for i in range(len(self.rs)):
            if self.ok[i]:
                yield GammaEntry(float(self.rs[i]), float(self.u_end[i]),
                                 float(self.v_end[i]), "ok")
            else:
                yield GammaEntry(float(self.rs[i]), math.nan, math.nan,
                                 "blowup", float(self.exit_x[i]))

    def sign_changes(self) -> int:
        """Count of strict sign changes of terminal v over interior ok entries."""
        inner = self.v_end[1:-1][self.ok[1:-1]]
        inner = inner[inner != 0.0]
        return int(np.sum(inner[:-1] * inner[1:] < 0.0))

    def write_csv(self, out: TextIO, header_lines: tuple[str, ...] = ()) -> None:
        for line in header_lines:
            out.write(f"# {line}\n")
        out.write("r,u_end,v_end,status\n")
        for e in self.entries:
            if e.status == "ok":
                out.write(f"{e.r:.17g},{e.u_end:.17g},{e.v_end:.17g},ok\n")
            else:
                out.write(f"{e.r:.17g},nan,nan,blowup\n")


def build_gamma(p: Problem, cfg: IntegratorConfig,
                resolution: int = DEFAULT_RESOLUTION) -> GammaCurve:
    """Shoot from (r, 0) for every r on a uniform grid over [0, 1]."""
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    rs = np.linspace(0.0, 1.0, resolution)
    sweep = sweep_terminals(p, cfg, rs)
    return GammaCurve(rs=rs, u_end=sweep.u_end, v_end=sweep.v_end,
                      ok=sweep.ok, exit_x=sweep.exit_x)


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


def find_brackets(g: GammaCurve, zero_tol: float = EXACT_ROOT_TOL) -> list[Bracket]:
    """Scan interior ok entries for strict sign changes of terminal v.

    Endpoints r=0 and r=1 are the trivial equilibria and never bracket;
    blow-up entries are skipped, so a bracket may span a blow-up gap (the
    sign change is then confirmed or lost during refinement). Entries with
    |v| <= zero_tol come back as degenerate brackets and separate their
    neighbours.
    """
    rs, vs = [], []
    for i in range(1, g.resolution - 1):
        if g.ok[i]:
            rs.append(float(g.rs[i]))
            vs.append(float(g.v_end[i]))
    out: list[Bracket] = []
    for j in range(len(rs)):
        if abs(vs[j]) <= zero_tol:
            out.append(Bracket(rs[j], rs[j], vs[j], vs[j]))
            continue
        if j + 1 < len(rs) and abs(vs[j + 1]) > zero_tol and vs[j] * vs[j + 1] < 0.0:
            out.append(Bracket(rs[j], rs[j + 1], vs[j], vs[j + 1]))
    return out


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
    rejected: bool = False
    rejection_reason: Optional[str] = None

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
    rejected = False
    reason = None
    if min_u <= TRIVIAL_MARGIN:
        rejected = True
        reason = f"trajectory touches u=0 (min u = {min_u:.3e})"
    elif max_u >= 1.0 - TRIVIAL_MARGIN:
        rejected = True
        reason = f"trajectory touches u=1 (max u = {max_u:.3e})"
    return Cline(c=root, terminal_u=float(traj.us[-1]), terminal_v_residual=residual,
                 trajectory=traj, min_u=min_u, max_u=max_u,
                 necessary_integral=integral, bracket=b,
                 rejected=rejected, rejection_reason=reason)


def _check_tolerances(tol_r: float, tol_v: float) -> None:
    for name, tol in (("tol_r", tol_r), ("tol_v", tol_v)):
        if not tol > 0.0:
            raise ValueError(f"{name} must be > 0, got {tol}")


def bisect_cline(p: Problem, cfg: IntegratorConfig, b: Bracket,
                 tol_r: float = DEFAULT_TOL_R, tol_v: float = DEFAULT_TOL_V) -> Cline:
    """Refine the terminal-v sign change down to a root of r -> v(omega2).

    Each step is a safeguarded Illinois regula falsi step (Dowell & Jarratt,
    BIT 11, 1971): the next point is the secant point of the bracket, and
    when the same endpoint is kept twice in a row its stored v is halved,
    which pulls the next secant point toward it. A plain midpoint is taken
    instead whenever the secant point is not strictly inside the bracket or
    the bracket has not halved over the last two evaluations, so any three
    consecutive evaluations at least halve the bracket. The first secant
    point uses the endpoint slopes stored in the bracket, which come from
    the gamma sweep at no extra cost.

    Stops when the bracket width falls below tol_r, the terminal slope
    magnitude falls below tol_v, or the bracket no longer splits in floating
    point, whichever comes first.
    """
    _check_tolerances(tol_r, tol_v)
    if b.is_exact:
        return _build_cline(p, cfg, b.r_lo, b)
    lo, hi = b.r_lo, b.r_hi
    v_lo, v_hi = b.v_lo, b.v_hi
    kept = None  # endpoint kept by the last step: "lo" or "hi"
    width_1, width_2 = math.inf, math.inf  # widths before the last two evaluations
    root = None
    while hi - lo > tol_r:
        r = hi - v_hi * (hi - lo) / (v_hi - v_lo)
        if not lo < r < hi or hi - lo > 0.5 * width_2:
            r = 0.5 * (lo + hi)
            if r <= lo or r >= hi:
                break  # interval no longer splittable in floating point
        width_2, width_1 = width_1, hi - lo
        try:
            z = poincare_map(p, cfg, PhasePoint(r, 0.0))
        except BlowupError as exc:
            raise BracketLostError(b, r, exc) from exc
        if abs(z.v) < tol_v:
            root = r
            break
        if v_lo * z.v < 0.0:
            hi, v_hi = r, z.v
            if kept == "lo":
                v_lo *= 0.5
            kept = "lo"
        else:
            lo, v_lo = r, z.v
            if kept == "hi":
                v_hi *= 0.5
            kept = "hi"
    if root is None:
        root = 0.5 * (lo + hi)
    return _build_cline(p, cfg, root, b)


@dataclass(eq=False)
class BracketFailure:
    """A bracket whose refinement aborted, kept for the result envelope."""

    bracket: Bracket
    r: float
    reason: str

    def to_dict(self) -> dict:
        return {"bracket": [self.bracket.r_lo, self.bracket.r_hi],
                "r": self.r, "reason": self.reason}


@dataclass(eq=False)
class ClineSearchResult:
    """Everything a cline search produced, including the rejects."""

    clines: list[Cline]            # validated, sorted by c
    rejected: list[Cline]          # converged but trivial-adjacent
    failures: list[BracketFailure]
    brackets: list[Bracket]
    gamma: GammaCurve
    settings: dict

    def to_dict(self) -> dict:
        return {
            "settings": dict(self.settings),
            "clines": [c.to_dict() for c in self.clines],
            "rejected": [c.to_dict() for c in self.rejected],
            "failures": [f.to_dict() for f in self.failures],
            "bracket_count": len(self.brackets),
        }


def _dedupe(clines: list[Cline], tol: float) -> list[Cline]:
    """Collapse roots closer than tol, keeping the smaller residual."""
    ordered = sorted(clines, key=lambda c: c.c)
    out: list[Cline] = []
    for c in ordered:
        if out and c.c - out[-1].c < tol:
            if abs(c.terminal_v_residual) < abs(out[-1].terminal_v_residual):
                out[-1] = c
            continue
        out.append(c)
    return out


def find_all_clines(p: Problem, cfg: IntegratorConfig,
                    resolution: int = DEFAULT_RESOLUTION,
                    tol_r: float = DEFAULT_TOL_R,
                    tol_v: float = DEFAULT_TOL_V) -> ClineSearchResult:
    """Full pipeline: gamma sweep, bracketing, refinement, validation.

    Per-bracket blow-ups are recorded in the envelope without aborting the
    other brackets; roots closer than 10*tol_r are deduplicated.
    """
    _check_tolerances(tol_r, tol_v)
    gamma = build_gamma(p, cfg, resolution)
    brackets = find_brackets(gamma)
    found: list[Cline] = []
    failures: list[BracketFailure] = []
    for b in brackets:
        try:
            found.append(bisect_cline(p, cfg, b, tol_r, tol_v))
        except BracketLostError as exc:
            failures.append(BracketFailure(bracket=b, r=exc.r, reason=str(exc)))
    found = _dedupe(found, 10.0 * tol_r)
    settings = {
        "resolution": resolution,
        "tol_r": tol_r,
        "tol_v": tol_v,
        "target_step": cfg.target_step,
        "blowup_bound": cfg.blowup_bound,
    }
    return ClineSearchResult(
        clines=[c for c in found if not c.rejected],
        rejected=[c for c in found if c.rejected],
        failures=failures,
        brackets=brackets,
        gamma=gamma,
        settings=settings,
    )
