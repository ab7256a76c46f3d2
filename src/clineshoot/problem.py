"""Problem instances: step weight, selection ratio, and hypothesis diagnostics."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .nonlinearity import (
    DEFAULT_GRID_SIZE,
    FStarReport,
    Nonlinearity,
    _check_keys,
    _config_number,
    check_f_star,
    nonlinearity_from_dict,
)

if TYPE_CHECKING:
    from .integrator import Trajectory


@dataclass(frozen=True)
class StepWeight:
    """Piecewise-constant weight: -alpha on [omega1, 0), +1 on (0, omega2].

    All integrations split at x = 0, so the value at the jump never matters.
    """

    alpha: float
    omega1: float
    omega2: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"'weight.alpha' must be > 0, got {self.alpha}")
        if not self.omega1 < 0.0:
            raise ValueError(f"'weight.omega1' must be < 0, got {self.omega1}")
        if not self.omega2 > 0.0:
            raise ValueError(f"'weight.omega2' must be > 0, got {self.omega2}")
        if not (math.isfinite(self.span) and math.isfinite(self.mean)):
            raise ValueError(f"'weight' must have a finite span and mean, got span "
                             f"{self.span} and mean {self.mean}")

    @property
    def mean(self) -> float:
        """Integral of the weight over the habitat, in closed form."""
        return self.alpha * self.omega1 + self.omega2

    @property
    def span(self) -> float:
        return self.omega2 - self.omega1

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Problem:
    """A full instance: habitat/weight, selection term f, and ratio lam > 0."""

    weight: StepWeight
    f: Nonlinearity
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"'lambda' must be finite and > 0, got {self.lam}")

    def to_dict(self) -> dict:
        return {"weight": self.weight.to_dict(), "f": self.f.to_dict(), "lambda": self.lam}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class ConjectureReport:
    """Verdicts on the four scope conditions for the uniqueness question.

    (a) the weight is positive on a set of positive measure, (b) its mean is
    negative, (c) f satisfies the structural hypotheses, (d) f(s)/s is
    strictly decreasing on (0, 1).
    """

    weight: StepWeight
    f_star: FStarReport

    @property
    def weight_positive_somewhere(self) -> bool:
        """Positivity on a set of positive measure, omega2 > 0 for a step
        weight; StepWeight already guarantees it, and it is still reported."""
        return self.weight.omega2 > 0.0

    @property
    def weight_mean(self) -> float:
        return self.weight.mean

    @property
    def weight_mean_negative(self) -> bool:
        return self.weight_mean < 0.0

    @property
    def ratio_strictly_decreasing(self) -> bool:
        return self.f_star.ratio_strictly_decreasing

    @property
    def in_scope(self) -> bool:
        return (
            self.weight_positive_somewhere
            and self.weight_mean_negative
            and self.f_star.satisfies_f_star
            and self.ratio_strictly_decreasing
        )


def validate_conjecture_hypotheses(
    p: Problem, grid_size: int = DEFAULT_GRID_SIZE
) -> ConjectureReport:
    """Check whether an instance sits in scope of the uniqueness question."""
    return ConjectureReport(weight=p.weight, f_star=check_f_star(p.f, grid_size))


def _trapezoid(y: np.ndarray, x: np.ndarray, dy: np.ndarray) -> float:
    """Uniform trapezoid rule less its Euler-Maclaurin end term (h^2/12) (dy[1] - dy[0])."""
    h = (x[-1] - x[0]) / (len(x) - 1)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x))) - h * h / 12.0 * (dy[1] - dy[0])


def neumann_necessary_integral(p: Problem, traj: "Trajectory") -> float:
    """End-corrected trapezoidal approximation of the habitat integral of w(x) f(u(x)).

    The sum is split at x = 0 so no panel straddles the weight discontinuity,
    and is O(h^4). As v' = -lam w f(u), it is -v(omega2) / lam from v = 0:
    for a genuine zero-flux solution it vanishes up to integration error.
    """
    xs, us, w = traj.xs, traj.us, p.weight
    if abs(xs[0] - w.omega1) > 1e-9 or abs(xs[-1] - w.omega2) > 1e-9:
        raise ValueError(f"trajectory spans [{xs[0]}, {xs[-1]}], "
                         f"expected [{w.omega1}, {w.omega2}]")
    split = traj.split_index
    if xs[split] != 0.0:
        raise ValueError("trajectory has no sample at x = 0")
    fvals = np.asarray(p.f.value(us), dtype=float)
    slope = p.f.deriv(us[[0, split, -1]]) * traj.vs[[0, split, -1]]   # (f(u))' = f'(u) v
    return (-w.alpha * _trapezoid(fvals[: split + 1], xs[: split + 1], slope[:2])
            + _trapezoid(fvals[split:], xs[split:], slope[1:]))


def problem_from_dict(d: dict) -> Problem:
    """Build a Problem from its JSON object form; ValueError carries the bad key."""
    if not isinstance(d, dict):
        raise ValueError("problem config must be a JSON object")
    _check_keys(d, ("weight", "f", "lambda"))
    wd = d["weight"]
    keys = tuple(field.name for field in fields(StepWeight))
    if not isinstance(wd, dict):
        raise ValueError(f"'weight' must be an object with {'/'.join(keys)}")
    _check_keys(wd, keys, "weight.")
    sides = {key: _config_number(value, f"weight.{key}") for key, value in wd.items()}
    lam = _config_number(d["lambda"], "lambda")
    return Problem(weight=StepWeight(**sides), f=nonlinearity_from_dict(d["f"]), lam=lam)


def problem_from_json(text: str) -> Problem:
    return problem_from_dict(json.loads(text))
