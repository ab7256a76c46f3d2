"""Problem instances: step weight, selection ratio, and hypothesis diagnostics."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .nonlinearity import (
    DEFAULT_GRID_SIZE,
    FStarReport,
    Nonlinearity,
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

    @property
    def mean(self) -> float:
        """Integral of the weight over the habitat, in closed form."""
        return self.alpha * self.omega1 + self.omega2

    @property
    def span(self) -> float:
        return self.omega2 - self.omega1

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "omega1": self.omega1, "omega2": self.omega2}


@dataclass(frozen=True)
class Problem:
    """A full instance: habitat/weight, selection term f, and ratio lam > 0."""

    weight: StepWeight
    f: Nonlinearity
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError(f"'lambda' must be > 0, got {self.lam}")

    def to_dict(self) -> dict:
        return {"weight": self.weight.to_dict(), "f": self.f.to_dict(), "lambda": self.lam}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class ConjectureReport:
    """Verdicts on the four scope conditions for the uniqueness question.

    (a) the weight is positive on a set of positive measure, (b) its mean is
    negative, (c) f satisfies the structural hypotheses, (d) f(s)/s is
    strictly decreasing on (0, 1).
    """

    weight_positive_somewhere: bool
    weight_mean: float
    weight_mean_negative: bool
    f_star: FStarReport
    ratio_strictly_decreasing: bool

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
    """Check whether an instance sits in scope of the uniqueness question.

    For this step-weight family, positivity on a set of positive measure is
    exactly omega2 > 0, which the type already guarantees; it is still
    reported for completeness.
    """
    report = check_f_star(p.f, grid_size)
    mean = p.weight.mean
    return ConjectureReport(
        weight_positive_somewhere=p.weight.omega2 > 0.0,
        weight_mean=mean,
        weight_mean_negative=mean < 0.0,
        f_star=report,
        ratio_strictly_decreasing=report.ratio_strictly_decreasing,
    )


def _trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def neumann_necessary_integral(p: Problem, traj: "Trajectory") -> float:
    """Trapezoidal approximation of the habitat integral of w(x) f(u(x)).

    The sum is split at x = 0 so no panel straddles the weight discontinuity.
    For a genuine zero-flux solution the result vanishes up to quadrature
    error.
    """
    xs, us, w = traj.xs, traj.us, p.weight
    if abs(xs[0] - w.omega1) > 1e-9 or abs(xs[-1] - w.omega2) > 1e-9:
        raise ValueError(
            f"trajectory spans [{xs[0]}, {xs[-1]}], expected [{w.omega1}, {w.omega2}]"
        )
    split = traj.split_index
    if xs[split] != 0.0:
        raise ValueError("trajectory has no sample at x = 0")
    fvals = np.asarray(p.f.value(us), dtype=float)
    left = -w.alpha * _trapezoid(fvals[: split + 1], xs[: split + 1])
    right = _trapezoid(fvals[split:], xs[split:])
    return left + right


def problem_from_dict(d: dict) -> Problem:
    """Build a Problem from its JSON object form; ValueError carries the bad key."""
    if not isinstance(d, dict):
        raise ValueError("problem config must be a JSON object")
    for key in ("weight", "f", "lambda"):
        if key not in d:
            raise ValueError(f"problem config is missing required key {key!r}")
    wd = d["weight"]
    if not isinstance(wd, dict):
        raise ValueError("'weight' must be an object with alpha/omega1/omega2")
    sides = {}
    for key in ("alpha", "omega1", "omega2"):
        if key not in wd:
            raise ValueError(f"'weight' is missing required key {key!r}")
        sides[key] = _config_number(wd[key], f"weight.{key}")
    lam = _config_number(d["lambda"], "lambda")
    return Problem(weight=StepWeight(**sides), f=nonlinearity_from_dict(d["f"]), lam=lam)


def problem_from_json(text: str) -> Problem:
    return problem_from_dict(json.loads(text))
