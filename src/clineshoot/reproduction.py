"""Named benchmark instances and the comparison harness for their
reference values.

Two quantitative instances each carry three target steady states; two
qualitative scenarios probe how the cline count responds to the shape of
the nonlinearity (concave versus not) and to the intensity parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .integrator import IntegratorConfig
from .nonlinearity import ArctanDamped, DegreeOfDominance, HatFamily
from .problem import Problem, StepWeight
from .shooting import find_all_clines

DEFAULT_TOLERANCE = 0.005


@dataclass(frozen=True)
class NamedInstance:
    """A benchmark problem with its reference values, if it has any.

    expected_c lists the reference initial heights, and expected_terminal_u,
    when given, the terminal abscissa of each.
    """

    name: str
    problem: Problem
    expected_c: Optional[tuple[float, ...]] = None
    expected_terminal_u: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        u = self.expected_terminal_u
        if u is not None and len(u) != len(self.expected_c or ()):
            raise ValueError("expected_terminal_u must list one value per expected_c")

    def to_dict(self) -> dict:
        d = dict(vars(self), problem=self.problem.to_dict())
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in d.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def proposition_1() -> NamedInstance:
    """Hat-shaped nonlinearity, three steady states at intensity 45."""
    problem = Problem(
        weight=StepWeight(alpha=1.0, omega1=-0.21, omega2=0.2),
        f=HatFamily(h=3.0),
        lam=45.0,
    )
    return NamedInstance(
        name="proposition-1",
        problem=problem,
        expected_c=(0.125, 0.479, 0.683),
        expected_terminal_u=(0.273, 0.601, 0.833),
    )


def proposition_2() -> NamedInstance:
    """Arctan-damped nonlinearity, three steady states at intensity 3.

    The reference c values coincide with the terminal abscissae (u at the
    right endpoint) of the three located steady states; the computed initial
    heights are near 0.018, 0.383 and 0.488, as the bracket intervals
    (0.01, 0.1), (0.1, 0.45) and (0.45, 0.9) require.
    """
    problem = Problem(
        weight=StepWeight(alpha=2.4, omega1=-0.255, omega2=0.6),
        f=ArctanDamped(m=10.0),
        lam=3.0,
    )
    return NamedInstance(name="proposition-2", problem=problem, expected_c=(0.436, 0.776, 0.854))


def remark_instances() -> list[NamedInstance]:
    """Qualitative scenarios: concave nonlinearity gives at most one cline;
    a dominance-skewed one can give several once the intensity is large."""
    geometry = StepWeight(alpha=1.0, omega1=-0.21, omega2=0.2)
    concave = NamedInstance(
        name="remark-no-dominance",
        problem=Problem(weight=geometry, f=DegreeOfDominance(k=0.0), lam=45.0))
    skewed = NamedInstance(
        name="remark-full-dominance",
        problem=Problem(weight=geometry, f=DegreeOfDominance(k=-1.0), lam=45.0))
    return [concave, skewed]


@dataclass(frozen=True)
class MatchRecord:
    expected_c: float
    found_c: float
    deviation_c: float
    expected_u: Optional[float] = None
    found_u: Optional[float] = None
    deviation_u: Optional[float] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass(eq=False)
class ComparisonReport:
    instance: str
    matches: list[MatchRecord]
    misses: list[float]    # expected c values with no counterpart
    extras: list[float]    # found c values with no counterpart
    count_expected: int
    count_found: int
    passed: bool

    def to_dict(self) -> dict:
        return dict(vars(self), tolerance=DEFAULT_TOLERANCE,
                    matches=[m.to_dict() for m in self.matches])

    def render(self) -> str:
        lines = [f"instance {self.instance}: expected {self.count_expected}, "
                 f"found {self.count_found} (tolerance {DEFAULT_TOLERANCE:g})"]
        for m in self.matches:
            line = (f"  c {m.found_c:.6f} vs {m.expected_c:.6f} "
                    f"(dev {m.deviation_c:.2e})")
            if m.deviation_u is not None:
                line += (f"; terminal u {m.found_u:.6f} vs {m.expected_u:.6f} "
                         f"(dev {m.deviation_u:.2e})")
            lines.append(line)
        for e in self.misses:
            lines.append(f"  unmatched expectation: c = {e:.6f}")
        for e in self.extras:
            lines.append(f"  extra root found: c = {e:.6f}")
        lines.append(f"  verdict: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def compare(instance: NamedInstance, found: Sequence) -> ComparisonReport:
    """Match found clines against the instance's reference values.

    Each expected c in turn is matched with the nearest found c not yet
    taken, if that lies within DEFAULT_TOLERANCE; an expected c with none
    is a miss, and a found c left over is an extra. The report passes when
    there is no miss and no extra, and every matched terminal u, where the
    instance gives them, also lies within DEFAULT_TOLERANCE. An instance
    without expected_c has nothing to compare against and raises ValueError.
    """
    if instance.expected_c is None:
        raise ValueError(f"instance {instance.name!r} has no reference values to compare")
    expected = list(instance.expected_c)
    found_c = [c.c for c in found]
    free = list(range(len(found_c)))
    matches: list[MatchRecord] = []
    misses: list[float] = []
    for i, e in enumerate(expected):
        j = min(free, key=lambda j: abs(e - found_c[j]), default=None)
        if j is None or abs(e - found_c[j]) > DEFAULT_TOLERANCE:
            misses.append(e)
            continue
        free.remove(j)
        eu = fu = dev_u = None
        if instance.expected_terminal_u is not None:
            eu, fu = instance.expected_terminal_u[i], found[j].terminal_u
            dev_u = abs(eu - fu)
        matches.append(MatchRecord(expected_c=e, found_c=found_c[j],
                                   deviation_c=abs(e - found_c[j]),
                                   expected_u=eu, found_u=fu, deviation_u=dev_u))
    extras = [found_c[j] for j in free]
    too_far = any(m.deviation_u is not None and m.deviation_u > DEFAULT_TOLERANCE
                  for m in matches)
    return ComparisonReport(
        instance=instance.name,
        matches=matches,
        misses=misses,
        extras=extras,
        count_expected=len(expected),
        count_found=len(found_c),
        passed=not (misses or extras or too_far),
    )


def sweep_cline_counts(instance: NamedInstance,
                       lams: Sequence[float]) -> list[tuple[float, int]]:
    """Validated-cline count as a function of the intensity parameter.

    Each lambda runs find_all_clines at step 1e-3 over 501 heights.
    Reporting harness for the sweep-mode scenario; it asserts nothing."""
    cfg = IntegratorConfig(target_step=1e-3)
    out = []
    for lam in lams:
        p = replace(instance.problem, lam=float(lam))
        res = find_all_clines(p, cfg, resolution=501)
        out.append((float(lam), len(res.clines)))
    return out
