"""Shooting-method solver for steady states of a two-sided habitat.

Computes all positive nonconstant steady states (clines) of the Neumann
problem p'' + lam w(x) f(p) = 0 on [omega1, omega2], where w is a step
weight that is negative on the left side and positive on the right.
"""

__version__ = "0.1.0"

from .integrator import (
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    energy_profile,
    integrate,
    poincare_map,
)
from .nonlinearity import (
    ArctanDamped,
    CustomPolynomial,
    DegreeOfDominance,
    HatFamily,
    Nonlinearity,
    check_f_star,
    nonlinearity_from_dict,
)
from .problem import (
    Problem,
    StepWeight,
    neumann_necessary_integral,
    problem_from_dict,
    problem_from_json,
    validate_conjecture_hypotheses,
)
from .reproduction import (
    NamedInstance,
    compare,
    proposition_1,
    proposition_2,
    remark_instances,
    sweep_cline_counts,
)
from .shooting import (
    Bracket,
    BracketLostError,
    bisect_cline,
    build_gamma,
    find_all_clines,
    find_brackets,
)

__all__ = [
    "ArctanDamped",
    "BlowupError",
    "Bracket",
    "BracketLostError",
    "CustomPolynomial",
    "DegreeOfDominance",
    "HatFamily",
    "IntegratorConfig",
    "NamedInstance",
    "Nonlinearity",
    "PhasePoint",
    "Problem",
    "StepWeight",
    "bisect_cline",
    "build_gamma",
    "check_f_star",
    "compare",
    "energy_profile",
    "find_all_clines",
    "find_brackets",
    "integrate",
    "neumann_necessary_integral",
    "nonlinearity_from_dict",
    "poincare_map",
    "problem_from_dict",
    "problem_from_json",
    "proposition_1",
    "proposition_2",
    "remark_instances",
    "sweep_cline_counts",
    "validate_conjecture_hypotheses",
    "__version__",
]
