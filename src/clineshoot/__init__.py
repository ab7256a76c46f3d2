"""Shooting-method solver for steady states of a two-sided habitat.

Computes all positive nonconstant steady states (clines) of the Neumann
problem p'' + lam w(x) f(p) = 0 on [omega1, omega2], where w is a step
weight that is negative on the left side and positive on the right.
"""

__version__ = "0.1.0"

from .integrator import IntegratorConfig
from .reproduction import proposition_1
from .shooting import find_all_clines

__all__ = ["IntegratorConfig", "__version__", "find_all_clines", "proposition_1"]
