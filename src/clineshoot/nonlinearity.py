"""Nonlinear selection terms and structural checks on them.

Each family evaluates its closed-form value and first two derivatives at any
real s; the formulas are the analytic extensions of the biological ones, which
only matter on [0, 1]. Evaluation accepts floats or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Union

import numpy as np

Scalar = Union[float, np.ndarray]

# Grid size used by default when certifying monotonicity/concavity verdicts.
DEFAULT_GRID_SIZE = 10001

# |f(0)|, |f(1)| below this count as exact endpoint zeros for (f*) purposes.
ENDPOINT_ZERO_TOL = 1e-12


def _horner(coeffs_desc: tuple[float, ...], s: Scalar) -> Scalar:
    acc = coeffs_desc[0] * (s * 0 + 1.0)  # broadcast-friendly constant
    for c in coeffs_desc[1:]:
        acc = acc * s + c
    return acc


def _poly_deriv(coeffs_asc: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs_asc))[1:] or (0.0,)


def _poly_antideriv(coeffs_asc: tuple[float, ...]) -> tuple[float, ...]:
    return (0.0,) + tuple(c / (i + 1) for i, c in enumerate(coeffs_asc))


class Nonlinearity:
    """Base class: a selection term f with closed-form derivatives."""

    KIND: str = ""

    def value(self, s: Scalar) -> Scalar:
        raise NotImplementedError

    def deriv(self, s: Scalar, order: int = 1) -> Scalar:
        raise NotImplementedError

    def antiderivative(self, s: Scalar) -> Scalar:
        """F with F' = f and F(0) = 0."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


class _PolynomialNonlinearity(Nonlinearity):
    """Shared derivative/antiderivative machinery for polynomial families.

    Subclasses provide ascending coefficients; value() may override with a
    factored form so endpoint zeros are exact in floating point.
    """

    @property
    def coeffs(self) -> tuple[float, ...]:
        raise NotImplementedError

    @cached_property
    def _desc(self) -> tuple[float, ...]:
        return tuple(reversed(self.coeffs))

    @cached_property
    def _deriv1_desc(self) -> tuple[float, ...]:
        return tuple(reversed(_poly_deriv(self.coeffs)))

    @cached_property
    def _deriv2_desc(self) -> tuple[float, ...]:
        return tuple(reversed(_poly_deriv(_poly_deriv(self.coeffs))))

    @cached_property
    def _antideriv_desc(self) -> tuple[float, ...]:
        return tuple(reversed(_poly_antideriv(self.coeffs)))

    def value(self, s: Scalar) -> Scalar:
        return _horner(self._desc, s)

    def deriv(self, s: Scalar, order: int = 1) -> Scalar:
        if order == 1:
            return _horner(self._deriv1_desc, s)
        if order == 2:
            return _horner(self._deriv2_desc, s)
        raise ValueError(f"derivative order must be 1 or 2, got {order}")

    def antiderivative(self, s: Scalar) -> Scalar:
        return _horner(self._antideriv_desc, s)


@dataclass(frozen=True)
class DegreeOfDominance(_PolynomialNonlinearity):
    """f(s) = s(1-s)(1+k-2ks), the degree-of-dominance family, -1 <= k <= 1.

    k = 0 models no dominance, k = 1 and k = -1 complete dominance of one
    allele or the other.
    """

    k: float

    KIND = "degree_of_dominance"

    def __post_init__(self):
        if not -1.0 <= self.k <= 1.0:
            raise ValueError(f"'f.k' must lie in [-1, 1], got {self.k}")

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        k = self.k
        return (0.0, 1.0 + k, -(1.0 + 3.0 * k), 2.0 * k)

    def value(self, s: Scalar) -> Scalar:
        # factored form: exact zeros at s = 0 and s = 1 for every k
        return s * (1.0 - s) * (1.0 + self.k - 2.0 * self.k * s)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "k": self.k}


@dataclass(frozen=True)
class HatFamily(_PolynomialNonlinearity):
    """f(s) = s(1-s)(1-hs+hs^2), h > 0.

    For 0 < h <= 3 the ratio f(s)/s is strictly decreasing on (0, 1) while f
    itself is not concave; larger h is accepted and simply reported as-is by
    check_f_star.
    """

    h: float

    KIND = "hat"

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"'f.h' must be > 0, got {self.h}")

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        h = self.h
        return (0.0, 1.0, -(h + 1.0), 2.0 * h, -h)

    def value(self, s: Scalar) -> Scalar:
        return s * (1.0 - s) * (1.0 - self.h * s + self.h * s * s)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "h": self.h}


@dataclass(frozen=True)
class CustomPolynomial(_PolynomialNonlinearity):
    """Polynomial with user-supplied ascending coefficients."""

    coefficients: tuple[float, ...]

    KIND = "poly"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("'f.coeffs' must hold at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("'f.coeffs' must be finite numbers")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def coeffs(self) -> tuple[float, ...]:
        return self.coefficients

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "coeffs": list(self.coefficients)}


@dataclass(frozen=True)
class ArctanDamped(Nonlinearity):
    """f(s) = (10 s exp(-25 s^2) + s/(|s|+1)) * arctan(m(1-s)), m > 0.

    The arctan factor forces f(1) = 0 exactly; the left factor already
    vanishes at s = 0. Not concave, yet f(s)/s is strictly decreasing.
    """

    m: float

    KIND = "arctan_damped"

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError(f"'f.m' must be > 0, got {self.m}")

    def value(self, s: Scalar) -> Scalar:
        m = self.m
        if isinstance(s, np.ndarray):
            g = 10.0 * s * np.exp(-25.0 * s * s) + s / (np.abs(s) + 1.0)
            return g * np.arctan(m * (1.0 - s))
        g = 10.0 * s * math.exp(-25.0 * s * s) + s / (abs(s) + 1.0)
        return g * math.atan(m * (1.0 - s))

    def deriv(self, s: Scalar, order: int = 1) -> Scalar:
        if order not in (1, 2):
            raise ValueError(f"derivative order must be 1 or 2, got {order}")
        m = self.m
        e = np.exp(-25.0 * s * s)
        g = 10.0 * s * e + s / (np.abs(s) + 1.0)
        gp = 10.0 * e * (1.0 - 50.0 * s * s) + 1.0 / (np.abs(s) + 1.0) ** 2
        q = m * (1.0 - s)
        a = np.arctan(q)
        ap = -m / (1.0 + q * q)
        if order == 1:
            return gp * a + g * ap
        gpp = 10.0 * e * (2500.0 * s**3 - 150.0 * s) - 2.0 * np.sign(s) / (np.abs(s) + 1.0) ** 3
        app = -2.0 * m * m * m * (1.0 - s) / (1.0 + q * q) ** 2
        return gpp * a + 2.0 * gp * ap + g * app

    def antiderivative(self, s: Scalar) -> Scalar:
        return _gauss_legendre_antiderivative(self.value, s)

    def to_dict(self) -> dict:
        return {"kind": self.KIND, "m": self.m}


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    numpy.polynomial is imported on the first call, so importing clineshoot
    does not load it.
    """
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre_antiderivative(fn, s: Scalar) -> Scalar:
    """Integral of the smooth vectorised `fn` from 0 to s, elementwise.

    Whole panels of width 1/256 run from 0 to the panel holding each query
    and are summed cumulatively outward from 0; one partial panel from that
    panel's lower node to the query goes on top, so F(0) is exactly 0.
    10-point Gauss-Legendre panels on this spacing leave truncation far
    below double-precision round-off for the families here.
    """
    step = 1.0 / 256.0
    gl_x, gl_w = _gauss_legendre(10)

    def panels(a, b):
        half = 0.5 * (b - a)
        points = (0.5 * (a + b))[..., None] + half[..., None] * gl_x
        return half * np.sum(gl_w * fn(points), axis=-1)

    q = np.asarray(s, dtype=float)
    idx = np.floor(q / step).astype(int)
    lo, hi = min(int(idx.min()), 0), max(int(idx.max()), 0)
    edges = np.arange(lo, hi + 1) * step
    whole = panels(edges[:-1], edges[1:])
    below, above = whole[:-lo], whole[-lo:]   # panels left and right of 0
    nodes = np.concatenate([-np.cumsum(below[::-1])[::-1], [0.0], np.cumsum(above)])
    return nodes[idx - lo] + panels(idx * step, q)


@dataclass(frozen=True)
class FStarReport:
    """Grid-certified structural verdicts on a nonlinearity.

    Endpoint values/slopes are exact closed-form evaluations; positivity,
    concavity and ratio monotonicity are decided on a uniform grid of
    grid_size interior points of (0, 1).
    """

    f_at_0: float
    f_at_1: float
    fprime_at_0: float
    fprime_at_1: float
    positive_on_open_interval: bool
    is_concave: bool
    ratio_strictly_decreasing: bool
    grid_size: int

    @property
    def satisfies_f_star(self) -> bool:
        """Endpoint zeros, interior positivity and f'(0) > 0 > f'(1)."""
        return (
            abs(self.f_at_0) <= ENDPOINT_ZERO_TOL
            and abs(self.f_at_1) <= ENDPOINT_ZERO_TOL
            and self.positive_on_open_interval
            and self.fprime_at_0 > 0.0 > self.fprime_at_1
        )


def check_f_star(f: Nonlinearity, grid_size: int = DEFAULT_GRID_SIZE) -> FStarReport:
    """Certify the structural hypotheses on f over a uniform interior grid.

    Checks, at grid_size uniformly spaced points of the open interval (0, 1):
    f > 0; f'' <= 0 (concavity); strict decrease of s -> f(s)/s between
    consecutive grid points. Endpoint data come from the closed forms.
    Verdicts are grid certificates, not symbolic proofs.
    """
    if grid_size < 100:
        raise ValueError(f"grid_size must be >= 100, got {grid_size}")
    grid = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    values = np.asarray(f.value(grid), dtype=float)
    second = np.asarray(f.deriv(grid, order=2), dtype=float)
    ratio = values / grid
    return FStarReport(
        f_at_0=float(f.value(0.0)),
        f_at_1=float(f.value(1.0)),
        fprime_at_0=float(f.deriv(0.0, order=1)),
        fprime_at_1=float(f.deriv(1.0, order=1)),
        positive_on_open_interval=bool(np.all(values > 0.0)),
        is_concave=bool(np.all(second <= 0.0)),
        ratio_strictly_decreasing=bool(np.all(np.diff(ratio) < 0.0)),
        grid_size=grid_size,
    )


def _config_number(value, key: str) -> float:
    """A config number as float; ValueError naming `key` for anything else.

    JSON booleans are rejected although Python counts them as ints, and so
    are the Infinity and NaN that Python's JSON parser accepts.
    """
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ValueError(f"'{key}' must be a finite number, got {value!r}")
    return float(value)


def _coefficients(value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"'f.coeffs' must be a list of numbers, got {value!r}")
    return tuple(_config_number(c, f"f.coeffs[{i}]") for i, c in enumerate(value))


_KINDS = {
    DegreeOfDominance.KIND: lambda d: DegreeOfDominance(k=_config_number(d["k"], "f.k")),
    HatFamily.KIND: lambda d: HatFamily(h=_config_number(d["h"], "f.h")),
    ArctanDamped.KIND: lambda d: ArctanDamped(m=_config_number(d["m"], "f.m")),
    CustomPolynomial.KIND: lambda d: CustomPolynomial(coefficients=_coefficients(d["coeffs"])),
}


def nonlinearity_from_dict(d: dict) -> Nonlinearity:
    """Build a family from its JSON object form; raises ValueError on bad input."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError("nonlinearity object must be a mapping with a 'kind' field")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown nonlinearity kind {kind!r}; expected one of {sorted(_KINDS)}")
    try:
        return _KINDS[kind](d)
    except KeyError as exc:
        raise ValueError(f"nonlinearity kind {kind!r} is missing parameter {exc}") from None
