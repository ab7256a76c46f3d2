"""Nonlinear selection terms and structural checks on them.

Each family evaluates its closed-form value and first two derivatives at any
real s; the formulas are the analytic extensions of the biological ones, which
only matter on [0, 1]. Evaluation accepts floats or numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Union

import numpy as np

Scalar = Union[float, np.ndarray]

# Grid size used by default when certifying monotonicity/concavity verdicts.
DEFAULT_GRID_SIZE = 10001

# |f(0)|, |f(1)| below this count as exact endpoint zeros for (f*) purposes.
ENDPOINT_ZERO_TOL = 1e-12


def _horner(coeffs_desc: tuple[float, ...], s: Scalar) -> Scalar:
    acc = s * 0.0  # a float temporary of s's shape, nan where s is not finite
    acc += 1.0
    acc *= coeffs_desc[0]
    for c in coeffs_desc[1:]:
        acc *= s
        acc += c
    return acc


class Nonlinearity:
    """Base class: a selection term f with closed-form derivatives."""

    KIND: str = ""

    def value(self, s: Scalar) -> Scalar:
        """f(s) for a float or an array s.

        Returns a new float or array and never writes into `s`, which in
        a batched march is a row of the march's stage buffers
        (`integrator._march_batch`).
        """
        raise NotImplementedError

    def deriv(self, s: Scalar, order: int = 1) -> Scalar:
        raise NotImplementedError

    def antiderivative(self, s: Scalar) -> Scalar:
        """F with F' = f and F(0) = 0."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """{"kind": KIND, <field>: value} from the family's one dataclass
        field, whose name is its config key; a tuple is written as a list."""
        (field,) = fields(self)
        value = getattr(self, field.name)
        return {"kind": self.KIND, field.name: list(value) if isinstance(value, tuple) else value}


class _PolynomialNonlinearity(Nonlinearity):
    """Shared derivative/antiderivative machinery for polynomial families.

    Subclasses provide ascending coefficients as `coeffs`; value() may
    override with a factored form so endpoint zeros are exact in floating
    point.
    """

    @cached_property
    def _tables(self) -> tuple[tuple[float, ...], ...]:
        """Descending coefficients of f, f', f'' and F with F(0) = 0, for _horner."""
        tables = [self.coeffs]
        for _ in range(2):  # f'' differentiates f' (each coefficient rounded twice)
            tables.append(tuple(j * c for j, c in enumerate(tables[-1]))[1:] or (0.0,))
        tables.append((0.0, *(c / (j + 1) for j, c in enumerate(self.coeffs))))
        return tuple(t[::-1] for t in tables)

    def value(self, s: Scalar) -> Scalar:
        return _horner(self._tables[0], s)

    def deriv(self, s: Scalar, order: int = 1) -> Scalar:
        if order not in (1, 2):
            raise ValueError(f"derivative order must be 1 or 2, got {order}")
        return _horner(self._tables[order], s)

    def antiderivative(self, s: Scalar) -> Scalar:
        return _horner(self._tables[3], s)


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
        # factored form: exact zeros at s = 0 and s = 1 for every k. IEEE
        # defines x - y as x + (-y), and (-2k)s is exactly -(2ks), so
        # (-2k)s + (1 + k) has the bits of (1 + k) - 2ks
        k = self.k
        out = 1.0 - s
        out *= s
        b = (-2.0 * k) * s
        b += 1.0 + k
        out *= b
        return out


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
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"'f.h' must be finite and > 0, got {self.h}")

    @cached_property
    def coeffs(self) -> tuple[float, ...]:
        h = self.h
        return (0.0, 1.0, -(h + 1.0), 2.0 * h, -h)

    def value(self, s: Scalar) -> Scalar:
        # s(1-s)(1 - hs + hs^2), each product and sum as in that expression
        hs = self.h * s
        b = 1.0 - hs
        hs *= s
        b += hs
        out = 1.0 - s
        out *= s
        out *= b
        return out


@dataclass(frozen=True)
class CustomPolynomial(_PolynomialNonlinearity):
    """Polynomial with user-supplied ascending coefficients."""

    coeffs: tuple[float, ...]

    KIND = "poly"

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("'f.coeffs' must hold at least one coefficient")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("'f.coeffs' must be finite numbers")
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class ArctanDamped(Nonlinearity):
    """f(s) = (10 s exp(-25 s^2) + s/(|s|+1)) * arctan(m(1-s)), m > 0.

    The arctan factor forces f(1) = 0 exactly; the left factor already
    vanishes at s = 0. Not concave, yet f(s)/s is strictly decreasing.
    """

    m: float

    KIND = "arctan_damped"

    def __post_init__(self):
        if not 0.0 < self.m < math.inf:
            raise ValueError(f"'f.m' must be finite and > 0, got {self.m}")

    def value(self, s: Scalar) -> Scalar:
        m = self.m
        # a float, the scalar marches' state, takes the cheapest test first
        if type(s) is float or not isinstance(s, np.ndarray):
            g = 10.0 * s * math.exp(-25.0 * s * s) + s / (abs(s) + 1.0)
            return g * math.atan(m * (1.0 - s))
        if s.ndim == 0:  # numpy returns scalars for 0-d operands, and out= needs arrays
            return self.value(s.reshape(1))[0]
        e = -25.0 * s
        e *= s
        g = 10.0 * s
        g *= np.exp(e, out=e)
        np.abs(s, out=e)
        e += 1.0
        g += np.divide(s, e, out=e)
        q = 1.0 - s
        q *= m
        g *= np.arctan(q, out=q)
        return g

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
    try:
        grid = np.linspace(0.0, 1.0, grid_size + 2)[1:-1]
    except MemoryError as exc:
        raise ValueError(f"grid_size {grid_size} is too large to allocate") from exc
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
    are the Infinity and NaN that Python's JSON parser accepts and an integer
    beyond the float range.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"'{key}' must be a finite number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"'{key}' must be a finite number, got an integer too "
                         "large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"'{key}' must be a finite number, got {value!r}")
    return number


def _check_keys(d: dict, keys: tuple[str, ...], prefix: str = "") -> None:
    """ValueError naming a key of keys missing from d, or else a key of d not in keys."""
    for key in keys:
        if key not in d:
            raise ValueError(f"missing required key '{prefix}{key}'")
    for key in d:
        if key not in keys:
            raise ValueError(f"unknown key '{prefix}{key}'; expected only {', '.join(keys)}")


def _coefficients(value, key: str) -> tuple[float, ...]:
    """A config list of numbers as a tuple of floats; ValueError naming `key`."""
    if not isinstance(value, list):
        raise ValueError(f"'{key}' must be a list of numbers, got {value!r}")
    return tuple(_config_number(c, f"{key}[{i}]") for i, c in enumerate(value))


_KINDS = {cls.KIND: cls for cls in (DegreeOfDominance, HatFamily, ArctanDamped, CustomPolynomial)}


def nonlinearity_from_dict(d: dict) -> Nonlinearity:
    """Build a family from its JSON object form; raises ValueError on bad input."""
    if not isinstance(d, dict) or "kind" not in d:
        raise ValueError(f"'f' must be an object with a 'kind' field, got {d!r}")
    kind = d["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"'f.kind' must be one of {sorted(_KINDS)}, got {kind!r}")
    cls = _KINDS[kind]
    (field,) = fields(cls)   # the family's one parameter, named by its config key
    _check_keys(d, ("kind", field.name), "f.")
    parse = _coefficients if cls is CustomPolynomial else _config_number
    return cls(parse(d[field.name], f"f.{field.name}"))
