import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clineshoot
from clineshoot.nonlinearity import (
    ArctanDamped,
    CustomPolynomial,
    DegreeOfDominance,
    HatFamily,
    _gauss_legendre,
    check_f_star,
    nonlinearity_from_dict,
)

ALL_FAMILIES = [
    DegreeOfDominance(k=0.0),
    DegreeOfDominance(k=-1.0),
    DegreeOfDominance(k=1.0),
    DegreeOfDominance(k=0.7),
    HatFamily(h=3.0),
    HatFamily(h=0.5),
    ArctanDamped(m=10.0),
    ArctanDamped(m=1.0),
    CustomPolynomial((0.0, 1.0, -4.0, 6.0, -3.0)),
]


def central_diff(f, s, eps=1e-5):
    return (f.value(s + eps) - f.value(s - eps)) / (2.0 * eps)


class TestEndpointZeros:
    @pytest.mark.parametrize("k", [-1.0, -0.3, 0.0, 0.4, 1.0])
    def test_degree_of_dominance_exact(self, k):
        f = DegreeOfDominance(k=k)
        assert f.value(0.0) == 0.0
        assert f.value(1.0) == 0.0

    @pytest.mark.parametrize("h", [0.5, 1.0, 3.0, 7.0])
    def test_hat_exact(self, h):
        f = HatFamily(h=h)
        assert f.value(0.0) == 0.0
        assert f.value(1.0) == 0.0

    @pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
    def test_arctan_damped_exact(self, m):
        f = ArctanDamped(m=m)
        assert f.value(0.0) == 0.0
        # the arctan factor vanishes at s=1 exactly
        assert f.value(1.0) == 0.0

    def test_array_endpoints(self):
        f = HatFamily(h=3.0)
        vals = f.value(np.array([0.0, 0.5, 1.0]))
        assert vals[0] == 0.0 and vals[2] == 0.0


class TestFrozenValues:
    def test_logistic_midpoint(self):
        assert DegreeOfDominance(k=0.0).value(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_skewed_is_two_s_squared_one_minus_s(self):
        f = DegreeOfDominance(k=-1.0)
        for s in (0.2, 0.5, 0.8):
            assert f.value(s) == pytest.approx(2.0 * s * s * (1.0 - s), abs=1e-15)

    def test_hat3_midpoint(self):
        assert HatFamily(h=3.0).value(0.5) == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_slopes_at_endpoints(self):
        assert DegreeOfDominance(k=0.0).deriv(0.0) == pytest.approx(1.0, abs=1e-15)
        assert DegreeOfDominance(k=0.0).deriv(1.0) == pytest.approx(-1.0, abs=1e-15)
        assert HatFamily(h=3.0).deriv(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_hat3_second_derivative_zeros(self):
        # -36 s^2 + 36 s - 8 vanishes at s = 1/3 and 2/3
        f = HatFamily(h=3.0)
        assert f.deriv(1.0 / 3.0, order=2) == pytest.approx(0.0, abs=1e-12)
        assert f.deriv(2.0 / 3.0, order=2) == pytest.approx(0.0, abs=1e-12)

    def test_hat3_antiderivative_at_one(self):
        # s^2/2 - 4 s^3/3 + 3 s^4/2 - 3 s^5/5 at s=1 is 1/15
        f = HatFamily(h=3.0)
        assert f.antiderivative(0.0) == 0.0
        assert f.antiderivative(1.0) == pytest.approx(1.0 / 15.0, abs=1e-14)


class TestDerivatives:
    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.KIND + repr(f))
    def test_matches_central_difference(self, f):
        for s in np.linspace(-0.5, 1.5, 81):
            s = float(s)
            if isinstance(f, ArctanDamped) and abs(s) < 1e-3:
                continue  # |s| term is C^1 only; FD order degrades at the kink
            d = f.deriv(s)
            fd = central_diff(f, s)
            assert abs(fd - d) <= 1e-6 * max(1.0, abs(d)), f"s={s}"

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.KIND + repr(f))
    def test_second_derivative_consistent(self, f):
        for s in np.linspace(-0.4, 1.4, 37):
            s = float(s)
            if isinstance(f, ArctanDamped) and abs(s) < 1e-2:
                continue
            eps = 1e-4
            fd2 = (f.deriv(s + eps) - f.deriv(s - eps)) / (2.0 * eps)
            assert abs(fd2 - f.deriv(s, order=2)) <= 1e-4 * max(1.0, abs(fd2))
        with pytest.raises(ValueError, match="derivative order must be 1 or 2, got 3"):
            f.deriv(0.5, order=3)

    def test_antiderivative_differentiates_back(self):
        for f in ALL_FAMILIES:
            for s in np.linspace(-0.3, 1.3, 33):
                s = float(s)
                eps = 1e-5
                fd = (f.antiderivative(s + eps) - f.antiderivative(s - eps)) / (2.0 * eps)
                assert abs(fd - f.value(s)) <= 1e-7 * max(1.0, abs(f.value(s)))

    def test_vector_scalar_agreement(self):
        grid = np.linspace(-0.5, 1.5, 201)
        for f in ALL_FAMILIES:
            vec = np.asarray(f.value(grid))
            for i, s in enumerate(grid):
                assert vec[i] == pytest.approx(f.value(float(s)), rel=1e-14, abs=1e-300)
            dvec = np.asarray(f.deriv(grid))
            for i, s in enumerate(grid):
                assert dvec[i] == pytest.approx(f.deriv(float(s)), rel=1e-14, abs=1e-300)

    def test_arctan_endpoint_derivatives_match_the_vector_path(self):
        # check_f_star prints f'(0) and f'(1) from float calls at 17 digits;
        # they must be the bits the array path gives there
        ends = np.array([0.0, 1.0])
        for m in (10.0, 0.5, 3.0, 100.0, 1e-3, 7.25):
            f = ArctanDamped(m=m)
            for order in (1, 2):
                assert [f.deriv(s, order) for s in (0.0, 1.0)] == f.deriv(ends, order).tolist()

    def test_gauss_legendre_rule_is_shared_and_read_only(self):
        x, w = _gauss_legendre(10)
        assert _gauss_legendre(10)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
        assert w.sum() == pytest.approx(2.0, abs=1e-14)

    def test_import_leaves_numpy_polynomial_unloaded(self):
        # a fresh interpreter, since this one may have loaded it already;
        # the polynomial families' f'' (check_f_star) and f' (the validation
        # integral) go through _horner, and a caller's step seeds no bracket
        # with the time-map, the one user of leggauss
        src = str(Path(clineshoot.__file__).resolve().parents[1])
        code = """if True:
            import sys, clineshoot
            print('numpy.polynomial' in sys.modules)
            clineshoot.check_f_star(clineshoot.HatFamily(h=3.0))
            inst = {i.name: i for i in clineshoot.remark_instances()}['remark-full-dominance']
            result = clineshoot.find_all_clines(inst.problem, clineshoot.IntegratorConfig(1e-3),
                                                resolution=101)
            print(len(result.clines), 'numpy.polynomial' in sys.modules)
        """
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=60,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False", "1", "False"]

    def test_arctan_antiderivative_matches_simpson(self):
        # independent reference: composite Simpson from 0 on 2^16 intervals
        # per unit length, whose error is far below 1e-12 for this f
        f = ArctanDamped(m=10.0)

        def simpson(s):
            n = 2 * max(1, math.ceil(abs(s) * 2**15))
            x = np.linspace(0.0, s, n + 1)
            y = f.value(x)
            return (s / n) / 3.0 * (y[0] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum() + y[-1])

        # below 0, inside [0, 1], above 1, and on panel nodes (multiples of 1/256)
        points = np.array([-0.7, -0.3, -1e-3, 1e-3, 0.123, 0.5, 0.987, 1.05, 1.7,
                           -5.0 / 256.0, 3.0 / 256.0, 128.0 / 256.0, 300.0 / 256.0])
        batch = f.antiderivative(points)
        one_by_one = np.array([f.antiderivative(float(s)) for s in points])
        assert np.array_equal(batch, one_by_one)
        for s, F in zip(points, one_by_one):
            assert abs(F - simpson(float(s))) < 1e-12, f"s={s}"
        assert f.antiderivative(0.0) == 0.0


def _reference_horner(coeffs_desc, s):
    acc = coeffs_desc[0] * (s * 0 + 1.0)
    for c in coeffs_desc[1:]:
        acc = acc * s + c
    return acc


def _reference_value(f, s):
    """f(s) as each family wrote it with one fresh temporary per operation."""
    if isinstance(f, DegreeOfDominance):
        return s * (1.0 - s) * (1.0 + f.k - 2.0 * f.k * s)
    if isinstance(f, HatFamily):
        return s * (1.0 - s) * (1.0 - f.h * s + f.h * s * s)
    if isinstance(f, ArctanDamped):
        if isinstance(s, np.ndarray):
            g = 10.0 * s * np.exp(-25.0 * s * s) + s / (np.abs(s) + 1.0)
            return g * np.arctan(f.m * (1.0 - s))
        g = 10.0 * s * math.exp(-25.0 * s * s) + s / (abs(s) + 1.0)
        return g * math.atan(f.m * (1.0 - s))
    return _reference_horner(f.coeffs[::-1], s)


IN_PLACE_INPUTS = {
    "float": 0.3,
    "float64": np.float64(-0.7),
    "0-d array": np.array(0.45),
    "int array": np.array([-3, -1, 0, 1, 2, 5]),
    "inf and nan": np.array([-np.inf, -0.5, -0.0, 0.0, 0.25, 1.0, 1.5, np.inf, np.nan]),
}


def _assert_same_bits(got, ref):
    # IEEE 754 leaves the sign and payload of a NaN result open, so NaNs
    # need only sit in the same places; every other value must match bit
    # for bit, signed zeros included
    assert type(got) is type(ref)
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    nan = np.isnan(ref)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == ref[~nan].tobytes()


class TestInPlaceArithmetic:
    """value() builds its result in place from fresh temporaries, which
    relies on it being new, and leaves its argument, in a batched march a
    row of the stage buffers, as it was."""

    @pytest.mark.parametrize("f", ALL_FAMILIES + [CustomPolynomial((2.5,))],
                             ids=lambda f: f.KIND + repr(f))
    @pytest.mark.parametrize("name", IN_PLACE_INPUTS)
    def test_value_is_new_and_keeps_the_bits(self, f, name):
        s = IN_PLACE_INPUTS[name]
        before = np.array(s, copy=True)
        with np.errstate(all="ignore"):
            got, ref = f.value(s), _reference_value(f, s)
        _assert_same_bits(got, ref)
        assert not np.shares_memory(got, s)
        assert np.asarray(s).tobytes() == before.tobytes()

    @pytest.mark.parametrize("f", [HatFamily(h=3.0), DegreeOfDominance(k=0.7),
                                   CustomPolynomial((2.5,)), CustomPolynomial((-2.5, 1.5))],
                             ids=lambda f: f.KIND + repr(f))
    @pytest.mark.parametrize("name", IN_PLACE_INPUTS)
    def test_polynomial_derivatives_keep_the_bits(self, f, name):
        # reference: f', f'' and F from the ascending coefficients by hand,
        # then Horner; each s gives its own type, so a float gives a float,
        # and an identically zero derivative is +0.0 at every finite s
        s = IN_PLACE_INPUTS[name]
        asc = f.coeffs
        d1 = tuple(i * c for i, c in enumerate(asc))[1:] or (0.0,)
        d2 = tuple(i * c for i, c in enumerate(d1))[1:] or (0.0,)
        anti = (0.0,) + tuple(c / (i + 1) for i, c in enumerate(asc))
        with np.errstate(all="ignore"):
            for coeffs, got in ((d1, f.deriv(s, 1)), (d2, f.deriv(s, 2)),
                                (anti, f.antiderivative(s))):
                _assert_same_bits(got, _reference_horner(coeffs[::-1], s))


class TestArctanScalarPath:
    """value() tests for a float first; every other scalar takes the same
    math.* expression, and a 0-d array the array path."""

    def test_float_and_float64_keep_the_bits(self):
        f = ArctanDamped(m=10.0)
        xs = np.random.default_rng(24).uniform(-2.0, 2.0, 10_000).tolist()
        got = [f.value(x) for x in xs]
        assert all(type(g) is float for g in got)
        ref = [f.value(np.float64(x)) for x in xs]
        assert np.array(got).tobytes() == np.array(ref).tobytes()

    def test_0d_array_takes_the_array_path(self):
        f = ArctanDamped(m=10.0)
        for x in (-1.5, -0.3, 0.0, 0.45, 0.9, 1.0, 1.7):
            _assert_same_bits(f.value(np.array(x)), f.value(np.array([x]))[0])


@given(k=st.floats(min_value=-1.0, max_value=1.0),
       s=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_dominance_family_positive_inside(k, s):
    assert DegreeOfDominance(k=k).value(s) > 0.0


@given(h=st.floats(min_value=1e-6, max_value=3.0),
       s=st.floats(min_value=1e-9, max_value=1.0 - 1e-9))
@settings(max_examples=200, deadline=None)
def test_hat_family_positive_inside(h, s):
    assert HatFamily(h=h).value(s) > 0.0


@given(s=st.floats(min_value=-2.0, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_factored_matches_expanded(s):
    # factored evaluation and the coefficient form agree away from round-off
    f = HatFamily(h=3.0)
    expanded = s - 4.0 * s**2 + 6.0 * s**3 - 3.0 * s**4
    assert f.value(s) == pytest.approx(expanded, rel=1e-10, abs=1e-12)


class TestCheckFStar:
    def test_no_dominance_verdicts(self):
        rep = check_f_star(DegreeOfDominance(k=0.0))
        assert rep.is_concave is True
        assert rep.ratio_strictly_decreasing is True
        assert rep.satisfies_f_star is True

    def test_full_dominance_verdicts(self):
        rep = check_f_star(DegreeOfDominance(k=-1.0))
        assert rep.is_concave is False
        assert rep.ratio_strictly_decreasing is False
        # slope at 0 is zero for 2s^2(1-s), so the endpoint-slope condition fails
        assert rep.fprime_at_0 == pytest.approx(0.0, abs=1e-15)
        assert rep.satisfies_f_star is False

    def test_hat3_verdicts(self):
        rep = check_f_star(HatFamily(h=3.0))
        assert rep.is_concave is False
        assert rep.ratio_strictly_decreasing is True
        assert rep.f_at_0 == 0.0 and rep.f_at_1 == 0.0
        assert rep.satisfies_f_star is True
        assert rep.grid_size == 10001

    def test_arctan_damped_verdicts(self):
        rep = check_f_star(ArctanDamped(m=10.0))
        assert rep.is_concave is False
        assert rep.ratio_strictly_decreasing is True
        assert rep.satisfies_f_star is True

    def test_positive_everywhere_inside(self):
        for f in (HatFamily(h=3.0), ArctanDamped(m=10.0)):
            assert check_f_star(f).positive_on_open_interval is True

    @pytest.mark.parametrize("grid_size", [100, 1001, 10001])
    def test_logistic_ratio_all_grids(self, grid_size):
        # f(s)/s = 1-s, strictly decreasing at every sampling density
        rep = check_f_star(DegreeOfDominance(k=0.0), grid_size=grid_size)
        assert rep.ratio_strictly_decreasing is True

    def test_grid_size_too_small(self):
        with pytest.raises(ValueError):
            check_f_star(DegreeOfDominance(k=0.0), grid_size=99)


class TestValidationAndSerialization:
    def test_dominance_range(self):
        with pytest.raises(ValueError):
            DegreeOfDominance(k=1.5)
        with pytest.raises(ValueError):
            DegreeOfDominance(k=-1.01)

    def test_hat_requires_positive(self):
        with pytest.raises(ValueError):
            HatFamily(h=0.0)
        # h = inf would make f nan everywhere, and a search find nothing silently
        with pytest.raises(ValueError, match=r"^'f\.h' must be finite and > 0, got inf$"):
            HatFamily(h=math.inf)
        HatFamily(h=7.0)  # above 3 is allowed; verdicts are reported, not assumed

    def test_arctan_requires_positive(self):
        with pytest.raises(ValueError):
            ArctanDamped(m=0.0)
        # m = inf would make f(1) nan, yet a search would validate a cline
        with pytest.raises(ValueError, match=r"^'f\.m' must be finite and > 0, got inf$"):
            ArctanDamped(m=math.inf)

    def test_poly_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            CustomPolynomial(())
        with pytest.raises(ValueError):
            CustomPolynomial((0.0, math.inf))

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: f.KIND + repr(f))
    def test_round_trip(self, f):
        assert nonlinearity_from_dict(f.to_dict()) == f

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            nonlinearity_from_dict({"kind": "cubic", "k": 1.0})
        with pytest.raises(ValueError, match="kind"):
            nonlinearity_from_dict({"kind": ["hat"], "h": 1.0})

    def test_missing_parameter(self):
        with pytest.raises(ValueError):
            nonlinearity_from_dict({"kind": "hat"})
