import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clineshoot.integrator import PhasePoint, integrate
from clineshoot.nonlinearity import DegreeOfDominance, HatFamily
from clineshoot.problem import (
    Problem,
    StepWeight,
    neumann_necessary_integral,
    problem_from_dict,
    problem_from_json,
    validate_conjecture_hypotheses,
)


class TestStepWeight:
    def test_mean_closed_form(self):
        assert StepWeight(1.0, -0.21, 0.2).mean == pytest.approx(-0.01, abs=1e-15)
        assert StepWeight(2.4, -0.255, 0.6).mean == pytest.approx(-0.012, abs=1e-15)
        assert StepWeight(0.1, -0.21, 0.2).mean == pytest.approx(0.179, abs=1e-15)
        assert StepWeight(1.0, -1.0, 1.0).mean == 0.0

    def test_span(self):
        assert StepWeight(1.0, -0.21, 0.2).span == pytest.approx(0.41, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepWeight(alpha=0.0, omega1=-1.0, omega2=1.0)
        with pytest.raises(ValueError):
            StepWeight(alpha=1.0, omega1=0.0, omega2=1.0)
        with pytest.raises(ValueError):
            StepWeight(alpha=1.0, omega1=-1.0, omega2=0.0)

    def test_mean_matches_midpoint_quadrature(self):
        # w is piecewise constant, so midpoint quadrature on any grid with a
        # node at 0 (no interval straddles the jump) is exact
        w = StepWeight(2.4, -0.255, 0.6)
        xs = np.concatenate([np.linspace(w.omega1, 0.0, 500),
                             np.linspace(0.0, w.omega2, 700)])
        mids = 0.5 * (xs[1:] + xs[:-1])
        widths = np.diff(xs)
        keep = widths > 0.0
        quad = np.sum(np.where(mids[keep] < 0.0, -w.alpha, 1.0) * widths[keep])
        assert quad == pytest.approx(w.mean, abs=1e-12)


@given(alpha=st.floats(min_value=0.01, max_value=10.0),
       omega1=st.floats(min_value=-5.0, max_value=-0.01),
       omega2=st.floats(min_value=0.01, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_mean_closed_form_property(alpha, omega1, omega2):
    w = StepWeight(alpha=alpha, omega1=omega1, omega2=omega2)
    assert w.mean == pytest.approx(alpha * omega1 + omega2, rel=1e-15, abs=1e-15)


class TestProblem:
    def test_lambda_positive(self):
        w = StepWeight(1.0, -0.21, 0.2)
        with pytest.raises(ValueError):
            Problem(weight=w, f=HatFamily(h=3.0), lam=0.0)

    def test_accessors(self):
        p = Problem(weight=StepWeight(1.0, -0.21, 0.2), f=HatFamily(h=3.0), lam=45.0)
        assert p.weight.omega1 == -0.21
        assert p.weight.omega2 == 0.2

    def test_json_round_trip(self):
        p = Problem(weight=StepWeight(2.4, -0.255, 0.6),
                    f=DegreeOfDominance(k=-0.5), lam=3.0)
        assert problem_from_json(p.to_json()) == p

    def test_dict_uses_lambda_key(self):
        p = Problem(weight=StepWeight(1.0, -0.21, 0.2), f=HatFamily(h=3.0), lam=45.0)
        d = p.to_dict()
        assert d["lambda"] == 45.0
        assert d["f"] == {"kind": "hat", "h": 3.0}


class TestProblemParsing:
    def good(self):
        return {"weight": {"alpha": 1.0, "omega1": -0.21, "omega2": 0.2},
                "f": {"kind": "hat", "h": 3.0}, "lambda": 45.0}

    def test_parses(self):
        p = problem_from_dict(self.good())
        assert p.lam == 45.0 and p.weight.alpha == 1.0

    @pytest.mark.parametrize("key", ["weight", "f", "lambda"])
    def test_missing_top_level_key(self, key):
        d = self.good()
        del d[key]
        with pytest.raises(ValueError, match=key):
            problem_from_dict(d)

    @pytest.mark.parametrize("key", ["alpha", "omega1", "omega2"])
    def test_missing_weight_key(self, key):
        d = self.good()
        del d["weight"][key]
        with pytest.raises(ValueError, match=key):
            problem_from_dict(d)

    def test_bool_is_not_a_number(self):
        d = self.good()
        d["lambda"] = True
        with pytest.raises(ValueError):
            problem_from_dict(d)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_number(self, value):
        # Python's JSON parser reads Infinity and NaN as floats
        d = self.good()
        d["lambda"] = value
        with pytest.raises(ValueError, match="'lambda' must be a finite number"):
            problem_from_dict(d)
        d = self.good()
        d["weight"]["omega2"] = value
        with pytest.raises(ValueError, match="'weight.omega2' must be a finite number"):
            problem_from_dict(d)

    def test_not_an_object(self):
        with pytest.raises(ValueError):
            problem_from_dict([1, 2, 3])

    def test_malformed_json_text(self):
        with pytest.raises(json.JSONDecodeError):
            problem_from_json('{"weight":')


class TestConjectureHypotheses:
    def test_benchmark_instances_in_scope(self, prop1, prop2):
        for inst in (prop1, prop2):
            report = validate_conjecture_hypotheses(inst.problem)
            assert report.weight_positive_somewhere is True
            assert report.weight_mean_negative is True
            assert report.f_star.satisfies_f_star is True
            assert report.ratio_strictly_decreasing is True
            assert report.in_scope is True

    def test_positive_mean_out_of_scope(self):
        p = Problem(weight=StepWeight(0.1, -0.21, 0.2),
                    f=DegreeOfDominance(k=0.0), lam=45.0)
        report = validate_conjecture_hypotheses(p)
        assert report.weight_mean == pytest.approx(0.179, abs=1e-15)
        assert report.weight_mean_negative is False
        assert report.in_scope is False

    def test_increasing_ratio_out_of_scope(self):
        p = Problem(weight=StepWeight(1.0, -0.21, 0.2),
                    f=DegreeOfDominance(k=-1.0), lam=45.0)
        report = validate_conjecture_hypotheses(p)
        assert report.ratio_strictly_decreasing is False
        assert report.in_scope is False


class TestNecessaryIntegral:
    def test_zero_on_trivial_trajectories(self, prop1, default_cfg):
        for level in (0.0, 1.0):
            traj = integrate(prop1.problem, default_cfg, PhasePoint(level, 0.0))
            assert neumann_necessary_integral(prop1.problem, traj) == 0.0

    def test_small_on_validated_clines(self, prop1, prop1_search):
        result, _ = prop1_search
        for cline in result.clines:
            val = neumann_necessary_integral(prop1.problem, cline.trajectory)
            assert abs(val) < 1e-6

    def test_span_mismatch_rejected(self, prop1, prop2, default_cfg):
        traj = integrate(prop2.problem, default_cfg, PhasePoint(0.3, 0.0))
        with pytest.raises(ValueError):
            neumann_necessary_integral(prop1.problem, traj)

    def test_constant_height_gives_mean_times_f(self, prop1, default_cfg):
        # with u pinned at 0.5 the integral collapses to w_mean * f(0.5)
        p = prop1.problem
        traj = integrate(p, default_cfg, PhasePoint(0.0, 0.0))
        traj.us[:] = 0.5
        expected = p.weight.mean * float(p.f.value(0.5))
        val = neumann_necessary_integral(p, traj)
        assert val == pytest.approx(expected, rel=1e-12, abs=1e-15)
