import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clineshoot.shooting as shooting
from clineshoot import timemap
from clineshoot.integrator import (
    BLOWUP_BOUND,
    DEFAULT_TARGET_STEP,
    MIN_STEPS_PER_SPAN,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    coarsest_step,
    poincare_map,
    step_plan,
    sweep_terminals,
)
from clineshoot.nonlinearity import CustomPolynomial, DegreeOfDominance, HatFamily
from clineshoot.problem import Problem, StepWeight, problem_from_json
from clineshoot.reproduction import proposition_1, remark_instances
from clineshoot.shooting import (
    DEFAULT_TOL_R,
    Bracket,
    BracketLostError,
    GammaCurve,
    bisect_cline,
    build_gamma,
    choose_step,
    find_all_clines,
    find_brackets,
    sweep_brackets,
)

PROP1_BRACKET_WINDOWS = [(0.1, 0.4), (0.4, 0.65), (0.65, 0.75)]
PROP2_BRACKET_WINDOWS = [(0.01, 0.1), (0.1, 0.45), (0.45, 0.9)]
REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def synthetic_curve(vs, rs=None):
    """A curve of terminal slopes vs over [0, 1], or at heights rs; nan is a blow-up."""
    n = len(vs)
    rs = np.linspace(0.0, 1.0, n) if rs is None else np.asarray(rs, dtype=float)
    return GammaCurve(rs=rs, u_end=np.full(n, 0.5), v_end=np.asarray(vs, dtype=float))


class TestGammaCurve:
    def test_resolution_floor(self, prop1, default_cfg):
        with pytest.raises(ValueError):
            build_gamma(prop1.problem, default_cfg, resolution=10)

    def test_grid_and_trivial_endpoints(self, prop1, default_cfg):
        g = build_gamma(prop1.problem, default_cfg, resolution=101)
        assert len(g.rs) == 101
        assert g.rs[0] == 0.0 and g.rs[-1] == 1.0
        assert np.max(np.abs(np.diff(g.rs) - 0.01)) < 1e-15
        assert g.u_end[0] == 0.0 and g.v_end[0] == 0.0
        assert g.u_end[-1] == 1.0 and g.v_end[-1] == 0.0

    def test_sign_changes_second_instance(self, prop2_gamma):
        # prop-1's count is asserted through the gamma command in test_cli.py
        assert len(find_brackets(prop2_gamma)) >= 3


class TestFindBrackets:
    def test_monotone_curve_has_none(self):
        g = synthetic_curve([0.0, 3.0, 2.0, 1.0, 0.5, 0.2, 0.0])
        assert find_brackets(g) == []

    def test_single_change(self):
        g = synthetic_curve([0.0, 1.0, 0.5, -0.5, -1.0, 0.0])
        brackets = find_brackets(g)
        assert len(brackets) == 1
        b = brackets[0]
        assert b.v_lo > 0.0 > b.v_hi
        assert 0.0 < b.r_lo < b.r_hi < 1.0

    def test_endpoints_never_bracket(self):
        # sign changes against the r=0 and r=1 entries must be ignored;
        # only the interior one counts
        g = synthetic_curve([1.0, -1.0, -0.5, 0.2, 0.1, 0.05, -1.0])
        brackets = find_brackets(g)
        assert len(brackets) == 1
        assert brackets[0].r_lo > 0.0 and brackets[0].r_hi < 1.0

    def test_blowup_entries_skipped(self):
        # a blown entry is the nan sweep_terminals writes; ok reads it
        g = synthetic_curve([0.0, 1.0, np.nan, -1.0, -2.0, 0.0])
        assert g.ok.tolist() == [True, True, False, True, True, True]
        brackets = find_brackets(g)
        assert len(brackets) == 1
        # the bracket spans the blown-up gap
        assert brackets[0].r_lo == pytest.approx(0.2)
        assert brackets[0].r_hi == pytest.approx(0.6)

    def test_interior_heights_scan_their_ends(self):
        # no padding at r = 0 and r = 1: the first and last entries bracket too
        g = synthetic_curve([0.0, 1.0, -1.0, 0.0], rs=[0.2, 0.4, 0.6, 0.8])
        assert [(b.r_lo, b.r_hi) for b in find_brackets(g)] == [
            (0.2, 0.2), (0.4, 0.6), (0.8, 0.8)]

    def test_exact_zero_becomes_degenerate(self):
        g = synthetic_curve([0.0, 1.0, 0.0, -1.0, 0.5, 0.0])
        brackets = find_brackets(g)
        degenerate = [b for b in brackets if b.is_exact]
        assert len(degenerate) == 1
        assert degenerate[0].r_lo == pytest.approx(0.4)
        # the zero entry separates its neighbours: no bracket straddles it
        for b in brackets:
            if not b.is_exact:
                assert not (b.r_lo < 0.4 < b.r_hi)

    def test_first_instance_windows(self, prop1_search):
        result, _ = prop1_search
        assert len(result.brackets) == 3
        for b, (lo, hi) in zip(result.brackets, PROP1_BRACKET_WINDOWS):
            assert lo <= b.r_lo < b.r_hi <= hi

    def test_second_instance_windows(self, prop2_search):
        result, _ = prop2_search
        for lo, hi in PROP2_BRACKET_WINDOWS:
            assert any(lo <= b.r_lo < b.r_hi <= hi for b in result.brackets
                       if not b.is_exact)


class TestBracketType:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Bracket(0.5, 0.4, -1.0, 1.0)

    def test_sign_change_enforced(self):
        with pytest.raises(ValueError):
            Bracket(0.4, 0.5, 1.0, 2.0)

    def test_degenerate_allowed(self):
        b = Bracket(0.4, 0.4, 0.0, 0.0)
        assert b.is_exact


class TestBisection:
    def test_residual_and_containment(self, prop1, default_cfg, prop1_search):
        result, _ = prop1_search
        for cline in result.clines:
            b = cline.bracket
            assert b.r_lo < cline.c < b.r_hi
            assert abs(cline.terminal_v_residual) < 1e-10

    def test_degenerate_bracket_returns_immediately(self, prop1, default_cfg,
                                                    prop1_search):
        result, _ = prop1_search
        root = result.clines[0].c
        b = Bracket(root, root, 0.0, 0.0)
        cline = bisect_cline(prop1.problem, default_cfg, b)
        assert cline.c == root

    def test_tolerance_validation(self, prop1, default_cfg):
        b = Bracket(0.1, 0.4, -1.0, 1.0)
        with pytest.raises(ValueError):
            bisect_cline(prop1.problem, default_cfg, b, tol_r=0.0)

    def test_bracket_lost_on_blowup(self, prop1, default_cfg):
        # midpoint 5.0 blows up; the fabricated endpoint slopes only steer
        # the bisection into it
        b = Bracket(3.0, 7.0, -1.0, 1.0)
        with pytest.raises(BracketLostError) as exc_info:
            bisect_cline(prop1.problem, default_cfg, b)
        assert exc_info.value.r == 5.0

    def test_blowup_at_exact_node_is_lost(self):
        # an exact bracket's one integrate blows up at x = 0.161
        concave, _ = remark_instances()
        p = replace(concave.problem, lam=300.0)
        b = Bracket(0.08, 0.08, 0.0, 0.0)
        with pytest.raises(BracketLostError) as exc_info:
            bisect_cline(p, IntegratorConfig(1e-3), b)
        lost = exc_info.value
        assert lost.bracket == b and lost.r == 0.08
        assert lost.cause.x == pytest.approx(0.161, abs=1e-3)

    def test_rejects_trajectory_leaving_unit_band(self, prop2_search):
        result, _ = prop2_search
        assert len(result.rejected) == 1
        reject = result.rejected[0]
        assert reject.rejected and "u=0" in reject.rejection_reason
        assert reject.min_u < 0.0


class TestFindAllClines:
    def test_first_instance_counts(self, prop1_search):
        result, _ = prop1_search
        assert len(result.clines) == 3
        assert len(result.rejected) == 0
        assert len(result.failures) == 0

    def test_second_instance_counts(self, prop2_search):
        result, _ = prop2_search
        assert len(result.clines) == 3
        assert len(result.failures) == 0

    def test_sorted_by_c(self, prop1_search, prop2_search):
        for result, _ in (prop1_search, prop2_search):
            cs = [c.c for c in result.clines]
            assert cs == sorted(cs)

    def test_endpoints_never_reported(self, prop1_search, prop2_search):
        for result, _ in (prop1_search, prop2_search):
            for cline in result.clines + result.rejected:
                assert 0.0 < cline.c < 1.0

    def test_certificates(self, prop1_search, prop2_search):
        for result, _ in (prop1_search, prop2_search):
            for cline in result.clines:
                assert abs(cline.terminal_v_residual) < 1e-10
                assert 0.0 < cline.min_u <= cline.max_u < 1.0
                assert abs(cline.necessary_integral) < 1e-6
                assert np.all(cline.trajectory.us > 0.0)
                assert np.all(cline.trajectory.us < 1.0)

    def test_envelope_dict(self, prop1_search):
        result, _ = prop1_search
        d = result.to_dict()
        assert len(d["clines"]) == 3
        assert d["bracket_count"] == 3
        first = d["clines"][0]
        assert set(first) >= {"c", "terminal_u", "terminal_v_residual", "min_u",
                              "max_u", "necessary_integral", "bracket", "rejected"}

    def test_lost_bracket_keeps_its_blowup(self, prop1, default_cfg, prop1_search,
                                          monkeypatch):
        # every height inside the middle bracket blows up during refinement;
        # the failure is the BracketLostError itself, with the blow-up as cause
        result, _ = prop1_search
        b = result.brackets[1]
        real_map = shooting.poincare_map

        def blow_up_inside(p, cfg, z0):
            if b.r_lo < z0.u < b.r_hi:
                raise BlowupError(0.05, 2.0 * BLOWUP_BOUND, 0.0)
            return real_map(p, cfg, z0)

        monkeypatch.setattr(shooting, "sweep_brackets",
                            lambda *args: (result.brackets, result.bracketing))
        monkeypatch.setattr(timemap, "find_roots", lambda p, spans, tol: [None] * len(spans))
        monkeypatch.setattr(shooting, "poincare_map", blow_up_inside)
        again = find_all_clines(prop1.problem, default_cfg)
        (lost,) = again.failures
        assert isinstance(lost, BracketLostError) and lost.bracket == b
        assert b.r_lo < lost.r < b.r_hi and lost.cause.x == 0.05
        assert len(again.clines) == 2 and not again.rejected

    def test_lost_exact_node_keeps_the_other_clines(self, prop1, monkeypatch):
        # f = s (1 - s) (s - 1/2) makes the grid node 1/2 an exact root; its
        # one integrate blows up, and the search goes on past it
        p = Problem(weight=prop1.problem.weight, f=CustomPolynomial((0, -0.5, 1.5, -1)),
                    lam=45.0)
        real_integrate = shooting.integrate

        def blow_up_at_half(p, cfg, z0):
            if z0.u == 0.5:
                raise BlowupError(0.05, 2.0 * BLOWUP_BOUND, 0.0)
            return real_integrate(p, cfg, z0)

        monkeypatch.setattr(shooting, "integrate", blow_up_at_half)
        result = find_all_clines(p, resolution=101)
        (lost,) = result.failures
        assert lost.bracket.is_exact and lost.r == lost.bracket.r_lo == 0.5
        assert lost.cause.x == 0.05
        assert len(result.clines) == 2 and not result.rejected
        for cline in result.clines:
            assert abs(cline.terminal_v_residual) < 1e-10 and cline.c != 0.5


def count_maps(monkeypatch, terminal_v=None):
    """Count poincare_map calls made by the shooting module.

    With terminal_v given, the map is replaced by the synthetic terminal
    slope r -> terminal_v(r); otherwise the real map runs. Returns the list
    of evaluated initial heights.
    """
    real = shooting.poincare_map
    evaluated = []

    def counted(p, cfg, z0):
        evaluated.append(z0.u)
        if terminal_v is None:
            return real(p, cfg, z0)
        return PhasePoint(0.5, terminal_v(z0.u))

    monkeypatch.setattr(shooting, "poincare_map", counted)
    return evaluated


def bisection_count(b, tol_r=DEFAULT_TOL_R):
    """Evaluations plain bisection needs to shrink the bracket below tol_r."""
    return math.ceil(math.log2((b.r_hi - b.r_lo) / tol_r))


class TestRefinement:
    @pytest.mark.parametrize("name", ["prop1", "prop2"])
    def test_maps_per_bracket(self, name, request, default_cfg, monkeypatch):
        inst = request.getfixturevalue(name)
        result, _ = request.getfixturevalue(f"{name}_search")
        # reuse the session's brackets so only refinement and validation run
        monkeypatch.setattr(shooting, "sweep_brackets",
                            lambda *args: (result.brackets, result.bracketing))
        evaluated = count_maps(monkeypatch)
        again = find_all_clines(inst.problem, default_cfg)
        refined = [b for b in again.brackets if not b.is_exact]
        assert refined
        assert len(evaluated) <= 10 * len(refined)
        assert [c.c for c in again.clines] == [c.c for c in result.clines]

    def test_understated_endpoint_slope(self, prop1, default_cfg, prop1_search,
                                        monkeypatch):
        # a stored slope 1e6 times too small puts the first secant point
        # right next to r_lo; the later points must not lean on that slope
        result, _ = prop1_search
        ref = result.clines[1]
        b = ref.bracket
        skewed = Bracket(b.r_lo, b.r_hi, b.v_lo * 1e-6, b.v_hi)
        evaluated = count_maps(monkeypatch)
        cline = bisect_cline(prop1.problem, default_cfg, skewed)
        assert abs(cline.c - ref.c) < 1e-8
        assert abs(cline.terminal_v_residual) < 1e-10
        assert evaluated[0] - b.r_lo < 1e-3 * (b.r_hi - b.r_lo)
        assert len(evaluated) <= 2 * bisection_count(b) + 2

    @pytest.mark.parametrize("steepness", [1e2, 3e2])
    def test_one_sided_slope_beats_bisection(self, prop1, default_cfg,
                                             monkeypatch, steepness):
        # expm1 is nearly flat left of the root and steep right of it, so
        # plain regula falsi creeps in from the flat side; interpolating
        # through the latest iterates instead of the bracket ends keeps the
        # count well under bisection's
        c = 0.3

        def terminal_v(r):
            return math.expm1(steepness * (r - c))

        evaluated = count_maps(monkeypatch, terminal_v)
        b = Bracket(0.1, 0.4, terminal_v(0.1), terminal_v(0.4))
        cline = bisect_cline(prop1.problem, default_cfg, b)
        assert abs(cline.c - c) < 1e-10
        assert len(evaluated) <= 0.6 * bisection_count(b)

    def test_rejected_root_of_prop2(self, prop2, default_cfg, prop2_search, monkeypatch):
        # the root next to the trivial profile has no time-map root, so
        # every find on prop-2 refines it on the fine-step map
        result, _ = prop2_search
        (reject,) = result.rejected
        evaluated = count_maps(monkeypatch)
        cline = bisect_cline(prop2.problem, default_cfg, reject.bracket)
        assert cline.c == reject.c
        assert len(evaluated) <= 6

    def test_step_function_still_converges(self, prop1, default_cfg, monkeypatch):
        # |v| never drops below tol_v, so only the width stop can end it
        c = 0.3
        evaluated = count_maps(monkeypatch,
                               lambda r: -1.0 if r < c else 1.0)
        b = Bracket(0.1, 0.4, -1.0, 1.0)
        cline = bisect_cline(prop1.problem, default_cfg, b)
        assert abs(cline.c - c) <= DEFAULT_TOL_R
        assert len(evaluated) <= 2 * bisection_count(b) + 2


def bracket_fields(brackets):
    return [(b.r_lo, b.r_hi, b.v_lo, b.v_hi) for b in brackets]


def bracket_cells(brackets):
    """(r_lo, r_hi) and the signs of v_lo and v_hi of each bracket."""
    return [(b.r_lo, b.r_hi, math.copysign(1.0, b.v_lo), math.copysign(1.0, b.v_hi))
            for b in brackets]


def direct_brackets(p, cfg, resolution=shooting.DEFAULT_RESOLUTION):
    return find_brackets(build_gamma(p, cfg, resolution))


def node_index(r, resolution=shooting.DEFAULT_RESOLUTION):
    """Index of grid height r among the interior nodes the pre-pass sweeps."""
    return round(r * (resolution - 1)) - 1


INNER = np.linspace(0.0, 1.0, shooting.DEFAULT_RESOLUTION)[1:-1]


def record_sweeps(monkeypatch, patch_coarse=None, blow_up_at=()):
    """Record the sweeps and scalar re-shots of the shooting module.

    With patch_coarse given, patch_coarse(out, step) is applied to the
    result of each coarse sweep (any step other than the default one)
    before the pre-pass sees it. poincare_map raises BlowupError at the
    heights in blow_up_at. Returns the list of (target_step, initial
    heights) sweep_terminals calls and the list of heights passed to
    poincare_map.
    """
    real_sweep = shooting.sweep_terminals
    real_map = shooting.poincare_map
    calls, reshot = [], []

    def recorded_sweep(p, cfg, u0):
        calls.append((cfg.target_step, np.array(u0)))
        out = real_sweep(p, cfg, u0)
        if patch_coarse is not None and cfg.target_step != IntegratorConfig().target_step:
            patch_coarse(out, cfg.target_step)
        return out

    def recorded_map(p, cfg, z0):
        reshot.append(z0.u)
        if z0.u in blow_up_at:
            raise BlowupError(0.0, 2.0 * BLOWUP_BOUND, 0.0)
        return real_map(p, cfg, z0)

    monkeypatch.setattr(shooting, "sweep_terminals", recorded_sweep)
    monkeypatch.setattr(shooting, "poincare_map", recorded_map)
    return calls, reshot


def blow_up_nodes(nodes, steps):
    """A patch_coarse that blows up the given interior nodes in the sweeps at steps."""
    def patch(out, step):
        if step in steps:
            out.v_end[nodes] = np.nan
    return patch


def flip_node(k, step):
    """A patch_coarse that flips the sign of node k in the sweep at step alone."""
    def patch(out, at):
        if at == step:
            out.v_end[k] = -out.v_end[k]
    return patch


class TestSweepBrackets:
    # prop-1's coarse steps H and H / 2, and a node far from its brackets
    H = coarsest_step(proposition_1().problem)
    HALF = 0.5 * H
    K = node_index(0.9)

    @pytest.mark.parametrize("name", ["prop1", "prop2"])
    def test_propositions_match_direct_sweep(self, name, request):
        result, _ = request.getfixturevalue(f"{name}_search")
        assert result.bracketing.direct_reason is None
        assert bracket_cells(result.brackets) == bracket_cells(
            find_brackets(request.getfixturevalue(f"{name}_gamma")))

    def test_remark_concave_config_matches_direct_sweep(self, default_cfg):
        p = problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text())
        brackets, report = sweep_brackets(p, default_cfg)
        assert report.direct_reason is None
        assert bracket_cells(brackets) == bracket_cells(direct_brackets(p, default_cfg))

    @pytest.mark.parametrize("lam", [5.0, 45.0, 150.0, 300.0])
    @pytest.mark.parametrize("index", [0, 1])
    def test_remark_instances_match_direct_sweep(self, index, lam, default_cfg):
        # from lambda = 150 on, heights blow up; those blown in both coarse
        # sweeps are taken as blown without a re-shot, and every fine
        # blow-up is one of them or a re-shot node
        p = replace(remark_instances()[index].problem, lam=lam)
        brackets, report = sweep_brackets(p, default_cfg)
        gamma = build_gamma(p, default_cfg)
        assert report.direct_reason is None
        assert bracket_cells(brackets) == bracket_cells(find_brackets(gamma))
        fine_blown = int((~gamma.ok[1:-1]).sum())
        assert report.blown <= fine_blown <= report.blown + report.reshot
        assert report.reshot <= 8
        if lam == 300.0:
            assert report.blown > 0

    def test_no_survivor_reports_nan_error(self, default_cfg, monkeypatch):
        # f(0) = 5 sends every height out of the bound in both coarse sweeps,
        # so E is nan and the direct sweep runs; it finds no bracket here, so
        # why it runs is pinned by test_no_survivor_still_brackets_at_the_fine_step
        p = replace(problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text()),
                    f=CustomPolynomial((5.0, 1.0, -1.0)), lam=400.0)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(p, default_cfg)
        assert math.isnan(report.error_estimate)
        assert report.direct_reason == "no node survived both coarse sweeps, E = nan"
        assert reshot == [] and len(calls[-1][1]) == shooting.DEFAULT_RESOLUTION
        monkeypatch.undo()
        assert bracket_fields(brackets) == bracket_fields(direct_brackets(p, default_cfg))

    def test_no_survivor_takes_the_direct_sweep_below_the_cap(self, monkeypatch):
        # 9 interior nodes, all blown in both coarse sweeps, are within
        # PREPASS_MAX_RESHOTS; E is nan, so the direct sweep still runs, at
        # the step choose_step gives for E = nan
        p = replace(problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text()),
                    f=CustomPolynomial((5.0, 1.0, -1.0)), lam=400.0)
        h = coarsest_step(p)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(p, None, resolution=11)
        assert report.direct_reason.endswith("E = nan") and reshot == []
        assert report.step == DEFAULT_TARGET_STEP
        assert [(s, len(u0)) for s, u0 in calls] == [(h, 9), (0.5 * h, 9),
                                                    (DEFAULT_TARGET_STEP, 11)]
        assert brackets == []

    def test_no_survivor_still_brackets_at_the_fine_step(self):
        # prop-2 at lambda = 1e5: all 49 nodes blow up in both coarse sweeps,
        # so the pre-pass would take each as blown and re-shoot none, yet the
        # fine sweep brackets 9 sign changes between the nodes that survive it
        p = replace(case_problem("prop2"), lam=1e5)
        cfg = IntegratorConfig(2e-3)
        for k in (1.0, 2.0):
            coarse = IntegratorConfig(coarsest_step(p) / k)
            assert not sweep_terminals(p, coarse, np.linspace(0.0, 1.0, 51)[1:-1]).ok.any()
        brackets, report = sweep_brackets(p, cfg, resolution=51)
        assert report.direct_reason == "no node survived both coarse sweeps, E = nan"
        assert len(brackets) == 9
        assert bracket_fields(brackets) == bracket_fields(direct_brackets(p, cfg, 51))

    def test_endpoint_slopes_come_from_the_half_step_sweep(self, prop1, prop2, prop1_search,
                                                           prop2_search, default_cfg):
        # no endpoint is re-shot on these configs: v_lo and v_hi are the
        # H / 2 sweep's, with the signs of scalar maps at the fine step
        remark = problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text())
        cases = [(prop1_search[0].bracketing, prop1_search[0].brackets, prop1.problem),
                 (prop2_search[0].bracketing, prop2_search[0].brackets, prop2.problem),
                 (*reversed(sweep_brackets(remark, default_cfg)), remark)]
        for report, brackets, p in cases:
            assert brackets and report.reshot == 0
            half = sweep_terminals(p, IntegratorConfig(target_step=report.coarse_steps[1]),
                                   INNER)
            for b in brackets:
                for r, v in ((b.r_lo, b.v_lo), (b.r_hi, b.v_hi)):
                    assert v == half.v_end[node_index(r)]
                    assert v * poincare_map(p, default_cfg, PhasePoint(r, 0.0)).v > 0.0

    def test_wrong_coarse_sign_is_reshot(self, prop1, default_cfg, prop1_search,
                                         monkeypatch):
        # a sign flipped in the H / 2 sweep alone gives the node an estimate
        # of about 2 |v| / 15, far above |v| / PREPASS_SAFETY; it enters the
        # margins of both neighbours too, so those three nodes and their
        # neighbours are re-shot, and the fine values give the brackets back
        result, _ = prop1_search
        k = self.K
        calls, reshot = record_sweeps(monkeypatch, flip_node(k, self.HALF))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == INNER[k - 2:k + 3].tolist() and report.reshot == 5
        assert all(step != default_cfg.target_step for step, _ in calls)
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    @pytest.mark.parametrize("ratio, trusted", [(200.0, True), (50.0, False)])
    def test_value_within_the_margin_is_reshot(self, prop1, default_cfg, prop1_search,
                                               monkeypatch, ratio, trusted):
        # the H / 2 value is moved toward zero until the node's own estimate
        # |v_H - v_{H/2}| / 15 is |v_{H/2}| / ratio: a value more than
        # PREPASS_SAFETY estimates from zero keeps its coarse sign; one
        # within that margin is not trusted, nor are its neighbours, whose
        # values are about as large and whose margins take its estimate
        result, _ = prop1_search
        k = self.K
        wide = []

        def shrink(out, step):
            if step == self.H:
                wide.append(out.v_end[k])
            else:
                out.v_end[k] = wide[0] / (1.0 + 15.0 / ratio)

        _, reshot = record_sweeps(monkeypatch, shrink)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == ([] if trusted else INNER[k - 2:k + 3].tolist())
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_blown_in_both_coarse_sweeps_is_not_reshot(self, prop1, default_cfg,
                                                       prop1_search, monkeypatch):
        # five nodes blown in both coarse sweeps, and at the fine step: the
        # three inside are taken as blown, and only the edges are re-shot
        result, _ = prop1_search
        k = self.K
        region = INNER[k:k + 5]
        _, reshot = record_sweeps(monkeypatch, blow_up_nodes(slice(k, k + 5), (self.H, self.HALF)),
                                  blow_up_at=set(region))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert not set(region[1:4]) & set(reshot)
        assert report.blown == 3 and report.reshot == len(reshot) == 4
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_change_of_blown_status_reshoots_both_neighbours(self, prop1, default_cfg,
                                                             prop1_search, monkeypatch):
        # a node blown in both coarse sweeps sits next to two changes of
        # blown status; it and both neighbours are re-shot, and its fine
        # value, which does not blow up, takes its place
        result, _ = prop1_search
        k = self.K
        _, reshot = record_sweeps(monkeypatch, blow_up_nodes([k], (self.H, self.HALF)))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == INNER[k - 1:k + 2].tolist()
        assert report.reshot == 3 and report.blown == 0
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    @pytest.mark.parametrize("blown_step", ["H", "HALF"])
    def test_blown_in_one_coarse_sweep_is_reshot(self, prop1, default_cfg, prop1_search,
                                                 monkeypatch, blown_step):
        # a node that blows up in one coarse sweep only has no estimate and
        # is untrusted: it and its neighbours are re-shot
        result, _ = prop1_search
        k = self.K
        patch = blow_up_nodes([k], (getattr(self, blown_step),))
        _, reshot = record_sweeps(monkeypatch, patch)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == INNER[k - 1:k + 2].tolist() and report.blown == 0
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_reshot_reaches_two_nodes_past_a_blowup(self, prop1, default_cfg,
                                                    prop1_search, monkeypatch):
        # the fine blow-up reaches one node below the coarse one: the
        # re-shot edge node blows up, and so the node below it is re-shot
        # as well, until no change of blown status borders a coarse value
        result, _ = prop1_search
        k = self.K
        _, reshot = record_sweeps(monkeypatch, blow_up_nodes(slice(k, k + 5), (self.H, self.HALF)),
                                  blow_up_at=set(INNER[k - 1:k + 5]))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == INNER[[k - 1, k, k + 4, k + 5, k - 2]].tolist()
        assert report.reshot == 5 and report.blown == 3
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_reshot_blowup_marks_the_node_blown(self, prop1, default_cfg,
                                                prop1_search, monkeypatch):
        # a bracket endpoint blown in the H sweep alone is re-shot and blows
        # up: it drops out of the curve, and its bracket stretches to the
        # next node, whose re-shot value closes it
        result, _ = prop1_search
        b = result.brackets[0]
        k = node_index(b.r_hi)
        _, reshot = record_sweeps(monkeypatch, blow_up_nodes([k], (self.H,)),
                                  blow_up_at={b.r_hi})
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert reshot == INNER[k - 1:k + 2].tolist()
        assert brackets[1:] == result.brackets[1:]
        monkeypatch.undo()
        v_lo, v_hi = (poincare_map(prop1.problem, default_cfg, PhasePoint(r, 0.0)).v
                      for r in (b.r_lo, INNER[k + 1]))
        assert bracket_fields(brackets[:1]) == [(b.r_lo, INNER[k + 1], v_lo, v_hi)]

    @pytest.mark.parametrize("extra", [0, -1])
    def test_reshot_limit(self, prop1, default_cfg, prop1_search, monkeypatch,
                          extra):
        # a sign flipped in the H / 2 sweep needs 5 re-shots: a limit of 5
        # keeps the pre-pass, and a limit of 4 takes the direct sweep before
        # any scalar map runs
        result, _ = prop1_search
        monkeypatch.setattr(shooting, "PREPASS_MAX_RESHOTS", 5 + extra)
        calls, reshot = record_sweeps(monkeypatch, flip_node(self.K, self.HALF))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.reshot == 5
        if extra == 0:
            assert report.direct_reason is None
            assert len(reshot) == 5
        else:
            assert report.direct_reason.startswith(
                "5 nodes need the fine step, more than 4 scalar re-shots")
            assert reshot == []
            assert len(calls[-1][1]) == shooting.DEFAULT_RESOLUTION
        assert bracket_cells(brackets) == bracket_cells(result.brackets)

    def test_wrong_sign_at_an_endpoint_is_reshot(self, prop1, default_cfg, prop1_search,
                                                 monkeypatch):
        # a sign flipped in the H / 2 sweep at a true bracket endpoint hides
        # that bracket from the coarse curve; the node is untrusted, and its
        # re-shot value gives the bracket back with a fine-step v_hi
        result, _ = prop1_search
        b = result.brackets[0]
        k = node_index(b.r_hi)
        calls, reshot = record_sweeps(monkeypatch, flip_node(k, self.HALF))
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None and len(calls) == 2
        assert reshot == INNER[k - 1:k + 2].tolist()
        assert brackets[1:] == result.brackets[1:]
        monkeypatch.undo()
        v_lo, v_hi = (poincare_map(prop1.problem, default_cfg, PhasePoint(r, 0.0)).v
                      for r in (b.r_lo, b.r_hi))
        assert bracket_fields(brackets[:1]) == [(b.r_lo, b.r_hi, v_lo, v_hi)]

    @pytest.mark.parametrize("name, step", [("prop1", 5e-4), ("prop2", 1e-3),
                                            ("prop1", 1.35e-3), ("prop1", 1.362e-3)])
    def test_gate_at_its_boundary(self, name, step, request, monkeypatch):
        # a caller's step takes the pre-pass exactly when the two coarse
        # sweeps take fewer steps than the fine sweep: 302 against 820 and
        # 855 here, and against 305 at 1.35e-3 on prop-1; at 1.362e-3 the
        # fine sweep takes 302 steps too, and runs alone
        p = request.getfixturevalue(name).problem
        cfg = IntegratorConfig(target_step=step)
        expected = direct_brackets(p, cfg)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(p, cfg)
        if step == 1.362e-3:
            assert report.direct_reason == ("coarse sweeps would take 302 steps, "
                                            "no fewer than the fine sweep's 302")
            assert [s for s, _ in calls] == [step] and reshot == []
            assert bracket_fields(brackets) == bracket_fields(expected)
        else:
            h = coarsest_step(p)
            assert [s for s, _ in calls] == [h, 0.5 * h]
            assert report.direct_reason is None
            assert reshot == [] and report.reshot == 0
            assert bracket_cells(brackets) == bracket_cells(expected)

    def test_cost_gate_runs_the_direct_sweep(self, monkeypatch):
        # on the remark habitat 2e-3 takes 205 steps, the coarse sweeps 302
        p = remark_instances()[0].problem
        cfg = IntegratorConfig(target_step=2e-3)
        calls, reshot = record_sweeps(monkeypatch)
        _, report = sweep_brackets(p, cfg)
        assert report.direct_reason is not None
        assert len(calls) == 1 and reshot == []
        step, u0 = calls[0]
        assert step == 2e-3 and len(u0) == shooting.DEFAULT_RESOLUTION


@given(f=st.one_of(st.builds(HatFamily, h=st.floats(0.1, 3.0)),
                   st.builds(DegreeOfDominance, k=st.floats(-1.0, 1.0))),
       weight=st.builds(StepWeight, alpha=st.floats(0.5, 2.5),
                        omega1=st.floats(-0.3, -0.1), omega2=st.floats(0.1, 0.3)),
       lam=st.floats(5.0, 300.0))
@settings(max_examples=8, deadline=None)
def test_prepass_brackets_match_the_direct_sweep(f, weight, lam):
    # trusted coarse signs, coarse blow-ups taken as blown and fine re-shots
    # give the cells and signs of the sweep at the chosen step
    p = Problem(weight, f, lam)
    brackets, report = sweep_brackets(p, None, resolution=201)
    expected = direct_brackets(p, IntegratorConfig(target_step=report.step), 201)
    assert bracket_cells(brackets) == bracket_cells(expected)


# the bundled configs, then the remark instances at lambda = 5, 45 and 300;
# remark_concave.json is remark-no-dominance at 45
SEARCH_CASES = ["prop1", "prop2", "remark_concave", "remark-no-dominance-5",
                "remark-no-dominance-300", "remark-full-dominance-5",
                "remark-full-dominance-45", "remark-full-dominance-300"]


def case_problem(name):
    if "-" not in name:
        return problem_from_json((REPO_CONFIGS / f"{name}.json").read_text())
    instance, lam = name.rsplit("-", 1)
    problems = {inst.name: inst.problem for inst in remark_instances()}
    return replace(problems[instance], lam=float(lam))


@given(omega1=st.floats(min_value=-20.0, max_value=-1e-6),
       omega2=st.floats(min_value=1e-6, max_value=20.0))
@settings(max_examples=300, deadline=None)
def test_step_plan_never_clamps_the_coarse_steps(omega1, omega2):
    # H is step_plan's clamp: any coarser target marches as H does, while
    # H and H / 2 march as given, and the two plans differ; a clamp of
    # H / 2 onto H would leave E = 0
    p = Problem(StepWeight(1.0, omega1, omega2), HatFamily(h=3.0), 45.0)
    h = coarsest_step(p)
    assert h == p.weight.span / MIN_STEPS_PER_SPAN
    coarse = (h, 0.5 * h)
    plans = [step_plan(p, IntegratorConfig(target_step=t)) for t in coarse]
    assert step_plan(p, IntegratorConfig(target_step=sys.float_info.max)) == plans[0]
    for t, (n1, _, n2, _) in zip(coarse, plans):
        assert (n1, n2) == (max(1, math.ceil(-omega1 / t)), max(1, math.ceil(omega2 / t)))
    (n1, _, n2, _), (m1, _, m2, _) = plans
    assert m1 + m2 > n1 + n2 >= MIN_STEPS_PER_SPAN


class TestChooseStep:
    P = remark_instances()[0].problem
    HALF = 0.5 * coarsest_step(P)   # H / 2

    def test_rule_between_the_clamps(self):
        # E 16 times tol_v / 10 gives half of H / 2
        step, note = choose_step(self.P, 1.6e-10, 1e-10)
        assert step == pytest.approx(0.5 * self.HALF, rel=1e-15)
        assert note == " from E = 1.6e-10 (tol_v/10)"

    def test_floor(self):
        step, note = choose_step(self.P, 1e-3, 1e-10)
        assert step == DEFAULT_TARGET_STEP
        assert note.endswith(f"clamped: the rule gives {self.HALF * 1e-2:.3g}, "
                             f"kept within [0.0001, {self.HALF:.3g}]")

    @pytest.mark.parametrize("error", [1e-20, 0.0])
    def test_ceiling(self, error):
        step, note = choose_step(self.P, error, 1e-10)
        assert step == self.HALF
        assert note.endswith(f"kept within [0.0001, {self.HALF:.3g}]")

    def test_short_habitat_takes_h_over_2_below_the_floor(self):
        # span 0.015 < 200 * 1e-4, so H / 2 = 7.5e-05 lies below the floor
        # 1e-4 and is both ends of the interval the rule is kept within
        p = replace(self.P, weight=StepWeight(1.0, -0.005, 0.01))
        half = 0.5 * coarsest_step(p)
        assert half < DEFAULT_TARGET_STEP
        step, note = choose_step(p, 1e-6, 1e-10)
        assert step == half
        assert note == (" from E = 1e-06 (tol_v/10), clamped: the rule gives 4.22e-06, "
                        "kept within [7.5e-05, 7.5e-05]")

    def test_nan_falls_back_to_the_default(self):
        step, note = choose_step(self.P, math.nan, 1e-10)
        assert step == DEFAULT_TARGET_STEP
        assert note == (f", the low end of [0.0001, {self.HALF:.3g}]: no height survived "
                        "both coarse sweeps (E = nan)")

    def test_nan_on_a_short_habitat_takes_h_over_2(self, monkeypatch):
        # H / 2 = 7.5e-05 lies below the default step, and no fine step is
        # coarser than the coarse sweep; choose_step runs no sweep
        monkeypatch.setattr(shooting, "sweep_terminals", None)
        p = replace(self.P, weight=StepWeight(1.0, -0.005, 0.01))
        step, note = choose_step(p, math.nan, 1e-10)
        assert step == 0.5 * coarsest_step(p) < DEFAULT_TARGET_STEP
        assert note == (", the low end of [7.5e-05, 7.5e-05]: no height survived both "
                        "coarse sweeps (E = nan)")

    @pytest.mark.parametrize("name", ["remark-no-dominance-300", "remark-full-dominance-300"])
    def test_lambda_300_takes_the_floor(self, name, chosen_search):
        result = chosen_search(case_problem(name))
        report = result.bracketing
        assert report.step == DEFAULT_TARGET_STEP
        step_line, bracketing_line = report.summary().split("\n")
        assert step_line.startswith(
            f"step: 0.0001 from E = {report.error_estimate:.3g} (tol_v/10), clamped: ")
        assert bracketing_line.startswith("bracketing: coarse steps ")

    @pytest.mark.parametrize("name, reshots, bracket_count", [
        ("prop1", 0, 3), ("prop2", 0, 4), ("remark_concave", 0, 1),
        ("remark-full-dominance-45", 0, 2), ("remark-no-dominance-300", 4, 1)])
    def test_coarse_sweeps_run_once(self, name, reshots, bracket_count, monkeypatch):
        # a chosen step keeps the pre-pass it was chosen from: the two coarse
        # sweeps and the re-shots run, and no sweep at the chosen step; at
        # lambda = 300 the re-shots are the edges of the coarse blow-ups
        p = case_problem(name)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(p, None)
        h = coarsest_step(p)
        assert [step for step, _ in calls] == [h, 0.5 * h]
        assert report.step_note is not None and report.direct_reason is None
        assert report.step == choose_step(p, report.error_estimate, shooting.DEFAULT_TOL_V)[0]
        assert len(reshot) == report.reshot == reshots and len(brackets) == bracket_count

    def test_explicit_step_is_not_chosen(self, prop1_search):
        result, _ = prop1_search
        assert result.bracketing.step == DEFAULT_TARGET_STEP
        assert result.bracketing.step_note is None
        assert "\n" not in result.bracketing.summary()
        assert result.bracketing.summary().startswith("bracketing: ")


class TestChosenSearch:
    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_roots_strictly_increase(self, name, chosen_search):
        # the brackets are disjoint ascending cells and each root lies inside
        # its own, so no two roots coincide and none needs merging
        result = chosen_search(case_problem(name))
        brackets = result.brackets
        assert all(a.r_hi <= b.r_lo for a, b in zip(brackets, brackets[1:]))
        found = sorted(result.clines + result.rejected, key=lambda c: c.c)
        assert all(a.c < b.c for a, b in zip(found, found[1:]))
        assert [c.bracket for c in found] == brackets and not result.failures
        for cline in found:
            assert cline.bracket.r_lo <= cline.c <= cline.bracket.r_hi

    @pytest.mark.parametrize("name", SEARCH_CASES)
    def test_matches_the_quarter_step_reference(self, name, chosen_search):
        # c_ref is the RK4 root at a quarter of the chosen step, refined to
        # tol_r = 1e-15 from the bracket [c - 1e-8, c + 1e-8]; that the
        # bracket holds a sign change at all puts c within 1e-8 of c_ref
        p = case_problem(name)
        result = chosen_search(p)
        ref_cfg = IntegratorConfig(target_step=0.25 * result.bracketing.step)
        found = result.clines + result.rejected
        assert result.clines
        for cline in found:
            lo, hi = cline.c - 1e-8, cline.c + 1e-8
            v_lo, v_hi = (poincare_map(p, ref_cfg, PhasePoint(r, 0.0)).v for r in (lo, hi))
            assert v_lo * v_hi < 0.0, f"no quarter-step root within 1e-8 of {cline.c!r}"
            ref = bisect_cline(p, ref_cfg, Bracket(lo, hi, v_lo, v_hi), 1e-15, 1e-300)
            assert ref.rejected == cline.rejected
            assert abs(cline.c - ref.c) < 1e-8
