import io
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clineshoot.shooting as shooting
from clineshoot import timemap
from clineshoot.integrator import (
    CSV_CHUNK_ROWS,
    DEFAULT_TARGET_STEP,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    poincare_map,
)
from clineshoot.nonlinearity import CustomPolynomial
from clineshoot.problem import problem_from_json
from clineshoot.reproduction import remark_instances
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


def synthetic_curve(vs, ok=None):
    n = len(vs)
    rs = np.linspace(0.0, 1.0, n)
    vs = np.asarray(vs, dtype=float)
    ok = np.ones(n, dtype=bool) if ok is None else np.asarray(ok, dtype=bool)
    return GammaCurve(rs=rs, u_end=np.full(n, 0.5), v_end=vs, ok=ok)


class TestGammaCurve:
    def test_resolution_floor(self, prop1, default_cfg):
        with pytest.raises(ValueError):
            build_gamma(prop1.problem, default_cfg, resolution=10)

    def test_grid_and_trivial_endpoints(self, prop1, default_cfg):
        g = build_gamma(prop1.problem, default_cfg, resolution=101)
        assert g.resolution == 101
        assert g.rs[0] == 0.0 and g.rs[-1] == 1.0
        assert np.max(np.abs(np.diff(g.rs) - 0.01)) < 1e-15
        assert g.u_end[0] == 0.0 and g.v_end[0] == 0.0
        assert g.u_end[-1] == 1.0 and g.v_end[-1] == 0.0

    def test_sign_changes_first_instance(self, prop1, default_cfg):
        g = build_gamma(prop1.problem, default_cfg, resolution=401)
        assert g.sign_changes() >= 3

    def test_sign_changes_second_instance(self, prop2, default_cfg):
        g = build_gamma(prop2.problem, default_cfg, resolution=801)
        assert g.sign_changes() >= 3

    def test_csv_export(self, prop1, default_cfg):
        g = build_gamma(prop1.problem, default_cfg, resolution=11)
        buf = io.StringIO()
        g.write_csv(buf, header_lines=("resolution: 11",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# resolution: 11"
        assert lines[1] == "r,u_end,v_end,status"
        assert len(lines) == 2 + 11
        assert lines[2] == "0,0,0,ok"

    def test_csv_rows_match_per_element_format(self):
        rng = np.random.default_rng(7)
        n = 2 * CSV_CHUNK_ROWS + 5
        ok = rng.random(n) > 0.1
        g = GammaCurve(rs=np.linspace(0.0, 1.0, n), u_end=rng.normal(size=n),
                       v_end=rng.normal(size=n) * 1e-7, ok=ok)
        expected = "r,u_end,v_end,status\n" + "".join(
            f"{g.rs[i]:.17g},{g.u_end[i]:.17g},{g.v_end[i]:.17g},ok\n" if ok[i]
            else f"{g.rs[i]:.17g},nan,nan,blowup\n" for i in range(n))
        buf = io.StringIO()
        g.write_csv(buf)
        assert buf.getvalue() == expected
        assert buf.getvalue().count(",blowup\n") == int((~ok).sum()) > 0


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
        g = synthetic_curve([0.0, 1.0, 5.0, -1.0, -2.0, 0.0], ok=[1, 1, 0, 1, 1, 1])
        brackets = find_brackets(g)
        assert len(brackets) == 1
        # the bracket spans the blown-up gap
        assert brackets[0].r_lo == pytest.approx(0.2)
        assert brackets[0].r_hi == pytest.approx(0.6)

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
                raise BlowupError(0.05, 2.0 * cfg.blowup_bound, 0.0)
            return real_map(p, cfg, z0)

        monkeypatch.setattr(shooting, "sweep_brackets",
                            lambda *args: (result.brackets, result.bracketing))
        monkeypatch.setattr(timemap, "find_root", lambda p, lo, hi, tol: None)
        monkeypatch.setattr(shooting, "poincare_map", blow_up_inside)
        again = find_all_clines(prop1.problem, default_cfg)
        (lost,) = again.failures
        assert isinstance(lost, BracketLostError) and lost.bracket == b
        assert b.r_lo < lost.r < b.r_hi and lost.cause.x == 0.05
        assert len(again.clines) == 2 and not again.rejected


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


def direct_brackets(p, cfg):
    return find_brackets(build_gamma(p, cfg))


def node_index(r, resolution=shooting.DEFAULT_RESOLUTION):
    """Index of grid height r among the interior nodes the pre-pass sweeps."""
    return round(r * (resolution - 1)) - 1


def record_sweeps(monkeypatch, patch_coarse=None, blow_up_at=()):
    """Record the sweeps and scalar re-shots of the shooting module.

    With patch_coarse given, it is applied to the result of each coarse
    sweep (any step other than the default one) before the pre-pass sees
    it. poincare_map raises BlowupError at the heights in blow_up_at.
    Returns the list of (target_step, initial heights) sweep_terminals
    calls and the list of heights passed to poincare_map.
    """
    real_sweep = shooting.sweep_terminals
    real_map = shooting.poincare_map
    calls, reshot = [], []

    def recorded_sweep(p, cfg, u0):
        calls.append((cfg.target_step, np.array(u0)))
        out = real_sweep(p, cfg, u0)
        if patch_coarse is not None and cfg.target_step != IntegratorConfig().target_step:
            patch_coarse(out)
        return out

    def recorded_map(p, cfg, z0):
        reshot.append(z0.u)
        if z0.u in blow_up_at:
            raise BlowupError(0.0, 2.0 * cfg.blowup_bound, 0.0)
        return real_map(p, cfg, z0)

    monkeypatch.setattr(shooting, "sweep_terminals", recorded_sweep)
    monkeypatch.setattr(shooting, "poincare_map", recorded_map)
    return calls, reshot


class TestSweepBrackets:
    @pytest.mark.parametrize("name", ["prop1", "prop2"])
    def test_propositions_match_direct_sweep(self, name, request, default_cfg):
        inst = request.getfixturevalue(name)
        result, _ = request.getfixturevalue(f"{name}_search")
        assert result.bracketing.direct_reason is None
        assert bracket_fields(result.brackets) == bracket_fields(
            direct_brackets(inst.problem, default_cfg))

    def test_remark_concave_config_matches_direct_sweep(self, default_cfg):
        p = problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text())
        brackets, report = sweep_brackets(p, default_cfg)
        assert report.direct_reason is None
        assert bracket_fields(brackets) == bracket_fields(direct_brackets(p, default_cfg))

    @pytest.mark.parametrize("lam", [5.0, 45.0, 300.0])
    @pytest.mark.parametrize("index", [0, 1])
    def test_remark_instances_match_direct_sweep(self, index, lam, default_cfg):
        p = replace(remark_instances()[index].problem, lam=lam)
        brackets, report = sweep_brackets(p, default_cfg)
        gamma = build_gamma(p, default_cfg)
        assert bracket_fields(brackets) == bracket_fields(find_brackets(gamma))
        if lam == 300.0:
            # the case covers blow-up gaps, too many for scalar re-shots
            assert not gamma.ok.all()
            assert report.reshot > shooting.PREPASS_MAX_RESHOTS
            assert report.direct_reason.startswith(
                f"{report.reshot} nodes need the fine step, more than "
                f"{shooting.PREPASS_MAX_RESHOTS} scalar re-shots")
        else:
            assert report.direct_reason is None

    def test_no_survivor_reports_nan_error(self, default_cfg):
        # f(0) = 5 sends every height out of the bound in both coarse sweeps
        p = replace(problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text()),
                    f=CustomPolynomial((5.0, 1.0, -1.0)), lam=400.0)
        brackets, report = sweep_brackets(p, default_cfg)
        assert math.isnan(report.error_estimate)
        assert report.direct_reason.endswith("E = nan")
        assert bracket_fields(brackets) == bracket_fields(direct_brackets(p, default_cfg))

    def test_endpoint_slopes_are_scalar_maps(self, prop1, prop2, prop1_search,
                                             prop2_search, default_cfg):
        # v_lo and v_hi are the arithmetic bisect_cline iterates with
        remark = problem_from_json((REPO_CONFIGS / "remark_concave.json").read_text())
        cases = [(prop1_search[0].brackets, prop1.problem),
                 (prop2_search[0].brackets, prop2.problem),
                 (sweep_brackets(remark, default_cfg)[0], remark)]
        for brackets, p in cases:
            assert brackets
            for b in brackets:
                for r, v in ((b.r_lo, b.v_lo), (b.r_hi, b.v_hi)):
                    assert v == poincare_map(p, default_cfg, PhasePoint(r, 0.0)).v

    def test_wrong_coarse_sign_is_reshot(self, prop1, default_cfg, prop1_search,
                                         monkeypatch):
        # a wrong sign mid-run forms two spurious brackets whose endpoints
        # are re-shot, and the fine value removes them again
        result, _ = prop1_search
        r, k = 0.9, node_index(0.9)

        def flip(out):
            out.v_end[k] = -out.v_end[k]

        calls, reshot = record_sweeps(monkeypatch, flip)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert r in reshot
        assert len(reshot) == len(set(reshot)) == report.reshot
        assert all(step != default_cfg.target_step for step, _ in calls)
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_value_within_the_margin_is_reshot(self, prop1, default_cfg,
                                               prop1_search, monkeypatch):
        # a coarse value of the right sign but within PREPASS_SAFETY * E of
        # zero is not trusted
        result, _ = prop1_search
        r, k = 0.9, node_index(0.9)
        v = poincare_map(prop1.problem, default_cfg, PhasePoint(r, 0.0)).v
        small = math.copysign(2.0 * result.bracketing.error_estimate, v)

        def shrink(out):
            out.v_end[k] = small

        _, reshot = record_sweeps(monkeypatch, shrink)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is None
        assert r in reshot
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_reshot_reaches_two_nodes_past_a_blowup(self, prop1, default_cfg,
                                                    prop1_search, monkeypatch):
        # the neighbours of a coarse blow-up are not trusted, so the fine
        # blow-up region may reach one node further without forcing the
        # direct sweep
        result, _ = prop1_search
        k = node_index(0.9)

        def blow_up(out):
            out.ok[k] = False
            out.v_end[k] = np.nan

        _, reshot = record_sweeps(monkeypatch, blow_up)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        inner = np.linspace(0.0, 1.0, shooting.DEFAULT_RESOLUTION)[1:-1]
        assert set(inner[k - 2:k + 3]) <= set(reshot)
        assert report.direct_reason is None
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_reshot_blowup_marks_the_node_blown(self, prop1, default_cfg,
                                                prop1_search, monkeypatch):
        # a re-shot endpoint that blows up drops out of the curve, so its
        # bracket stretches to the next node, which holds a coarse value:
        # the direct sweep runs, and its real values give the brackets back
        result, _ = prop1_search
        r = result.brackets[0].r_hi
        calls, reshot = record_sweeps(monkeypatch, blow_up_at={r})
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert r in reshot
        assert report.direct_reason.startswith("a bracket ends at a node with "
                                               "a trusted coarse value")
        assert len(calls[-1][1]) == shooting.DEFAULT_RESOLUTION
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    @pytest.mark.parametrize("extra", [0, -1])
    def test_reshot_limit(self, prop1, default_cfg, prop1_search, monkeypatch,
                          extra):
        # prop-1 needs 6 re-shots: a limit of 6 keeps the pre-pass, and a
        # limit of 5 takes the direct sweep before any scalar map runs
        result, _ = prop1_search
        needed = result.bracketing.reshot
        monkeypatch.setattr(shooting, "PREPASS_MAX_RESHOTS", needed + extra)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.reshot == needed
        if extra == 0:
            assert report.direct_reason is None
            assert len(reshot) == needed
        else:
            assert report.direct_reason.startswith(
                f"{needed} nodes need the fine step, more than {needed - 1}")
            assert reshot == []
            assert len(calls[-1][1]) == shooting.DEFAULT_RESOLUTION
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_wrong_sign_at_an_endpoint_falls_back(self, prop1, default_cfg,
                                                  prop1_search, monkeypatch):
        # a wrong sign at a true bracket endpoint hides that bracket from the
        # coarse curve; its other endpoint keeps a coarse value, so the
        # direct sweep runs
        result, _ = prop1_search
        b = result.brackets[0]
        k = node_index(b.r_hi)

        def flip(out):
            out.v_end[k] = -out.v_end[k]

        calls, _ = record_sweeps(monkeypatch, flip)
        brackets, report = sweep_brackets(prop1.problem, default_cfg)
        assert report.direct_reason is not None
        assert len(calls[-1][1]) == shooting.DEFAULT_RESOLUTION
        assert bracket_fields(brackets) == bracket_fields(result.brackets)

    def test_cost_gate_runs_the_direct_sweep(self, monkeypatch):
        p = remark_instances()[0].problem
        cfg = IntegratorConfig(target_step=1e-3)
        calls, reshot = record_sweeps(monkeypatch)
        _, report = sweep_brackets(p, cfg)
        assert report.direct_reason is not None
        assert len(calls) == 1 and reshot == []
        step, u0 = calls[0]
        assert step == 1e-3 and len(u0) == shooting.DEFAULT_RESOLUTION


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


class TestChooseStep:
    P = remark_instances()[0].problem
    HALF = 0.5 * P.weight.span / shooting.PREPASS_STEPS_PER_SPAN   # H / 2

    def test_rule_between_the_clamps(self):
        # E 16 times tol_v / 10 gives half of H / 2
        step, note = choose_step(self.P, 1.6e-10, 1e-10)
        assert step == pytest.approx(0.5 * self.HALF, rel=1e-15)
        assert note == " from E = 1.6e-10 (tol_v/10)"

    def test_floor(self):
        step, note = choose_step(self.P, 1e-3, 1e-10)
        assert step == DEFAULT_TARGET_STEP
        assert note.endswith(f"clamped: the rule gives {self.HALF * 1e-2:.3g}, "
                             f"below the floor 0.0001")

    @pytest.mark.parametrize("error", [1e-20, 0.0])
    def test_ceiling(self, error):
        step, note = choose_step(self.P, error, 1e-10)
        assert step == self.HALF
        assert f"above H/2 = {self.HALF:.3g}" in note

    def test_nan_falls_back_to_the_default(self):
        step, note = choose_step(self.P, math.nan, 1e-10)
        assert step == DEFAULT_TARGET_STEP
        assert note == ", the default: no height survived both coarse sweeps (E = nan)"

    @pytest.mark.parametrize("name", ["remark-no-dominance-300", "remark-full-dominance-300"])
    def test_lambda_300_takes_the_floor(self, name, chosen_search):
        result = chosen_search(case_problem(name))
        report = result.bracketing
        assert report.step == DEFAULT_TARGET_STEP
        assert report.step_line().startswith(
            f"step: 0.0001 from E = {report.error_estimate:.3g} (tol_v/10), clamped: ")

    @pytest.mark.parametrize("name, reshots, bracket_count", [
        ("prop1", 6, 3), ("prop2", 8, 4), ("remark_concave", 2, 1),
        ("remark-full-dominance-45", 6, 2)])
    def test_coarse_sweeps_run_once(self, name, reshots, bracket_count, monkeypatch):
        # a chosen step keeps the pre-pass it was chosen from: the two coarse
        # sweeps and the re-shots run, and no sweep at the chosen step
        p = case_problem(name)
        calls, reshot = record_sweeps(monkeypatch)
        brackets, report = sweep_brackets(p, None)
        h = p.weight.span / shooting.PREPASS_STEPS_PER_SPAN
        assert [step for step, _ in calls] == [h, 0.5 * h]
        assert report.step_note is not None and report.direct_reason is None
        assert report.step == choose_step(p, report.error_estimate, shooting.DEFAULT_TOL_V)[0]
        assert len(reshot) == report.reshot == reshots and len(brackets) == bracket_count

    def test_explicit_step_is_not_chosen(self, prop1_search):
        result, _ = prop1_search
        assert result.bracketing.step == DEFAULT_TARGET_STEP
        assert result.bracketing.step_note is None and result.bracketing.step_line() is None


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
