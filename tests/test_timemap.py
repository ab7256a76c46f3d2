"""The RK4-free time-map against the shooting pipeline."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clineshoot import shooting, timemap
from clineshoot.integrator import BLOWUP_BOUND, BlowupError, IntegratorConfig
from clineshoot.problem import problem_from_json
from clineshoot.reproduction import remark_instances
from clineshoot.shooting import DEFAULT_TOL_R, bisect_cline, find_all_clines

REMARK_LAMBDAS = (5.0, 45.0, 300.0)
REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# heights scanned for time-map roots; the cells are fine enough to hold
# one root each on every instance here
SCAN_NODES = 401


def timemap_roots(p):
    """Roots of G in the candidate cells of a uniform scan, without RK4."""
    roots = timemap.find_roots(p, candidate_cells(p), DEFAULT_TOL_R)
    return [root for root in roots if root is not None]


def candidate_cells(p):
    """The cells (lo, hi) of a uniform scan over [0, 1] that may hold a root of G.

    A cell counts when G changes sign over it or is defined at one end
    only, since a root can sit next to the edge of G's domain; G is
    undefined at 0 and 1, so the end cells count too.
    """
    rs = np.linspace(0.0, 1.0, SCAN_NODES).tolist()
    g = timemap.residual(p, np.array(rs))
    return [(lo, hi) for lo, hi, g_lo, g_hi in zip(rs[:-1], rs[1:], g[:-1], g[1:])
            if g_lo * g_hi < 0.0 or math.isnan(g_lo) != math.isnan(g_hi)]


@pytest.fixture(scope="module")
def remark_searches(chosen_search):
    """(problem, search result at the chosen step) for each remark instance at each lambda."""
    out = {}
    for inst in remark_instances():
        for lam in REMARK_LAMBDAS:
            p = replace(inst.problem, lam=lam)
            out[inst.name, lam] = p, chosen_search(p)
    return out


def no_timemap(monkeypatch):
    """Make every time-map root search fail and record the attempts."""
    calls = []

    def failing(p, spans, tol):
        calls.extend(spans)
        return [None] * len(spans)

    monkeypatch.setattr(timemap, "find_roots", failing)
    return calls


def test_proposition_clines_match_map_refinement(prop1, prop2, default_cfg,
                                           prop1_search, prop2_search):
    worst = 0.0
    for inst, (result, _) in ((prop1, prop1_search), (prop2, prop2_search)):
        assert len(result.clines) == 3
        for cline in result.clines:
            alone = bisect_cline(inst.problem, default_cfg, cline.bracket)
            worst = max(worst, abs(cline.c - alone.c))
    assert worst < 1e-9


def assert_roots_match(p, result):
    roots = timemap_roots(p)
    assert len(roots) == len(result.clines) > 0
    for root, cline in zip(roots, result.clines):
        assert abs(root - cline.c) < 1e-9


@pytest.mark.parametrize("lam", REMARK_LAMBDAS)
@pytest.mark.parametrize("name", [i.name for i in remark_instances()])
def test_roots_match_validated_clines_on_remarks(remark_searches, name, lam):
    assert_roots_match(*remark_searches[name, lam])


@pytest.mark.parametrize("name", ["prop1", "prop2"])
def test_roots_match_validated_clines_on_propositions(name, request):
    result, _ = request.getfixturevalue(f"{name}_search")
    assert len(result.clines) == 3
    assert_roots_match(request.getfixturevalue(name).problem, result)


def test_no_root_in_a_rejected_bracket(prop2, prop2_search, remark_searches):
    # prop-2's profiles near r = 0.0022 turn about 0.455 before omega2 and
    # then leave (0, 1) through u = 0, which no root of G models
    result, _ = prop2_search
    (reject,) = result.rejected
    b = reject.bracket
    assert (b.r_lo, b.r_hi) == pytest.approx((0.002, 0.0025))
    g = timemap.residual(prop2.problem, np.array([b.r_lo, b.r_hi]))
    assert g[0] == pytest.approx(-0.455, abs=1e-3)
    assert not g[1] >= 0.0
    rejected = [(prop2.problem, reject)]
    rejected += [(p, c) for p, res in remark_searches.values() for c in res.rejected]
    assert len(rejected) >= 2
    for p, c in rejected:
        assert timemap.find_roots(p, [(c.bracket.r_lo, c.bracket.r_hi)], DEFAULT_TOL_R) == [None]


def trace_refinement(monkeypatch):
    """Record the marches of shooting, grouped by the bisect_cline call they run in.

    Returns (calls, outside): calls holds (bracket, first, marches) for each
    bisect_cline call, outside the marches of no such call. A march is
    ("integrate" or "map", initial height), in call order.
    """
    calls, outside = [], []
    current = [outside]
    real_bisect = shooting.bisect_cline

    def bisect(p, cfg, b, tol_r, tol_v, first):
        marches = []
        calls.append((b, first, marches))
        current.append(marches)
        try:
            return real_bisect(p, cfg, b, tol_r, tol_v, first)
        finally:
            current.pop()

    def traced(kind, real):
        def march(p, cfg, z0):
            current[-1].append((kind, z0.u))
            return real(p, cfg, z0)
        return march

    monkeypatch.setattr(shooting, "bisect_cline", bisect)
    monkeypatch.setattr(shooting, "integrate", traced("integrate", shooting.integrate))
    monkeypatch.setattr(shooting, "poincare_map", traced("map", shooting.poincare_map))
    return calls, outside


@pytest.mark.parametrize("name", ["prop1", "prop2"])
def test_no_timemap_root_starts_brent_at_the_secant_point(name, request, chosen_search,
                                                          monkeypatch):
    # at the chosen step, with no time-map root every bracket is refined
    # from its secant point, as bisect_cline alone refines it, and each
    # root is integrated once
    p = request.getfixturevalue(name).problem
    seeded = chosen_search(p)
    cfg = IntegratorConfig(target_step=seeded.bracketing.step)
    attempts = no_timemap(monkeypatch)
    calls, _ = trace_refinement(monkeypatch)
    unseeded = find_all_clines(p)
    assert len(attempts) == len([b for b in seeded.brackets if not b.is_exact])
    assert unseeded.brackets == seeded.brackets
    assert all(first is None for _, first, _ in calls)
    found = sorted(unseeded.clines + unseeded.rejected, key=lambda c: c.c)
    for cline, (_, _, marches) in zip(found, calls):
        assert [m for m in marches if m[0] == "integrate"] == [("integrate", cline.c)]
    monkeypatch.undo()
    alone = [bisect_cline(p, cfg, c.bracket) for c in found]
    assert [c.c for c in found] == [c.c for c in alone]
    assert [c.to_dict() for c in unseeded.rejected] == [c.to_dict() for c in seeded.rejected]
    for a, b in zip(unseeded.clines, seeded.clines):
        assert abs(a.c - b.c) < 1e-9


def test_failed_seed_is_brents_first_iterate(prop1, chosen_search, monkeypatch):
    # at the chosen step, a seed that misses tol_v by far is integrated
    # once, then Brent goes on from it with maps, and the root it reaches is
    # integrated once more
    result = chosen_search(prop1.problem)
    monkeypatch.setattr(timemap, "find_roots",
                        lambda p, spans, tol: [lo + 0.25 * (hi - lo) for lo, hi in spans])
    calls, _ = trace_refinement(monkeypatch)
    again = find_all_clines(prop1.problem)
    assert len(calls) == len(again.clines) == len(result.clines) == 3
    for (b, first, marches), a, c in zip(calls, again.clines, result.clines):
        assert first == b.r_lo + 0.25 * (b.r_hi - b.r_lo)
        assert marches[0] == ("integrate", first)
        assert marches[-1] == ("integrate", a.c)
        assert {kind for kind, _ in marches[1:-1]} == {"map"}
        assert a.c != c.c and abs(a.c - c.c) < 1e-9
        assert abs(a.terminal_v_residual) < 1e-10


def test_blowup_at_the_seed_loses_the_bracket(prop1, default_cfg, prop1_search, monkeypatch):
    result, _ = prop1_search
    b = result.clines[0].bracket
    first = 0.5 * (b.r_lo + b.r_hi)

    def blow_up(p, cfg, z0):
        raise BlowupError(0.05, 2.0 * BLOWUP_BOUND, 0.0)

    monkeypatch.setattr(shooting, "integrate", blow_up)
    with pytest.raises(shooting.BracketLostError) as lost:
        bisect_cline(prop1.problem, default_cfg, b, first=first)
    assert lost.value.r == first and lost.value.bracket == b


def test_seed_near_a_trivial_level_is_rejected_at_the_seed(prop2, default_cfg, prop2_search,
                                                           monkeypatch):
    # prop-2's rejected root meets tol_v; given as the first point it is
    # reported rejected there, after its one integrate
    result, _ = prop2_search
    (reject,) = result.rejected
    calls, _ = trace_refinement(monkeypatch)
    again = shooting.bisect_cline(prop2.problem, default_cfg, reject.bracket,
                                  DEFAULT_TOL_R, shooting.DEFAULT_TOL_V, reject.c)
    assert calls[0][2] == [("integrate", reject.c)]
    assert again.to_dict() == reject.to_dict()


def test_prop2_seeds_hold_at_its_chosen_step_and_are_skipped_at_1e_3(prop2, monkeypatch):
    # at the chosen step each cline's seed meets tol_v with one integrate
    # and no map; the rejected root near 0.0022 has no time-map root, so
    # Brent refines it from its secant point. At the caller's step 1e-3 the
    # pre-pass stands too, but no bracket is seeded
    calls, outside = trace_refinement(monkeypatch)
    result = find_all_clines(prop2.problem)
    assert result.bracketing.direct_reason is None and outside == []
    (reject,) = result.rejected
    roots = timemap.find_roots(prop2.problem, [(b.r_lo, b.r_hi) for b, _, _ in calls],
                               DEFAULT_TOL_R)
    for (b, first, marches), root in zip(calls, roots, strict=True):
        assert first == root
        if b is reject.bracket:
            assert first is None and len(marches) == 6
        else:
            assert marches == [("integrate", first)]
    assert [c.c for c in result.clines] == [first for b, first, _ in calls[1:]]

    monkeypatch.undo()
    attempts = no_timemap(monkeypatch)
    calls, outside = trace_refinement(monkeypatch)
    result = find_all_clines(prop2.problem, IntegratorConfig(target_step=1e-3))
    assert result.bracketing.direct_reason is None and attempts == []
    assert all(first is None for _, first, _ in calls)
    marches = outside + [m for _, _, ms in calls for m in ms]
    assert sum(kind == "map" for kind, _ in marches) == 13
    assert sum(kind == "integrate" for kind, _ in marches) == 4
    assert len(result.clines) == 3
    assert abs(result.clines[0].c - 0.018151466775613443) < 1e-12
    (reject,) = result.rejected
    assert reject.c == 0.002161882621729806
    assert reject.rejection_reason == "trajectory touches u=0 (min u = -3.125e-02)"


@pytest.mark.parametrize("name", ["prop1", "prop2"])
def test_caller_step_never_calls_the_timemap(name, request, monkeypatch):
    # the library default step is a caller's step: the pre-pass stands
    # and gives the brackets of the session search, none of them seeded
    p = request.getfixturevalue(name).problem
    seeded, _ = request.getfixturevalue(f"{name}_search")
    attempts = no_timemap(monkeypatch)
    result = find_all_clines(p, IntegratorConfig())
    assert result.bracketing.direct_reason is None and attempts == []
    assert result.brackets == seeded.brackets


def test_lambda_scan_setting_takes_the_prepass_without_the_timemap(monkeypatch):
    # sweep_cline_counts' setting, step 1e-3 at 501 heights, over its
    # geometric grid of 16 lambda from 5 to 300: the coarse sweeps take
    # 302 steps against 410, the pre-pass stands and finds the direct
    # sweep's cells, and no time-map runs at the caller's step
    attempts = no_timemap(monkeypatch)
    cfg = IntegratorConfig(target_step=1e-3)
    for inst in remark_instances():
        for k in range(16):
            p = replace(inst.problem, lam=5.0 * 60.0 ** (k / 15))
            result = find_all_clines(p, cfg, resolution=501)
            assert result.bracketing.direct_reason is None
            direct = shooting.find_brackets(shooting.build_gamma(p, cfg, 501))
            assert [(b.r_lo, b.r_hi, np.sign(b.v_lo), np.sign(b.v_hi))
                    for b in result.brackets] == [
                (b.r_lo, b.r_hi, np.sign(b.v_lo), np.sign(b.v_hi)) for b in direct]
            assert result.clines
    assert attempts == []


@pytest.mark.parametrize("instance, reshots", [(0, 4), (1, 8)])
def test_direct_sweep_at_a_chosen_step_seeds_from_the_timemap(instance, reshots, monkeypatch):
    # at lambda = 300 the chosen step is the floor, and the edges of the
    # coarse blow-ups need more re-shots than a cap of 3: the direct sweep
    # runs, and as the step is still the chosen one, every bracket is seeded
    # by one lockstep time-map search, which gives the uncapped clines
    p = replace(remark_instances()[instance].problem, lam=300.0)
    uncapped = find_all_clines(p)
    monkeypatch.setattr(shooting, "PREPASS_MAX_RESHOTS", 3)
    calls = count_residual_calls(monkeypatch)
    result = find_all_clines(p)
    assert result.bracketing.direct_reason.startswith(
        f"{reshots} nodes need the fine step, more than 3 scalar re-shots")
    assert calls[0] == [r for b in result.brackets if not b.is_exact for r in (b.r_lo, b.r_hi)]
    assert len(result.clines) == len(uncapped.clines) > 0
    for a, b in zip(result.clines, uncapped.clines):
        assert abs(a.c - b.c) < 1e-8


def test_seed_settles_prop1_at_its_chosen_step(prop1, monkeypatch):
    # the pre-pass stands at prop-1's chosen step, so each bracket starts at
    # its time-map root, which settles it with one integrate and no map;
    # every coarse sign is trusted, so no scalar map runs at all
    calls, outside = trace_refinement(monkeypatch)
    result = find_all_clines(prop1.problem)
    assert result.bracketing.direct_reason is None
    assert len(calls) == len(result.clines) == 3 and not result.rejected
    for (_, first, marches), cline in zip(calls, result.clines):
        assert marches == [("integrate", first)] and cline.c == first
    assert outside == [] and result.bracketing.reshot == 0


def bundled_problem(name):
    return problem_from_json((REPO_CONFIGS / f"{name}.json").read_text())


def count_residual_calls(monkeypatch):
    """Wrap timemap.residual; returns the list of the heights of each call."""
    calls = []
    real = timemap.residual

    def counted(p, rs):
        calls.append(np.asarray(rs).tolist())
        return real(p, rs)

    monkeypatch.setattr(timemap, "residual", counted)
    return calls


# (problem, lambda or None, candidate cells, roots among them); on
# remark-no-dominance at lambda = 1000 the scan sees no cell, as the cline
# there lies between the first node and the end of G's domain
LOCKSTEP_CASES = [
    ("prop1", None, 5, 3), ("prop2", None, 7, 3), ("remark_concave", None, 3, 1),
    (0, 5.0, 3, 1), (0, 45.0, 3, 1), (0, 300.0, 2, 1), (0, 1000.0, 0, 0),
    (1, 5.0, 4, 2), (1, 45.0, 4, 2), (1, 300.0, 2, 2), (1, 1000.0, 2, 2),
]


@pytest.mark.parametrize("name, lam, n_cells, n_roots", LOCKSTEP_CASES)
def test_lockstep_roots_are_the_lone_roots(name, lam, n_cells, n_roots):
    # every candidate cell of the scan, a sign change or one undefined end,
    # solved in one lockstep call and each on its own: the same bits
    if lam is None:
        p = bundled_problem(name)
    else:
        p = replace(remark_instances()[name].problem, lam=lam)
    cells = candidate_cells(p)
    together = timemap.find_roots(p, cells, DEFAULT_TOL_R)
    alone = [timemap.find_roots(p, [cell], DEFAULT_TOL_R)[0] for cell in cells]
    assert [None if r is None else r.hex() for r in together] == [
        None if r is None else r.hex() for r in alone]
    assert len(cells) == n_cells and sum(r is not None for r in together) == n_roots


def test_find_roots_without_a_sign_change_stops_after_the_first_round(prop1, monkeypatch):
    # G is undefined at 0 and 1, so (0, 1) has no defined end; two adjacent
    # scan nodes with one sign have no root between them. Neither search
    # asks for a point, so the ends' call is the only one
    rs = np.linspace(0.0, 1.0, SCAN_NODES)
    g = timemap.residual(prop1.problem, rs)
    j = next(j for j in range(1, SCAN_NODES - 1) if g[j] * g[j + 1] > 0.0)
    same_sign = (float(rs[j]), float(rs[j + 1]))
    calls = count_residual_calls(monkeypatch)
    assert timemap.find_roots(prop1.problem, [(0.0, 1.0), same_sign], DEFAULT_TOL_R) == [None, None]
    assert calls == [[0.0, 1.0, *same_sign]]


def test_find_roots_of_no_spans_makes_no_call(prop1, monkeypatch):
    calls = count_residual_calls(monkeypatch)
    assert timemap.find_roots(prop1.problem, [], DEFAULT_TOL_R) == []
    assert calls == []


@pytest.mark.parametrize("name, sizes", [
    ("prop1", [6, 3, 3, 3, 1]),
    ("prop2", [8, 3, 3, 3, 2, 1]),
    ("remark_concave", [2, 1, 1, 1, 1]),
])
def test_seeding_takes_one_residual_call_per_round(name, sizes, monkeypatch):
    # at the chosen step every non-exact bracket is seeded by one lockstep
    # search: its first call holds both ends of each bracket, and each later
    # call the pending point of every bracket still searching
    calls = count_residual_calls(monkeypatch)
    result = find_all_clines(bundled_problem(name))
    assert result.bracketing.direct_reason is None
    assert [len(rs) for rs in calls] == sizes
    assert calls[0] == [r for b in result.brackets if not b.is_exact for r in (b.r_lo, b.r_hi)]


def test_residual_sign_matches_terminal_slope(prop1, default_cfg, prop1_search):
    # the ends of each validated bracket: G and v(omega2) agree in sign
    result, _ = prop1_search
    for cline in result.clines:
        b = cline.bracket
        g = timemap.residual(prop1.problem, np.array([b.r_lo, b.r_hi]))
        assert np.sign(g).tolist() == [np.sign(b.v_lo), np.sign(b.v_hi)]


@pytest.mark.parametrize("name", ["prop1", "prop2", "remark_concave"])
def test_residual_does_not_depend_on_the_batch(name):
    # find_roots takes each value from a call on many heights, which must
    # give the bits of a call on that height alone
    p = bundled_problem(name)
    rs = np.linspace(0.0, 1.0, SCAN_NODES)[1:-1]
    grid = timemap.residual(p, rs)
    alone = [timemap.residual(p, np.array([r]))[0] for r in rs[::3]]
    np.testing.assert_array_equal(grid[::3], alone)
    np.testing.assert_array_equal(timemap.residual(p, rs[1::3]), grid[1::3])


def test_inner_searches_of_prop2s_first_call_end(prop2, monkeypatch):
    # prop-2's first time-map call, on the rejected bracket: the searches
    # for z and then for y each end, the latter with 0.0025 alone in its
    # last rounds, and each value keeps the bits of a call on its height alone
    rounds = []
    real = timemap.solve

    def counted(searches, values):
        sizes = []
        roots = real(searches, lambda points: sizes.append(len(points)) or values(points))
        rounds.append(sizes)
        return roots

    monkeypatch.setattr(timemap, "solve", counted)
    both = timemap.residual(prop2.problem, np.array([0.002, 0.0025]))
    assert rounds == [[2] * 7, [2] * 8 + [1] * 9]
    alone = [timemap.residual(prop2.problem, np.array([r]))[0] for r in (0.002, 0.0025)]
    assert both.tobytes() == np.array(alone).tobytes()


# toy increasing functions, one per element: the root q, the steepness s
# and the end hi of each; element 3 has no bracket, and element 6 no root
# in its bracket
TOY_Q = np.array([0.3, 1e-3, 0.7, 0.5, 1.5, 0.2, 1.2])
TOY_S = np.array([1.0, 1e8, 3.0, 1.0, 0.5, 1e3, 1.0])
TOY_HI = np.array([1.0, 1.0, 1.0, math.nan, 2.0, 0.5, 1.0])
LIVE = [0, 1, 2, 4, 5]


def toy_roots(first, hi=TOY_HI, calls=None):
    """_roots on the toy elements; calls, if given, records each fn call's (i, x)."""
    def fn(i, x):
        if calls is not None:
            calls.append((i.tolist(), x.tolist()))
        return np.arctan(TOY_S[i] * (x - TOY_Q[i]))

    ends = np.arctan(-TOY_S * TOY_Q), np.arctan(TOY_S * (hi - TOY_Q))
    return timemap._roots(fn, hi, *ends, first)


def test_roots_are_each_elements_root_to_float_resolution():
    # an element with a nan hi, or without a sign change, is never
    # evaluated and comes back nan
    calls = []
    x = toy_roots(0.5 * TOY_HI, calls=calls)
    assert (np.abs(x - TOY_Q)[LIVE] <= np.spacing(TOY_Q[LIVE])).all()
    assert np.isnan(x[[3, 6]]).all()
    assert {k for i, _ in calls for k in i} == set(LIVE)


def test_roots_take_the_midpoint_for_a_first_point_outside():
    # element 0 starts inside at 0.2; the other live ones start at an end,
    # outside, or at nan, and give way to the midpoint of (0, hi)
    first = np.array([0.2, 1.0, -0.5, 0.1, math.nan, 0.0, 0.5])
    calls = []
    x = toy_roots(first, calls=calls)
    assert calls[0] == (LIVE, [0.2, 0.5, 0.5, 1.0, 0.25])
    assert (np.abs(x - TOY_Q)[LIVE] <= np.spacing(TOY_Q[LIVE])).all()


def test_roots_of_each_element_are_its_lone_roots():
    # each element searched with the others' hi nan: the same bits
    first = np.array([0.6, 0.9, 0.1, 0.5, 1.9, 0.4, 0.5])
    together = toy_roots(first)
    for k in LIVE:
        alone = toy_roots(first, np.where(np.arange(TOY_HI.size) == k, TOY_HI, math.nan))
        assert alone[k].hex() == together[k].hex()
        assert np.isnan(np.delete(alone, k)).all()


def test_residual_is_nan_outside_the_domain(prop2):
    g = timemap.residual(prop2.problem, np.array([0.0, 0.9, 1.0, 1.5, -0.2]))
    assert np.isnan(g).all()


def toy_search(points, name):
    """A search that yields its points in turn and returns its name and the values sent."""
    sent = []
    for x in points:
        sent.append((yield x))
    return name, sent


def recorded(calls):
    def values(rs):
        calls.append(list(rs))
        return [10.0 * r for r in rs]
    return values


def test_solve_makes_one_call_per_round_on_the_live_points_in_search_order():
    # the searches end in rounds 3, 1 and 2, and come back in search order
    calls = []
    searches = [toy_search([1.0, 2.0, 3.0], "a"), toy_search([4.0], "b"),
                toy_search([5.0, 6.0], "c")]
    assert timemap.solve(searches, recorded(calls)) == [
        ("a", [10.0, 20.0, 30.0]), ("b", [40.0]), ("c", [50.0, 60.0])]
    assert calls == [[1.0, 4.0, 5.0], [2.0, 6.0], [3.0]]


def test_solve_never_evaluates_a_search_that_returns_before_its_first_point():
    calls = []
    searches = [toy_search([], "early"), toy_search([0.5], "late"), toy_search([], "none")]
    assert timemap.solve(searches, recorded(calls)) == [
        ("early", []), ("late", [5.0]), ("none", [])]
    assert calls == [[0.5]]
    assert timemap.solve([toy_search([], "early")], recorded(calls)) == [("early", [])]
    assert calls == [[0.5]]


def test_solve_of_no_searches_makes_no_call():
    calls = []
    assert timemap.solve([], recorded(calls)) == []
    assert calls == []


def bracketed_root(fn, lo, hi, y_lo, y_hi, tol_x, tol_y, first=None):
    """One Brent search on the scalar fn, run alone, as bisect_cline runs it."""
    return timemap.solve([timemap.brent(lo, hi, y_lo, y_hi, tol_x, tol_y, first)],
                         lambda rs: [fn(r) for r in rs])[0]


def test_bracketed_root_without_first_starts_at_the_secant_point():
    # the secant point of (0, -0.25) and (1, 0.75) is 0.25, the midpoint 0.5;
    # the later points are pinned, so the secant start keeps its iterates
    expected = [0.25, 0.625, 0.6330181446460517, 0.6299363999522815, 0.6299604082277088,
                0.6299605249474726, 0.6299605249469725]
    for kwargs in ({}, {"first": None}):
        calls = []

        def fn(r):
            calls.append(r)
            return r * r * r - 0.25

        r = bracketed_root(fn, 0.0, 1.0, -0.25, 0.75, 1e-12, 0.0, **kwargs)
        assert r == 0.6299605249472225 and calls == expected


def test_bracketed_root_returns_at_a_first_point_that_is_the_root():
    calls = []

    def fn(r):
        calls.append(r)
        return r - 0.375

    assert bracketed_root(fn, 0.0, 1.0, -0.375, 0.625, 1e-12, 0.0, first=0.375) == 0.375
    assert calls == [0.375]


@pytest.mark.parametrize("first", [0.0, 1.0, -0.5, 2.0, math.nan])
def test_bracketed_root_takes_the_midpoint_for_a_first_point_outside(first):
    calls = []

    def fn(r):
        calls.append(r)
        return r * r * r - 0.25

    r = bracketed_root(fn, 0.0, 1.0, -0.25, 0.75, 1e-12, 0.0, first=first)
    assert calls[0] == 0.5 and abs(r - 0.25 ** (1.0 / 3.0)) <= 1e-12


def test_bracketed_root_returns_an_exact_zero():
    # with tol_y = 0 an exact zero must end the search: taken as an end of
    # the bracket, it would break the sign invariant the steps rely on
    assert bracketed_root(lambda r: r - 0.5, 0.0, 1.0, -0.5, 0.5, 1e-12, 0.0) == 0.5


@pytest.mark.parametrize("y_lo, y_hi", [(-1.0, 1.0), (-1e-3, 1.0), (1.0, -1e-3)])
def test_bracketed_root_stops_on_a_bracket_that_no_longer_splits(y_lo, y_hi):
    # with tol_x = 0 only floating point ends the search: neither the
    # secant point nor the midpoint lies strictly inside [lo, nextafter(lo)]
    def fn(r):
        raise AssertionError(f"fn called at {r!r}")

    lo, hi = 0.3, math.nextafter(0.3, 1.0)
    assert bracketed_root(fn, lo, hi, y_lo, y_hi, 0.0, 0.0) in (lo, hi)


# heights in (0, 1), with dyadic ones, which midpoint and secant steps hit exactly
UNIT_HEIGHTS = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 2 ** 20 - 1).map(lambda k: k / 2.0 ** 20))


@settings(max_examples=200, deadline=None)
@given(q=UNIT_HEIGHTS, tol_y=st.sampled_from([0.0, 1e-10]))
@example(q=0.5, tol_y=0.0)
@example(q=5e-324, tol_y=0.0)  # y_lo * y underflows to -0.0
def test_bracketed_root_finds_the_root_of_a_line(q, tol_y):
    tol_x = 1e-12
    r = bracketed_root(lambda r: r - q, 0.0, 1.0, -q, 1.0 - q, tol_x, tol_y)
    assert abs(r - q) < tol_y or r - q == 0.0 or abs(r - q) <= tol_x


def test_exact_timemap_zero_gives_a_cline(default_cfg):
    # lambda-scan's second grid point, 5 * 60**(1/15): the time-map's root
    # search once evaluated G there at a height where it is exactly 0
    p = replace(remark_instances()[0].problem, lam=6.5692141704429865)
    result = find_all_clines(p, default_cfg, resolution=501)
    assert len(result.clines) == 1


@settings(max_examples=200, deadline=None)
@given(q=st.floats(0.1, 0.9), k=st.integers(0, 1000))
@example(q=0.3, k=531)  # s about 1e-160
@example(q=0.3, k=664)  # s about 1e-200
@example(q=0.3, k=1000)
def test_bracketed_root_is_scale_free(q, k):
    # values near the root underflow to subnormals, and so would any
    # product of two of them
    s = 2.0 ** -k

    def fn(r):
        return s * ((r - q) ** 3 + 0.1 * (r - q))

    tol_x = 1e-12
    r = bracketed_root(fn, 0.0, 1.0, fn(0.0), fn(1.0), tol_x, 0.0)
    assert abs(r - q) <= tol_x


ROOT = 0.3

HARD_ROOTS = {
    "power-9": lambda r: (r - ROOT) ** 9,
    "power-19": lambda r: (r - ROOT) ** 19,
    "kink": lambda r: r - ROOT if r < ROOT else 1e6 * (r - ROOT),
    "steep-atan": lambda r: math.atan(1e8 * (r - ROOT)),
}


@pytest.mark.parametrize("name", HARD_ROOTS)
def test_bracketed_root_work_is_bounded(name):
    # three times bisection's count, plus three
    fn = HARD_ROOTS[name]
    calls = []

    def counted(r):
        calls.append(r)
        return fn(r)

    tol_x = 1e-12
    r = bracketed_root(counted, 0.0, 1.0, fn(0.0), fn(1.0), tol_x, 0.0)
    assert abs(r - ROOT) <= tol_x
    assert len(calls) <= 3 * math.ceil(math.log2(1.0 / tol_x)) + 3
