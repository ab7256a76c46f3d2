"""The RK4-free time-map against the shooting pipeline."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clineshoot import shooting, timemap
from clineshoot.integrator import IntegratorConfig
from clineshoot.problem import problem_from_json
from clineshoot.reproduction import remark_instances
from clineshoot.shooting import DEFAULT_TOL_R, bisect_cline, find_all_clines

REMARK_LAMBDAS = (5.0, 45.0, 300.0)
REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# heights scanned for time-map roots; the cells are fine enough to hold
# one root each on every instance here
SCAN_NODES = 401


def timemap_roots(p):
    """Roots of G found from a uniform scan over [0, 1], without RK4.

    A cell is refined when G changes sign over it or is defined at one
    end only, since a root can sit next to the edge of G's domain; G is
    undefined at 0 and 1, so the end cells count too.
    """
    rs = np.linspace(0.0, 1.0, SCAN_NODES)
    g = timemap.residual(p, rs)
    roots = []
    for lo, hi, g_lo, g_hi in zip(rs[:-1], rs[1:], g[:-1], g[1:]):
        if g_lo * g_hi < 0.0 or math.isnan(g_lo) != math.isnan(g_hi):
            root = timemap.find_root(p, float(lo), float(hi), DEFAULT_TOL_R)
            if root is not None:
                roots.append(root)
    return roots


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

    def failing(p, lo, hi, tol):
        calls.append((lo, hi))
        return None

    monkeypatch.setattr(timemap, "find_root", failing)
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
        assert timemap.find_root(p, c.bracket.r_lo, c.bracket.r_hi, DEFAULT_TOL_R) is None


@pytest.mark.parametrize("name", ["prop1", "prop2"])
def test_failed_timemap_falls_back_to_map_refinement(name, request, default_cfg, monkeypatch):
    inst = request.getfixturevalue(name)
    seeded, _ = request.getfixturevalue(f"{name}_search")
    calls = no_timemap(monkeypatch)
    fallback = find_all_clines(inst.problem, default_cfg)
    assert len(calls) == len([b for b in seeded.brackets if not b.is_exact])
    assert fallback.brackets == seeded.brackets
    alone = [bisect_cline(inst.problem, default_cfg, c.bracket)
             for c in fallback.clines + fallback.rejected]
    assert [c.c for c in fallback.clines + fallback.rejected] == [c.c for c in alone]
    assert [c.to_dict() for c in fallback.rejected] == [c.to_dict() for c in seeded.rejected]
    for a, b in zip(fallback.clines, seeded.clines):
        assert abs(a.c - b.c) < 1e-9


def test_failed_certificate_falls_back_to_map_refinement(prop1, default_cfg, prop1_search,
                                                         monkeypatch):
    # a root that misses the certificate by far is not reported
    result, _ = prop1_search
    monkeypatch.setattr(timemap, "find_root", lambda p, lo, hi, tol: lo + 0.25 * (hi - lo))
    again = find_all_clines(prop1.problem, default_cfg)
    for a, b in zip(again.clines, result.clines):
        assert a.c != b.c and abs(a.c - b.c) < 1e-9
        assert abs(a.terminal_v_residual) < 1e-10


def test_direct_path_never_calls_the_timemap(monkeypatch):
    # the lambda-scan setting: step 1e-3 at 501 heights
    calls = no_timemap(monkeypatch)
    cfg = IntegratorConfig(target_step=1e-3)
    for inst in remark_instances():
        result = find_all_clines(replace(inst.problem, lam=45.0), cfg, resolution=501)
        assert result.clines
    assert calls == []


def test_reshot_cap_never_calls_the_timemap(monkeypatch):
    # at lambda = 300 the chosen step is the floor and too many heights need
    # a re-shot, so the direct sweep runs and no bracket is seeded
    calls = []
    real = timemap.residual

    def counted(p, rs):
        calls.append(len(rs))
        return real(p, rs)

    monkeypatch.setattr(timemap, "residual", counted)
    result = find_all_clines(replace(remark_instances()[0].problem, lam=300.0))
    assert "scalar re-shots" in result.bracketing.direct_reason
    assert result.clines and calls == []


def test_seed_settles_prop1_at_its_chosen_step(prop1, monkeypatch):
    # the pre-pass stands at prop-1's chosen step, so the seed runs and
    # settles every cline: the only scalar maps are the re-shots, all at
    # grid heights, and no bracket needs a refinement map
    heights = []
    real = shooting.poincare_map

    def recorded(p, cfg, z0):
        heights.append(z0.u)
        return real(p, cfg, z0)

    monkeypatch.setattr(shooting, "poincare_map", recorded)
    result = find_all_clines(prop1.problem)
    assert result.bracketing.direct_reason is None
    assert len(result.clines) == 3 and not result.rejected
    assert len(heights) == result.bracketing.reshot == 6
    assert np.isin(heights, np.linspace(0.0, 1.0, shooting.DEFAULT_RESOLUTION)).all()


def test_residual_sign_matches_terminal_slope(prop1, default_cfg, prop1_search):
    # the ends of each validated bracket: G and v(omega2) agree in sign
    result, _ = prop1_search
    for cline in result.clines:
        b = cline.bracket
        g = timemap.residual(prop1.problem, np.array([b.r_lo, b.r_hi]))
        assert np.sign(g).tolist() == [np.sign(b.v_lo), np.sign(b.v_hi)]


@pytest.mark.parametrize("name", ["prop1", "prop2", "remark_concave"])
def test_residual_does_not_depend_on_the_batch(name):
    # find_root takes its first two values from one call on both ends, the
    # others from one-height calls; every value must be the same bits
    p = problem_from_json((REPO_CONFIGS / f"{name}.json").read_text())
    rs = np.linspace(0.0, 1.0, SCAN_NODES)[1:-1]
    grid = timemap.residual(p, rs)
    alone = [timemap.residual(p, np.array([r]))[0] for r in rs[::3]]
    np.testing.assert_array_equal(grid[::3], alone)
    np.testing.assert_array_equal(timemap.residual(p, rs[1::3]), grid[1::3])


def test_residual_is_nan_outside_the_domain(prop2):
    g = timemap.residual(prop2.problem, np.array([0.0, 0.9, 1.0, 1.5, -0.2]))
    assert np.isnan(g).all()


def test_bracketed_root_returns_an_exact_zero():
    # with tol_y = 0 an exact zero must end the search: taken as an end of
    # the bracket, it would break the sign invariant the steps rely on
    assert timemap.bracketed_root(lambda r: r - 0.5, 0.0, 1.0, -0.5, 0.5, 1e-12, 0.0) == 0.5


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
    r = timemap.bracketed_root(lambda r: r - q, 0.0, 1.0, -q, 1.0 - q, tol_x, tol_y)
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
    r = timemap.bracketed_root(fn, 0.0, 1.0, fn(0.0), fn(1.0), tol_x, 0.0)
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
    r = timemap.bracketed_root(counted, 0.0, 1.0, fn(0.0), fn(1.0), tol_x, 0.0)
    assert abs(r - ROOT) <= tol_x
    assert len(calls) <= 3 * math.ceil(math.log2(1.0 / tol_x)) + 3
