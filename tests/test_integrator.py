import dataclasses
import hashlib
import math

import numpy as np
import pytest

from clineshoot.integrator import (
    BLOWUP_BOUND,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    _mark_blown,
    coarsest_step,
    energy_profile,
    integrate,
    poincare_map,
    step_plan,
    sweep_terminals,
)
from clineshoot.nonlinearity import ArctanDamped, CustomPolynomial, HatFamily
from clineshoot.problem import Problem, StepWeight
from clineshoot.reproduction import remark_instances


class TestConfigAndPoints:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(target_step=0.0)
        with pytest.raises(ValueError, match="target_step must be finite"):
            IntegratorConfig(target_step=math.inf)

    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.target_step == 1e-4

    def test_phase_point_finite(self):
        with pytest.raises(ValueError):
            PhasePoint(math.nan, 0.0)
        with pytest.raises(ValueError):
            PhasePoint(0.0, math.inf)


class TestTrajectoryGrid:
    def test_exact_nodes(self, prop1, default_cfg):
        traj = integrate(prop1.problem, default_cfg, PhasePoint(0.4, 0.0))
        assert traj.xs[0] == prop1.problem.weight.omega1
        assert traj.xs[-1] == prop1.problem.weight.omega2
        assert traj.xs[traj.split_index] == 0.0

    def test_uniform_spacing_per_side(self, prop2, default_cfg):
        traj = integrate(prop2.problem, default_cfg, PhasePoint(0.3, 0.0))
        _, h1, _, h2 = step_plan(prop2.problem, default_cfg)
        split = traj.split_index
        left = np.diff(traj.xs[: split + 1])
        right = np.diff(traj.xs[split:])
        assert np.max(np.abs(left - h1)) < 1e-12
        assert np.max(np.abs(right - h2)) < 1e-12

    def test_steps_do_not_exceed_target(self, prop1, default_cfg):
        _, h1, _, h2 = step_plan(prop1.problem, default_cfg)
        assert h1 <= default_cfg.target_step + 1e-18
        assert h2 <= default_cfg.target_step + 1e-18

    def test_coarse_target_is_clamped(self, prop1):
        # a huge target still yields at least 100 steps across the habitat
        traj = integrate(prop1.problem, IntegratorConfig(target_step=1.0),
                         PhasePoint(0.4, 0.0))
        assert len(traj.xs) >= 101

    def test_terminal_matches_poincare(self, prop1, default_cfg):
        z0 = PhasePoint(0.37, 0.0)
        traj = integrate(prop1.problem, default_cfg, z0)
        z = poincare_map(prop1.problem, default_cfg, z0)
        assert traj.us[-1] == z.u and traj.vs[-1] == z.v


class TestEquilibria:
    @pytest.mark.parametrize("level", [0.0, 1.0])
    def test_fixed_exactly(self, prop1, prop2, default_cfg, level):
        for inst in (prop1, prop2):
            traj = integrate(inst.problem, default_cfg, PhasePoint(level, 0.0))
            assert np.all(traj.us == level)
            assert np.all(traj.vs == 0.0)


class TestAgainstReferencePoints:
    def test_first_probe(self, prop1, default_cfg):
        z = poincare_map(prop1.problem, default_cfg, PhasePoint(0.1, 0.0))
        assert z.u == pytest.approx(0.230, abs=0.005)
        assert z.v == pytest.approx(-0.066, abs=0.005)

    def test_interior_probe_set(self, prop1, default_cfg):
        # terminal points for r in {0.4, 0.65, 0.75}; the magnitudes of the
        # latter two published values are transposed relative to these
        computed = {r: poincare_map(prop1.problem, default_cfg, PhasePoint(r, 0.0))
                    for r in (0.4, 0.65, 0.75)}
        assert computed[0.4].u == pytest.approx(0.533, abs=0.005)
        assert computed[0.4].v == pytest.approx(0.055, abs=0.005)
        assert computed[0.65].u == pytest.approx(0.790, abs=0.005)
        assert computed[0.65].v == pytest.approx(-0.036, abs=0.005)
        assert computed[0.75].u == pytest.approx(0.922, abs=0.005)
        assert computed[0.75].v == pytest.approx(0.165, abs=0.005)

    def test_second_instance_probes(self, prop2, default_cfg):
        expected_v = {0.01: -0.639, 0.1: 2.160, 0.45: -0.036, 0.9: 1.392}
        for r, ev in expected_v.items():
            z = poincare_map(prop2.problem, default_cfg, PhasePoint(r, 0.0))
            assert z.v == pytest.approx(ev, abs=0.005), f"r={r}"


class TestBlowup:
    def test_scalar_raises_with_location(self, prop1, default_cfg):
        p = prop1.problem
        with pytest.raises(BlowupError) as exc_info:
            integrate(p, default_cfg, PhasePoint(5.0, 0.0))
        err = exc_info.value
        assert p.weight.omega1 < err.x <= p.weight.omega2
        assert max(abs(err.u), abs(err.v)) > BLOWUP_BOUND

    @pytest.mark.parametrize("r", [5.0, -0.5, 2.0])
    def test_batch_matches_scalar(self, prop1, default_cfg, r):
        # 5.0 and -0.5 leave the bound on the left piece, 2.0 on the right one
        p = prop1.problem
        sweep = sweep_terminals(p, default_cfg, np.array([0.4, r]))
        assert sweep.ok[0] and not sweep.ok[1]
        assert math.isnan(sweep.u_end[1]) and math.isnan(sweep.v_end[1])
        with pytest.raises(BlowupError):
            poincare_map(p, default_cfg, PhasePoint(r, 0.0))


def assert_columns_match_poincare_map(p, cfg, rs):
    """Each column of the sweep of rs is `poincare_map`'s value bit for bit,
    or nan in both u and v where that raises; returns the sweep."""
    heights = rs.copy()
    sweep = sweep_terminals(p, cfg, rs)
    # `_mark_blown` writes in place, on the march's own arrays only
    assert rs.tobytes() == heights.tobytes()
    assert (np.isnan(sweep.u_end) == np.isnan(sweep.v_end)).all()
    for i, r in enumerate(rs):
        try:
            z = poincare_map(p, cfg, PhasePoint(float(r), 0.0))
        except BlowupError:
            assert math.isnan(sweep.u_end[i]) and math.isnan(sweep.v_end[i]), f"r={r}"
        else:
            assert (sweep.u_end[i], sweep.v_end[i]) == (z.u, z.v), f"r={r}"
    return sweep


class TestBoundPaths:
    """A float march tests the blow-up bound itself; a batch hands every step
    to `_mark_blown`, which tests the whole batch with one reduction before
    it marks the columns that left as nan. Either way each column must be
    `poincare_map`'s value, or nan in both u and v where it raises."""

    CFG = IntegratorConfig(target_step=1e-3)

    def test_many_columns_blow_up(self):
        p = dataclasses.replace(remark_instances()[1].problem, lam=300.0)
        sweep = assert_columns_match_poincare_map(p, self.CFG, np.linspace(0.0, 1.0, 101))
        assert 20 < np.count_nonzero(~sweep.ok) < 80

    def test_inf_or_nan_within_one_step(self, prop1):
        p = prop1.problem
        rs = np.array([0.1, 1e200, 0.4, -1e200, 0.75])
        sweep = assert_columns_match_poincare_map(p, self.CFG, rs)
        assert sweep.ok.tolist() == [True, False, True, False, True]
        _, h1, _, _ = step_plan(p, self.CFG)
        with pytest.raises(BlowupError) as exc_info:
            poincare_map(p, self.CFG, PhasePoint(1e200, 0.0))
        assert exc_info.value.x == p.weight.omega1 + h1
        assert not (abs(exc_info.value.u) <= BLOWUP_BOUND)

    def test_huge_coefficients_overflow_f(self):
        # f(u) = 1e300 u (1 - u) overflows within the first step, where every
        # column but the fixed points r = 0 and 1 reaches infinity
        p = dataclasses.replace(remark_instances()[0].problem,
                                f=CustomPolynomial((0.0, 1e300, -1e300)), lam=45.0)
        sweep = assert_columns_match_poincare_map(p, self.CFG, np.linspace(0.0, 1.0, 101))
        assert np.count_nonzero(~sweep.ok) == 99

    def sweep_with_nan_in_v(self, monkeypatch, last_step_of):
        """Sweep [0.3, 0.6] with f turned nan once, in column 0's k4 of the
        last step of the left side or of the march, which reaches that
        step's v but not its u; column 1 must keep its bits."""
        p = Problem(weight=StepWeight(alpha=1.0, omega1=-0.21, omega2=0.2),
                    f=CustomPolynomial((0.0, 1.0, -1.0)), lam=45.0)
        n1, _, n2, _ = step_plan(p, self.CFG)
        nan_call = 4 * (n1 if last_step_of == "left" else n1 + n2)
        calls = []
        value = CustomPolynomial.value

        def nan_at_one_call(self, s):
            out = value(self, s)
            calls.append(None)
            if len(calls) == nan_call:
                out[0] = np.nan
            return out

        expected = sweep_terminals(p, self.CFG, np.array([0.6]))
        monkeypatch.setattr(CustomPolynomial, "value", nan_at_one_call)
        sweep = sweep_terminals(p, self.CFG, np.array([0.3, 0.6]))
        assert len(calls) == 4 * (n1 + n2)
        assert (sweep.u_end[1], sweep.v_end[1]) == (expected.u_end[0], expected.v_end[0])
        return sweep

    def test_a_column_nan_in_v_alone_reads_nan_in_u(self, monkeypatch):
        # nan in v_end alone: the bound test skips nan, so it is the closing
        # pass of sweep_terminals that makes u_end nan as well
        sweep = self.sweep_with_nan_in_v(monkeypatch, "march")
        assert np.isnan(sweep.u_end[0]) and np.isnan(sweep.v_end[0])
        assert sweep.ok.tolist() == [False, True]

    def test_a_column_nan_in_v_at_x0_reads_nan_in_u(self, monkeypatch):
        # nan in v alone at x = 0, where the state changes sides: the right
        # side's first step carries it into u
        sweep = self.sweep_with_nan_in_v(monkeypatch, "left")
        assert np.isnan(sweep.u_end[0]) and np.isnan(sweep.v_end[0])
        assert sweep.ok.tolist() == [False, True]

    def test_blown_columns_stay_blown_where_f0_is_nonzero(self):
        # f(u) = u^3 - 1: a march from the origin leaves the bound on the
        # left piece at this lambda, so a blown column cannot be parked at
        # (0, 0); it is nan, which no step undoes
        geometry = StepWeight(alpha=1.0, omega1=-0.21, omega2=0.2)
        p = Problem(weight=geometry, f=CustomPolynomial((-1.0, 0.0, 0.0, 1.0)), lam=300.0)
        with pytest.raises(BlowupError) as exc_info:
            poincare_map(p, self.CFG, PhasePoint(0.0, 0.0))
        assert exc_info.value.x < 0.0
        grid = assert_columns_match_poincare_map(p, self.CFG, np.linspace(0.0, 1.0, 101))
        assert 0 < np.count_nonzero(grid.ok) < 101
        # the 1e200 column alone blows up, at the first step, and stays nan
        # while every other column still lies in the bound, where the
        # origin's march would leave it
        rs = np.append(grid.rs[grid.ok], 1e200)
        sweep = assert_columns_match_poincare_map(p, self.CFG, rs)
        assert sweep.ok.tolist() == [True] * (len(rs) - 1) + [False]


class TestMarkBlown:
    """The batched march's bound test, called directly on one step's (2, N)
    state, rows u and v, with a (2, N) scratch buffer."""

    def test_columns_in_bound_or_nan_come_back_unchanged(self):
        z = np.array([[0.5, -BLOWUP_BOUND, np.nan, 0.0],
                      [BLOWUP_BOUND, -3.0, np.nan, -0.0]])
        before = z.tobytes()
        assert _mark_blown(z, np.empty_like(z)) is None
        assert z.tobytes() == before

    @pytest.mark.parametrize("out", [2e3, math.inf, -math.inf])
    @pytest.mark.parametrize("coordinate", [0, 1])
    def test_a_column_out_of_bound_turns_nan_in_u_and_v(self, out, coordinate):
        z = np.array([[0.5, 0.25, np.nan], [-0.5, 0.75, np.nan]])
        z[coordinate, 1] = out
        assert _mark_blown(z, np.empty_like(z)) is None
        assert z[:, 0].tolist() == [0.5, -0.5]
        assert np.isnan(z[:, 1:]).all()

    def test_a_stage_buffer_keeps_its_slope_row(self):
        # the state is rows 0:2 of a (3, N) stage buffer; row 2, c f(u),
        # is not the bound's to test or mark
        buffer = np.array([[0.5, 2e3], [0.25, 0.75], [5e3, 6e3]])
        _mark_blown(buffer[0:2], np.empty((2, 2)))
        assert buffer[0:2, 0].tolist() == [0.5, 0.25] and np.isnan(buffer[0:2, 1]).all()
        assert buffer[2].tolist() == [5e3, 6e3]


class TestStackedMarch:
    """The batched march swaps its state's buffer with stage 2's every step
    and carries the state across x = 0 in whichever buffer holds it: every
    column must keep `poincare_map`'s bits whatever the parity of either
    side's steps, the batch's width or the step where a column blows up."""

    @staticmethod
    def configs(p):
        # prop-1 takes 52/49 steps at H, 103/98 at H/2, 54/52 at 0.0039
        # and 57/55 at 0.0037: each pair of parities once
        H = coarsest_step(p)
        cfgs = [IntegratorConfig(t) for t in (H, H / 2, 0.0039, 0.0037)]
        parities = {(n1 % 2, n2 % 2) for n1, _, n2, _ in (step_plan(p, c) for c in cfgs)}
        assert parities == {(0, 0), (0, 1), (1, 0), (1, 1)}
        return cfgs

    def test_every_step_parity_keeps_the_bits(self, prop1):
        # 5.0 and -0.5 blow up on the left piece, 2.0 on the right one
        p = prop1.problem
        rs = np.concatenate([np.linspace(0.0, 1.0, 41), [5.0, -0.5, 2.0]])
        for cfg in self.configs(p):
            sweep = assert_columns_match_poincare_map(p, cfg, rs)
            assert np.count_nonzero(~sweep.ok) == 3

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_narrow_batches_keep_the_bits(self, prop1, prop2, width):
        cfgs = self.configs(prop1.problem)
        for p in (prop1.problem, prop2.problem):
            for cfg in cfgs:
                sweep = assert_columns_match_poincare_map(p, cfg, np.array([0.4, 0.75][:width]))
                assert sweep.u_end.shape == sweep.v_end.shape == (width,)

    @pytest.mark.parametrize("k", [1.0, 2.0])
    def test_blow_ups_at_the_last_step_of_either_side(self, prop1, k):
        # 2.03125 leaves the bound at the left side's last step, x = 0, and
        # 1.85546875 at the march's last, x = omega2, at H and at H/2
        p = prop1.problem
        cfg = IntegratorConfig(coarsest_step(p) / k)
        for r, x in ((2.03125, 0.0), (1.85546875, p.weight.omega2)):
            with pytest.raises(BlowupError) as exc_info:
                poincare_map(p, cfg, PhasePoint(r, 0.0))
            assert exc_info.value.x == x
        rs = np.array([0.4, 2.03125, 1.85546875, 0.75])
        sweep = assert_columns_match_poincare_map(p, cfg, rs)
        assert sweep.ok.tolist() == [True, False, False, True]

    def test_terminals_own_their_data(self, prop1):
        sweep = sweep_terminals(prop1.problem, IntegratorConfig(1e-3), np.linspace(0.0, 1.0, 11))
        for end in (sweep.u_end, sweep.v_end):
            assert end.flags.owndata and end.flags.c_contiguous and end.base is None
        assert not np.shares_memory(sweep.u_end, sweep.v_end)


class TestOperandTypes:
    def test_float_start_gives_floats(self, prop1, prop2, default_cfg):
        for inst in (prop1, prop2):
            z = poincare_map(inst.problem, default_cfg, PhasePoint(0.4, 0.0))
            assert type(z.u) is float and type(z.v) is float

    @pytest.mark.parametrize("width", [0, 11])
    def test_sweep_gives_float64_columns(self, prop1, prop2, width):
        # an empty batch too: the bound's reduction has an initial value
        cfg = IntegratorConfig(target_step=1e-3)
        for inst in (prop1, prop2):
            sweep = sweep_terminals(inst.problem, cfg, np.linspace(0.0, 1.0, width))
            assert sweep.u_end.dtype == np.float64 and sweep.v_end.dtype == np.float64
            assert sweep.u_end.shape == sweep.v_end.shape == (width,)

    def test_a_single_height_is_a_batch_of_one(self, prop1):
        # a 0-d height is taken as 1-D, so `_mark_blown` can write into it;
        # the one column keeps poincare_map's bits
        cfg = IntegratorConfig(target_step=1e-3)
        z = poincare_map(prop1.problem, cfg, PhasePoint(0.5, 0.0))
        assert (z.u, z.v) == (0.6210374743613163, -0.012869384938248234)
        for r in (0.5, np.float64(0.5), np.array(0.5)):
            sweep = sweep_terminals(prop1.problem, cfg, r)
            assert sweep.rs.shape == sweep.u_end.shape == sweep.v_end.shape == (1,)
            assert (sweep.u_end[0], sweep.v_end[0]) == (z.u, z.v)


class TestScalarMarchesCallValue:
    """A scalar march evaluates f only through its class's `value`, four
    times per RK4 step: the count a wrapper of that method reads."""

    def test_four_float_calls_per_step(self, prop2, default_cfg, monkeypatch):
        calls = []
        value = ArctanDamped.value

        def counted(self, s):
            calls.append(type(s))
            return value(self, s)

        monkeypatch.setattr(ArctanDamped, "value", counted)
        p = prop2.problem
        n1, _, n2, _ = step_plan(p, default_cfg)
        poincare_map(p, default_cfg, PhasePoint(0.4, 0.0))
        assert calls == [float] * (4 * (n1 + n2))
        calls.clear()
        integrate(p, default_cfg, PhasePoint(0.4, 0.0))
        assert calls == [float] * (4 * (n1 + n2))


class TestBatchAgreement:
    def test_terminals_match_scalar_path(self, prop1, prop2, default_cfg):
        # both paths run the same RK4 kernel, so they can differ only inside
        # f.value: exact on prop-1, whose f is basic arithmetic done in the
        # same order on floats and arrays; ArctanDamped.value (prop-2) calls
        # math.exp/math.atan on a float and np.exp/np.arctan on an array,
        # which agree at these nodes but not at every node. The bracketing
        # pre-pass takes bracket endpoint slopes from poincare_map, so where
        # the paths differ at an endpoint its v_lo/v_hi differ in the last
        # bit from build_gamma's
        for inst in (prop1, prop2):
            rs = np.linspace(0.02, 0.95, 17)
            sweep = sweep_terminals(inst.problem, default_cfg, rs)
            for i, r in enumerate(rs):
                z = poincare_map(inst.problem, default_cfg, PhasePoint(float(r), 0.0))
                assert z.u == sweep.u_end[i]
                assert z.v == sweep.v_end[i]

    def test_float64_start_matches_float_start(self, prop1, prop2, default_cfg):
        # a np.float64 state is not an ndarray, so it takes the float path:
        # Python-float step constants and the kernel's own bound test, whose
        # np.bool_ results its `and` and `not` take as a bool's
        for inst in (prop1, prop2):
            for r in (0.1, 0.4, 0.75):
                z = poincare_map(inst.problem, default_cfg, PhasePoint(r, 0.0))
                z64 = poincare_map(inst.problem, default_cfg, PhasePoint(np.float64(r), 0.0))
                assert type(z64.u) is np.float64
                assert z64.u == z.u
                assert z64.v == z.v

    def test_columns_do_not_depend_on_the_batch(self, prop2):
        # a column does not depend on which other heights share its batch,
        # so a sweep over some heights gives each the full sweep's value
        cfg = IntegratorConfig(target_step=1e-3)
        rs = np.linspace(0.0, 1.0, 2001)
        full = sweep_terminals(prop2.problem, cfg, rs)
        rng = np.random.default_rng(3)
        for width in (1, 3, 8, 9, 17):
            idx = np.sort(rng.choice(len(rs), size=width, replace=False))
            part = sweep_terminals(prop2.problem, cfg, rs[idx])
            assert np.array_equal(part.u_end, full.u_end[idx])
            assert np.array_equal(part.v_end, full.v_end[idx])


class TestKernelInputs:
    """The RK4 kernel updates its step temporaries in place; the caller's
    state must come back untouched and the values must keep their bits."""

    def test_sweep_leaves_the_heights_unchanged(self, prop1):
        # remark-full-dominance at lambda 300 blows up 80 of these 201 columns,
        # so `_mark_blown`, which marks them nan in place, writes as well
        full_dominance = dataclasses.replace(remark_instances()[1].problem, lam=300.0)
        cfg = IntegratorConfig(target_step=1e-3)
        for p in (prop1.problem, full_dominance):
            rs = np.linspace(0.0, 1.0, 201)
            rs.flags.writeable = False  # any write into rs raises
            sweep = sweep_terminals(p, cfg, rs)
            assert np.array_equal(rs, np.linspace(0.0, 1.0, 201))
            assert np.array_equal(sweep.rs, rs)
        assert not sweep.ok.all()

    # terminal (u, v) and the SHA-256 of integrate's samples (us then vs,
    # little-endian float64) on prop-2 at the default step, as computed when
    # every RK4 operation allocated its own temporary
    PROP2_FLOATS = {
        0.1: (1.5189158868011234, 2.1597305976258565,
              "5bb0572f6980a0f69af55bf053cf4f9f96b7fe3f1ef0c2f1712f50a73a2a1a30"),
        0.4: (0.776201345254867, -0.020979172529845578,
              "3528fb71fae69d662227c47e0ab31f7e6614e0c0a39041de112940eceb9c690f"),
        0.75: (1.4611733387758061, 1.4794446761517692,
               "f622f26585cfa8d02754113627b3d13036fa0be5917237abedbca447a4572f60"),
    }

    @pytest.mark.parametrize("r", sorted(PROP2_FLOATS))
    def test_float_state_keeps_its_bits(self, prop2, default_cfg, r):
        u, v, digest = self.PROP2_FLOATS[r]
        assert poincare_map(prop2.problem, default_cfg, PhasePoint(r, 0.0)) == PhasePoint(u, v)
        traj = integrate(prop2.problem, default_cfg, PhasePoint(r, 0.0))
        samples = np.concatenate([traj.us, traj.vs]).astype("<f8").tobytes()
        assert hashlib.sha256(samples).hexdigest() == digest


class TestEnergy:
    def test_side_selection(self, prop2):
        # alpha = 2.4 tells the left side's weight apart from a plain -1
        p = prop2.problem
        traj = integrate(p, IntegratorConfig(target_step=1e-2), PhasePoint(0.3, 0.0))
        left, right = energy_profile(p, traj)
        split = traj.split_index
        F = np.array([p.f.antiderivative(float(u)) for u in traj.us])
        kinetic = 0.5 * traj.vs * traj.vs
        np.testing.assert_allclose(left, kinetic[: split + 1] - p.lam * 2.4 * F[: split + 1],
                                   rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(right, kinetic[split:] + p.lam * F[split:],
                                   rtol=1e-14, atol=1e-16)

    def test_drift_below_budget_on_benchmarks(self, prop1, prop2, default_cfg):
        rng = np.random.default_rng(20210817)
        for inst in (prop1, prop2):
            heights = np.concatenate([[0.1, 0.4, 0.65, 0.75],
                                      rng.uniform(0.02, 0.95, size=20)])
            for r in heights:
                traj = integrate(inst.problem, default_cfg, PhasePoint(float(r), 0.0))
                left, right = energy_profile(inst.problem, traj)
                for side in (left, right):
                    scale = max(1.0, float(np.max(np.abs(side))))
                    assert float(np.ptp(side)) / scale < 1e-10

    def test_profile_shapes(self, prop1, default_cfg):
        traj = integrate(prop1.problem, default_cfg, PhasePoint(0.4, 0.0))
        left, right = energy_profile(prop1.problem, traj)
        assert len(left) == traj.split_index + 1
        assert len(left) + len(right) == len(traj.xs) + 1


class TestConvergenceOrder:
    def test_richardson_ratio(self, prop1, prop2):
        # classical fourth order: halving the step cuts the terminal
        # difference by about 16
        for inst, r in ((prop1, 0.4), (prop2, 0.3)):
            zs = [poincare_map(inst.problem, IntegratorConfig(target_step=2e-3 / 2**i),
                               PhasePoint(r, 0.0)) for i in range(3)]
            d1 = max(abs(zs[0].u - zs[1].u), abs(zs[0].v - zs[1].v))
            d2 = max(abs(zs[1].u - zs[2].u), abs(zs[1].v - zs[2].v))
            assert 12.0 <= d1 / d2 <= 20.0


class TestStepSplitting:
    def test_asymmetric_sides(self):
        # left side 0.3 long, right side 0.1: per-side steps divide exactly
        p = Problem(weight=StepWeight(alpha=1.0, omega1=-0.3, omega2=0.1),
                    f=HatFamily(h=3.0), lam=10.0)
        cfg = IntegratorConfig(target_step=7e-4)
        traj = integrate(p, cfg, PhasePoint(0.5, 0.0))
        n1, h1, n2, h2 = step_plan(p, cfg)
        assert (traj.split_index, len(traj.xs) - 1) == (n1, n1 + n2)
        assert n1 * h1 == pytest.approx(0.3, abs=1e-15)
        assert n2 * h2 == pytest.approx(0.1, abs=1e-15)
