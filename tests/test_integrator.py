import io
import math

import numpy as np
import pytest

from clineshoot.integrator import (
    CSV_CHUNK_ROWS,
    BlowupError,
    IntegratorConfig,
    PhasePoint,
    energy_profile,
    integrate,
    poincare_map,
    step_plan,
    sweep_terminals,
)
from clineshoot.nonlinearity import HatFamily
from clineshoot.problem import Problem, StepWeight


class TestConfigAndPoints:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(target_step=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(blowup_bound=-1.0)

    def test_defaults(self):
        cfg = IntegratorConfig()
        assert cfg.target_step == 1e-4
        assert cfg.blowup_bound == 1e3

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
        assert traj.terminal.u == z.u and traj.terminal.v == z.v


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
        assert max(abs(err.u), abs(err.v)) > default_cfg.blowup_bound

    @pytest.mark.parametrize("r", [5.0, -0.5, 2.0])
    def test_batch_matches_scalar(self, prop1, default_cfg, r):
        # 5.0 and -0.5 leave the bound on the left piece, 2.0 on the right one
        p = prop1.problem
        sweep = sweep_terminals(p, default_cfg, np.array([0.4, r]))
        assert sweep.ok[0] and not sweep.ok[1]
        assert math.isnan(sweep.u_end[1]) and math.isnan(sweep.v_end[1])
        with pytest.raises(BlowupError):
            poincare_map(p, default_cfg, PhasePoint(r, 0.0))


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
        # a np.float64 state makes the bound check a np.bool_ rather than a
        # bool, so every step of its march goes through the kernel's `leave`
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


class TestCsvExport:
    def test_header_and_rows(self, prop1):
        traj = integrate(prop1.problem, IntegratorConfig(target_step=1e-2),
                         PhasePoint(0.4, 0.0))
        buf = io.StringIO()
        traj.write_csv(buf, header_lines=("alpha: 1",))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# alpha: 1"
        assert lines[1] == "x,u,v"
        assert len(lines) == 2 + len(traj.xs)
        first = lines[2].split(",")
        assert float(first[0]) == prop1.problem.weight.omega1

    def test_rows_match_per_element_format(self, prop2):
        # at the default step the trajectory has 8551 samples, not a
        # multiple of the chunk
        traj = integrate(prop2.problem, IntegratorConfig(), PhasePoint(0.4, 0.0))
        n = len(traj.xs)
        assert n > CSV_CHUNK_ROWS and n % CSV_CHUNK_ROWS
        expected = "x,u,v\n" + "".join(
            f"{traj.xs[i]:.17g},{traj.us[i]:.17g},{traj.vs[i]:.17g}\n" for i in range(n))
        buf = io.StringIO()
        traj.write_csv(buf)
        assert buf.getvalue() == expected


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
