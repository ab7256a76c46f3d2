import json
from types import SimpleNamespace

import pytest

from clineshoot.integrator import IntegratorConfig
from clineshoot.problem import problem_from_dict
from clineshoot.reproduction import (
    NamedInstance,
    compare,
    proposition_1,
    proposition_2,
    remark_instances,
    sweep_cline_counts,
)
from clineshoot.shooting import find_all_clines


def fake_clines(*cs, us=None):
    us = us or [0.5] * len(cs)
    return [SimpleNamespace(c=c, terminal_u=u) for c, u in zip(cs, us)]


class TestNamedInstances:
    def test_first_instance_parameters(self, prop1):
        p = prop1.problem
        assert (p.weight.alpha, p.weight.omega1, p.weight.omega2) == (1.0, -0.21, 0.2)
        assert p.f.to_dict() == {"kind": "hat", "h": 3.0}
        assert p.lam == 45.0
        assert prop1.expected_cline_count == 3
        assert prop1.expected_c == (0.125, 0.479, 0.683)
        assert prop1.expected_terminal_u == (0.273, 0.601, 0.833)
        assert prop1.tolerance == 0.005

    def test_second_instance_parameters(self, prop2):
        p = prop2.problem
        assert (p.weight.alpha, p.weight.omega1, p.weight.omega2) == (2.4, -0.255, 0.6)
        assert p.f.to_dict() == {"kind": "arctan_damped", "m": 10.0}
        assert p.lam == 3.0
        assert prop2.expected_c == (0.436, 0.776, 0.854)
        assert prop2.expected_terminal_u is None

    def test_weight_means(self, prop1, prop2):
        assert prop1.problem.weight.mean == pytest.approx(-0.01, abs=1e-15)
        assert prop2.problem.weight.mean == pytest.approx(-0.012, abs=1e-15)

    def test_json_round_trip(self, prop1, prop2):
        # reproduce hashes to_json, so it must carry the whole instance
        for inst in (prop1, prop2, *remark_instances()):
            d = json.loads(inst.to_json())
            assert d == inst.to_dict()
            assert problem_from_dict(d["problem"]) == inst.problem

    def test_list_length_validated(self, prop1):
        with pytest.raises(ValueError):
            NamedInstance(name="bad", problem=prop1.problem,
                          expected_cline_count=2, expected_c=(0.1, 0.2, 0.3),
                          expected_terminal_u=None, tolerance=0.005)

    def test_count_mode_validated(self, prop1):
        with pytest.raises(ValueError):
            NamedInstance(name="bad", problem=prop1.problem,
                          expected_cline_count=None, expected_c=None,
                          expected_terminal_u=None, tolerance=0.005,
                          count_mode="sometimes")

    def test_tolerance_validated(self, prop1):
        with pytest.raises(ValueError):
            NamedInstance(name="bad", problem=prop1.problem,
                          expected_cline_count=None, expected_c=None,
                          expected_terminal_u=None, tolerance=0.0)


class TestCompare:
    def test_perfect_match(self, prop1):
        found = fake_clines(0.125, 0.479, 0.683, us=[0.273, 0.601, 0.833])
        report = compare(prop1, found)
        assert report.passed
        assert all(m.deviation_c == 0.0 for m in report.matches)
        assert report.misses == [] and report.extras == []

    def test_shift_inside_tolerance(self, prop1):
        found = fake_clines(0.129, 0.483, 0.687, us=[0.277, 0.605, 0.837])
        report = compare(prop1, found)
        assert report.passed
        assert all(m.deviation_c == pytest.approx(0.004, abs=1e-12)
                   for m in report.matches)

    def test_shift_outside_tolerance(self, prop1):
        found = fake_clines(0.131, 0.485, 0.689, us=[0.273, 0.601, 0.833])
        assert not compare(prop1, found).passed

    def test_terminal_u_deviation_fails(self, prop1):
        found = fake_clines(0.125, 0.479, 0.683, us=[0.273, 0.601, 0.9])
        assert not compare(prop1, found).passed

    def test_missing_root(self, prop1):
        report = compare(prop1, fake_clines(0.125, 0.479, us=[0.273, 0.601]))
        assert not report.passed
        assert report.misses == [0.683]
        assert report.count_found == 2

    def test_extra_root(self, prop1):
        found = fake_clines(0.125, 0.3, 0.479, 0.683,
                            us=[0.273, 0.5, 0.601, 0.833])
        report = compare(prop1, found)
        assert not report.passed
        assert report.extras == [0.3]

    def test_count_accounting(self, prop1):
        found = fake_clines(0.125, 0.3, us=[0.273, 0.5])
        report = compare(prop1, found)
        matches = len(report.matches)
        assert report.count_found - matches == len(report.extras)
        assert report.count_expected - matches == len(report.misses)

    def test_rejects_non_exact_instances(self):
        _, sweep_instance = remark_instances()
        with pytest.raises(ValueError):
            compare(sweep_instance, [])

    def test_render_mentions_verdict(self, prop1):
        text = compare(prop1, fake_clines(0.125, 0.479, 0.683,
                                          us=[0.273, 0.601, 0.833])).render()
        assert "PASS" in text and "proposition-1" in text


class TestEndToEnd:
    def test_first_instance_passes(self, prop1, prop1_search):
        result, _ = prop1_search
        report = compare(prop1, result.clines)
        assert report.passed
        assert all(m.deviation_c < 0.005 for m in report.matches)

    def test_second_instance_reference_values_are_terminal_abscissae(
            self, prop2, prop2_search):
        # the reference values do not match the initial heights (the
        # comparator reports that honestly) but match the terminal abscissae
        # of the same three steady states to three digits
        result, _ = prop2_search
        report = compare(prop2, result.clines)
        assert not report.passed
        terminal = sorted(c.terminal_u for c in result.clines)
        for found_u, ref in zip(terminal, prop2.expected_c):
            assert found_u == pytest.approx(ref, abs=0.005)
        # and the initial heights sit inside the published bracket windows
        cs = sorted(c.c for c in result.clines)
        for c, (lo, hi) in zip(cs, [(0.01, 0.1), (0.1, 0.45), (0.45, 0.9)]):
            assert lo < c < hi


class TestRemarkScenarios:
    def test_concave_scenario_unique_at_two_resolutions(self, default_cfg):
        concave, _ = remark_instances()
        counts = {res: len(find_all_clines(concave.problem, default_cfg, resolution=res).clines)
                  for res in (2001, 4001)}
        assert counts[2001] == counts[4001]
        assert counts[2001] <= 1

    def test_concave_scenario_metadata(self):
        concave, skewed = remark_instances()
        assert concave.count_mode == "at_most"
        assert concave.expected_cline_count == 1
        assert skewed.count_mode == "sweep"
        from clineshoot.nonlinearity import check_f_star
        assert check_f_star(concave.problem.f).is_concave is True
        assert check_f_star(skewed.problem.f).is_concave is False

    def test_sweep_reports_counts(self):
        _, skewed = remark_instances()
        sweep = sweep_cline_counts(skewed, [15.0, 45.0])
        assert [lam for lam, _ in sweep] == [15.0, 45.0]
        assert all(isinstance(n, int) and n >= 0 for _, n in sweep)

    def test_sweep_consistent_with_direct_run(self):
        _, skewed = remark_instances()
        cfg = IntegratorConfig(target_step=1e-3)
        sweep = sweep_cline_counts(skewed, [45.0], cfg=cfg, resolution=501)
        direct = find_all_clines(skewed.problem, cfg, resolution=501)
        assert sweep[0][1] == len(direct.clines)