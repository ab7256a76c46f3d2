import itertools
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clineshoot.integrator import IntegratorConfig
from clineshoot.problem import problem_from_dict
from clineshoot.reproduction import (
    DEFAULT_TOLERANCE,
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
        assert prop1.expected_c == (0.125, 0.479, 0.683)
        assert prop1.expected_terminal_u == (0.273, 0.601, 0.833)

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
        for expected_c in ((0.1, 0.2, 0.3), None):
            with pytest.raises(ValueError, match="one value per expected_c"):
                NamedInstance(name="bad", problem=prop1.problem, expected_c=expected_c,
                              expected_terminal_u=(0.5, 0.6))


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
        assert "  unmatched expectation: c = 0.683000\n" in report.render()

    def test_extra_root(self, prop1):
        found = fake_clines(0.125, 0.3, 0.479, 0.683,
                            us=[0.273, 0.5, 0.601, 0.833])
        report = compare(prop1, found)
        assert not report.passed
        assert report.extras == [0.3]
        assert "  extra root found: c = 0.300000\n" in report.render()

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


def greedy_match(expected, found):
    """The pairing `compare` made before: one-to-one, by smallest absolute deviation."""
    pairs = sorted((abs(e - f), i, j) for i, e in enumerate(expected)
                   for j, f in enumerate(found))
    used_e: set[int] = set()
    used_f: set[int] = set()
    out = []
    for _, i, j in pairs:
        if i in used_e or j in used_f:
            continue
        used_e.add(i)
        used_f.add(j)
        out.append((i, j))
    return sorted(out)


def greedy_passed(instance, found):
    """The verdict `compare` gave on that pairing: no miss, no extra, no deviation too far."""
    expected, found_c = list(instance.expected_c), [f.c for f in found]
    us = instance.expected_terminal_u
    pairing = greedy_match(expected, found_c)
    devs = [abs(expected[i] - found_c[j]) for i, j in pairing]
    if us is not None:
        devs += [abs(us[i] - found[j].terminal_u) for i, j in pairing]
    return (len(pairing) == len(expected) == len(found_c)
            and not any(dev > DEFAULT_TOLERANCE for dev in devs))


INSIDE = st.floats(-DEFAULT_TOLERANCE, DEFAULT_TOLERANCE)
OUTSIDE = st.builds(lambda d, sign: sign * d,
                    st.floats(DEFAULT_TOLERANCE, 0.3, exclude_min=True), st.sampled_from([-1, 1]))


@st.composite
def references_and_found(draw):
    """References more than 2 tolerances apart, and found clines near them:
    each inside or outside the tolerance or dropped, in any order, with
    extras anywhere."""
    gaps = draw(st.lists(st.floats(2 * DEFAULT_TOLERANCE + 1e-4, 0.3), max_size=4))
    cs = list(itertools.accumulate(gaps, initial=draw(st.floats(0.0, 0.3))))
    us = draw(st.none() | st.lists(st.floats(0.0, 1.0), min_size=len(cs), max_size=len(cs)))
    found = []
    for k, c in enumerate(cs):
        if draw(st.booleans()):
            continue
        u = 0.5 if us is None else us[k] + draw(INSIDE | OUTSIDE)
        found.append(SimpleNamespace(c=c + draw(INSIDE | OUTSIDE), terminal_u=u))
    found += [SimpleNamespace(c=c, terminal_u=0.5)
              for c in draw(st.lists(st.floats(0.0, 1.0), max_size=3))]
    instance = NamedInstance(name="drawn", problem=proposition_1().problem, expected_c=tuple(cs),
                             expected_terminal_u=None if us is None else tuple(us))
    return instance, draw(st.permutations(found))


@settings(max_examples=300, deadline=None)
@given(references_and_found())
def test_verdict_is_the_greedy_verdict_for_separated_references(case):
    instance, found = case
    report = compare(instance, found)
    assert report.passed == greedy_passed(instance, found)
    assert len(report.matches) + len(report.misses) == report.count_expected
    assert len(report.matches) + len(report.extras) == report.count_found


class TestEndToEnd:
    def test_first_instance_passes(self, prop1, prop1_search):
        result, _ = prop1_search
        report = compare(prop1, result.clines)
        assert report.passed and len(report.matches) == 3
        assert all(m.deviation_c < 0.005 for m in report.matches)

    def test_second_instance_matches_no_reference(self, prop2, prop2_search):
        # the computed initial heights lie far from every reference value
        result, _ = prop2_search
        report = compare(prop2, result.clines)
        assert report.matches == []
        assert report.misses == [0.436, 0.776, 0.854]
        assert report.extras == [c.c for c in result.clines]

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
        sweep = sweep_cline_counts(skewed, [45.0])
        direct = find_all_clines(skewed.problem, cfg, resolution=501)
        assert sweep[0][1] == len(direct.clines)