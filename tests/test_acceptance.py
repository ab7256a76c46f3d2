"""End-to-end acceptance gate.

One test per criterion; each prints a single `CRITERION n: PASS/FAIL` line
(visible with `pytest tests/test_acceptance.py -v -s`, or in the captured
output of any failing test). Sub-checks are accumulated so the printed line
names every deviation, not just the first.

Criteria 2 and 3 compare against reference values that our computations
contradict; those tests fail by design rather than papering over the
mismatch. The companion tests in test_reproduction.py and test_integrator.py
pin down what the pipeline actually produces.
"""

import numpy as np

from clineshoot.integrator import (IntegratorConfig, PhasePoint,
                                   energy_profile, integrate, poincare_map)
from clineshoot.nonlinearity import (ArctanDamped, DegreeOfDominance,
                                     HatFamily, check_f_star)
from clineshoot.problem import validate_conjecture_hypotheses
from clineshoot.shooting import find_all_clines


def verdict(n, failures, detail):
    status = "PASS" if not failures else "FAIL"
    tail = detail if not failures else "; ".join(failures)
    print(f"\nCRITERION {n}: {status} - {tail}")
    assert not failures, f"criterion {n}: {tail}"


def matched(found, expected):
    """Sorted nearest-neighbor deviations (both lists same length)."""
    found = sorted(found)
    return [abs(f - e) for f, e in zip(found, sorted(expected))], found


def test_criterion_1_first_instance_reproduction(prop1_search):
    result, elapsed = prop1_search
    failures = []
    detail = f"found {len(result.clines)} clines"
    if len(result.clines) != 3:
        failures.append(f"expected 3 clines, found {len(result.clines)}")
    else:
        devs_c, cs = matched([c.c for c in result.clines],
                             (0.125, 0.479, 0.683))
        devs_u, us = matched([c.terminal_u for c in result.clines],
                             (0.273, 0.601, 0.833))
        for d, c in zip(devs_c, cs):
            if d > 0.005:
                failures.append(f"c = {c:.6f} off by {d:.2e}")
        for d, u in zip(devs_u, us):
            if d > 0.005:
                failures.append(f"terminal u = {u:.6f} off by {d:.2e}")
        detail = (f"3 clines, max |dc| {max(devs_c):.1e}, "
                  f"max |du| {max(devs_u):.1e}, {elapsed:.1f} s")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s >= 10 s")
    verdict(1, failures, detail)


def test_criterion_2_second_instance_reproduction(prop2_search):
    result, elapsed = prop2_search
    failures = []
    cs = sorted(c.c for c in result.clines)
    if len(result.clines) != 3:
        failures.append(f"expected 3 clines, found {len(result.clines)}")
    else:
        devs_c, cs = matched(cs, (0.436, 0.776, 0.854))
        for d, c in zip(devs_c, cs):
            if d > 0.005:
                failures.append(f"c = {c:.6f} off by {d:.2e}")
        us = sorted(c.terminal_u for c in result.clines)
        if all(abs(u - e) <= 0.005
               for u, e in zip(us, (0.436, 0.776, 0.854))):
            failures.append(
                "the three reference values match the computed terminal "
                f"abscissae {[round(u, 4) for u in us]}, not the initial "
                "heights; see test_reproduction.py for the companion check")
    if elapsed >= 20.0:
        failures.append(f"runtime {elapsed:.1f} s >= 20 s")
    verdict(2, failures, f"3 clines, c = {[round(c, 4) for c in cs]}, "
                         f"{elapsed:.1f} s")


def test_criterion_3_probe_points(prop1, prop2, default_cfg):
    failures = []
    notes = []

    def probe(problem, r):
        return poincare_map(problem, default_cfg, PhasePoint(r, 0.0))

    for r, (eu, ev) in ((0.1, (0.230, -0.066)),
                        (0.4, (0.922, 0.165)),
                        (0.75, (0.533, 0.055))):
        z = probe(prop1.problem, r)
        if abs(z.u - eu) > 0.005 or abs(z.v - ev) > 0.005:
            failures.append(f"r={r}: expected ({eu},{ev}), "
                            f"computed ({z.u:.3f},{z.v:.3f})")
    z = probe(prop1.problem, 0.65)
    if abs(abs(z.v) - 0.036) > 0.005:
        failures.append(f"r=0.65: |v| = {abs(z.v):.4f}, expected 0.036")
    notes.append(f"r=0.65 sign recorded: v = {z.v:+.4f}")
    for r, ev in ((0.01, -0.639), (0.1, 2.160), (0.9, 1.392)):
        z = probe(prop2.problem, r)
        if abs(z.v - ev) > 0.005:
            failures.append(f"second instance r={r}: v = {z.v:.3f}, "
                            f"expected {ev}")
    if failures:
        failures.append("the expected pairs for r=0.4 and r=0.75 are "
                        "swapped relative to the computed map; " + notes[0])
    verdict(3, failures, "; ".join(notes) + "; all other probes within 0.005")


def test_criterion_4_hypothesis_gates(prop1, prop2):
    failures = []
    for inst, mean in ((prop1, -0.01), (prop2, -0.012)):
        got = inst.problem.weight.mean
        if abs(got - mean) > 1e-15:
            failures.append(f"{inst.name}: mean {got!r} != {mean}")
        rep = validate_conjecture_hypotheses(inst.problem)
        checks = {
            "weight sign change": rep.weight_positive_somewhere,
            "negative mean": rep.weight_mean_negative,
            "structural hypotheses": rep.f_star.satisfies_f_star,
            "decreasing ratio": rep.ratio_strictly_decreasing,
        }
        for label, ok in checks.items():
            if not ok:
                failures.append(f"{inst.name}: {label} check failed")
    verdict(4, failures, "means exact, all four scope checks true on both")


def test_criterion_5_integrator_properties(prop1, prop2, default_cfg):
    failures = []
    rng = np.random.default_rng(20210817)
    worst_drift = 0.0
    for inst in (prop1, prop2):
        inst_drift = 0.0
        for r in rng.uniform(0.02, 0.95, size=20):
            traj = integrate(inst.problem, default_cfg, PhasePoint(r, 0.0))
            for side in energy_profile(inst.problem, traj):
                scale = max(1.0, float(np.max(np.abs(side))))
                drift = float(np.max(np.abs(side - side[0]))) / scale
                inst_drift = max(inst_drift, drift)
        worst_drift = max(worst_drift, inst_drift)
        if inst_drift >= 1e-10:
            failures.append(f"{inst.name}: energy drift {inst_drift:.2e}")

    ratios = []
    for inst, r in ((prop1, 0.4), (prop2, 0.3)):
        zs = [poincare_map(inst.problem, IntegratorConfig(target_step=h),
                           PhasePoint(r, 0.0))
              for h in (2e-3, 1e-3, 5e-4)]
        num = max(abs(zs[0].u - zs[1].u), abs(zs[0].v - zs[1].v))
        den = max(abs(zs[1].u - zs[2].u), abs(zs[1].v - zs[2].v))
        ratio = num / den
        ratios.append(ratio)
        if not 12.0 <= ratio <= 20.0:
            failures.append(f"{inst.name}: Richardson ratio {ratio:.2f}")

    worst_fix = 0.0
    for inst in (prop1, prop2):
        for level in (0.0, 1.0):
            z = poincare_map(inst.problem, default_cfg,
                             PhasePoint(level, 0.0))
            err = max(abs(z.u - level), abs(z.v))
            worst_fix = max(worst_fix, err)
            if err >= 1e-12:
                failures.append(f"{inst.name}: equilibrium {level} moved "
                                f"by {err:.2e}")
    verdict(5, failures,
            f"drift <= {worst_drift:.1e}, Richardson ratios "
            f"{[round(x, 2) for x in ratios]}, equilibria fixed to "
            f"{worst_fix:.1e}")


def test_criterion_6_solution_certificates(prop1_search, prop2_search):
    failures = []
    checked = 0
    for result, _ in (prop1_search, prop2_search):
        for cline in result.clines:
            checked += 1
            if abs(cline.terminal_v_residual) >= 1e-10:
                failures.append(f"c={cline.c:.4f}: residual "
                                f"{abs(cline.terminal_v_residual):.2e}")
            us = cline.trajectory.us
            if not (np.all(us > 0.0) and np.all(us < 1.0)):
                failures.append(f"c={cline.c:.4f}: profile leaves (0,1)")
            if abs(cline.necessary_integral) >= 1e-6:
                failures.append(f"c={cline.c:.4f}: weighted integral "
                                f"{abs(cline.necessary_integral):.2e}")
    verdict(6, failures, f"{checked} clines certified: residual < 1e-10, "
                         "0 < u < 1 at every sample, integral < 1e-6")


def test_criterion_7_stability_of_conclusions(prop1, prop2, default_cfg,
                                              prop1_search, prop2_search):
    failures = []
    fine_cfg = IntegratorConfig(target_step=default_cfg.target_step / 2)
    worst = 0.0
    for inst, (base, _) in ((prop1, prop1_search), (prop2, prop2_search)):
        fine = find_all_clines(inst.problem, fine_cfg, resolution=4001)
        if len(fine.clines) != len(base.clines):
            failures.append(f"{inst.name}: count changed "
                            f"{len(base.clines)} -> {len(fine.clines)}")
            continue
        for a, b in zip(sorted(c.c for c in base.clines),
                        sorted(c.c for c in fine.clines)):
            worst = max(worst, abs(a - b))
            if abs(a - b) >= 1e-8:
                failures.append(f"{inst.name}: c moved {abs(a - b):.2e}")
    verdict(7, failures, f"counts unchanged at doubled resolution and "
                         f"halved step; max c shift {worst:.1e}")


def test_criterion_8_nonlinearity_checker():
    failures = []
    cases = (
        ("f_0", DegreeOfDominance(0.0), True, True),
        ("f_-1", DegreeOfDominance(-1.0), False, False),
        ("hat_3", HatFamily(3.0), False, True),
        ("arctan_10", ArctanDamped(10.0), False, True),
    )
    for name, f, concave, ratio in cases:
        rep = check_f_star(f)
        if rep.is_concave != concave:
            failures.append(f"{name}: concave = {rep.is_concave}, "
                            f"expected {concave}")
        if rep.ratio_strictly_decreasing != ratio:
            failures.append(f"{name}: decreasing ratio = "
                            f"{rep.ratio_strictly_decreasing}, expected {ratio}")
    verdict(8, failures, "all four concavity/ratio verdict pairs as expected")
